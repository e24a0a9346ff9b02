"""Reference results and output checks that never call qpool.pooling.

Ordered results are checked against the harness oracle (chained bare updates
from I/N).  Symmetric results are checked against the mean of the chain
orders (two observers) or against the numpy-only permutation sum below.
"""

from __future__ import annotations

import json
import traceback
from itertools import permutations

import numpy as np

from qpool import harness, measurement
from qpool.errors import ZeroProbabilityError

# The acceptance gate's bounds: 1e-10 in Frobenius norm for states (tests
# 01, 02, 06 and the verify default) and 1e-9 per component for the qubit
# closed form against the dense route (test 03).
STATE_TOL = 1e-10
BLOCH_TOL = 1e-9

MAX_REDRAWS = 32


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + np.swapaxes(m, -1, -2).conj()) / 2.0


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix, or of a stack of them."""
    w, v = np.linalg.eigh(_herm(m))
    root = np.sqrt(np.clip(w, 0.0, None))
    return (v * root[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def symmetric_sum(states) -> np.ndarray:
    """Sum of the nested conjugations over all n! orderings, trace-normalized.

    All orderings are evaluated at once as a stack, so the arithmetic and its
    order differ from the package's loop.
    """
    arrs = np.stack([np.asarray(s, dtype=complex) for s in states])
    roots = psd_sqrt(arrs)
    perms = np.array(list(permutations(range(len(arrs)))))
    term = arrs[perms[:, 0]]
    for k in range(1, len(arrs)):
        r = roots[perms[:, k]]
        term = r @ term @ r
    num = _herm(term.sum(axis=0))
    return num / np.trace(num).real


def bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Re Tr[rho sigma_i]) of a 2x2 density matrix."""
    return np.array([2.0 * rho[1, 0].real, 2.0 * rho[1, 0].imag, (rho[0, 0] - rho[1, 1]).real])


def draw_scenario(dim: int, observers: int, rng: np.random.Generator):
    """Random POVMs run along one chain; returns the scenario and each observer's posterior.

    A chain that hits a numerically impossible outcome is redrawn, as the
    harness sweeps do.
    """
    for _ in range(MAX_REDRAWS):
        povms = tuple(harness.random_povm(dim, int(rng.integers(2, 5)), rng) for _ in range(observers))
        try:
            scen = harness.run_scenario(harness.Scenario(dim=dim, povms=povms, seed=0), rng=rng)
        except ZeroProbabilityError:
            continue
        posts = [measurement.posterior_from_outcome(p.elements[k]) for p, k in zip(povms, scen.sampled_outcomes)]
        return scen, posts
    raise RuntimeError(f"no usable chain in {MAX_REDRAWS} draws at dim {dim}")


def reversed_chain(scen: harness.Scenario) -> harness.Scenario:
    """The same outcomes recorded in the opposite measurement order."""
    return harness.Scenario(
        dim=scen.dim,
        povms=scen.povms[::-1],
        seed=scen.seed,
        sampled_outcomes=scen.sampled_outcomes[::-1],
    )


def state_ok(got, ref: np.ndarray, tol: float = STATE_TOL) -> bool:
    got = np.asarray(got)
    return got.shape == ref.shape and bool(np.isfinite(got).all()) and float(np.linalg.norm(got - ref)) <= tol


def bloch_ok(got, ref: np.ndarray, tol: float = BLOCH_TOL) -> bool:
    got = np.asarray(got)
    return got.shape == ref.shape and bool(np.isfinite(got).all()) and float(np.abs(got - ref).max()) <= tol


def read_matrix_file(path) -> np.ndarray:
    """Parse a {"dim", "matrix": [[[re, im], ...]]} file without the package's reader."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    m = np.array(obj["matrix"], dtype=float)
    return m[..., 0] + 1j * m[..., 1]


class Tally:
    """Ops attempted and failed; keeps the first failure's description."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and self.first_failure is None:
            self.first_failure = what

    def record_result(self, result, check, what: str) -> None:
        """Count one op: an exception or a result that fails `check` is a failure."""
        if isinstance(result, Exception):
            self.record(1, 1, f"{what}: {''.join(traceback.format_exception(result)).strip()}")
        else:
            self.record(1, 0 if check(result) else 1, what)

    @property
    def fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
