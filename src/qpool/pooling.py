"""Rules for pooling independent observers' states of knowledge."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from math import factorial

import numpy as np

from . import linalg
from .errors import (
    DimMismatchError,
    IncompatibleStatesError,
    LengthMismatchError,
    QpoolError,
    TooFewStatesError,
    TooManyStatesError,
)

# Symmetric multi-observer pooling sums n! nested terms; 6! = 720 is the
# largest count we are willing to evaluate.
MAX_SYMMETRIC_STATES = 6

NORM_MODES = ("trace", "paper")


@dataclass(frozen=True)
class PoolReport:
    """Pooled state plus the normalization bookkeeping behind it.

    Attributes
    ----------
    pooled : np.ndarray
        The pooled density matrix, normalized to unit trace unless the
        caller chose the closed-form normalizer.
    compatibility : float
        Probability in [0, 1] that the observers' findings coexist: the
        trace of the nested numerator (averaged over orderings where the
        rule sums them).
    paper_norm : float
        The closed-form denominator n! Re Tr[rho_1 ... rho_n] (just
        Tr[rho_A rho_B] for the ordered two-observer rule).
    trace_norm : float
        The numerator's own trace, which always renormalizes exactly.
    norm_discrepancy : float
        |trace_norm - paper_norm|.  Zero in exact arithmetic for n = 2 and
        for commuting collections; nonzero in general for n >= 3.
    paper_norm_imag : float
        Magnitude of the imaginary part discarded from the closed-form
        denominator.  Rounding-level for valid inputs.
    """

    pooled: np.ndarray
    compatibility: float
    paper_norm: float
    trace_norm: float
    norm_discrepancy: float
    paper_norm_imag: float = 0.0


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _check_same_dims(states) -> list[np.ndarray]:
    arrs = [linalg.as_complex_matrix(s) for s in states]
    dim = arrs[0].shape[0]
    for i, a in enumerate(arrs):
        if a.shape[0] != dim:
            raise DimMismatchError(f"state {i} has dim {a.shape[0]}, expected {dim}")
    return arrs


def classical_pool(pa, pb) -> np.ndarray:
    """Pool two independent classical distributions: renormalized product."""
    a = np.asarray(pa, dtype=float)
    b = np.asarray(pb, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise QpoolError("probability vectors must be one-dimensional")
    if a.shape != b.shape:
        raise LengthMismatchError(f"lengths differ: {a.shape[0]} vs {b.shape[0]}")
    if not all(np.isfinite(v).all() and v.min() >= -linalg.ZERO_TOL for v in (a, b)):
        raise QpoolError("probability vectors must be finite and nonnegative")
    prod = np.clip(a, 0.0, None) * np.clip(b, 0.0, None)
    overlap = float(prod.sum())
    if not overlap > linalg.ZERO_TOL:
        raise IncompatibleStatesError(
            f"distributions share no support: sum of products {overlap:.3e}"
        )
    return prod / overlap


def _trace_of_product(arrs) -> complex:
    """Tr[rho_1 ... rho_n], with the last factor taken as sum_ij P_ij B_ji."""
    prod = arrs[0]
    for a in arrs[1:-1]:
        prod = prod @ a
    return complex((prod * arrs[-1].T).sum())


def pool_ordered(first, second) -> PoolReport:
    """Pool two states where `second` belongs to the later measurer.

    The n = 2 case of pool_ordered_multi: sqrt(rho_B) rho_A sqrt(rho_B)
    normalized by its own trace, which equals Tr[rho_A rho_B] up to
    rounding.  Order matters only through which state is outermost.
    """
    return pool_ordered_multi((first, second))


def pool_symmetric(first, second) -> PoolReport:
    """Pool two states without an ordering: average of both nestings.

    The n = 2 case of pool_symmetric_multi: (sqrt(A) B sqrt(A) +
    sqrt(B) A sqrt(B)) normalized by its own trace.  Float addition
    commutes, so swapping the arguments gives a bitwise identical result.
    """
    return pool_symmetric_multi((first, second))


def pool_ordered_multi(states) -> PoolReport:
    """Pool n >= 2 states in measurement order (last state outermost).

    Nests conjugations: sqrt(rho_n) ... sqrt(rho_2) rho_1 sqrt(rho_2) ...
    sqrt(rho_n), normalized by its own trace.  Equals repeated two-observer
    ordered pooling.
    """
    if len(states) < 2:
        raise TooFewStatesError(f"need at least two states, got {len(states)}")
    arrs = _check_same_dims(states)
    # The innermost state is the only one hermitian_sqrt does not gate.
    linalg.check_finite(arrs[0], "state 0")
    num = arrs[0]
    for s in arrs[1:]:
        r = linalg.hermitian_sqrt(s)
        num = r @ num @ r
    num = linalg.hermitianize(num)
    t = float(np.trace(num).real)
    if not t > linalg.ZERO_TOL:
        raise IncompatibleStatesError(f"nested trace {t:.3e} is numerically zero")
    ptr = _trace_of_product(arrs)
    return PoolReport(
        pooled=num / t,
        compatibility=_clamp01(t),
        paper_norm=ptr.real,
        trace_norm=t,
        norm_discrepancy=abs(t - ptr.real),
        paper_norm_imag=abs(ptr.imag),
    )


def pool_symmetric_multi(states, norm_mode: str = "trace") -> PoolReport:
    """Pool n >= 2 unordered states: sum of nestings over all n! orderings.

    Parameters
    ----------
    states : sequence of density matrices, equal dims, 2 <= n <= 6.
    norm_mode : "trace" normalizes the permutation sum by its own trace;
        "paper" divides by the closed form n! Re Tr[rho_1 ... rho_n]
        instead.  The two denominators agree for n = 2 and for commuting
        states but differ in general, so the report always carries both.
    """
    n = len(states)
    if n < 2:
        raise TooFewStatesError(f"need at least two states, got {n}")
    if n > MAX_SYMMETRIC_STATES:
        raise TooManyStatesError(
            f"symmetric pooling is capped at {MAX_SYMMETRIC_STATES} states, got {n}"
        )
    if norm_mode not in NORM_MODES:
        raise QpoolError(f"norm_mode must be one of {NORM_MODES}, got {norm_mode!r}")
    arrs = _check_same_dims(states)
    sqrts = [linalg.hermitian_sqrt(a) for a in arrs]
    # itertools.permutations enumerates in a fixed order, so the float
    # accumulation below is deterministic.
    num = np.zeros_like(arrs[0])
    for perm in permutations(range(n)):
        term = arrs[perm[0]]
        for i in perm[1:]:
            term = sqrts[i] @ term @ sqrts[i]
        num = num + term
    num = linalg.hermitianize(num)
    t = float(np.trace(num).real)
    if not t > linalg.ZERO_TOL:
        raise IncompatibleStatesError(f"permutation-sum trace {t:.3e} is numerically zero")
    ptr = _trace_of_product(arrs) * factorial(n)
    paper = ptr.real
    if norm_mode == "paper":
        if not paper > linalg.ZERO_TOL:
            raise IncompatibleStatesError(
                f"closed-form denominator {paper:.3e} is numerically zero"
            )
        pooled = num / paper
    else:
        pooled = num / t
    return PoolReport(
        pooled=pooled,
        compatibility=_clamp01(t / factorial(n)),
        paper_norm=paper,
        trace_norm=t,
        norm_discrepancy=abs(t - paper),
        paper_norm_imag=abs(ptr.imag),
    )


def compatibility(a, b) -> float:
    """Overlap Tr[rho_A rho_B]: the probability the two findings coexist.

    Equals (1/2)(1 + a . b) for qubits with Bloch vectors a and b, and
    reaches 1 only for identical pure states.
    """
    return linalg.trace_product(a, b)
