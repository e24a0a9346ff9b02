"""POVMs, measurement update rules, and outcome sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import QpoolError, ZeroProbabilityError

COMPLETENESS_TOL = 1e-9
UNITARY_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: effects summing to the identity."""

    dim: int
    elements: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class EfficientKraus:
    """Measurement operator U sqrt(E): a bare effect plus optional extra unitary.

    With unitary None the update is purely information-driven (the minimal
    disturbance consistent with learning the outcome).
    """

    effect: np.ndarray
    unitary: np.ndarray | None = None


def validate_povm(elements, tol: float = COMPLETENESS_TOL) -> Povm:
    """Check effects are Hermitian PSD with sum I within tol; return a Povm.

    Element-level Hermiticity and positivity are held to the standard
    operator tolerance (1e-10); tol governs only the completeness sum.
    """
    if len(elements) == 0:
        raise QpoolError("POVM has no elements")
    arrs = [linalg.as_complex_matrix(e) for e in elements]
    dim = arrs[0].shape[0]
    for i, e in enumerate(arrs):
        if e.shape[0] != dim:
            raise QpoolError(f"element {i} has dim {e.shape[0]}, expected {dim}")
        linalg.check_positive(e, linalg.DEFAULT_TOL, f"element {i}")
    total = sum(arrs)
    defect = float(np.abs(total - np.eye(dim)).max())
    if not defect <= tol:
        raise QpoolError(f"effects sum to I only within {defect:.3e}, tol {tol:.0e}")
    return Povm(dim=dim, elements=tuple(arrs))


def outcome_probabilities(povm: Povm, rho) -> np.ndarray:
    """Outcome distribution p_k = Re Tr[E_k rho]."""
    r = linalg.as_complex_matrix(rho)
    if r.shape[0] != povm.dim:
        raise QpoolError(f"state dim {r.shape[0]} vs POVM dim {povm.dim}")
    p = np.array([np.einsum("ij,ji->", e, r).real for e in povm.elements])
    if not p.min() >= -linalg.ZERO_TOL:
        raise QpoolError(f"probability {p.min():.3e} < 0")
    p[p < 0.0] = 0.0
    if not abs(p.sum() - 1.0) <= COMPLETENESS_TOL:
        raise QpoolError(f"probabilities sum to {p.sum()!r}")
    return p


def bare_update(effect, rho) -> np.ndarray:
    """State of knowledge after observing the outcome with effect E.

    Returns sqrt(E) rho sqrt(E) / Tr[E rho], the update with no disturbance
    beyond the information gain itself.
    """
    e = linalg.as_complex_matrix(effect)
    r = linalg.as_complex_matrix(rho)
    if e.shape != r.shape:
        raise QpoolError(f"effect dim {e.shape[0]} vs state dim {r.shape[0]}")
    p = float(np.einsum("ij,ji->", e, r).real)
    if not p > linalg.ZERO_TOL:
        raise ZeroProbabilityError(f"outcome probability {p:.3e} is numerically zero")
    s = linalg.hermitian_sqrt(e)
    return linalg.hermitianize(s @ r @ s) / p


def efficient_update(kraus: EfficientKraus, rho) -> np.ndarray:
    """State update for measurement operator U sqrt(E).

    Returns U sqrt(E) rho sqrt(E) U^dag / Tr[E rho].  With unitary None this
    is exactly the bare_update code path.
    """
    if kraus.unitary is None:
        return bare_update(kraus.effect, rho)
    u = linalg.as_complex_matrix(kraus.unitary)
    defect = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
    if defect > UNITARY_TOL:
        raise QpoolError(f"U^dag U differs from I by {defect:.3e}")
    r = linalg.as_complex_matrix(rho)
    if u.shape != r.shape:
        raise QpoolError("effect, unitary, and state dims must all agree")
    return linalg.hermitianize(u @ bare_update(kraus.effect, r) @ u.conj().T)


def posterior_from_outcome(effect) -> np.ndarray:
    """Observer's state of knowledge E / Tr[E], starting from total ignorance.

    This is what bare_update yields when applied to the maximally mixed state.
    """
    e = linalg.as_complex_matrix(effect)
    linalg.check_finite(e, "effect")
    t = float(np.trace(e).real)
    if not t > linalg.ZERO_TOL:
        raise QpoolError(f"effect trace {t:.3e} is numerically zero")
    return linalg.hermitianize(e) / t


def sample_outcome(povm: Povm, rho, rng: np.random.Generator) -> int:
    """Draw one outcome index by inverse-CDF sampling on one uniform variate.

    Ties at the cumulative boundaries break toward the lower index.
    """
    p = outcome_probabilities(povm, rho)
    cum = np.cumsum(p / p.sum())
    k = int(np.searchsorted(cum, rng.random(), side="left"))
    return min(k, len(p) - 1)
