"""POVMs, measurement update rules, and outcome sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import QpoolError, ZeroProbabilityError

COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: effects summing to the identity."""

    dim: int
    elements: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.elements)


def validate_povm(elements) -> Povm:
    """Check effects are Hermitian PSD summing to I; return a Povm.

    Element-level Hermiticity and positivity are held to the standard
    operator tolerance (1e-10), the sum to COMPLETENESS_TOL.  Each element
    may be a stack (the same leading axes for all), which checks one POVM
    per lane.
    """
    if len(elements) == 0:
        raise QpoolError("POVM has no elements")
    arrs = [linalg.as_complex_matrix(e) for e in elements]
    linalg.same_shape(arrs, "element")
    for i, e in enumerate(arrs):
        linalg.check_positive(e, linalg.DEFAULT_TOL, f"element {i}")
    dim = arrs[0].shape[-1]
    defect = np.abs(sum(arrs) - np.eye(dim)).max(axis=(-2, -1))
    linalg.require(
        defect <= COMPLETENESS_TOL,
        f"effects sum to I only within {{:.3e}}, tol {COMPLETENESS_TOL:.0e}",
        defect,
    )
    return Povm(dim=dim, elements=tuple(arrs))


def outcome_probabilities(povm: Povm, rho) -> np.ndarray:
    """Outcome distribution p_k = Re Tr[E_k rho], along the last axis.

    rho has the shape of the POVM's elements: one state per lane.
    """
    r = linalg.as_complex_matrix(rho)
    linalg.same_shape((povm.elements[0], r), ("POVM", "state"))
    p = np.stack([np.einsum("...ij,...ji->...", e, r).real for e in povm.elements], axis=-1)
    low = p.min(axis=-1)
    linalg.require(low >= -linalg.ZERO_TOL, "probability {:.3e} < 0", low)
    p[p < 0.0] = 0.0
    total = p.sum(axis=-1)
    linalg.require(
        abs(total - 1.0) <= COMPLETENESS_TOL, "probabilities sum to {!r}", total
    )
    return p


def bare_update(effect, rho) -> np.ndarray:
    """State of knowledge after observing the outcome with effect E.

    Returns sqrt(E) rho sqrt(E) / Tr[E rho], the update with no disturbance
    beyond the information gain itself.
    """
    e = linalg.as_complex_matrix(effect)
    r = linalg.as_complex_matrix(rho)
    linalg.same_shape((e, r), ("effect", "state"))
    p = np.einsum("...ij,...ji->...", e, r).real
    linalg.require(
        p > linalg.ZERO_TOL,
        "outcome probability {:.3e} is numerically zero",
        p,
        ZeroProbabilityError,
    )
    s = linalg.hermitian_sqrt(e)
    return linalg.hermitianize(s @ r @ s) / linalg.per_matrix(p)


def posterior_from_outcome(effect) -> np.ndarray:
    """Observer's state of knowledge E / Tr[E], starting from total ignorance.

    This is what bare_update yields when applied to the maximally mixed state.
    """
    e = linalg.as_complex_matrix(effect)
    linalg.check_finite(e, "effect")
    t = linalg.trace(e)
    linalg.require(t > linalg.ZERO_TOL, "effect trace {:.3e} is numerically zero", t)
    return linalg.hermitianize(e) / linalg.per_matrix(t)


def sample_outcome(povm: Povm, rho, rng):
    """Draw one outcome index by inverse-CDF sampling on one uniform variate.

    Ties at the cumulative boundaries break toward the lower index.  For a
    stack of POVMs and states with one leading axis, rng is a sequence of
    generators, one per lane; each lane draws its variate from its own
    generator and the result is an array of indices.
    """
    p = outcome_probabilities(povm, rho)
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    if len(rngs) != p[..., 0].size:
        raise QpoolError(f"{len(rngs)} generators for {p[..., 0].size} lanes")
    u = np.array([g.random() for g in rngs]).reshape(p.shape[:-1])
    cum = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
    # The count of cumulative values below u is searchsorted(cum, u, "left").
    k = np.minimum((cum < u[..., None]).sum(axis=-1), p.shape[-1] - 1)
    return int(k) if k.ndim == 0 else k
