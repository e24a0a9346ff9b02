"""POVMs, measurement update rules, and outcome sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import QpoolError, ZeroProbabilityError

COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure: elements[k] is effect k, the effects sum to I.

    elements is one complex array of shape (k, *lanes, dim, dim).
    """

    dim: int
    elements: np.ndarray

    def __len__(self) -> int:
        return len(self.elements)


def validate_povm(elements) -> Povm:
    """Check effects are Hermitian PSD summing to I; return a Povm.

    Element-level Hermiticity and positivity are held to the standard
    operator tolerance (1e-10), the sum to COMPLETENESS_TOL.  Each element
    may be a stack (the same leading axes for all), which checks one POVM
    per lane; so may elements be a (k, *lanes, d, d) array.  The Povm holds
    its own copy, never the caller's array.
    """
    if len(elements) == 0:
        raise QpoolError("POVM has no elements")
    arrs = [linalg.as_complex_matrix(e) for e in elements]
    linalg.same_shape(arrs, "element")
    stack = np.array(arrs)
    # Element i of lane l fails as lane i * lanes + l of the stack.
    linalg.check_positive(stack, linalg.DEFAULT_TOL, "element")
    dim = stack.shape[-1]
    defect = np.abs(stack.sum(axis=0) - np.eye(dim)).max(axis=(-2, -1))
    linalg.require(
        defect <= COMPLETENESS_TOL,
        f"effects sum to I only within {{:.3e}}, tol {COMPLETENESS_TOL:.0e}",
        defect,
    )
    return Povm(dim=dim, elements=stack)


def _probabilities(povm: Povm, r: np.ndarray) -> np.ndarray:
    """p_k = Re Tr[E_k rho] along the last axis, for a state rho that has passed its gates.

    A p_k below -ZERO_TOL, or a sum further than COMPLETENESS_TOL from 1,
    raises: a POVM that is not one (a Povm built without validate_povm)
    fails here.  p_k in [-ZERO_TOL, 0) come back as 0.
    """
    # One einsum per outcome, so a lane's numbers are those of its single call.
    p = np.empty(r.shape[:-2] + (len(povm),))
    for k, e in enumerate(povm.elements):
        p[..., k] = np.einsum("...ij,...ji->...", e, r).real
    low = p.min(axis=-1)
    linalg.require(low >= -linalg.ZERO_TOL, "probability {:.3e} < 0", low)
    p[p < 0.0] = 0.0
    total = p.sum(axis=-1)
    linalg.require(
        abs(total - 1.0) <= COMPLETENESS_TOL, "probabilities sum to {!r}", total
    )
    return p


def outcome_probabilities(povm: Povm, rho) -> np.ndarray:
    """Outcome distribution p_k = Re Tr[E_k rho], along the last axis.

    rho has the shape of the povm's elements (a Povm): one state per lane.
    It must pass the state gate (linalg.check_state) at DEFAULT_TOL; then
    the distribution is gated as in _probabilities.
    """
    if not isinstance(povm, Povm):
        raise QpoolError(f"expected a Povm (validate_povm), got {type(povm).__name__}")
    r = linalg.as_complex_matrix(rho)
    linalg.same_shape((povm.elements[0], r), ("POVM", "state"))
    return _probabilities(povm, linalg.check_state(r, linalg.DEFAULT_TOL, "state"))


def _update(e: np.ndarray, s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sqrt(E) rho sqrt(E) / Tr[E rho], s being sqrt(E); only Tr[E rho] is gated (normalizer)."""
    p = linalg.normalizer(
        np.einsum("...ij,...ji->...", e, r).real, "outcome probability", ZeroProbabilityError
    )
    return linalg.hermitianize(s @ r @ s) / linalg.per_matrix(p)


def bare_update(effect, rho) -> np.ndarray:
    """State of knowledge after observing the outcome with effect E.

    Returns sqrt(E) rho sqrt(E) / Tr[E rho], the update with no disturbance
    beyond the information gain itself.  E is gated through hermitian_sqrt
    (finite, Hermitian, positive), then rho through the state gate
    (linalg.check_state), both at DEFAULT_TOL and before the outcome
    probability is formed.
    """
    e = linalg.as_complex_matrix(effect)
    r = linalg.as_complex_matrix(rho)
    linalg.same_shape((e, r), ("effect", "state"))
    s = linalg.hermitian_sqrt(e)
    return _update(e, s, linalg.check_state(r, linalg.DEFAULT_TOL, "state"))


def posterior_from_outcome(effect) -> np.ndarray:
    """Observer's state of knowledge E / Tr[E], starting from total ignorance.

    This is what bare_update yields when applied to the maximally mixed
    state.  E must pass check_positive at DEFAULT_TOL.
    """
    e = linalg.check_positive(linalg.as_complex_matrix(effect), linalg.DEFAULT_TOL, "effect")
    t = linalg.normalizer(linalg.trace(e), "effect trace")
    return e / linalg.per_matrix(t)


def _draw(p: np.ndarray, rngs: list):
    """One outcome index per lane of p (_probabilities), from one uniform per generator.

    An int for a single lane, else an array of indices.
    """
    if len(rngs) != p[..., 0].size:
        raise QpoolError(f"{len(rngs)} generators for {p[..., 0].size} lanes")
    u = np.array([g.random() for g in rngs]).reshape(p.shape[:-1])
    cum = np.cumsum(p / p.sum(axis=-1, keepdims=True), axis=-1)
    # The count of cumulative values below u is searchsorted(cum, u, "left").
    k = np.minimum((cum < u[..., None]).sum(axis=-1), p.shape[-1] - 1)
    return int(k) if k.ndim == 0 else k


def sample_outcome(povm: Povm, rho, rng):
    """Draw one outcome index by inverse-CDF sampling on one uniform variate.

    rho is gated as in outcome_probabilities.  Ties at the cumulative
    boundaries break toward the lower index.  For a stack of POVMs and
    states with one leading axis, rng is a list or tuple of generators, one
    per lane; each lane draws its variate from its own generator and the
    result is an array of indices.
    """
    return _draw(outcome_probabilities(povm, rho), linalg.generators(rng)[0])
