"""POVMs, measurement update rules, and outcome sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import QpoolError, ZeroProbabilityError

COMPLETENESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure: elements[k] is effect k, the effects sum to I.

    Povm(elements) is the one POVM gate: each effect passes check_positive
    at DEFAULT_TOL, and their sum is I within COMPLETENESS_TOL per entry.
    elements may be k matrices, k equal-shape stacks (one POVM per lane) or
    a (k, *lanes, d, d) array; the Povm stores the effects' Hermitian parts
    as one read-only complex array of that shape, never the caller's array.
    Two Povms are equal only if they are the same object, and each hashes by
    identity.
    """

    elements: np.ndarray

    def __post_init__(self):
        arrs = linalg.cast_inputs(self.elements, linalg.as_complex_matrix, "element", 1)
        # Element i of lane l fails as lane i * lanes + l of the stack.
        h = linalg.check_positive(np.array(arrs), linalg.DEFAULT_TOL, "element")
        defect = np.abs(h.sum(axis=0) - np.eye(h.shape[-1])).max(axis=(-2, -1))
        msg = f"effects sum to I only within {{:.3e}}, tol {COMPLETENESS_TOL:.0e}"
        linalg.require(defect <= COMPLETENESS_TOL, msg, defect)
        h.setflags(write=False)
        object.__setattr__(self, "elements", h)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.elements)


def validate_povm(elements) -> Povm:
    """Povm(elements): the POVM gate, under the name the library has always exported."""
    return Povm(elements)


def _probabilities(povm: Povm, r: np.ndarray) -> np.ndarray:
    """p_k = Re Tr[E_k rho] along the last axis, for a state rho that has passed its gates.

    The Povm and rho were gated where they entered; negatives come back as 0.
    """
    # One einsum per outcome, so a lane's numbers are those of its single call.
    p = np.empty(r.shape[:-2] + (len(povm),))
    for k, e in enumerate(povm.elements):
        p[..., k] = np.einsum("...ij,...ji->...", e, r).real
    p[p < 0.0] = 0.0
    return p


def outcome_probabilities(povm: Povm, rho) -> np.ndarray:
    """Outcome distribution p_k = Re Tr[E_k rho], along the last axis.

    rho has the shape of the povm's elements (a Povm): one state per lane.
    It must pass the state gate (linalg.check_state) at DEFAULT_TOL.  Each
    p_k is finite and >= 0, and with K outcomes at dim d the sum is within
    2 (DEFAULT_TOL + d COMPLETENESS_TOL + K (d + 1) DEFAULT_TOL) of 1:
    rho's trace defect, plus Tr[(sum_k E_k - I) rho], plus the negatives
    clipped to 0 (each above -(d + 1) DEFAULT_TOL), doubled for the
    second-order terms and rounding.
    """
    if not isinstance(povm, Povm):
        raise QpoolError(f"expected a Povm (validate_povm), got {type(povm).__name__}")
    _, r = linalg.cast_inputs((povm.elements[0], rho), linalg.as_complex_matrix, ("POVM", "state"))
    return _probabilities(povm, linalg.check_state(r, linalg.DEFAULT_TOL, "state"))


def _update(s: np.ndarray, r: np.ndarray, p) -> np.ndarray:
    """sqrt(E) rho sqrt(E) / p, s being sqrt(E) and p = Tr[E rho]; only p is gated (normalizer)."""
    p = linalg.normalizer(p, "outcome probability", ZeroProbabilityError)
    return linalg.hermitianize(s @ r @ s) / linalg.per_matrix(p)


def bare_update(effect, rho) -> np.ndarray:
    """State of knowledge after observing the outcome with effect E.

    Returns sqrt(E) rho sqrt(E) / Tr[E rho], the update with no disturbance
    beyond the information gain itself.  E is gated through hermitian_sqrt
    (finite, Hermitian, positive), then rho through the state gate
    (linalg.check_state), both at DEFAULT_TOL and before the outcome
    probability Tr[E rho] is formed; the update step (_update) gates it.
    """
    e, r = linalg.cast_inputs((effect, rho), linalg.as_complex_matrix, ("effect", "state"))
    s = linalg.hermitian_sqrt(e)
    r = linalg.check_state(r, linalg.DEFAULT_TOL, "state")
    return _update(s, r, np.einsum("...ij,...ji->...", e, r).real)


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
