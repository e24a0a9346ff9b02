"""Rules for pooling independent observers' states of knowledge."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from . import linalg
from .errors import IncompatibleStatesError, QpoolError

# Symmetric multi-observer pooling costs n * (2^(n-1) - 1) conjugations (186
# at n = 6); the cap on n is a fixed count, not yet derived from that cost.
MAX_SYMMETRIC_STATES = 6

NORM_MODES = ("trace", "paper")


@dataclass(frozen=True)
class PoolReport:
    """Pooled state plus the normalization bookkeeping behind it.

    For stacked inputs, ``pooled`` is the stack of pooled states and each
    number below is an array with one value per lane.

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


def classical_pool(pa, pb) -> np.ndarray:
    """Pool two independent classical distributions: renormalized product.

    Leading axes index a stack of pairs; the distributions run along the last axis.
    """
    a = np.asarray(pa, dtype=float)
    b = np.asarray(pb, dtype=float)
    if a.ndim < 1 or b.ndim < 1 or a.shape[-1] == 0:
        raise QpoolError("probability vectors must be non-empty along their last axis")
    linalg.same_shape((a, b), ("pa", "pb"))
    ok = np.isfinite(a).all(axis=-1) & np.isfinite(b).all(axis=-1)
    ok &= (a.min(axis=-1) >= -linalg.ZERO_TOL) & (b.min(axis=-1) >= -linalg.ZERO_TOL)
    linalg.require(ok, "probability vectors must be finite and nonnegative")
    prod = np.clip(a, 0.0, None) * np.clip(b, 0.0, None)
    overlap = linalg.normalizer(prod.sum(axis=-1), "sum of products", IncompatibleStatesError)
    return prod / overlap[..., None]


def _trace_of_product(arrs):
    """Tr[rho_1 ... rho_n], with the last factor taken as sum_ij P_ij B_ji."""
    prod = arrs[0]
    for a in arrs[1:-1]:
        prod = prod @ a
    return (prod * arrs[-1].swapaxes(-1, -2)).sum(axis=(-2, -1))


def _matrices(states) -> list[np.ndarray]:
    """The n >= 2 states of a pooling rule as complex matrices of one shape."""
    if len(states) < 2:
        raise QpoolError(f"need at least two states, got {len(states)}")
    arrs = [linalg.as_complex_matrix(s) for s in states]
    linalg.same_shape(arrs, "state")
    return arrs


def _report(num, arrs, orderings: int, what: str, norm_mode: str = "trace") -> PoolReport:
    """The PoolReport of a numerator summed over `orderings` nestings of arrs.

    The numerator's trace must pass the normalizer gate; in "paper" mode the
    closed form orderings * Re Tr[rho_1 ... rho_n] must too, and divides.
    """
    num = linalg.hermitianize(num)
    t = linalg.normalizer(linalg.trace(num), what, IncompatibleStatesError)
    ptr = _trace_of_product(arrs) * orderings
    paper = ptr.real
    if norm_mode == "paper":
        norm = linalg.normalizer(paper, "closed-form denominator", IncompatibleStatesError)
    else:
        norm = t
    return PoolReport(
        pooled=num / linalg.per_matrix(norm),
        # t > 0 past the gate above, so only the upper clamp can bite.
        compatibility=np.minimum(t / orderings, 1.0),
        paper_norm=paper,
        trace_norm=t,
        norm_discrepancy=abs(t - paper),
        paper_norm_imag=abs(ptr.imag),
    )


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
    arrs = _matrices(states)
    # The innermost state is the only one hermitian_sqrt does not gate.
    linalg.check_finite(arrs[0], "state 0")
    num = arrs[0]
    for s in arrs[1:]:
        r = linalg.hermitian_sqrt(s)
        num = r @ num @ r
    return _report(num, arrs, 1, "nested trace")


def pool_symmetric_multi(states, norm_mode: str = "trace") -> PoolReport:
    """Pool n >= 2 unordered states: sum of nestings over all n! orderings.

    The sum is grouped by the outermost observer j,
    S(T) = sum_{j in T} sqrt(rho_j) S(T - {j}) sqrt(rho_j) with
    S({i}) = rho_i, so it costs n * (2^(n-1) - 1) conjugations where the
    literal sum costs n! * (n - 1).

    Parameters
    ----------
    states : sequence of density matrices, equal dims, 2 <= n <= 6.
    norm_mode : "trace" normalizes the permutation sum by its own trace;
        "paper" divides by the closed form n! Re Tr[rho_1 ... rho_n]
        instead, which must pass the same gate as the trace.  The two
        denominators agree for n = 2 and for commuting states but differ
        in general, so the report always carries both.
    """
    arrs = _matrices(states)
    n = len(arrs)
    if n > MAX_SYMMETRIC_STATES:
        raise QpoolError(f"symmetric pooling is capped at {MAX_SYMMETRIC_STATES} states, got {n}")
    if norm_mode not in NORM_MODES:
        raise QpoolError(f"norm_mode must be one of {NORM_MODES}, got {norm_mode!r}")
    sqrts = [linalg.hermitian_sqrt(a) for a in arrs]
    # sums[mask] is S of the observers whose bits are set in mask.  Ascending
    # masks build every subset before its supersets, and ascending bits fix
    # the order of each float sum, so results are deterministic.
    sums = [None] * (1 << n)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            sums[mask] = arrs[mask.bit_length() - 1]
        else:
            sums[mask] = sum(
                sqrts[j] @ sums[mask ^ (1 << j)] @ sqrts[j] for j in range(n) if mask >> j & 1
            )
    return _report(sums[-1], arrs, factorial(n), "permutation-sum trace", norm_mode)


def compatibility(a, b) -> float:
    """Overlap Tr[rho_A rho_B]: the probability the two findings coexist.

    Equals (1/2)(1 + a . b) for qubits with Bloch vectors a and b, and
    reaches 1 only for identical pure states.
    """
    return linalg.trace_product(a, b)
