"""Rules for pooling independent observers' states of knowledge."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np

from . import linalg
from .errors import IncompatibleStatesError, QpoolError

# Symmetric multi-observer pooling costs n * (2^(n-1) - 1) conjugations (186
# at n = 6); the cap on n is a fixed count, not yet derived from that cost.
MAX_SYMMETRIC_STATES = 6

# _roots keeps the last stack of states that passed its gates, with their
# roots, only if the stack takes at most this many bytes; the key and the
# roots then hold about twice that between pooling calls.
MAX_ROOT_MEMO_BYTES = 1 << 20

# (shape, bytes) of that stack and its read-only roots, or None.  It is read
# once and replaced whole, so callers in other threads can at worst miss.
_last_roots = None


@dataclass(frozen=True)
class PoolReport:
    """Pooled state plus the normalization bookkeeping behind it.

    For stacked inputs, ``pooled`` is the stack of pooled states and each
    number below is an array with one value per lane.

    Attributes
    ----------
    pooled : np.ndarray
        The pooled density matrix, normalized by the numerator's own trace.
    compatibility : float
        Probability in [0, 1] that the observers' findings coexist: the
        trace of the nested numerator (averaged over orderings where the
        rule sums them).  It is at most the product of the states' traces,
        so it exceeds 1 only by rounding and by their 1e-10 trace slack.
    paper_norm : float
        The closed-form denominator n! Re Tr[rho_1 ... rho_n] (just
        Tr[rho_A rho_B] for the ordered two-observer rule).
    trace_norm : float
        The numerator's own trace, which always renormalizes exactly.
    norm_discrepancy : float
        |trace_norm - paper_norm|.  Zero in exact arithmetic for n = 2 and
        for commuting collections; nonzero in general for n >= 3.
    """

    pooled: np.ndarray
    compatibility: float
    paper_norm: float
    trace_norm: float
    norm_discrepancy: float


def classical_pool(*dists) -> np.ndarray:
    """Pool n >= 2 independent classical distributions: their renormalized product.

    Leading axes index a stack of collections; the distributions run along the last axis.
    """
    if len(dists) < 2:
        raise QpoolError(f"need at least two distributions, got {len(dists)}")
    ps = [np.asarray(p, dtype=float) for p in dists]
    if any(p.ndim < 1 or p.shape[-1] == 0 for p in ps):
        raise QpoolError("probability vectors must be non-empty along their last axis")
    linalg.same_shape(ps, "distribution")
    ps = np.array(ps)
    ok = (np.isfinite(ps).all(axis=-1) & (ps.min(axis=-1) >= -linalg.ZERO_TOL)).all(axis=0)
    linalg.require(ok, "probability vectors must be finite and nonnegative")
    # Finite products can overflow, and inf * 0 is NaN; the normalizer gate
    # then raises on the sum.
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.clip(ps, 0.0, None).prod(axis=0)
        total = prod.sum(axis=-1)
    overlap = linalg.normalizer(total, "sum of products", IncompatibleStatesError)
    return prod / overlap[..., None]


def _trace_of_product(arrs):
    """Tr[rho_1 ... rho_n], with the last factor taken as sum_ij P_ij B_ji."""
    prod = arrs[0]
    for a in arrs[1:-1]:
        prod = prod @ a
    return (prod * arrs[-1].swapaxes(-1, -2)).sum(axis=(-2, -1))


def _matrices(states) -> np.ndarray:
    """The n >= 2 states of a pooling rule as one complex stack (n, *lanes, d, d)."""
    if len(states) < 2:
        raise QpoolError(f"need at least two states, got {len(states)}")
    arrs = [linalg.as_complex_matrix(s) for s in states]
    linalg.same_shape(arrs, "state")
    # np.array copies equal-shape arrays into one stack faster than np.stack.
    return np.array(arrs)


def _roots(arrs) -> np.ndarray:
    """Square roots of a stack of states, each of which must have unit trace.

    The stacked hermitian_sqrt gates finiteness, Hermiticity and positivity
    and names the lane that fails; the trace gate follows, before any
    product of states, so no product of them can overflow.  This is the
    state rule without linalg.check_state: the root needs the spectrum,
    which check_state's Cholesky accept would not give.

    The last stack that passed both gates is kept with its roots (read-only),
    so pooling the same states again, by the other rule say, skips both: a
    stack of the same shape and the same bytes gets those roots back, which
    are bitwise the roots a fresh call computes.  Stacks above
    MAX_ROOT_MEMO_BYTES are not kept.
    """
    global _last_roots
    last = _last_roots
    # Bytes, not np.array_equal, which treats 0.0 and -0.0 as equal; a shape
    # that differs misses before any bytes are copied.
    if last is not None and last[0] == arrs.shape and last[1] == arrs.tobytes():
        return last[2]
    roots = linalg.hermitian_sqrt(arrs)
    linalg.check_unit_trace(arrs, linalg.DEFAULT_TOL, "state trace")
    if arrs.nbytes <= MAX_ROOT_MEMO_BYTES:
        roots.setflags(write=False)
        _last_roots = (arrs.shape, arrs.tobytes(), roots)
    return roots


def _report(num, arrs, orderings: int, what: str) -> PoolReport:
    """The PoolReport of a numerator summed over `orderings` nestings of arrs.

    The numerator's trace must pass the normalizer gate and divides it; the
    closed form orderings * Re Tr[rho_1 ... rho_n] is only reported.
    """
    num = linalg.hermitianize(num)
    t = linalg.normalizer(linalg.trace(num), what, IncompatibleStatesError)
    paper = (_trace_of_product(arrs) * orderings).real
    return PoolReport(
        pooled=num / linalg.per_matrix(t),
        compatibility=t / orderings,
        paper_norm=paper,
        trace_norm=t,
        norm_discrepancy=abs(t - paper),
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
    ordered pooling.  All n roots are one stacked hermitian_sqrt call, whose
    gates every state passes, the innermost included, and every state must
    have unit trace (_roots).
    """
    arrs = _matrices(states)
    # The root of state 0 is not in the product: taking it gates state 0.
    roots = _roots(arrs)
    num = arrs[0]
    for r in roots[1:]:
        num = r @ num @ r
    return _report(num, arrs, 1, "nested trace")


@cache
def _subset_levels(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Index tables of the subset recurrence over n observers, levels 2 to n.

    Level k lists the subsets of size k by ascending bit mask.  Its tables
    have shape (C(n, k), k), one row per subset T and one column per
    observer j in T by ascending bit: js holds j and rows holds the position
    of T - {j} in level k - 1.  Summing each row in that order gives every
    float sum the order of a mask-by-mask loop, so results are deterministic.
    Built once per n (MAX_SYMMETRIC_STATES bounds the cache) and read-only,
    since every call for that n shares them.
    """
    masks = [[m for m in range(1 << n) if m.bit_count() == k] for k in range(n + 1)]
    levels = []
    for k in range(2, n + 1):
        position = {m: i for i, m in enumerate(masks[k - 1])}
        bits = [[j for j in range(n) if m >> j & 1] for m in masks[k]]
        js = np.array(bits)
        rows = np.array([[position[m ^ (1 << j)] for j in b] for m, b in zip(masks[k], bits)])
        js.flags.writeable = rows.flags.writeable = False
        levels.append((js, rows))
    return tuple(levels)


def pool_symmetric_multi(states, norm_mode: str = "trace") -> PoolReport:
    """Pool n >= 2 unordered states: sum of nestings over all n! orderings.

    The sum is grouped by the outermost observer j,
    S(T) = sum_{j in T} sqrt(rho_j) S(T - {j}) sqrt(rho_j) with
    S({i}) = rho_i, so it costs n * (2^(n-1) - 1) conjugations where the
    literal sum costs n! * (n - 1).  It runs one subset size at a time: one
    stacked square root of all n states, then one stacked product per size.
    The sum is normalized by its own trace.

    Parameters
    ----------
    states : sequence of density matrices, equal dims, 2 <= n <= 6.
    norm_mode : must be "trace".
    """
    arrs = _matrices(states)
    n = len(arrs)
    if n > MAX_SYMMETRIC_STATES:
        raise QpoolError(f"symmetric pooling is capped at {MAX_SYMMETRIC_STATES} states, got {n}")
    # Kept only because perfbench's pool_multi passes it; the benchmark PR
    # (ROADMAP item 2) stops that, and the keyword goes with it.
    if norm_mode != "trace":
        raise QpoolError(f"norm_mode must be 'trace', got {norm_mode!r}")
    # Level k holds S(T) for every subset T of size k, one entry per T, so
    # level 1 is the states themselves and level n is S of all of them.
    level = arrs
    roots = _roots(level)
    for js, rows in _subset_levels(n):
        r = roots[js]
        level = (r @ level[rows] @ r).sum(axis=1)
    return _report(level[0], arrs, factorial(n), "permutation-sum trace")


def compatibility(a, b) -> float:
    """Overlap Tr[rho_A rho_B]: the probability the two findings coexist.

    Equals (1/2)(1 + a . b) for qubits with Bloch vectors a and b, and
    reaches 1 only for identical pure states.  Both must pass the state
    gate (linalg.check_state) at DEFAULT_TOL, as the pooling rules' states do.
    """
    arrs = _matrices((a, b))
    linalg.check_state(arrs, linalg.DEFAULT_TOL, "state")
    # Gated states have no entry above 1 (plus the tolerances), so t is
    # finite; only the imaginary part left by a Hermiticity defect is gated.
    t = _trace_of_product(arrs)
    linalg.require(abs(t.imag) <= linalg.ZERO_TOL, "Tr[AB] has imaginary part {:.3e}", t.imag)
    return t.real
