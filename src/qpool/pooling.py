"""Rules for pooling independent observers' states of knowledge."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial, prod

import numpy as np

from . import linalg
from .errors import IncompatibleStatesError, QpoolError

# Symmetric multi-observer pooling costs n * (2^(n-1) - 1) conjugations (186
# at n = 6).  The direct route makes them as 2 * k * C(n, k) d x d products
# per subset size k; the Liouville route as n products (C(n, k-1) x d^2) by
# (d^2 x d^2) per size and lane (_liouville_sum).  The cap on n is a fixed
# count, not yet derived from either cost.
MAX_SYMMETRIC_STATES = 6

# The symmetric rule takes the Liouville route from LIOUVILLE_MIN_STATES
# states up, at dims up to LIOUVILLE_MAX_DIM.  Body times of one d = 3
# collection, each route forced (2 vCPU, numpy 2.4.6, OpenBLAS): direct
# against Liouville 45 / 47 us at n = 3, 88 / 67 at n = 4, 179 / 102 at
# n = 5 and 376 / 130 at n = 6.  n = 4 is left direct: in perfbench's
# pool_multi batch, whose median op it is, an n >= 4 threshold read p50
# +1.1 % and p90 -10.9 % against n >= 5, neither beyond the spread of 8
# pairs of runs.
LIOUVILLE_MIN_STATES = 5
# Each root's K has d^4 entries, so the route loses as d grows: 128 / 367 us
# for one collection at d = 8, n = 5, and 3.6 / 5.2 ms for 40 lanes at
# d = 5, n = 5.  At d = 4 it still won at n = 5 (163 / 84 us; 40 lanes
# 2.9 / 1.7 ms) but lost at n = 4 with 40 lanes (1.05 / 1.78 ms); no
# benchmark workload has d >= 4 with n >= 5, so the bound stays at 3.
LIOUVILLE_MAX_DIM = 3


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
        orderings * Re Tr[rho_1 ... rho_n]: with the symmetric rule's n!
        orderings its closed-form denominator; with the ordered rule's one,
        Tr[rho_A rho_B] at n = 2 and no closed form of its trace at n >= 3.
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

    dists: int or float arrays of one shape, non-empty along the last axis,
    whose leading axes index a stack of collections (linalg.cast_inputs).
    """
    ps = np.array(linalg.cast_inputs(dists, linalg.as_distribution, "distribution"))
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
    # np.array copies equal-shape arrays into one stack faster than np.stack.
    return np.array(linalg.cast_inputs(states, linalg.as_complex_matrix, "state"))


def _roots(arrs) -> np.ndarray:
    """Square roots of a stack of states, each of which must have unit trace.

    The stacked hermitian_sqrt gates finiteness, Hermiticity and positivity
    and names the lane that fails; the trace gate follows, before any
    product of states, so no product of them can overflow.  This is the
    state rule without linalg.check_state: the root needs the spectrum,
    which check_state's Cholesky accept would not give.
    """
    roots = linalg.hermitian_sqrt(arrs)
    linalg.check_unit_trace(arrs, linalg.DEFAULT_TOL, "state trace")
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
    sqrt(rho_n), normalized by its own trace: repeated two-observer ordered
    pooling.  states: a list, tuple or array of matrices or stacks of one
    shape (linalg.cast_inputs).  Every state, the innermost included, passes
    the gates of one stacked hermitian_sqrt and has unit trace (_roots).
    """
    arrs = _matrices(states)
    return _ordered(arrs, _roots(arrs))


def _ordered(arrs, roots) -> PoolReport:
    """The ordered rule's body on a stack of states and their roots (_roots)."""
    # The root of state 0 is not in the product: taking it gated state 0.
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
    stacked square root of all n states, then per size two stacked d x d
    products, or from LIOUVILLE_MIN_STATES states at dims up to
    LIOUVILLE_MAX_DIM one stacked product in Liouville form
    (_liouville_sum).  The sum is normalized by its own trace.

    Parameters
    ----------
    states : list, tuple or array of 2 to 6 states or stacks of one shape.
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
    return _symmetric(arrs, _roots(arrs))


def _symmetric(arrs, roots) -> PoolReport:
    """The symmetric rule's body on 2 to MAX_SYMMETRIC_STATES states and their roots (_roots)."""
    # Level k holds S(T) for every subset T of size k, one entry per T, so
    # level 1 is the states themselves and level n is S of all of them.
    n = len(arrs)
    if n >= LIOUVILLE_MIN_STATES and arrs.shape[-1] <= LIOUVILLE_MAX_DIM:
        num = _liouville_sum(arrs, roots)
    else:
        level = arrs
        for js, rows in _subset_levels(n):
            r = roots[js]
            level = (r @ level[rows] @ r).sum(axis=1)
        num = level[0]
    return _report(num, arrs, factorial(n), "permutation-sum trace")


def _superoperators(roots) -> np.ndarray:
    """K with vec(r X r) = vec(X) @ K for each root r of an (n, lanes, d, d) stack.

    vec is row-major, so K[(c, e), (a, b)] = r[a, c] * r[e, b]: one
    broadcast product, of shape (n, lanes, d^2, d^2).
    """
    n, lanes, d, _ = roots.shape
    k = roots.swapaxes(-1, -2)[..., :, None, :, None] * roots[..., None, :, None, :]
    return k.reshape(n, lanes, d * d, d * d)


def _liouville_sum(arrs, roots) -> np.ndarray:
    """S of all n states by the subset recurrence, each level in Liouville form.

    Lanes are flattened to one axis and each level is held as (subsets,
    lanes, d^2).  A level is one stacked product of every smaller subset
    with every observer's superoperator, from which the _subset_levels
    tables pick each subset's terms and sum them in the direct route's
    order.  The products sum in another order than r @ X @ r, so the two
    routes differ by rounding.
    """
    n, d = len(arrs), arrs.shape[-1]
    lanes = arrs.shape[1:-2]
    count = prod(lanes)
    sup = _superoperators(roots.reshape(n, count, d, d))
    level = arrs.reshape(n, count, d * d)
    for js, rows in _subset_levels(n):
        # A swapaxes view, not moveaxis: levels are small, so call overhead counts.
        level = (level.swapaxes(0, 1) @ sup)[js, :, rows].sum(axis=1)
    return level[0].reshape(*lanes, d, d)


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
