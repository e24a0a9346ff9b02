from functools import reduce
from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpool import linalg, measurement, pooling
from qpool.errors import IncompatibleStatesError, QpoolError
from qpool.harness import random_density, random_povm

Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MIXED2 = np.eye(2, dtype=complex) / 2

# Bloch (0.5, 0, 0.5): what pooling |0><0| with |+><+| must give.
Z0_PLUS_POOLED = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)


class TestClassicalPool:
    def test_product_rule(self):
        out = pooling.classical_pool([0.75, 0.25], [0.75, 0.25])
        assert np.allclose(out, [0.9, 0.1], atol=1e-15)

    def test_uniform_is_neutral(self):
        p = np.array([0.2, 0.3, 0.5])
        out = pooling.classical_pool(np.full(3, 1 / 3), p)
        assert np.allclose(out, p, atol=1e-15)

    def test_disjoint_support_rejected(self):
        with pytest.raises(IncompatibleStatesError):
            pooling.classical_pool([1.0, 0.0], [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(
            QpoolError, match=r"dimension mismatch: distribution 1 has dim 3, expected 2"
        ):
            pooling.classical_pool([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_negative_entries_rejected(self):
        with pytest.raises(QpoolError):
            pooling.classical_pool([1.2, -0.2], [0.5, 0.5])

    @pytest.mark.parametrize(
        "pa, pb", [([1e200, 1.0], [1e200, 1.0]), ([1e308, 1e308], [1.0, 1.0])]
    )
    def test_overflowing_sum_of_products_rejected(self, pa, pb):
        # The sum overflows to inf; dividing by it gave [nan, 0] and [0, 0].
        with pytest.raises(QpoolError, match="sum of products inf is not finite") as exc:
            pooling.classical_pool(pa, pb)
        assert type(exc.value) is QpoolError

    def test_three_distributions_pool_as_two_steps_in_any_order(self):
        a, b, c = [0.5, 0.3, 0.2], [0.2, 0.2, 0.6], [0.1, 0.6, 0.3]
        out = pooling.classical_pool(a, b, c)
        two_steps = pooling.classical_pool(pooling.classical_pool(a, b), c)
        np.testing.assert_allclose(out, two_steps, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out, pooling.classical_pool(c, a, b), rtol=0, atol=1e-15)

    def test_needs_two_distributions(self):
        with pytest.raises(QpoolError, match=r"need at least two distributions, got 1"):
            pooling.classical_pool([0.5, 0.5])

    def test_overflowed_product_times_zero_rejected(self):
        # inf * 0 is NaN; the normalizer gate raises on it, with no warning.
        with pytest.raises(QpoolError, match="sum of products nan is not finite"):
            pooling.classical_pool([1e200, 1.0], [1e200, 1.0], [0.0, 1.0])

    def test_empty_vectors_rejected(self):
        with pytest.raises(QpoolError, match=r"non-empty"):
            pooling.classical_pool([], [])

    @given(
        n=st.integers(2, 4),
        dim=st.integers(1, 5),
        lanes=st.sampled_from([(), (3,)]),
        kind=st.sampled_from(["list", "float64", "float32", "int", "strided"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_real_inputs_pool_as_their_float_cast(self, n, dim, lanes, kind, seed):
        # The same-kind cast admits ints and floats as np.asarray(p, dtype=float)
        # reads them, so the product, its sum and the quotient keep their bits.
        rng = np.random.default_rng(seed)
        raw = [rng.random(lanes + (2 * dim,)) + 0.01 for _ in range(n)]
        dists = {
            "list": [p[..., :dim].tolist() for p in raw],
            "float64": [p[..., :dim] for p in raw],
            "float32": [p[..., :dim].astype(np.float32) for p in raw],
            "int": [(100 * p[..., :dim]).astype(int) + 1 for p in raw],
            "strided": [p[..., ::2] for p in raw],
        }[kind]
        prod = np.array([np.asarray(p, dtype=float) for p in dists]).prod(axis=0)
        expected = prod / prod.sum(axis=-1)[..., None]
        out = pooling.classical_pool(*dists)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=60)
    def test_normalized_and_order_free(self, weights, data):
        a = np.array(weights) / sum(weights)
        w2 = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1.0),
                min_size=len(weights),
                max_size=len(weights),
            )
        )
        b = np.array(w2) / sum(w2)
        ab = pooling.classical_pool(a, b)
        ba = pooling.classical_pool(b, a)
        assert abs(ab.sum() - 1.0) < 1e-12
        assert np.abs(ab - ba).max() < 1e-14


class TestPoolOrdered:
    def test_later_pure_measurer_absorbs(self):
        out = pooling.pool_ordered(PLUS, Z0)
        assert np.allclose(out.pooled, Z0, atol=1e-14)
        assert out.compatibility == pytest.approx(0.5, abs=1e-14)

    def test_maximally_mixed_partner_is_neutral(self):
        rng = np.random.default_rng(20)
        rho = random_density(2, 2, rng)
        assert np.abs(pooling.pool_ordered(rho, MIXED2).pooled - rho).max() < 1e-12
        assert np.abs(pooling.pool_ordered(MIXED2, rho).pooled - rho).max() < 1e-12

    def test_matches_sequential_updates(self):
        # Two observers measure in turn starting from ignorance; pooling
        # their individual posteriors must reproduce the chained record.
        rng = np.random.default_rng(21)
        for _ in range(20):
            pov_a = random_povm(3, 3, rng)
            pov_b = random_povm(3, 2, rng)
            ea, eb = pov_a.elements[0], pov_b.elements[1]
            rho_a = measurement.posterior_from_outcome(ea)
            rho_b = measurement.posterior_from_outcome(eb)
            chained = measurement.bare_update(
                eb, measurement.bare_update(ea, linalg.maximally_mixed(3))
            )
            pooled = pooling.pool_ordered(rho_a, rho_b).pooled
            assert linalg.frobenius_distance(pooled, chained) < 1e-12

    def test_norm_bookkeeping_two_observer(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a = random_density(3, 3, rng)
            b = random_density(3, 3, rng)
            rep = pooling.pool_ordered(a, b)
            assert rep.norm_discrepancy < 1e-12
            assert rep.paper_norm == pytest.approx(
                linalg.trace_product(a, b), abs=1e-15
            )
            linalg.validate_density(rep.pooled, tol=1e-9)

    def test_orthogonal_rejected(self):
        with pytest.raises(IncompatibleStatesError):
            pooling.pool_ordered(Z0, Z1)

    def test_dim_mismatch(self):
        with pytest.raises(QpoolError, match=r"has dim 3, expected 2"):
            pooling.pool_ordered(np.eye(2) / 2, np.eye(3) / 3)


class TestPoolSymmetric:
    def test_identical_pure_fixed_point(self):
        out = pooling.pool_symmetric(Z0, Z0)
        assert np.allclose(out.pooled, Z0, atol=1e-14)
        assert out.compatibility == pytest.approx(1.0, abs=1e-14)

    def test_z_and_plus(self):
        out = pooling.pool_symmetric(Z0, PLUS)
        assert np.abs(out.pooled - Z0_PLUS_POOLED).max() < 1e-12

    def test_swap_is_bitwise_identical(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3, 4):
            for _ in range(20):
                a = random_density(dim, dim, rng)
                b = random_density(dim, dim, rng)
                ab = pooling.pool_symmetric(a, b)
                ba = pooling.pool_symmetric(b, a)
                assert np.array_equal(ab.pooled, ba.pooled)
                assert abs(ab.compatibility - ba.compatibility) < 1e-14
                assert abs(ab.trace_norm - ba.trace_norm) < 1e-14

    def test_mixed_partner_is_neutral(self):
        rng = np.random.default_rng(24)
        rho = random_density(2, 2, rng)
        out = pooling.pool_symmetric(rho, MIXED2)
        assert np.abs(out.pooled - rho).max() < 1e-12

    def test_diagonal_reduces_to_classical(self):
        rng = np.random.default_rng(25)
        for dim in (2, 5, 9):
            pa = rng.random(dim)
            pb = rng.random(dim)
            pa /= pa.sum()
            pb /= pb.sum()
            out = pooling.pool_symmetric(np.diag(pa).astype(complex), np.diag(pb).astype(complex))
            classical = pooling.classical_pool(pa, pb)
            assert np.abs(out.pooled - np.diag(classical)).max() < 1e-12

    def test_denominator_identity_two_observer(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            a = random_density(3, 3, rng)
            b = random_density(3, 3, rng)
            rep = pooling.pool_symmetric(a, b)
            assert rep.norm_discrepancy < 1e-12
            assert rep.paper_norm == pytest.approx(
                2.0 * linalg.trace_product(a, b), abs=1e-14
            )

    def test_orthogonal_rejected(self):
        with pytest.raises(IncompatibleStatesError):
            pooling.pool_symmetric(Z0, Z1)


def test_ordered_asymmetry_witness():
    d = linalg.frobenius_distance(
        pooling.pool_ordered(Z0, PLUS).pooled,
        pooling.pool_ordered(PLUS, Z0).pooled,
    )
    assert d == pytest.approx(1.0, abs=1e-10)


class _StatesGatedAsOneStack:
    """Gate tests both multi-observer rules share; `pool` is the rule under test."""

    pool = None

    @pytest.mark.parametrize("lanes", [None, 5])
    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.diag([1.2, -0.2]), r"negative eigenvalue -2\.000e-01 below -1e-10"),
            (np.diag([np.nan, 1.0]), r"matrix has a non-finite entry"),
        ],
        ids=["negative eigenvalue", "nan"],
    )
    def test_bad_state_named_by_its_lane(self, bad, message, lanes):
        # All n square roots are one stacked call, so a bad state is flagged
        # as a lane of that stack: state i of lane l is lane i * lanes + l.
        rng = np.random.default_rng(37)
        if lanes is None:
            states = [random_density(2, 2, rng), random_density(2, 2, rng), bad]
            suffix = "(1 of 3 lanes, first 2)"
        else:
            states = [np.array([random_density(2, 2, rng) for _ in range(lanes)]) for _ in range(3)]
            states[2][3] = bad
            suffix = f"(1 of {3 * lanes} lanes, first {2 * lanes + 3})"
        with pytest.raises(QpoolError, match=message) as exc:
            self.pool(states)
        assert exc.type is QpoolError
        assert str(exc.value).endswith(suffix)


class TestPoolOrderedMulti(_StatesGatedAsOneStack):
    pool = staticmethod(pooling.pool_ordered_multi)

    def test_two_states_matches_pairwise(self):
        rng = np.random.default_rng(27)
        a = random_density(3, 3, rng)
        b = random_density(3, 3, rng)
        multi = pooling.pool_ordered_multi([a, b])
        pair = pooling.pool_ordered(a, b)
        assert np.abs(multi.pooled - pair.pooled).max() < 1e-14
        assert multi.paper_norm == pytest.approx(pair.paper_norm, abs=1e-14)

    def test_three_states_match_sequential_updates(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            effects = [random_povm(2, 2, rng).elements[0] for _ in range(3)]
            posteriors = [measurement.posterior_from_outcome(e) for e in effects]
            rho = linalg.maximally_mixed(2)
            for e in effects:
                rho = measurement.bare_update(e, rho)
            out = pooling.pool_ordered_multi(posteriors)
            assert linalg.frobenius_distance(out.pooled, rho) < 1e-12

    def test_all_ignorance(self):
        for dim in (2, 3):
            mixed = linalg.maximally_mixed(dim)
            out = pooling.pool_ordered_multi([mixed, mixed, mixed])
            assert np.abs(out.pooled - mixed).max() < 1e-14

    def test_too_few(self):
        with pytest.raises(QpoolError, match=r"at least two states"):
            pooling.pool_ordered_multi([Z0])

    def test_result_valid(self):
        rng = np.random.default_rng(29)
        states = [random_density(4, 4, rng) for _ in range(4)]
        out = pooling.pool_ordered_multi(states)
        linalg.validate_density(out.pooled, tol=1e-9)
        assert 0.0 <= out.compatibility <= 1.0

    @pytest.mark.parametrize("lanes", [None, 5])
    @pytest.mark.parametrize(
        "bad,message",
        [(np.diag([1.5, -0.5]), r"negative eigenvalue"), (np.diag([np.nan, 1.0]), r"non-finite entry")],
        ids=["negative eigenvalue", "nan"],
    )
    @pytest.mark.parametrize("rule", ["pool_ordered", "pool_ordered_multi"])
    def test_innermost_state_gated(self, rule, bad, message, lanes):
        # The innermost state's root is not in the product, yet it passes the
        # same gates: pool_ordered(diag(1.5, -0.5), diag(0.7, 0.3)) once
        # returned a state with eigenvalue -0.167.
        n = 2 if rule == "pool_ordered" else 3
        other = np.diag([0.7, 0.3])
        if lanes is None:
            states = [bad] + [other] * (n - 1)
            suffix = f"(1 of {n} lanes, first 0)"
        else:
            states = [np.array([MIXED2] * lanes)] + [np.array([other] * lanes)] * (n - 1)
            states[0][3] = bad
            suffix = f"(1 of {n * lanes} lanes, first 3)"
        with pytest.raises(QpoolError, match=message) as exc:
            if rule == "pool_ordered":
                pooling.pool_ordered(*states)
            else:
                pooling.pool_ordered_multi(states)
        assert exc.type is QpoolError
        assert str(exc.value).endswith(suffix)

    @pytest.mark.parametrize("lanes", [None, 5])
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_nested_loop(self, n, dim, lanes):
        rng = np.random.default_rng(3000 + 100 * n + 10 * dim + (lanes or 0))

        def draw(rank):
            if lanes is None:
                return random_density(dim, rank, rng)
            return np.array([random_density(dim, rank, rng) for _ in range(lanes)])

        for rank in range(1, dim + 1):
            states = [draw(rank) for _ in range(n)]
            want = _pooled_or_message(_nested_loop, states)
            got = _pooled_or_message(pooling.pool_ordered_multi, states)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.array_equal(got, want)


def _permutation_sum(states) -> np.ndarray:
    """The symmetric numerator as the paper writes it: one nested term per ordering.

    Each state may be a stack of lanes; the term is then summed per lane.
    """
    arrs = [np.asarray(s, dtype=complex) for s in states]
    roots = [linalg.hermitian_sqrt(a) for a in arrs]
    num = np.zeros_like(arrs[0])
    for perm in permutations(range(len(arrs))):
        term = arrs[perm[0]]
        for i in perm[1:]:
            term = roots[i] @ term @ roots[i]
        num = num + term
    return linalg.hermitianize(num)


# The Liouville route's products sum in another order than the subset
# loop's, so above the route's thresholds the two agree to a bound:
# 4.7e-16 at most over 1200 draws of test_equals_subset_loop's kind at
# n = 5, 6 and d = 2, 3 with and without lanes, about two ulps of 1.
LIOUVILLE_TOL = 1e-15


def _draw(dim, rank, rng, lanes=None):
    """A random state, or a stack of `lanes` of them."""
    if lanes is None:
        return random_density(dim, rank, rng)
    return np.array([random_density(dim, rank, rng) for _ in range(lanes)])


def _subset_loop(states) -> pooling.PoolReport:
    """The subset recurrence one subset at a time, as pool_symmetric_multi once ran it.

    Masks ascending, bits ascending within a mask: the summation order the
    level-by-level evaluation must keep.
    """
    arrs = pooling._matrices(states)
    n = len(arrs)
    sqrts = [linalg.hermitian_sqrt(a) for a in arrs]
    sums = [None] * (1 << n)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            sums[mask] = arrs[mask.bit_length() - 1]
        else:
            sums[mask] = sum(
                sqrts[j] @ sums[mask ^ (1 << j)] @ sqrts[j] for j in range(n) if mask >> j & 1
            )
    return pooling._report(sums[-1], arrs, factorial(n), "permutation-sum trace")


def _nested_loop(states) -> pooling.PoolReport:
    """The ordered rule one square root per outer state, as pool_ordered_multi once ran it.

    The same nesting order and products as the stacked evaluation, which
    must match it bitwise.
    """
    arrs = pooling._matrices(states)
    linalg.check_finite(arrs[0], "state 0")
    num = arrs[0]
    for s in arrs[1:]:
        r = linalg.hermitian_sqrt(s)
        num = r @ num @ r
    return pooling._report(num, arrs, 1, "nested trace")


def _pooled_or_message(pool, states):
    """The pooled state of a rule, or the message it rejects the states with."""
    try:
        return pool(states).pooled
    except IncompatibleStatesError as exc:
        return str(exc)


class TestPoolSymmetricMulti(_StatesGatedAsOneStack):
    pool = staticmethod(pooling.pool_symmetric_multi)

    @pytest.mark.parametrize("lanes", [None, 5])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_permutation_sum(self, n, dim, lanes):
        # The unstacked cases keep the seeds they had before lanes.
        rng = np.random.default_rng(1000 + 10 * n + dim + 100 * (lanes or 0))
        for rank in range(1, dim + 1):
            states = [_draw(dim, rank, rng, lanes) for _ in range(n)]
            num = _permutation_sum(states)
            denom = linalg.trace(num)
            if not (denom > linalg.ZERO_TOL).all():
                with pytest.raises(IncompatibleStatesError):
                    pooling.pool_symmetric_multi(states)
                continue
            report = pooling.pool_symmetric_multi(states)
            assert np.abs(report.pooled - num / linalg.per_matrix(denom)).max() <= 1e-13
            # The closed form is reported, never divided by.
            paper = factorial(n) * linalg.trace(reduce(np.matmul, states))
            assert report.paper_norm == pytest.approx(paper, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("lanes", [None, 5])
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_subset_loop(self, n, dim, lanes):
        rng = np.random.default_rng(2000 + 100 * n + 10 * dim + (lanes or 0))
        liouville = n >= pooling.LIOUVILLE_MIN_STATES and dim <= pooling.LIOUVILLE_MAX_DIM
        for rank in range(1, dim + 1):
            states = [_draw(dim, rank, rng, lanes) for _ in range(n)]
            want = _pooled_or_message(_subset_loop, states)
            got = _pooled_or_message(pooling.pool_symmetric_multi, states)
            if isinstance(want, str):
                assert got == want
            elif liouville:
                assert np.abs(got - want).max() <= LIOUVILLE_TOL
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_bytes_twice_and_lane_by_lane(self, n, dim):
        # Both routes: the same call gives the same bytes, and each lane of a
        # stack gives the bytes of its own single call.
        rng = np.random.default_rng(4000 + 10 * n + dim)
        for _ in range(5):
            states = [_draw(dim, dim, rng, 7) for _ in range(n)]
            stacked = pooling.pool_symmetric_multi(states).pooled
            assert stacked.tobytes() == pooling.pool_symmetric_multi(states).pooled.tobytes()
            for i in range(7):
                single = pooling.pool_symmetric_multi([s[i] for s in states]).pooled
                assert single.tobytes() == stacked[i].tobytes(), f"lane {i}"

    def test_two_states_bitwise_closed_form(self):
        rng = np.random.default_rng(34)
        for dim in (2, 3, 4):
            a = random_density(dim, dim, rng)
            b = random_density(dim, 1, rng)
            ra, rb = linalg.hermitian_sqrt(a), linalg.hermitian_sqrt(b)
            num = linalg.hermitianize(ra @ b @ ra + rb @ a @ rb)
            want = num / np.trace(num).real
            for pair in ((a, b), (b, a)):
                got = pooling.pool_symmetric_multi(pair).pooled
                assert got.tobytes() == want.tobytes()

    def test_two_states_matches_pairwise(self):
        rng = np.random.default_rng(30)
        a = random_density(3, 3, rng)
        b = random_density(3, 3, rng)
        pair = pooling.pool_symmetric(a, b)
        multi = pooling.pool_symmetric_multi([a, b])
        assert np.abs(multi.pooled - pair.pooled).max() < 1e-12
        assert multi.norm_discrepancy < 1e-12

    def test_all_ignorance(self):
        out = pooling.pool_symmetric_multi([MIXED2, MIXED2, MIXED2])
        assert np.abs(out.pooled - MIXED2).max() < 1e-14
        assert out.trace_norm == pytest.approx(1.5, abs=1e-14)
        assert out.norm_discrepancy < 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(31)
        states = [random_density(2, 2, rng) for _ in range(3)]
        a = pooling.pool_symmetric_multi(states)
        b = pooling.pool_symmetric_multi(states[::-1])
        assert np.abs(a.pooled - b.pooled).max() < 1e-13

    def test_commuting_triple_reduces_to_classical(self):
        rng = np.random.default_rng(32)
        ps = [rng.random(4) for _ in range(3)]
        ps = [p / p.sum() for p in ps]
        out = pooling.pool_symmetric_multi([np.diag(p).astype(complex) for p in ps])
        prod = ps[0] * ps[1] * ps[2]
        assert np.abs(out.pooled - np.diag(prod / prod.sum())).max() < 1e-12
        assert out.norm_discrepancy < 1e-12

    def test_state_count_limits(self):
        with pytest.raises(QpoolError, match=r"at least two states"):
            pooling.pool_symmetric_multi([Z0])
        with pytest.raises(QpoolError, match=r"capped at"):
            pooling.pool_symmetric_multi([MIXED2] * 7)

    @pytest.mark.parametrize("mode", ["both", "paper"])
    def test_bad_norm_mode(self, mode):
        # The numerator's trace is the only normalizer; the closed form
        # n! Re Tr[rho_1 ... rho_n] is not a unit-trace divisor for n >= 3.
        with pytest.raises(QpoolError, match=r"norm_mode must be 'trace'"):
            pooling.pool_symmetric_multi([Z0, Z0], norm_mode=mode)


def _trine():
    """Three pure qubits with Bloch vectors 120 degrees apart in the x-y plane."""
    angles = 2 * np.pi * np.arange(3) / 3
    return [linalg.bloch_to_density([np.cos(a), np.sin(a), 0.0]) for a in angles]


def test_negative_closed_form_still_pools():
    # The permutation sum has trace 0.375, but the closed form
    # 3! Re Tr[rho_1 rho_2 rho_3] is -0.75: only the trace divides.
    report = pooling.pool_symmetric_multi(_trine())
    assert report.trace_norm == pytest.approx(0.375, abs=1e-14)
    assert report.paper_norm == pytest.approx(-0.75, abs=1e-14)
    linalg.validate_density(report.pooled)


RULES = {
    "pool_ordered": lambda s: pooling.pool_ordered(*s),
    "pool_symmetric": lambda s: pooling.pool_symmetric(*s),
    "pool_ordered_multi": pooling.pool_ordered_multi,
    "pool_symmetric_multi": pooling.pool_symmetric_multi,
}


@pytest.mark.parametrize("lanes", [None, 4])
@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_pooled_state_has_unit_trace(n, dim, lanes):
    rng = np.random.default_rng(3000 + 100 * n + 10 * dim + (lanes or 0))

    def draw():
        if lanes is None:
            return random_density(dim, dim, rng)
        return np.array([random_density(dim, dim, rng) for _ in range(lanes)])

    states = [draw() for _ in range(n)]
    for name, rule in RULES.items():
        if n > 2 and name in ("pool_ordered", "pool_symmetric"):
            continue
        tr = linalg.trace(rule(states).pooled)
        assert np.abs(tr - 1.0).max() <= 1e-12, name


OFF_TRACE = {
    "pool_ordered": lambda: pooling.pool_ordered(np.diag([2.0, 0.0]), np.diag([1.0, 0.0])),
    "pool_symmetric": lambda: pooling.pool_symmetric(np.diag([1.0, 0.0]), np.diag([0.5, 0.5 + 1e-9])),
    "pool_ordered_multi": lambda: pooling.pool_ordered_multi([np.diag([1e150, 1.0])] * 3),
    "pool_symmetric_multi": lambda: pooling.pool_symmetric_multi([np.diag([5.0, 1.0])] * 3),
    "compatibility": lambda: pooling.compatibility(np.diag([2.0, 0.0]), np.diag([1.0, 0.0])),
}


@pytest.mark.parametrize("name", sorted(OFF_TRACE))
def test_state_off_unit_trace_raises(name):
    # Before the trace gate these returned a compatibility of 1.0 (clamped
    # from 2 and 126), or warned that matmul overflowed.
    with pytest.raises(QpoolError, match=r"state trace .* differs from 1 by more than 1e-10") as exc:
        OFF_TRACE[name]()
    assert exc.type is QpoolError


def test_trace_gate_names_the_lane():
    rng = np.random.default_rng(3200)
    states = [np.array([random_density(2, 2, rng) for _ in range(5)]) for _ in range(3)]
    states[1][2] *= 1.0 + 2e-10
    for rule in (pooling.pool_ordered_multi, pooling.pool_symmetric_multi):
        with pytest.raises(QpoolError, match="state trace") as exc:
            rule(states)
        assert str(exc.value).endswith("(1 of 15 lanes, first 7)")


@pytest.mark.parametrize("slack", [0.0, 0.99e-10])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_compatibility_above_one_only_by_rounding_and_trace_slack(n, slack):
    # Tr[sqrt(r) X sqrt(r)] = Tr[r X] <= Tr r Tr X for positive r and X,
    # so compatibility is at most the product of the traces, 1 + slack
    # each, which the trace gate keeps within (1 + 1e-10)^n.  Identical
    # pure states reach that product; what is left above it is rounding.
    rng = np.random.default_rng(3300 + n)
    worst = -1.0
    for dim in (2, 3, 4):
        for _ in range(20):
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi = g / np.linalg.norm(g)
            rho = np.outer(psi, psi.conj()) * (1.0 + slack)
            for rule in (pooling.pool_ordered_multi, pooling.pool_symmetric_multi):
                bound = linalg.trace(rho) ** n
                worst = max(worst, float(rule([rho] * n).compatibility) - bound)
    assert worst <= 1e-13


class TestCompatibility:
    def test_identical_pure(self):
        assert pooling.compatibility(Z0, Z0) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert pooling.compatibility(Z0, Z1) == 0.0

    def test_rejects_non_numeric_input(self):
        with pytest.raises(QpoolError, match="expected a numeric matrix"):
            pooling.compatibility("a", "b")

    def test_rejects_overflow(self):
        # The state gates run before the product, so the finite gate of
        # hermitian_sqrt rejects the state before Tr[AB] can overflow.
        big = np.diag([1e200, 1.0])
        with pytest.raises(QpoolError, match="sum .* overflows"):
            pooling.compatibility(big, big)

    def test_rejects_a_non_state(self):
        # Before the gate this returned -0.5.
        with pytest.raises(QpoolError, match="negative eigenvalue"):
            pooling.compatibility(np.diag([1.5, -0.5]), np.diag([0.0, 1.0]))

    def test_mixed_with_anything(self):
        assert pooling.compatibility(MIXED2, PLUS) == pytest.approx(0.5, abs=1e-15)

    def test_bloch_dot_formula(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            a *= rng.random() / np.linalg.norm(a)
            b *= rng.random() / np.linalg.norm(b)
            c = pooling.compatibility(
                linalg.bloch_to_density(a), linalg.bloch_to_density(b)
            )
            assert abs(c - 0.5 * (1.0 + a @ b)) < 1e-12

    def test_rescales_outcome_probability(self):
        # Against the posterior of an effect, compatibility recovers the
        # raw outcome probability once the effect's trace is put back.
        rng = np.random.default_rng(36)
        for dim in (2, 4):
            rho = random_density(dim, dim, rng)
            for e in random_povm(dim, 3, rng).elements:
                tr_e = np.trace(e).real
                c = pooling.compatibility(rho, e / tr_e)
                assert abs(c * tr_e - linalg.trace_product(e, rho)) < 1e-12

    def test_bounded_and_one_only_for_identical_pure(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            a = random_density(3, 3, rng)
            b = random_density(3, 3, rng)
            c = pooling.compatibility(a, b)
            assert -1e-15 <= c <= 1.0 + 1e-15
        # Full-rank states never reach 1, even paired with themselves.
        a = random_density(3, 3, rng)
        assert pooling.compatibility(a, a) < 1.0 - 1e-3
