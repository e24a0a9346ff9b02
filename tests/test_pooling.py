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
        with pytest.raises(QpoolError, match=r"dimension mismatch: pb has dim 3, expected 2"):
            pooling.classical_pool([0.5, 0.5], [0.3, 0.3, 0.4])

    def test_negative_entries_rejected(self):
        with pytest.raises(QpoolError):
            pooling.classical_pool([1.2, -0.2], [0.5, 0.5])

    @pytest.mark.parametrize(
        "pa, pb", [([1e200, 1.0], [1e200, 1.0]), ([1e308, 1e308], [1.0, 1.0])]
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_sum_of_products_rejected(self, pa, pb):
        # The sum overflows to inf; dividing by it gave [nan, 0] and [0, 0].
        with pytest.raises(QpoolError, match="sum of products inf is not finite") as exc:
            pooling.classical_pool(pa, pb)
        assert type(exc.value) is QpoolError

    def test_empty_vectors_rejected(self):
        with pytest.raises(QpoolError, match=r"non-empty"):
            pooling.classical_pool([], [])

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
    """The symmetric numerator as the paper writes it: one nested term per ordering."""
    arrs = [np.asarray(s, dtype=complex) for s in states]
    roots = [linalg.hermitian_sqrt(a) for a in arrs]
    num = np.zeros_like(arrs[0])
    for perm in permutations(range(len(arrs))):
        term = arrs[perm[0]]
        for i in perm[1:]:
            term = roots[i] @ term @ roots[i]
        num = num + term
    return linalg.hermitianize(num)


def _subset_loop(states, norm_mode="trace") -> pooling.PoolReport:
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
    return pooling._report(sums[-1], arrs, factorial(n), "permutation-sum trace", norm_mode)


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


def _pooled_or_message(pool, states, *mode):
    """The pooled state of a rule, or the message it rejects the states with."""
    try:
        return pool(states, *mode).pooled
    except IncompatibleStatesError as exc:
        return str(exc)


class TestPoolSymmetricMulti(_StatesGatedAsOneStack):
    pool = staticmethod(pooling.pool_symmetric_multi)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_permutation_sum(self, n, dim):
        rng = np.random.default_rng(1000 + 10 * n + dim)
        for rank in range(1, dim + 1):
            states = [random_density(dim, rank, rng) for _ in range(n)]
            num = _permutation_sum(states)
            denoms = {
                "trace": np.trace(num).real,
                "paper": factorial(n) * np.trace(np.linalg.multi_dot(states)).real,
            }
            for mode, denom in denoms.items():
                if not denom > linalg.ZERO_TOL:
                    with pytest.raises(IncompatibleStatesError):
                        pooling.pool_symmetric_multi(states, norm_mode=mode)
                    continue
                want = num / denom
                got = pooling.pool_symmetric_multi(states, norm_mode=mode).pooled
                # A paper denominator far below the trace scales the pooled
                # entries, and their rounding, up by the same factor.
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("lanes", [None, 5])
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_equals_subset_loop(self, n, dim, lanes):
        rng = np.random.default_rng(2000 + 100 * n + 10 * dim + (lanes or 0))

        def draw(rank):
            if lanes is None:
                return random_density(dim, rank, rng)
            return np.array([random_density(dim, rank, rng) for _ in range(lanes)])

        for rank in range(1, dim + 1):
            states = [draw(rank) for _ in range(n)]
            for mode in pooling.NORM_MODES:
                want = _pooled_or_message(_subset_loop, states, mode)
                got = _pooled_or_message(pooling.pool_symmetric_multi, states, mode)
                if isinstance(want, str):
                    assert got == want
                else:
                    assert np.array_equal(got, want)

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

    def test_two_states_matches_pairwise_both_modes(self):
        rng = np.random.default_rng(30)
        a = random_density(3, 3, rng)
        b = random_density(3, 3, rng)
        pair = pooling.pool_symmetric(a, b)
        for mode in pooling.NORM_MODES:
            multi = pooling.pool_symmetric_multi([a, b], norm_mode=mode)
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

    def test_paper_mode_close_to_trace_mode_generically(self):
        rng = np.random.default_rng(33)
        states = [random_density(2, 2, rng) for _ in range(3)]
        t = pooling.pool_symmetric_multi(states, norm_mode="trace")
        p = pooling.pool_symmetric_multi(states, norm_mode="paper")
        # Same numerator, different denominators: the ratio of the two
        # pooled matrices is trace_norm / paper_norm everywhere.
        ratio = t.paper_norm / t.trace_norm
        assert np.abs(p.pooled * ratio - t.pooled).max() < 1e-12
        assert abs(np.trace(t.pooled).real - 1.0) < 1e-13

    def test_state_count_limits(self):
        with pytest.raises(QpoolError, match=r"at least two states"):
            pooling.pool_symmetric_multi([Z0])
        with pytest.raises(QpoolError, match=r"capped at"):
            pooling.pool_symmetric_multi([MIXED2] * 7)

    def test_bad_norm_mode(self):
        with pytest.raises(QpoolError):
            pooling.pool_symmetric_multi([Z0, Z0], norm_mode="both")


def _trine():
    """Three pure qubits with Bloch vectors 120 degrees apart in the x-y plane."""
    angles = 2 * np.pi * np.arange(3) / 3
    return [linalg.bloch_to_density([np.cos(a), np.sin(a), 0.0]) for a in angles]


def test_paper_denominator_gate():
    # The permutation sum has trace 0.375, but the closed form
    # 3! Re Tr[rho_1 rho_2 rho_3] is -0.75: trace mode pools, paper mode
    # must not divide by a negative denominator.
    report = pooling.pool_symmetric_multi(_trine(), norm_mode="trace")
    assert report.trace_norm == pytest.approx(0.375, abs=1e-14)
    assert report.paper_norm == pytest.approx(-0.75, abs=1e-14)
    linalg.validate_density(report.pooled)
    with pytest.raises(
        IncompatibleStatesError,
        match=r"closed-form denominator -7\.500e-01 is numerically zero or negative",
    ):
        pooling.pool_symmetric_multi(_trine(), norm_mode="paper")


class TestCompatibility:
    def test_identical_pure(self):
        assert pooling.compatibility(Z0, Z0) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal(self):
        assert pooling.compatibility(Z0, Z1) == 0.0

    def test_rejects_non_numeric_input(self):
        with pytest.raises(QpoolError, match="expected a numeric matrix"):
            pooling.compatibility("a", "b")

    def test_rejects_overflow(self):
        big = np.diag([1e200, 1.0])
        with pytest.raises(QpoolError, match="not finite"):
            pooling.compatibility(big, big)

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
