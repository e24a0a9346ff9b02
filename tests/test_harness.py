import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qpool import harness, linalg, measurement, pooling
from qpool.errors import QpoolError, ZeroProbabilityError

Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)


def _projective_z():
    return measurement.validate_povm([Z0, Z1])


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rng = np.random.default_rng(50)
        for dim in (2, 3, 5):
            rho = harness.random_density(dim, 1, rng)
            assert linalg.trace_product(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_is_valid_and_invertible(self):
        rng = np.random.default_rng(51)
        rho = harness.random_density(4, 4, rng)
        linalg.validate_density(rho)
        assert np.linalg.eigvalsh(rho)[0] > 0.0

    def test_deterministic(self):
        a = harness.random_density(3, 2, np.random.default_rng(52))
        b = harness.random_density(3, 2, np.random.default_rng(52))
        assert np.array_equal(a, b)

    def test_bad_rank(self):
        rng = np.random.default_rng(53)
        with pytest.raises(QpoolError, match=r"outside \[1, 3\]"):
            harness.random_density(3, 0, rng)
        with pytest.raises(QpoolError, match=r"outside \[1, 3\]"):
            harness.random_density(3, 4, rng)


class TestRandomPovm:
    def test_validates(self):
        rng = np.random.default_rng(54)
        for dim, k in ((2, 2), (3, 4), (5, 3)):
            povm = harness.random_povm(dim, k, rng)
            assert povm.dim == dim
            assert len(povm) == k

    def test_deterministic(self):
        a = harness.random_povm(3, 3, np.random.default_rng(55))
        b = harness.random_povm(3, 3, np.random.default_rng(55))
        assert all(np.array_equal(x, y) for x, y in zip(a.elements, b.elements))

    def test_needs_two_outcomes(self):
        with pytest.raises(QpoolError):
            harness.random_povm(2, 1, np.random.default_rng(56))


class TestScenario:
    def test_run_scenario_sets_outcomes(self):
        scen = harness.Scenario(dim=2, povms=(_projective_z(), _projective_z()), seed=1)
        ran = harness.run_scenario(scen)
        assert scen.sampled_outcomes is None
        assert ran.sampled_outcomes is not None
        assert len(ran.sampled_outcomes) == 2
        # Projective outcomes repeat: the first result fixes the state.
        assert ran.sampled_outcomes[0] == ran.sampled_outcomes[1]

    def test_run_scenario_deterministic(self):
        rng = np.random.default_rng(57)
        povms = (harness.random_povm(3, 3, rng), harness.random_povm(3, 2, rng))
        scen = harness.Scenario(dim=3, povms=povms, seed=99)
        assert (
            harness.run_scenario(scen).sampled_outcomes
            == harness.run_scenario(scen).sampled_outcomes
        )

    def test_oracle_projective_chain(self):
        scen = harness.Scenario(
            dim=2,
            povms=(_projective_z(), _projective_z()),
            seed=0,
            sampled_outcomes=(0, 0),
        )
        assert np.allclose(harness.oracle_pool(scen), Z0, atol=1e-14)

    def test_oracle_requires_outcomes(self):
        scen = harness.Scenario(dim=2, povms=(_projective_z(),), seed=0)
        with pytest.raises(QpoolError):
            harness.oracle_pool(scen)

    def test_oracle_rejects_a_record_one_outcome_short(self):
        scen = harness.Scenario(
            dim=2, povms=(_projective_z(), _projective_z()), seed=0, sampled_outcomes=(0,)
        )
        with pytest.raises(QpoolError, match=r"^outcome count does not match POVM count$"):
            harness.oracle_pool(scen)

    def test_oracle_rejects_a_record_that_is_not_a_sequence(self):
        scen = harness.Scenario(2, (_projective_z(),), 0, 5)
        with pytest.raises(QpoolError, match="must be a list or tuple"):
            harness.oracle_pool(scen)

    def test_oracle_single_measurement_is_posterior(self):
        rng = np.random.default_rng(58)
        povm = harness.random_povm(3, 3, rng)
        for k in range(3):
            scen = harness.Scenario(
                dim=3, povms=(povm,), seed=0, sampled_outcomes=(k,)
            )
            expected = measurement.posterior_from_outcome(povm.elements[k])
            assert np.abs(harness.oracle_pool(scen) - expected).max() < 1e-12

    @pytest.mark.parametrize("outcome", [1, np.int64(1), np.uint8(1), np.array(1)])
    def test_oracle_accepts_integer_outcomes(self, outcome):
        scen = harness.Scenario(
            dim=2, povms=(_projective_z(),), seed=0, sampled_outcomes=(outcome,)
        )
        assert np.array_equal(harness.oracle_pool(scen), Z1)

    @pytest.mark.parametrize(
        "outcome", [-1, 2, 5, True, np.bool_(False), 1.0, "0", None, np.array([0, 1])]
    )
    def test_oracle_rejects_a_bad_record(self, outcome):
        # -1 would index the last effect and True would read as outcome 1.
        scen = harness.Scenario(
            dim=2, povms=(_projective_z(),), seed=0, sampled_outcomes=(outcome,)
        )
        with pytest.raises(QpoolError):
            harness.oracle_pool(scen)

    def test_scenario_dim_must_match_its_povms(self):
        scen = harness.Scenario(dim=3, povms=(_projective_z(),), seed=0)
        with pytest.raises(QpoolError, match=r"dimension mismatch: I/dim has dim 3, expected 2"):
            harness.run_scenario(scen)
        with pytest.raises(QpoolError, match=r"dimension mismatch: I/dim has dim 3, expected 2"):
            harness.oracle_pool(replace(scen, sampled_outcomes=(0,)))

    def test_every_povm_must_have_the_shape_of_povm_0(self):
        # The chain checks each POVM once, before its first step.
        z3 = measurement.validate_povm([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])])
        lanes = harness.random_povm(2, [2, 2, 2], [np.random.default_rng(i) for i in range(3)])
        for other, match in [
            (z3, r"^dimension mismatch: POVM 1 has dim 3, expected 2$"),
            (lanes, r"^shape mismatch: POVM 1 has shape \(3, 2, 2\), expected \(2, 2\)$"),
        ]:
            scen = harness.Scenario(dim=2, povms=(_projective_z(), other), seed=0)
            with pytest.raises(QpoolError, match=match):
                harness.run_scenario(scen)
            with pytest.raises(QpoolError, match=match):
                harness.oracle_pool(replace(scen, sampled_outcomes=(0, 0)))


def test_chain_probabilities_factorize():
    # P(k) P(j|k) must equal Tr[F_j E_k] / N: sampling through the updated
    # state reproduces the joint distribution of the measurement pair.
    rng = np.random.default_rng(59)
    dim = 3
    pov_a = harness.random_povm(dim, 3, rng)
    pov_b = harness.random_povm(dim, 2, rng)
    mixed = linalg.maximally_mixed(dim)
    p_first = measurement.outcome_probabilities(pov_a, mixed)
    for k, e in enumerate(pov_a.elements):
        after = measurement.bare_update(e, mixed)
        p_cond = measurement.outcome_probabilities(pov_b, after)
        for j, f in enumerate(pov_b.elements):
            joint = p_first[k] * p_cond[j]
            direct = linalg.trace_product(f, e) / dim
            assert abs(joint - direct) < 1e-12
    # Marginalizing the first outcome leaves the bare distribution of the
    # second measurement: one observer's action is invisible to the other.
    for j, f in enumerate(pov_b.elements):
        marginal = sum(
            p_first[k]
            * measurement.outcome_probabilities(
                pov_b, measurement.bare_update(e, mixed)
            )[j]
            for k, e in enumerate(pov_a.elements)
        )
        assert abs(marginal - np.trace(f).real / dim) < 1e-10


# The linalg gates a state or an effect can pass through.
GATES = ("check_state", "check_positive", "check_unit_trace", "hermitian_part", "check_finite")


def _count_gates(monkeypatch):
    """Wrap each gate and hermitian_sqrt; return the list of (name, first argument) calls."""
    calls = []
    for name in GATES + ("hermitian_sqrt",):
        original = getattr(linalg, name)

        def counted(m, *args, _name=name, _original=original):
            calls.append((_name, m))
            return _original(m, *args)

        monkeypatch.setattr(linalg, name, counted)
    return calls


def test_the_chain_gates_no_state_it_made(monkeypatch):
    # Five lanes of three POVMs at d = 3, with 2 to 4 outcomes per lane.
    counts = [2, 3, 4, 2, 3]
    draw = [np.random.default_rng(60 + i) for i in range(5)]
    povms = tuple(harness.random_povm(3, counts, draw) for _ in range(3))
    rngs = [np.random.default_rng(70 + i) for i in range(5)]
    calls = _count_gates(monkeypatch)
    scen = harness.run_scenario(harness.Scenario(dim=3, povms=povms, seed=0), rng=rngs)
    oracle = harness.oracle_pool(scen)
    assert np.array_equal(oracle, scen.final_state)
    # Per step and walk, hermitian_sqrt runs once, on the chosen effect,
    # with its own Hermiticity gate; no other gate runs.
    records = zip(povms, map(harness._outcome_index, povms, scen.sampled_outcomes))
    effects = [p.elements[(k, *lanes)] for p, (k, lanes) in records]
    names = [name for name, _ in calls]
    assert names == ["hermitian_sqrt", "hermitian_part", "check_finite"] * 6
    rooted = [m for name, m in calls if name == "hermitian_sqrt"]
    assert all(np.array_equal(m, e) for m, e in zip(rooted, effects + effects))


PLUS_MINUS = [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]


@pytest.mark.parametrize(
    "povms, first, impossible",
    [
        ([[np.diag([-5e-11, 0.0]), np.diag([1.0 + 5e-11, 1.0])]], 1, (0,)),
        ([PLUS_MINUS, [np.eye(2) / 2 + 9e-10 * np.ones((2, 2)), np.eye(2) / 2]], 0, None),
    ],
    ids=["effect eigenvalue -5e-11", "completeness defect 9e-10"],
)
def test_the_chain_runs_povms_at_the_edge_of_their_gates(povms, first, impossible):
    # Each POVM passes its own gate, so the chain must run it: from I/2 the
    # first gives p_0 = -2.5e-11, and after outcome + (seed 2) the second
    # gives probabilities summing to 1 + 1.8e-9.
    povms = tuple(measurement.validate_povm(p) for p in povms)
    scen = harness.run_scenario(harness.Scenario(dim=2, povms=povms, seed=2))
    assert scen.sampled_outcomes[0] == first
    assert np.isfinite(scen.final_state).all()
    assert scen.final_state.tobytes() == harness.oracle_pool(scen).tobytes()
    if impossible is not None:
        # The replay divides by the distribution's entry, where p_0 is
        # clipped to 0, so the message quotes 0 and not -2.5e-11.
        with pytest.raises(
            ZeroProbabilityError,
            match=r"^outcome probability 0\.000e\+00 is numerically zero or negative$",
        ):
            harness.oracle_pool(replace(scen, sampled_outcomes=impossible))


def test_each_update_divides_by_the_drawn_entry_of_its_steps_distribution(monkeypatch):
    # The chain forms one distribution per step, on the run and on the
    # replay, and the update step's normalizer is bitwise the entry of the
    # outcome drawn from it (or read from the record).
    laws, normalizers = [], []
    probabilities, update = measurement._probabilities, measurement._update

    def recorded_probabilities(povm, r):
        laws.append(probabilities(povm, r))
        return laws[-1]

    def recorded_update(s, r, p):
        normalizers.append(p)
        return update(s, r, p)

    monkeypatch.setattr(measurement, "_probabilities", recorded_probabilities)
    monkeypatch.setattr(measurement, "_update", recorded_update)
    single = tuple(harness.random_povm(3, 3, np.random.default_rng(90 + i)) for i in range(3))
    draw = [np.random.default_rng(92 + i) for i in range(5)]
    stacked = tuple(harness.random_povm(3, [2, 3, 4, 2, 3], draw) for _ in range(3))
    lanes = [np.random.default_rng(97 + i) for i in range(5)]
    for povms, rng in [(single, None), (stacked, lanes)]:
        laws.clear()
        normalizers.clear()
        scen = harness.run_scenario(harness.Scenario(dim=3, povms=povms, seed=4), rng=rng)
        assert harness.oracle_pool(scen).tobytes() == scen.final_state.tobytes()
        assert len(laws) == len(normalizers) == 6
        for p, k, t in zip(laws, scen.sampled_outcomes * 2, normalizers):
            drawn = np.take_along_axis(p, np.asarray(k)[..., None], axis=-1)[..., 0]
            assert np.shape(t) == drawn.shape and np.asarray(t).tobytes() == drawn.tobytes()
        # The replay forms the run's distributions again, bit for bit.
        assert all(a.tobytes() == b.tobytes() for a, b in zip(laws[:3], laws[3:]))


def test_a_public_update_or_probability_call_gates_its_state_once(monkeypatch):
    povm = harness.random_povm(3, 3, np.random.default_rng(61))
    rho = harness.random_density(3, 3, np.random.default_rng(62))
    calls = _count_gates(monkeypatch)
    measurement.bare_update(povm.elements[0], rho)
    assert [name for name, _ in calls].count("check_state") == 1
    calls.clear()
    measurement.outcome_probabilities(povm, rho)
    assert [name for name, _ in calls] == [
        "check_state", "check_positive", "hermitian_part", "check_finite", "check_unit_trace"
    ]


def _spoil(monkeypatch, attr, spoil):
    """Make the rule body pooling.<attr> return its report with spoil applied
    to the pooled states."""
    original = getattr(pooling, attr)

    def spoiled(arrs, roots):
        report = original(arrs, roots)
        return replace(report, pooled=spoil(report.pooled))

    monkeypatch.setattr(pooling, attr, spoiled)


class TestVerifySweeps:
    def test_two_observer_clean(self):
        report = harness.verify_two_observer(10, range(2, 4), 1e-10, 123)
        assert report.trials == 20
        assert report.failures == []
        assert report.max_oracle_distance < 1e-10

    def test_two_observer_deterministic(self):
        a = harness.verify_two_observer(5, range(2, 3), 1e-10, 7)
        b = harness.verify_two_observer(5, range(2, 3), 1e-10, 7)
        assert a == b

    def test_two_observer_rejects_bad_args(self):
        with pytest.raises(QpoolError):
            harness.verify_two_observer(0, range(2, 4), 1e-10, 1)
        with pytest.raises(QpoolError):
            harness.verify_two_observer(5, range(3, 2), 1e-10, 1)

    def test_nan_distance_is_a_failure(self, monkeypatch):
        def nan_pool(arrs, roots):
            return pooling.PoolReport(
                pooled=np.full(arrs.shape[1:], np.nan, dtype=complex),
                compatibility=1.0, paper_norm=1.0, trace_norm=1.0, norm_discrepancy=0.0,
            )

        monkeypatch.setattr(pooling, "_ordered", nan_pool)
        report = harness.verify_two_observer(5, range(2, 4), 1e-10, 0)
        assert report.max_oracle_distance == np.inf
        assert len(report.failures) == 10
        assert all(d == np.inf for _, d in report.failures)

    def test_wrongly_shaped_pooled_state_is_a_failure(self, monkeypatch):
        # One row and one column short: _distance reads inf in every lane
        # instead of ending the sweep.
        def short_pool(arrs, roots):
            return pooling.PoolReport(
                pooled=arrs[0][..., 1:, 1:],
                compatibility=1.0, paper_norm=1.0, trace_norm=1.0, norm_discrepancy=0.0,
            )

        monkeypatch.setattr(pooling, "_ordered", short_pool)
        report = harness.verify_two_observer(5, range(2, 4), 1e-10, 0)
        assert report.max_oracle_distance == np.inf
        assert len(report.failures) == 10
        assert all(d == np.inf for _, d in report.failures)

    def test_impossible_tolerance_reports_failures(self):
        report = harness.verify_two_observer(5, range(2, 3), 1e-18, 7)
        assert report.failures
        assert all(d > 1e-18 for _, d in report.failures)

    def test_commuting_reduction_clean(self):
        report = harness.verify_commuting_reduction(20, [4], 1e-10, 5)
        assert report.failures == []
        assert report.max_oracle_distance < 1e-10

    def test_three_observer_clean(self):
        report = harness.verify_three_observer(10, [2], 1e-10, 9)
        assert report.failures == []
        assert report.max_oracle_distance < 1e-10
        # Non-commuting triples generically split the two normalizers.
        assert report.max_norm_discrepancy > 1e-6

    def test_three_observer_commuting_discrepancy_vanishes(self):
        report = harness.sweep(10, [3], 1e-10, 13, 3, "diagonal")
        assert report.failures == []
        assert report.max_norm_discrepancy < 1e-10

    # Every suite pools by both rules: the ordered one against the chain
    # oracle, the symmetric one against its family's reference.
    def test_two_observer_fails_an_invalid_symmetric_state(self, monkeypatch):
        # Twice a state has trace 2, so it is not a density matrix.
        _spoil(monkeypatch, "_symmetric", lambda rho: 2.0 * rho)
        report = harness.verify_two_observer(3, range(2, 4), 1e-10, 0)
        assert [d for _, d in report.failures] == [np.inf] * 6

    def test_commuting_reduction_fails_an_ordered_rule_that_conjugates_by_the_states(
        self, monkeypatch
    ):
        def by_states(arrs, roots):
            num = arrs[0]
            for rho in arrs[1:]:
                num = rho @ num @ rho
            return pooling._report(num, arrs, 1, "nested trace")

        monkeypatch.setattr(pooling, "_ordered", by_states)
        report = harness.verify_commuting_reduction(3, range(2, 4), 1e-10, 0)
        assert len(report.failures) == 6

    def test_diagonal_three_observer_fails_a_symmetric_state_off_the_classical_product(
        self, monkeypatch
    ):
        # Still a density matrix, so only the classical reference can catch it.
        _spoil(
            monkeypatch,
            "_symmetric",
            lambda rho: 0.9 * rho + 0.1 * np.eye(rho.shape[-1]) / rho.shape[-1],
        )
        report = harness.sweep(3, range(2, 4), 1e-10, 0, 3, "diagonal")
        assert len(report.failures) == 6
        assert all(d > 1e-3 for _, d in report.failures)

    def test_bad_args(self):
        with pytest.raises(QpoolError):
            harness.verify_commuting_reduction(0, [4], 1e-10, 1)
        with pytest.raises(QpoolError):
            harness.verify_three_observer(5, [1], 1e-10, 1)

    # No suite of SUITES runs n >= 4; the Liouville route of the symmetric
    # rule serves n >= 5 at these dims.
    @pytest.mark.parametrize("family", harness.FAMILIES)
    @pytest.mark.parametrize("observers", [4, 5, 6])
    def test_four_to_six_observers_pass(self, observers, family):
        report = harness.sweep(20, [2, 3, 4], 1e-10, 0, observers, family)
        assert report.trials == 60
        assert report.failures == []


def test_observer_counts_draw_their_first_povm_from_their_own_streams(monkeypatch):
    # Trial i of the two- and the three-observer suite must not share a stream.
    first = []
    original = harness.random_povm

    def recording(dim, n_outcomes, rng):
        povm = original(dim, n_outcomes, rng)
        first.append(povm.elements)
        return povm

    monkeypatch.setattr(harness, "random_povm", recording)
    harness.verify_two_observer(5, [3], 1e-10, 0)
    harness.verify_three_observer(5, [3], 1e-10, 0)
    two, three = first[0], first[2]
    for i in range(5):
        assert not np.array_equal(two[:, i], three[:, i])


@pytest.mark.parametrize(
    "n,sweep", [(2, harness.verify_two_observer), (3, harness.verify_three_observer)]
)
def test_a_failure_seed_replays_its_trial_alone(monkeypatch, n, sweep):
    # A squared ordered state fails every trial by a distance of its own.
    def squared(rho):
        sq = rho @ rho
        return sq / linalg.per_matrix(linalg.trace(sq))

    _spoil(monkeypatch, "_ordered", squared)
    stacks = []
    stacked = harness._trial

    def recording(*args):
        stacks.append(stacked(*args))
        return stacks[-1]

    monkeypatch.setattr(harness, "_trial", recording)
    dims = (2, 3)
    report = sweep(4, dims, 1e-10, 5)
    assert len(report.failures) == 8 and len(stacks) == 2
    # Trial i is lane i // 2 of the stack at dims[i % 2].
    lanes = [stacks[i % 2][:, i // 2].tolist() for i in range(8)]
    for i, (seed, d) in enumerate(report.failures):
        replay, redraws = harness._trial_alone(n, "random", dims[i % 2], seed)
        assert replay == pytest.approx(lanes[i], rel=1e-9, abs=1e-15)
        assert redraws == 0
        # The ordered check fails the trial; the symmetric one passes.
        assert replay[:2] == pytest.approx([d, 0.0], rel=1e-9)
        assert d > 1e-6


def test_trial_seeds_distinct():
    seeds = {harness.trial_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


@pytest.mark.parametrize("lanes", [range(1), range(300), range(2, 900, 3)], ids=str)
@pytest.mark.parametrize("seed", [0, 1, 3, 12345, -7, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_trial_generators_equal_default_rng(seed, lanes):
    # The one-pass seeding must give every lane the stream a lone trial
    # replays with default_rng, bit for bit; a sweep passes one dim's
    # strided lanes.
    rngs = harness.trial_generators(seed, lanes)
    assert len(rngs) == len(lanes)
    draws = (lambda g: g.random(), lambda g: g.integers(2, 5), lambda g: g.standard_normal())
    for i, rng in zip(lanes, rngs):
        lone = np.random.default_rng(harness.trial_seed(seed, i))
        assert rng.bit_generator.state == lone.bit_generator.state
        for draw in draws:
            assert draw(rng) == draw(lone)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dims", [[2, 3, 4], [3]], ids=str)
def test_sweep_seeds_each_suite_once_with_each_dims_own_streams(dims, n, monkeypatch):
    # One trial_generators pass per suite; dim j's stack gets the streams of
    # its own lanes j, j + len(dims), ..., in state as if seeded alone.
    trials, seed = 5, 17
    passes, stacks = [], []
    seeding = harness.trial_generators

    def counted(*args):
        passes.append(args)
        return seeding(*args)

    def record(n, family, dim, rngs):
        stacks.append((dim, [r.bit_generator.state for r in rngs]))
        return np.zeros((len(harness._CHECKS), len(rngs)))

    monkeypatch.setattr(harness, "trial_generators", counted)
    monkeypatch.setattr(harness, "_trial", record)
    report = harness.sweep(trials, dims, 1e-10, seed, n, "random")
    assert report.trials == trials * len(dims) and not report.failures
    assert len(passes) == 1
    suite_seed = harness.trial_seed(seed, (n - 2) * harness._OBSERVER_INDEX_STRIDE)
    total = trials * len(dims)
    assert [dim for dim, _ in stacks] == dims
    for j, (_, states) in enumerate(stacks):
        alone = seeding(suite_seed, range(j, total, len(dims)))
        assert states == [r.bit_generator.state for r in alone]


def _outcome_povm(lanes):
    """A (3, *lanes, 2, 2) Povm, its lanes alternating 3 and 2 outcomes."""
    count = math.prod(lanes)
    rngs = [np.random.default_rng(80 + i) for i in range(count)]
    stack = harness.random_povm(2, [3 - i % 2 for i in range(count)], rngs)
    return measurement.Povm(stack.elements.reshape(3, *lanes, 2, 2))


@pytest.mark.parametrize("lanes", [(), (4,), (2, 3)], ids=str)
def test_outcome_effect_gathers_what_take_along_axis_gathers(lanes):
    povm = _outcome_povm(lanes)
    idx = np.random.default_rng(82).integers(0, 3, size=lanes)
    for k in (idx, idx.astype(np.uint8)):
        expected = np.take_along_axis(povm.elements, k[None, ..., None, None], axis=0)[0]
        index, lane_indices = harness._outcome_index(povm, k)
        got = povm.elements[(index, *lane_indices)]
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "lanes, k",
    [
        ((), 1.0),
        ((4,), np.array([0.0, 1.0, 0.0, 1.0])),
        ((), 3),
        ((4,), np.array([0, 1, 3, 1])),
        ((2, 3), np.full((2, 3), -1)),
        ((4,), np.array([0, 1, 1])),
        ((2, 3), np.zeros(6, dtype=int)),
        ((4,), 0),
    ],
    ids=[
        "float", "float lanes", "out of range", "out of range lane", "negative",
        "too few lanes", "flat lanes", "one index for lanes",
    ],
)
def test_outcome_effect_gates_its_index(lanes, k):
    povm = _outcome_povm(lanes)
    with pytest.raises(QpoolError):
        harness._outcome_index(povm, k)


def _povm_rng():
    return np.random.default_rng(0)


# Each call breaks the integer rule (a Python or numpy integer, not a bool,
# at least its minimum), the real-number rule for tol (a Python or numpy
# real, not a bool), the generator rule (one Generator, or a list or tuple
# with one entry per lane), or passes dims that are not a non-empty list,
# tuple or range, outcome counts that are not one integer or a flat list
# of them, or a scenario that is not a Scenario.
TYPED_REJECTIONS = {
    "fractional outcome count": lambda: harness.random_povm(2, 2.7, _povm_rng()),
    "fractional dim range": lambda: harness.verify_two_observer(1, (2.7, 3.9), 1e-10, 0),
    "bool trials": lambda: harness.verify_two_observer(True, range(2, 3), 1e-10, 0),
    "fractional povm dim": lambda: harness.random_povm(2.5, 2, _povm_rng()),
    "zero povm dim": lambda: harness.random_povm(0, 2, _povm_rng()),
    "fractional rank": lambda: harness.random_density(3, 2.5, _povm_rng()),
    "density rng None": lambda: harness.random_density(2, 2, None),
    "density rng list": lambda: harness.random_density(2, 2, [_povm_rng()]),
    "fractional scenario dim": lambda: harness.oracle_pool(
        harness.Scenario(dim=2.5, povms=(_projective_z(),), seed=0, sampled_outcomes=(0,))
    ),
    "fractional commuting dim": lambda: harness.verify_commuting_reduction(2, [2.5], 1e-10, 0),
    "fractional sweep seed": lambda: harness.verify_two_observer(1, range(2, 3), 1e-10, 1.5),
    "fractional scenario seed": lambda: harness.run_scenario(
        harness.Scenario(dim=2, povms=(_projective_z(),), seed=1.5)
    ),
    "povm rng None": lambda: harness.random_povm(2, 3, None),
    "povm rng int": lambda: harness.random_povm(2, 3, 5),
    "run_scenario int": lambda: harness.run_scenario(5),
    "oracle_pool int": lambda: harness.oracle_pool(5),
    "scenario rng int": lambda: harness.run_scenario(
        harness.Scenario(dim=2, povms=(_projective_z(),), seed=0), rng=5
    ),
    "empty dims": lambda: harness.verify_two_observer(1, (), 1e-10, 0),
    "integer dim range": lambda: harness.verify_two_observer(1, 5, 1e-10, 0),
    "integer commuting dims": lambda: harness.verify_commuting_reduction(1, 2, 1e-10, 0),
    "integer three-observer dims": lambda: harness.verify_three_observer(1, 3, 1e-10, 0),
    "empty three-observer dims": lambda: harness.verify_three_observer(1, range(2, 2), 1e-10, 0),
    "nested outcome counts": lambda: harness.random_povm(
        2, [2, [3, 4]], [_povm_rng(), _povm_rng()]
    ),
    "string tol": lambda: harness.verify_two_observer(1, range(2, 4), "x", 0),
    "None tol": lambda: harness.verify_commuting_reduction(1, [2], None, 0),
    "bool tol": lambda: harness.verify_two_observer(1, range(2, 4), True, 0),
    "bool three-observer tol": lambda: harness.verify_three_observer(1, [2], True, 0),
    **{
        f"sweep observers {observers!r}": (
            lambda observers=observers: harness.sweep(1, [2], 1e-10, 0, observers, "random")
        )
        for observers in (1, 7, True, 2.0, "2")
    },
    **{
        f"sweep family {family!r}": (
            lambda family=family: harness.sweep(1, [2], 1e-10, 0, 2, family)
        )
        for family in ("x", None, True, [])
    },
}


@pytest.mark.parametrize("name", sorted(TYPED_REJECTIONS))
def test_integer_and_generator_rules_raise_qpool_error(name):
    with pytest.raises(
        QpoolError,
        match=r"must be an integer|must be >=|must be <=|must be a real|rng must be"
        r"|dims must be|at least one dim|family must be|must be a Scenario",
    ):
        TYPED_REJECTIONS[name]()


@pytest.mark.parametrize("name", sorted(n for n in TYPED_REJECTIONS if n.startswith("sweep ")))
def test_sweep_rejects_observers_and_family_before_any_draw(name, monkeypatch):
    def seeding(*args):
        raise AssertionError("the sweep seeded its trial streams")

    monkeypatch.setattr(harness, "trial_generators", seeding)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QpoolError):
            TYPED_REJECTIONS[name]()


def test_a_numpy_float_tol_is_a_real_number():
    report = harness.verify_two_observer(2, range(2, 3), np.float64(1e-10), 0)
    assert report == harness.verify_two_observer(2, range(2, 3), 1e-10, 0)
