import json

import numpy as np
import pytest

from qpool import cli, harness, linalg, measurement
from qpool.errors import QpoolError, ZeroProbabilityError
from qpool.harness import random_density, random_povm

Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)
MIXED2 = np.eye(2, dtype=complex) / 2

PROJECTIVE_Z = [Z0, Z1]


class TestValidatePovm:
    def test_projective(self):
        povm = measurement.validate_povm(PROJECTIVE_Z)
        assert povm.dim == 2
        assert len(povm) == 2

    def test_coarse_identity_split(self):
        povm = measurement.validate_povm([0.3 * np.eye(2), 0.7 * np.eye(2)])
        assert povm.dim == 2
        measurement.validate_povm([np.eye(2) / 2, np.eye(2) / 2])

    def test_incomplete_rejected(self):
        with pytest.raises(QpoolError, match=r"effects sum to I"):
            measurement.validate_povm(
                [np.diag([0.6, 0.0]), np.diag([0.4, 0.9])]
            )

    def test_empty_rejected(self):
        with pytest.raises(QpoolError, match=r"no elements"):
            measurement.validate_povm([])

    def test_negative_element_rejected(self):
        with pytest.raises(QpoolError, match=r"negative eigenvalue"):
            measurement.validate_povm([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    def test_mixed_dims_rejected(self):
        with pytest.raises(QpoolError, match=r"has dim 3, expected 2"):
            measurement.validate_povm([np.eye(2), np.eye(3)])

    def test_non_hermitian_element_rejected(self):
        skew = np.array([[0.0, 0.1], [-0.1, 0.0]])
        with pytest.raises(QpoolError, match=r"not Hermitian"):
            measurement.validate_povm([0.5 * np.eye(2) + skew, 0.5 * np.eye(2) - skew])


def _lane_rngs(lanes):
    return [np.random.default_rng(i) for i in range(lanes)]


# name -> (builder, expected shape of the elements)
POVM_BUILDERS = {
    "validate_povm of a list": (lambda: measurement.validate_povm(PROJECTIVE_Z), (2, 2, 2)),
    "random_povm single": (lambda: random_povm(3, 4, np.random.default_rng(0)), (4, 3, 3)),
    "random_povm stacked": (lambda: random_povm(3, [2, 4, 3], _lane_rngs(3)), (4, 3, 3, 3)),
    "diagonal single": (
        lambda: harness._random_diagonal_povm(2, 3, np.random.default_rng(0)),
        (3, 2, 2),
    ),
    "diagonal stacked": (
        lambda: harness._random_diagonal_povm(2, [3, 2], _lane_rngs(2)),
        (3, 2, 2, 2),
    ),
    "parse_povm_payload": (
        lambda: cli.parse_povm_payload(
            json.loads(cli.povm_file_text(random_povm(2, 3, np.random.default_rng(1))))
        ),
        (3, 2, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(POVM_BUILDERS))
def test_povm_elements_are_one_stack(name):
    build, shape = POVM_BUILDERS[name]
    povm = build()
    assert type(povm.elements) is np.ndarray
    assert povm.elements.dtype == complex
    assert povm.elements.shape == shape
    assert len(povm) == shape[0]


@pytest.mark.parametrize(
    "given",
    [
        lambda: random_povm(3, [3, 2, 4], _lane_rngs(3)).elements,
        lambda: harness._random_diagonal_povm(2, [3, 2], _lane_rngs(2)).elements.real,
    ],
    ids=["complex", "real"],
)
def test_validate_povm_of_a_stack_owns_its_copy(given):
    # An array stack gives the Povm of its element list, and the Povm never
    # shares memory with the caller's array.
    given = np.ascontiguousarray(given())
    povm = measurement.validate_povm(given)
    assert not np.shares_memory(povm.elements, given)
    assert povm.elements.tobytes() == measurement.validate_povm(list(given)).elements.tobytes()
    given[0] = np.nan
    assert np.isfinite(povm.elements).all()


class TestOutcomeProbabilities:
    def test_projective_on_pure(self):
        povm = measurement.validate_povm(PROJECTIVE_Z)
        p = measurement.outcome_probabilities(povm, Z0)
        assert np.allclose(p, [1.0, 0.0], atol=1e-15)

    def test_projective_on_mixed(self):
        povm = measurement.validate_povm(PROJECTIVE_Z)
        p = measurement.outcome_probabilities(povm, np.eye(2, dtype=complex) / 2)
        assert np.allclose(p, [0.5, 0.5], atol=1e-15)

    def test_coarse_povm_state_independent(self):
        povm = measurement.validate_povm([0.3 * np.eye(2), 0.7 * np.eye(2)])
        rng = np.random.default_rng(0)
        p = measurement.outcome_probabilities(povm, random_density(2, 2, rng))
        assert np.allclose(p, [0.3, 0.7], atol=1e-14)

    def test_random_povm_normalized(self):
        rng = np.random.default_rng(1)
        povm = random_povm(3, 4, rng)
        p = measurement.outcome_probabilities(povm, random_density(3, 3, rng))
        assert abs(p.sum() - 1.0) < 1e-12
        assert p.min() >= 0.0

    def test_dim_mismatch(self):
        povm = measurement.validate_povm(PROJECTIVE_Z)
        with pytest.raises(QpoolError, match=r"dimension mismatch: state has dim 3, expected 2"):
            measurement.outcome_probabilities(povm, np.eye(3) / 3)

    @pytest.mark.parametrize(
        "rho, match",
        [
            (np.diag([1.5, -0.5]).astype(complex), r"^state has negative eigenvalue"),
            (np.eye(2, dtype=complex), r"^state trace 2\.0 differs from 1"),
        ],
    )
    def test_invalid_state_raises_typed_error(self, rho, match):
        povm = measurement.validate_povm(PROJECTIVE_Z)
        with pytest.raises(QpoolError, match=match):
            measurement.outcome_probabilities(povm, rho)

    @pytest.mark.parametrize(
        "elements, match",
        [
            ([-Z0, np.eye(2) + Z0], r"^probability -5\.000e-01 < 0"),
            ([Z0, np.eye(2)], r"^probabilities sum to 1\.5"),
        ],
        ids=["negative effect", "effects sum to I + Z0"],
    )
    def test_a_povm_built_without_validate_povm_meets_the_probability_gates(self, elements, match):
        # A valid state gets past the state gate; the probabilities are gated after it.
        povm = measurement.Povm(2, np.array(elements, dtype=complex))
        with pytest.raises(QpoolError, match=match):
            measurement.outcome_probabilities(povm, MIXED2)


class TestBareUpdate:
    def test_projector_on_mixed(self):
        out = measurement.bare_update(Z0, np.eye(2, dtype=complex) / 2)
        assert np.allclose(out, Z0, atol=1e-14)

    def test_proportional_to_identity_changes_nothing(self):
        rng = np.random.default_rng(2)
        rho = random_density(2, 2, rng)
        out = measurement.bare_update(0.5 * np.eye(2), rho)
        assert np.abs(out - rho).max() < 1e-14

    def test_weak_effect_on_ignorance_gives_posterior(self):
        out = measurement.bare_update(np.diag([0.8, 0.2]).astype(complex), MIXED2)
        assert np.allclose(out, np.diag([0.8, 0.2]), atol=1e-14)

    def test_diagonal_is_classical_bayes(self):
        e = np.diag([0.8, 0.1, 0.4]).astype(complex)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        out = measurement.bare_update(e, rho)
        expected = np.array([0.8 * 0.5, 0.1 * 0.3, 0.4 * 0.2])
        expected /= expected.sum()
        assert np.allclose(np.diag(out).real, expected, atol=1e-14)
        assert np.abs(out - np.diag(np.diag(out))).max() < 1e-15

    def test_result_is_valid_density(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 5):
            povm = random_povm(dim, 3, rng)
            rho = random_density(dim, dim, rng)
            for e in povm.elements:
                out = measurement.bare_update(e, rho)
                linalg.validate_density(out)

    def test_zero_probability_rejected(self):
        with pytest.raises(ZeroProbabilityError):
            measurement.bare_update(Z1, Z0)

    def test_infinite_entry_is_a_bad_input(self):
        # The state gate rejects it before an outcome probability is formed:
        # a bad state, not an impossible outcome, so the error is no
        # ZeroProbabilityError for a sweep to redraw on.
        rho = MIXED2.copy()
        rho[0, 0] = np.inf
        with pytest.raises(QpoolError, match="state has a non-finite entry") as exc:
            measurement.bare_update(Z0, rho)
        assert type(exc.value) is QpoolError

    def test_dim_mismatch(self):
        with pytest.raises(QpoolError, match=r"dimension mismatch: state has dim 2, expected 3"):
            measurement.bare_update(np.eye(3), np.eye(2) / 2)


def test_non_disturbance_of_total_ignorance():
    # Summing the bare updates over outcomes, weighted by probability,
    # returns total ignorance: the measured party learns, nobody else does.
    rng = np.random.default_rng(4)
    for dim in (2, 3, 4):
        povm = random_povm(dim, 3, rng)
        mixed = linalg.maximally_mixed(dim)
        total = np.zeros((dim, dim), dtype=complex)
        for e in povm.elements:
            s = linalg.hermitian_sqrt(e)
            total += s @ mixed @ s
        assert np.abs(total - mixed).max() < 1e-12


class TestPosteriorFromOutcome:
    def test_projector(self):
        assert np.allclose(measurement.posterior_from_outcome(Z0), Z0, atol=1e-15)

    def test_scaled_identity(self):
        out = measurement.posterior_from_outcome(0.3 * np.eye(2))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_zero_effect_rejected(self):
        with pytest.raises(QpoolError, match=r"effect trace .* is numerically zero"):
            measurement.posterior_from_outcome(np.zeros((2, 2)))

    def test_equals_bare_update_of_ignorance(self):
        # An effect observed against total ignorance carries exactly the
        # posterior E / Tr[E]; the whole harness rests on this.
        rng = np.random.default_rng(8)
        for dim in (2, 3, 4):
            povm = random_povm(dim, 3, rng)
            for e in povm.elements:
                a = measurement.posterior_from_outcome(e)
                b = measurement.bare_update(e, linalg.maximally_mixed(dim))
                assert np.abs(a - b).max() < 1e-12


class TestSampleOutcome:
    def test_certain_outcome(self):
        povm = measurement.validate_povm(PROJECTIVE_Z)
        rng = np.random.default_rng(9)
        for _ in range(50):
            assert measurement.sample_outcome(povm, Z0, rng) == 0

    def test_frequencies_match_probabilities(self):
        effects = [0.3 * np.eye(2), 0.7 * np.eye(2)]
        n = 100_000
        # One stacked call whose lanes all share one generator draws the n
        # variates in the order n single calls on that generator draw them.
        stacked = measurement.validate_povm([np.broadcast_to(e, (n, 2, 2)) for e in effects])
        rng = np.random.default_rng(10)
        outcomes = measurement.sample_outcome(stacked, np.broadcast_to(Z0, (n, 2, 2)), [rng] * n)
        povm = measurement.validate_povm(effects)
        rng = np.random.default_rng(10)
        singles = [measurement.sample_outcome(povm, Z0, rng) for _ in range(1000)]
        assert outcomes[:1000].tolist() == singles
        hits = np.count_nonzero(outcomes == 0)
        assert abs(hits / n - 0.3) < 0.01

    @pytest.mark.parametrize("rng", [None, 5, "seed"])
    def test_rng_must_be_a_generator_or_a_list_of_them(self, rng):
        povm = measurement.validate_povm(PROJECTIVE_Z)
        with pytest.raises(QpoolError, match=r"rng must be a numpy Generator"):
            measurement.sample_outcome(povm, Z0, rng)

    def test_one_generator_per_lane(self):
        povm = measurement.validate_povm([Z0[None], Z1[None]])
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(QpoolError, match=r"^2 generators for 1 lanes$"):
            measurement.sample_outcome(povm, Z0[None], rngs)

    def test_deterministic_given_seed(self):
        povm = measurement.validate_povm([0.5 * np.eye(2), 0.5 * np.eye(2)])
        draws_a = [
            measurement.sample_outcome(povm, Z0, np.random.default_rng(s))
            for s in range(20)
        ]
        draws_b = [
            measurement.sample_outcome(povm, Z0, np.random.default_rng(s))
            for s in range(20)
        ]
        assert draws_a == draws_b
