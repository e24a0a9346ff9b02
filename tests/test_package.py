import ast
import cmath
import inspect
import math
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qpool
from qpool import errors, harness, linalg, measurement, pooling, qubit
from qpool.errors import QpoolError
from qpool.harness import random_density, random_povm


def test_all_lists_names_not_modules():
    assert not any(isinstance(getattr(qpool, name), ModuleType) for name in qpool.__all__)
    subclasses = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, QpoolError)
    }
    assert subclasses <= set(qpool.__all__)


def _densities(n):
    return lambda rng, d: [random_density(d, d, rng) for _ in range(n)]


def _probabilities(rng, dim):
    p = rng.random(dim) + 0.1
    return p / p.sum()


def _bloch(rng):
    v = rng.standard_normal(3)
    return 0.9 * rng.random() * v / np.linalg.norm(v)


# name -> (valid arguments from (rng, dim), the call under test)
BOUNDARIES = {
    "validate_density": (_densities(1), linalg.validate_density),
    "hermitian_sqrt": (_densities(1), linalg.hermitian_sqrt),
    "validate_povm": (
        lambda rng, d: list(random_povm(d, 3, rng).elements),
        lambda *es: measurement.validate_povm(list(es)),
    ),
    "posterior_from_outcome": (
        lambda rng, d: [random_povm(d, 2, rng).elements[0]],
        measurement.posterior_from_outcome,
    ),
    "classical_pool": (
        lambda rng, d: [_probabilities(rng, d), _probabilities(rng, d)],
        pooling.classical_pool,
    ),
    "bloch_to_density": (lambda rng, d: [_bloch(rng)], linalg.bloch_to_density),
    "pool_ordered": (_densities(2), pooling.pool_ordered),
    "pool_symmetric": (_densities(2), pooling.pool_symmetric),
    "frobenius_distance": (_densities(2), linalg.frobenius_distance),
    "density_to_bloch": (
        lambda rng, d: [linalg.bloch_to_density(_bloch(rng))],
        linalg.density_to_bloch,
    ),
    "bare_update": (
        lambda rng, d: [random_povm(d, 2, rng).elements[0], random_density(d, d, rng)],
        measurement.bare_update,
    ),
    # The elements, then the state; the POVM is built without validate_povm,
    # so a spoiled element reaches outcome_probabilities itself.
    "outcome_probabilities": (
        lambda rng, d: [*random_povm(d, 3, rng).elements, random_density(d, d, rng)],
        lambda *a: measurement.outcome_probabilities(
            measurement.Povm(a[0].shape[-1], np.array(a[:-1])), a[-1]
        ),
    ),
    "trace_product": (_densities(2), linalg.trace_product),
    "pool_ordered_multi": (_densities(3), lambda *s: pooling.pool_ordered_multi(s)),
    "pool_symmetric_multi": (_densities(3), lambda *s: pooling.pool_symmetric_multi(s)),
    "pool_bloch": (lambda rng, d: [_bloch(rng), _bloch(rng)], qubit.pool_bloch),
    "compatibility": (_densities(2), pooling.compatibility),
}

# The functions that take the Hermitian part of their matrix arguments, by
# the positions of the arguments that gate covers (outcome_probabilities
# gates its state, not the elements of a POVM built without validate_povm).
HERMITIAN_GATED = {
    "hermitian_sqrt": (0,),
    "posterior_from_outcome": (0,),
    "bare_update": (0, 1),
    "outcome_probabilities": (-1,),
    "pool_ordered": (0, 1),
    "pool_symmetric": (0, 1),
    "pool_ordered_multi": (0, 1, 2),
    "pool_symmetric_multi": (0, 1, 2),
    "compatibility": (0, 1),
}


@given(
    name=st.sampled_from(sorted(BOUNDARIES)),
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    where=st.integers(0, 10**6),
    imag=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_non_finite_entry_raises_typed_error(name, dim, seed, bad, where, imag):
    make, call = BOUNDARIES[name]
    args = [np.array(a) for a in make(np.random.default_rng(seed), dim)]
    call(*args)  # the unspoiled input is valid
    flat = args[where % len(args)].reshape(-1)
    k = (where // len(args)) % flat.size
    if np.iscomplexobj(flat):
        z = flat[k]
        flat[k] = complex(z.real, bad) if imag else complex(bad, z.imag)
    else:
        flat[k] = bad
    with pytest.raises(QpoolError):
        call(*args)


@given(
    name=st.sampled_from(sorted(HERMITIAN_GATED)),
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    where=st.integers(0, 10**6),
    scale=st.floats(1.01, 1e8),
    phase=st.floats(0.0, 2 * math.pi),
)
@settings(max_examples=200, deadline=None)
def test_non_hermitian_matrix_raises_typed_error(name, dim, seed, where, scale, phase):
    make, call = BOUNDARIES[name]
    args = [np.array(a) for a in make(np.random.default_rng(seed), dim)]
    call(*args)  # the unspoiled input is valid
    gated = HERMITIAN_GATED[name]
    m = args[gated[where % len(gated)]]
    i, j = divmod((where // len(gated)) % (dim * dim), dim)
    # An anti-Hermitian perturbation: |M - M^dag| is scale * tol at (i, j),
    # and the Hermitian part, so every other gate's verdict, is unchanged.
    x = scale * linalg.DEFAULT_TOL / 2 * (1j if i == j else cmath.exp(1j * phase))
    m[i, j] += x
    if i != j:
        m[j, i] -= x.conjugate()
    with pytest.raises(QpoolError, match="not Hermitian"):
        call(*args)


def _inf_split_povm():
    m = np.eye(2, dtype=complex) / 2
    m[0, 0] = math.inf
    return [m, np.eye(2) - m]


# Finite, but the gates' arithmetic on it overflows.
HUGE_SKEW = np.array([[1e308, 1e308], [-1e308, 0.0]])
HUGE_DIAG = np.diag([1e308, 1e308])

# Hermitian part I/2, Hermiticity defect 0.8.
SKEW_HALF = np.array([[0.5, 0.4], [-0.4, 0.5]])
Z0 = np.diag([1.0, 0.0])
Z_POVM = measurement.Povm(2, np.array([Z0, np.diag([0.0, 1.0])], dtype=complex))


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.validate_density(np.diag([math.inf, 0.5])),
        lambda: measurement.validate_povm(_inf_split_povm()),
        lambda: linalg.validate_density(HUGE_SKEW),
        lambda: linalg.validate_density(np.full((3, 3), 1e308)),
        lambda: measurement.validate_povm([HUGE_SKEW, np.eye(2) - HUGE_SKEW]),
        lambda: linalg.frobenius_distance(np.diag([1e200, 1.0]), np.eye(2)),
        lambda: qubit.pool_bloch([1e308, 1e308, 0.0], [0.0, 0.0, 1.0]),
        lambda: linalg.hermitian_sqrt(HUGE_DIAG),
        lambda: measurement.bare_update(HUGE_DIAG, np.eye(2) / 2),
        lambda: measurement.posterior_from_outcome(HUGE_DIAG),
        lambda: linalg.density_to_bloch([[1e308, 0.0], [0.0, -1e308]]),
        lambda: pooling.pool_ordered(np.diag([1e200, 1.0]), np.diag([1e200, 1.0])),
        lambda: pooling.pool_symmetric_multi([np.diag([1e200, 1.0])] * 3),
        lambda: pooling.compatibility(np.diag([2.0, 0.0]), np.diag([1.0, 0.0])),
        lambda: pooling.compatibility(np.diag([1.5, -0.5]), np.diag([0.0, 1.0])),
        lambda: pooling.pool_ordered(np.diag([2.0, 0.0]), np.diag([1.0, 0.0])),
        lambda: pooling.pool_symmetric_multi([np.diag([5.0, 1.0])] * 3),
        lambda: pooling.pool_ordered_multi([np.diag([1e150, 1.0])] * 3),
        # Before the Hermiticity gate these returned I/2 and 0.18.
        lambda: pooling.pool_ordered(SKEW_HALF, np.eye(2) / 2),
        lambda: pooling.compatibility(SKEW_HALF, SKEW_HALF),
        # Before the state gates these returned diag(1, 0), diag(1, 0) and [0.5, 0.5].
        lambda: measurement.bare_update(Z0, SKEW_HALF),
        lambda: measurement.bare_update(Z0, np.diag([3.0, 0.0])),
        lambda: measurement.outcome_probabilities(Z_POVM, SKEW_HALF),
        # Before the state gates these returned [5, 0, 1] and [0, 0, 2].
        lambda: linalg.density_to_bloch([[1.0, 5.0], [0.0, 0.0]]),
        lambda: linalg.density_to_bloch(np.diag([2.0, 0.0])),
        # Before the positivity gates these returned diag(1.5, -0.5), [1.]
        # and diag(1.5, -0.5).
        lambda: measurement.bare_update(np.eye(2), np.diag([1.5, -0.5])),
        lambda: measurement.outcome_probabilities(
            measurement.validate_povm([np.eye(2)]), np.diag([1.5, -0.5])
        ),
        lambda: measurement.posterior_from_outcome(np.diag([1.5, -0.5])),
        # Before the Povm type gates these raised AttributeError or TypeError.
        lambda: measurement.outcome_probabilities([np.eye(2)], np.eye(2) / 2),
        lambda: measurement.sample_outcome([np.eye(2)], np.eye(2) / 2, np.random.default_rng(0)),
        lambda: harness.run_scenario(harness.Scenario(2, None, 0), rng=np.random.default_rng(0)),
        lambda: harness.oracle_pool(harness.Scenario(2, (np.eye(2),), 0, (0,))),
    ],
    ids=[
        "validate_density",
        "validate_povm",
        "validate_density huge",
        "validate_density huge hermitian",
        "validate_povm huge",
        "frobenius_distance huge",
        "pool_bloch huge",
        "hermitian_sqrt huge",
        "bare_update huge",
        "posterior_from_outcome huge",
        "density_to_bloch huge",
        "pool_ordered huge",
        "pool_symmetric_multi huge",
        "compatibility trace 2",
        "compatibility negative eigenvalue",
        "pool_ordered trace 2",
        "pool_symmetric_multi trace 6",
        "pool_ordered_multi product overflow",
        "pool_ordered non-Hermitian",
        "compatibility non-Hermitian",
        "bare_update non-Hermitian state",
        "bare_update state trace 3",
        "outcome_probabilities non-Hermitian state",
        "density_to_bloch non-Hermitian",
        "density_to_bloch trace 2",
        "bare_update negative state",
        "outcome_probabilities negative state",
        "posterior_from_outcome negative effect",
        "outcome_probabilities not a Povm",
        "sample_outcome not a Povm",
        "run_scenario povms None",
        "oracle_pool not a Povm",
    ],
)
def test_gate_raises_without_a_warning(call):
    # pytest makes a RuntimeWarning an error, so a warning fails this test
    # (test_overflowing_sum_of_products_rejected covers classical_pool).
    with pytest.raises(QpoolError):
        call()


def test_bare_update_gates_the_effect_before_the_outcome_probability():
    # Re Tr[E rho] is 0 here, so a probability gate that ran first would
    # raise ZeroProbabilityError, on which the sweeps redraw.
    skew_effect = np.array([[0.0, 0.4], [-0.4, 1.0]])
    with pytest.raises(QpoolError, match="not Hermitian") as info:
        measurement.bare_update(skew_effect, Z0)
    assert not isinstance(info.value, errors.ZeroProbabilityError)


def test_no_assert_statements():
    # python -O strips asserts, so no invariant may rest on one.
    for path in sorted(Path(qpool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
