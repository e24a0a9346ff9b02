import ast
import cmath
import importlib
import inspect
import math
import subprocess
import sys
import typing
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qpool
from qpool import cli, errors, harness, linalg, measurement, pooling, qubit, suites
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


# The public names, pinned: removing or adding one is a deliberate edit here.
PUBLIC_NAMES = {
    "BlochWeights", "IncompatibleStatesError", "PoolReport", "Povm", "QpoolError",
    "Scenario", "VerificationReport", "ZeroProbabilityError", "bare_update",
    "bloch_to_density", "bloch_weights", "certainty_weight", "classical_pool",
    "compatibility", "density_to_bloch", "frobenius_distance", "hermitian_sqrt",
    "maximally_mixed", "oracle_pool", "outcome_probabilities", "pool_bloch",
    "pool_ordered", "pool_ordered_multi", "pool_symmetric", "pool_symmetric_multi",
    "posterior_from_outcome", "random_density", "random_povm", "run_scenario",
    "sample_outcome", "sweep", "trace_product", "validate_density", "validate_povm",
    "verify_commuting_reduction", "verify_three_observer", "verify_two_observer",
    "weight_factor",
}


class TestNamespace:
    def test_all_is_the_pinned_public_names(self):
        assert len(qpool.__all__) == 38
        assert set(qpool.__all__) == PUBLIC_NAMES

    @pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
    def test_each_name_is_its_submodules_object(self, name):
        obj = getattr(qpool, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("qpool.")
        assert obj is getattr(module, name)

    def test_dir_lists_all_and_every_public_name(self):
        assert "__all__" in dir(qpool)
        assert PUBLIC_NAMES <= set(dir(qpool))

    def test_star_import_binds_every_public_name(self):
        # In a fresh process, so that every name goes through the lazy lookup.
        code = (
            "from qpool import *; "
            "print(' '.join(n for n in dir() if not n.startswith('_')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) == PUBLIC_NAMES

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'qpool' has no attribute 'nope'"):
            qpool.nope

    def test_a_submodule_resolves_after_a_bare_import(self):
        code = (
            "import qpool; "
            "print(qpool.harness.sweep is qpool.sweep, qpool.suites.SUITES is qpool.harness.SUITES)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]

    def test_the_harness_reads_the_one_suite_table(self):
        assert harness.SUITES is suites.SUITES
        assert harness.FAMILIES is suites.FAMILIES
        assert {family for _observers, family in suites.SUITES.values()} <= set(suites.FAMILIES)


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
    # The three elements, then the state; each is gated where it enters:
    # the elements by Povm, the state by outcome_probabilities.
    "outcome_probabilities": (
        lambda rng, d: [*random_povm(d, 3, rng).elements, random_density(d, d, rng)],
        lambda *a: measurement.outcome_probabilities(measurement.Povm(np.array(a[:-1])), a[-1]),
    ),
    "trace_product": (_densities(2), linalg.trace_product),
    "pool_ordered_multi": (_densities(3), lambda *s: pooling.pool_ordered_multi(s)),
    "pool_symmetric_multi": (_densities(3), lambda *s: pooling.pool_symmetric_multi(s)),
    "pool_bloch": (lambda rng, d: [_bloch(rng), _bloch(rng)], qubit.pool_bloch),
    "compatibility": (_densities(2), pooling.compatibility),
    "Povm": (
        lambda rng, d: list(random_povm(d, 3, rng).elements),
        lambda *es: measurement.Povm(list(es)),
    ),
    # As outcome_probabilities, with a fixed generator.
    "sample_outcome": (
        lambda rng, d: [*random_povm(d, 3, rng).elements, random_density(d, d, rng)],
        lambda *a: measurement.sample_outcome(
            measurement.Povm(np.array(a[:-1])), a[-1], np.random.default_rng(0)
        ),
    ),
    "bloch_weights": (lambda rng, d: [_bloch(rng), _bloch(rng)], qubit.bloch_weights),
}

# The public callables that take no array input, or whose array input is
# not theirs to gate, each with the reason it is not in BOUNDARIES.
NO_ARRAY_INPUT = {
    "IncompatibleStatesError": "an exception type",
    "QpoolError": "an exception type",
    "ZeroProbabilityError": "an exception type",
    "BlochWeights": "a result record, built by bloch_weights from gated input",
    "PoolReport": "a result record, built by the pooling rules from gated input",
    "VerificationReport": "a result record, built by the sweeps",
    "Scenario": "a record that gates nothing; run_scenario and oracle_pool gate its fields",
    "run_scenario": "takes a Scenario, whose POVMs are Povm values gated when built",
    "oracle_pool": "takes a Scenario, whose POVMs are Povm values gated when built",
    "maximally_mixed": "takes only an int (check_int)",
    "random_density": "takes only ints and a Generator (check_int, generators)",
    "random_povm": "takes only ints and Generators (check_int, generators)",
    "sweep": "takes only ints, scalars and a family name",
    "verify_two_observer": "takes only ints and scalars (check_int, check_tol)",
    "verify_commuting_reduction": "takes only ints and scalars (check_int, check_tol)",
    "verify_three_observer": "takes only ints and scalars (check_int, check_tol)",
    "weight_factor": "takes only a scalar (check_real)",
    "certainty_weight": "takes only a scalar (check_real, through weight_factor)",
}

# The functions that take the Hermitian part of their matrix arguments, by
# the positions of the arguments that gate covers (outcome_probabilities'
# three elements through Povm, its state itself).
HERMITIAN_GATED = {
    "hermitian_sqrt": (0,),
    "posterior_from_outcome": (0,),
    "bare_update": (0, 1),
    "outcome_probabilities": (0, 1, 2, 3),
    "pool_ordered": (0, 1),
    "pool_symmetric": (0, 1),
    "pool_ordered_multi": (0, 1, 2),
    "pool_symmetric_multi": (0, 1, 2),
    "compatibility": (0, 1),
    "Povm": (0, 1, 2),
    "sample_outcome": (0, 1, 2, 3),
}


def test_every_public_callable_is_a_boundary_or_exempt():
    # A new public function that takes arrays must join BOUNDARIES, so the
    # non-finite and Hermiticity properties above run on it, or say here why not.
    public = {name for name in qpool.__all__ if callable(getattr(qpool, name))}
    assert not set(BOUNDARIES) & set(NO_ARRAY_INPUT)
    assert set(BOUNDARIES) | set(NO_ARRAY_INPUT) == public
    assert all(NO_ARRAY_INPUT.values())


@given(
    name=st.sampled_from(sorted(BOUNDARIES)),
    dim=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    where=st.integers(0, 10**6),
    imag=st.booleans(),
)
@settings(max_examples=480, deadline=None)
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
@settings(max_examples=250, deadline=None)
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
Z_POVM = measurement.Povm(np.array([Z0, np.diag([0.0, 1.0])], dtype=complex))
Z_POVMS = measurement.Povm(np.array([[Z0, Z0], [np.eye(2) - Z0] * 2], dtype=complex))


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
        lambda: linalg.density_to_bloch(np.diag([1.5, -0.5])),
        # Before the Povm type gates these raised AttributeError or TypeError.
        lambda: measurement.outcome_probabilities([np.eye(2)], np.eye(2) / 2),
        lambda: measurement.sample_outcome([np.eye(2)], np.eye(2) / 2, np.random.default_rng(0)),
        lambda: harness.run_scenario(harness.Scenario(2, None, 0), rng=np.random.default_rng(0)),
        lambda: harness.oracle_pool(harness.Scenario(2, (np.eye(2),), 0, (0,))),
        # Before the generator entry gate these raised AttributeError.
        lambda: measurement.sample_outcome(Z_POVMS, np.array([Z0, Z0]), [1, 2]),
        lambda: harness.run_scenario(harness.Scenario(2, (Z_POVMS,), 0), rng=[1, 2]),
        lambda: random_povm(2, [2, 2], [1, 2]),
        lambda: random_povm(2, [2, 2], [np.random.default_rng(0), None]),
        lambda: measurement.sample_outcome(
            Z_POVMS, np.array([Z0, Z0]), (np.random.default_rng(0), None)
        ),
        # Before the length gate these raised TypeError from len().
        lambda: measurement.Povm(5),
        lambda: measurement.Povm(None),
        lambda: measurement.Povm(np.array(1.0)),
        # Before the one admission gate (linalg.cast_inputs) these raised
        # TypeError from len().
        lambda: pooling.pool_ordered_multi(5),
        lambda: pooling.pool_ordered_multi(None),
        lambda: pooling.pool_ordered_multi(iter([Z0, Z0])),
        lambda: pooling.pool_symmetric_multi(5),
        lambda: pooling.pool_symmetric_multi(None),
        lambda: pooling.pool_symmetric_multi(iter([Z0, Z0])),
        lambda: measurement.Povm(iter([Z0, np.eye(2) - Z0])),
        # Too few inputs.
        lambda: pooling.pool_ordered_multi([Z0]),
        lambda: pooling.pool_symmetric_multi([]),
        lambda: pooling.classical_pool([0.5, 0.5]),
        lambda: pooling.classical_pool(),
        lambda: measurement.Povm([]),
        # String entries; classical_pool's raised ValueError before.
        lambda: pooling.classical_pool("ab", "cd"),
        lambda: pooling.classical_pool(["0.5", "0.5"], [0.5, 0.5]),
        lambda: pooling.pool_ordered_multi(["ab", "cd"]),
        lambda: measurement.Povm(["ab"]),
        lambda: measurement.bare_update("ab", Z0),
        lambda: measurement.outcome_probabilities(Z_POVM, "ab"),
        lambda: linalg.trace_product(Z0, "ab"),
        lambda: linalg.frobenius_distance("ab", Z0),
        # Complex entries where real ones are needed; TypeError before.
        lambda: pooling.classical_pool([0.5 + 0j, 0.5], [0.5, 0.5]),
        lambda: pooling.classical_pool([0.5, 0.5], [0.5 + 0.1j, 0.5]),
        # Bool arrays; classical_pool([True, False], [True, True]) returned [1, 0].
        lambda: pooling.classical_pool([True, False], [True, True]),
        lambda: pooling.pool_symmetric_multi([np.eye(2, dtype=bool)] * 2),
        lambda: measurement.Povm([np.eye(2, dtype=bool)]),
        lambda: measurement.bare_update(np.eye(2, dtype=bool), Z0),
        lambda: linalg.trace_product(np.eye(2, dtype=bool), Z0),
        # Object arrays.
        lambda: pooling.classical_pool(np.array([0.5, 0.5], dtype=object), [0.5, 0.5]),
        lambda: pooling.classical_pool([None, 0.5], [0.5, 0.5]),
        lambda: pooling.pool_ordered_multi([np.array(Z0, dtype=object), Z0]),
        lambda: linalg.frobenius_distance(Z0, np.array(Z0, dtype=object)),
        # Ragged entries.
        lambda: pooling.classical_pool([[0.5], [0.5, 0.5]], [0.5, 0.5]),
        lambda: pooling.pool_ordered_multi([[[1, 0], [0]], Z0]),
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
        "density_to_bloch negative eigenvalue",
        "outcome_probabilities not a Povm",
        "sample_outcome not a Povm",
        "run_scenario povms None",
        "oracle_pool not a Povm",
        "sample_outcome int generators",
        "run_scenario int generators",
        "random_povm int generators",
        "random_povm None generator",
        "sample_outcome None generator",
        "Povm int",
        "Povm None",
        "Povm 0-d array",
        "pool_ordered_multi int",
        "pool_ordered_multi None",
        "pool_ordered_multi iterator",
        "pool_symmetric_multi int",
        "pool_symmetric_multi None",
        "pool_symmetric_multi iterator",
        "Povm iterator",
        "pool_ordered_multi one state",
        "pool_symmetric_multi no states",
        "classical_pool one distribution",
        "classical_pool no distributions",
        "Povm no elements",
        "classical_pool strings",
        "classical_pool numeric strings",
        "pool_ordered_multi strings",
        "Povm string",
        "bare_update string effect",
        "outcome_probabilities string state",
        "trace_product string",
        "frobenius_distance string",
        "classical_pool complex zero imaginary",
        "classical_pool complex",
        "classical_pool bools",
        "pool_symmetric_multi bools",
        "Povm bools",
        "bare_update bool effect",
        "trace_product bools",
        "classical_pool object array",
        "classical_pool None entry",
        "pool_ordered_multi object array",
        "frobenius_distance object array",
        "classical_pool ragged",
        "pool_ordered_multi ragged",
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


class TestLapackFailure:
    """An eigendecomposition that does not converge raises QpoolError, and the CLI exits 2."""

    @pytest.fixture(autouse=True)
    def _unconverged(self, monkeypatch):
        def fail(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: linalg.hermitian_sqrt(Z0),
            lambda: linalg.validate_density(Z0),
            # Its lowest eigenvalue is in [-tol, -tol / 2): the Cholesky accept
            # fails, so eigvalsh decides.
            lambda: linalg.check_positive(np.diag([1.0, -0.75e-10]), 1e-10, "m"),
            lambda: pooling.pool_ordered_multi([Z0, np.eye(2) / 2]),
            lambda: pooling.pool_symmetric_multi([Z0, np.eye(2) / 2, Z0]),
            lambda: measurement.bare_update(Z0, np.eye(2) / 2),
            lambda: random_povm(3, 4, np.random.default_rng(0)),
        ],
        ids=[
            "hermitian_sqrt", "validate_density", "check_positive", "pool_ordered_multi",
            "pool_symmetric_multi", "bare_update", "random_povm",
        ],
    )
    def test_library_raises_a_typed_error(self, call):
        with pytest.raises(QpoolError, match="eigendecomposition of .* failed: Eigenvalues did not"):
            call()

    @pytest.mark.parametrize(
        "argv",
        [
            ["compat", "{a}", "{b}"],
            ["pool", "--mode", "ordered", "--in", "{a}", "{b}", "--out", "{out}"],
            ["random", "povm", "--dim", "3", "--out", "{out}"],
            ["verify", "--trials", "2", "--dims", "2..3"],
        ],
        ids=lambda argv: argv[0] if argv[0] != "random" else "random povm",
    )
    def test_cli_exits_2_with_one_error_line(self, argv, tmp_path, capsys):
        paths = {"a": tmp_path / "a.json", "b": tmp_path / "b.json", "out": tmp_path / "out.json"}
        paths["a"].write_text(cli.matrix_file_text(Z0))
        paths["b"].write_text(cli.matrix_file_text(np.eye(2) / 2))
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: eigendecomposition of ")
        assert not paths["out"].exists()


def _numpy_linalg(tree):
    """Nodes that name numpy.linalg: an attribute .linalg, or an import of it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            yield node
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg") for a in node.names):
            yield node
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if node.module.startswith("numpy.linalg") or any(a.name == "linalg" for a in node.names):
                yield node


def test_only_linalg_names_numpy_linalg():
    # Every eigendecomposition, factorization and norm goes through
    # qpool.linalg, and there each eigensolver has one call site (_eigh and
    # _eigvalsh), where LAPACK's failure becomes a QpoolError.
    for path in sorted(Path(qpool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem != "linalg":
            lines = [node.lineno for node in _numpy_linalg(tree)]
            assert not lines, f"{path.name} names numpy.linalg at lines {lines}"
            continue
        calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
        assert calls.count("np.linalg.eigh") == 1 and calls.count("np.linalg.eigvalsh") == 1


def test_no_assert_statements():
    # python -O strips asserts, so no invariant may rest on one; and no
    # function rebinds a module or enclosing name, so no module state hides
    # between calls.
    banned = (ast.Assert, ast.Global, ast.Nonlocal)
    for path in sorted(Path(qpool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, banned)]
        assert not lines, f"{path.name} has assert, global or nonlocal statements at lines {lines}"


def test_every_annotation_resolves():
    # Annotations are strings (from __future__ import annotations), so a
    # name one uses is looked up only when something resolves it.  This
    # resolves them in the module's own namespace, as a runtime
    # typing.get_type_hints or pydoc does; a module imported only inside
    # the functions that run it (cli's `measurement`) is unbound there.
    unresolved = []
    for path in sorted(Path(qpool.__file__).parent.glob("*.py")):
        name = "qpool" if path.stem == "__init__" else f"qpool.{path.stem}"
        module = importlib.import_module(name)
        defined = [
            obj
            for obj in vars(module).values()
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name
        ]
        methods = [
            getattr(member, "fget", member)
            for cls in defined
            if inspect.isclass(cls)
            for member in vars(cls).values()
            if inspect.isfunction(member) or isinstance(member, property)
        ]
        for obj in defined + methods:
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{name}.{obj.__qualname__}: {exc}")
    assert unresolved == []
