import ast
import inspect
import math
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qpool
from qpool import errors, linalg, measurement, pooling, qubit
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
            measurement.Povm(a[0].shape[-1], a[:-1]), a[-1]
        ),
    ),
    "trace_product": (_densities(2), linalg.trace_product),
    "pool_ordered_multi": (_densities(3), lambda *s: pooling.pool_ordered_multi(s)),
    "pool_symmetric_multi": (_densities(3), lambda *s: pooling.pool_symmetric_multi(s)),
    "pool_bloch": (lambda rng, d: [_bloch(rng), _bloch(rng)], qubit.pool_bloch),
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
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
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


def test_no_assert_statements():
    # python -O strips asserts, so no invariant may rest on one.
    for path in sorted(Path(qpool.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
