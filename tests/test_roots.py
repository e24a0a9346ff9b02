"""The square roots behind the pooling rules: each public call roots its own
stack once (pooling._roots), and the rule bodies on shared roots are the rules.

Tests count linalg.hermitian_sqrt calls, so a call that roots twice, or
reuses roots it did not compute from its input, shows.
"""

import dataclasses

import numpy as np
import pytest

from qpool import harness, linalg, pooling
from qpool.errors import QpoolError
from qpool.harness import random_density

RULES = {"ordered": pooling.pool_ordered_multi, "symmetric": pooling.pool_symmetric_multi}
BODIES = {"ordered": pooling._ordered, "symmetric": pooling._symmetric}


@pytest.fixture
def sqrt_calls(monkeypatch):
    """Count the hermitian_sqrt calls the rules make, by argument shape."""
    calls = []
    real = linalg.hermitian_sqrt

    def counting(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(linalg, "hermitian_sqrt", counting)
    return calls


def _states(n, dim, lanes, seed):
    rng = np.random.default_rng(seed)
    shape = () if lanes is None else (lanes,)
    draw = [random_density(dim, dim, rng) for _ in range(n * (lanes or 1))]
    return [np.array(draw[i::n]).reshape(shape + (dim, dim)) for i in range(n)]


def _bits(report):
    """Every PoolReport field as (shape, dtype, bytes): equal only if bitwise equal."""
    fields = (np.asarray(getattr(report, f.name)) for f in dataclasses.fields(report))
    return [(a.shape, a.dtype, a.tobytes()) for a in fields]


@pytest.mark.parametrize("lanes", [None, 5])
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_both_bodies_on_one_rooting_are_bitwise_the_rules(n, dim, lanes, sqrt_calls):
    states = _states(n, dim, lanes, seed=100 * n + dim)
    public = {name: _bits(rule(states)) for name, rule in RULES.items()}
    assert len(sqrt_calls) == 2
    del sqrt_calls[:]
    arrs = pooling._matrices(states)
    roots = pooling._roots(arrs)
    for name, body in BODIES.items():
        assert _bits(body(arrs, roots)) == public[name]
    assert sqrt_calls == [arrs.shape]


OFF_GATE = {
    "non-Hermitian": np.array([[0.5, 0.4], [-0.4, 0.5]], dtype=complex),
    "negative": np.diag([1.5, -0.5]).astype(complex),
    "off unit trace": np.diag([0.6, 0.6]).astype(complex),
    "nan": np.full((2, 2), np.nan, dtype=complex),
}


@pytest.mark.parametrize("name", sorted(OFF_GATE))
def test_a_stack_that_fails_a_gate_raises_on_every_call(name, sqrt_calls):
    states = [np.eye(2) / 2, OFF_GATE[name]]
    messages = []
    for rule in (*RULES.values(), *RULES.values()):
        with pytest.raises(QpoolError) as exc:
            rule(states)
        messages.append(str(exc.value))
    assert len(set(messages)) == 1
    assert len(sqrt_calls) == 4


@pytest.mark.parametrize("name", sorted(RULES))
def test_each_call_roots_its_own_stack_once(name, sqrt_calls):
    rule = RULES[name]
    states = _states(3, 3, 4, seed=3)
    first = _bits(rule(states))
    assert _bits(rule(states)) == first
    assert sqrt_calls == [(3, 4, 3, 3)] * 2


@pytest.mark.parametrize("change", ["one ulp", "signed zero"])
@pytest.mark.parametrize("name", sorted(RULES))
def test_one_ulp_or_a_signed_zero_is_rooted_afresh(name, change, sqrt_calls):
    rule = RULES[name]
    states = _states(3, 3, None, seed=7)
    new = [s.copy() for s in states]
    if change == "one ulp":
        new[1][0, 0] = np.nextafter(states[1][0, 0].real, 2.0)
    else:
        assert not np.signbit(states[2][1, 1].imag)
        new[2][1, 1] = complex(states[2][1, 1].real, -0.0)
    rule(states)
    del sqrt_calls[:]
    arrs = pooling._matrices(new)
    assert _bits(rule(new)) == _bits(BODIES[name](arrs, linalg.hermitian_sqrt(arrs)))
    assert len(sqrt_calls) == 2


@pytest.mark.parametrize("name", sorted(RULES))
def test_an_input_changed_in_place_gives_its_own_result(name, sqrt_calls):
    rule = RULES[name]
    states = _states(3, 3, 4, seed=5)
    before = _bits(rule(states))
    states[1][...] = _states(1, 3, 4, seed=6)[0]
    after = _bits(rule(states))
    assert after != before
    assert after == _bits(rule([s.copy() for s in states]))
    assert len(sqrt_calls) == 3


@pytest.mark.parametrize("family", harness.FAMILIES)
def test_a_sweep_trial_roots_its_posteriors_once_for_both_bodies(family, monkeypatch):
    calls = []

    def wrap(name):
        real = getattr(pooling, name)

        def recording(*args):
            out = real(*args)
            calls.append((name, args[-1] if name != "_roots" else out))
            return out

        monkeypatch.setattr(pooling, name, recording)

    for name in ("_roots", "_ordered", "_symmetric"):
        wrap(name)
    rngs = harness.trial_generators(11, range(3))
    harness._trial(3, family, 3, rngs)
    assert [name for name, _ in calls] == ["_roots", "_ordered", "_symmetric"]
    roots = calls[0][1]
    assert roots.shape == (3, 3, 3, 3)
    assert all(r is roots for _, r in calls[1:])
