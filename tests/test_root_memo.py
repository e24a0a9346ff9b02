"""The root memo of the pooling rules: pooling._roots keeps its last gated stack.

Every test starts from an empty memo and counts linalg.hermitian_sqrt calls,
so a hit shows as a call that computes no root.
"""

import dataclasses

import numpy as np
import pytest

from qpool import linalg, pooling
from qpool.errors import QpoolError
from qpool.harness import random_density

RULES = {"ordered": pooling.pool_ordered_multi, "symmetric": pooling.pool_symmetric_multi}


@pytest.fixture
def sqrt_calls(monkeypatch):
    """Empty the memo and count the hermitian_sqrt calls the rules make."""
    monkeypatch.setattr(pooling, "_last_roots", None)
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


def _cold(rule, states):
    pooling._last_roots = None
    return _bits(rule(states))


@pytest.mark.parametrize("lanes", [None, 5])
@pytest.mark.parametrize("dim", [2, 3, 4, 8])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_a_hit_after_either_rule_is_bitwise_a_cold_call(n, dim, lanes, sqrt_calls):
    states = _states(n, dim, lanes, seed=100 * n + dim)
    cold = {name: _cold(rule, states) for name, rule in RULES.items()}
    for first in RULES.values():
        for name, rule in RULES.items():
            pooling._last_roots = None
            first(states)
            del sqrt_calls[:]
            assert _bits(rule(states)) == cold[name]
            assert sqrt_calls == []


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
    assert pooling._last_roots is None and len(sqrt_calls) == 4


def test_one_ulp_or_a_signed_zero_misses(sqrt_calls):
    states = _states(3, 3, None, seed=7)
    changed = [s.copy() for s in states], [s.copy() for s in states]
    changed[0][1][0, 0] = np.nextafter(states[1][0, 0].real, 2.0)
    assert not np.signbit(states[2][1, 1].imag)
    changed[1][2][1, 1] = complex(states[2][1, 1].real, -0.0)
    for new in changed:
        for rule in RULES.values():
            cold = _cold(rule, new)
            rule(states)
            del sqrt_calls[:]
            assert _bits(rule(new)) == cold
            assert len(sqrt_calls) == 1


def test_the_same_bytes_in_another_shape_miss(sqrt_calls):
    flat = _states(4, 2, None, seed=11)
    lanes = [np.array(flat[:2]), np.array(flat[2:])]
    assert np.array(flat).tobytes() == np.array(lanes).tobytes()
    for rule in RULES.values():
        cold = _cold(rule, lanes)
        rule(flat)
        del sqrt_calls[:]
        assert _bits(rule(lanes)) == cold
        assert sqrt_calls == [(2, 2, 2, 2)]


def test_an_input_changed_in_place_gives_the_cold_result(sqrt_calls):
    other = _states(1, 3, 4, seed=6)[0]
    for rule in RULES.values():
        states = _states(3, 3, 4, seed=5)
        pooling._last_roots = None
        rule(states)
        states[1][...] = other
        assert _bits(rule(states)) == _cold(rule, states)


@pytest.mark.parametrize("above", [False, True])
def test_only_a_stack_within_the_size_bound_is_kept(above, sqrt_calls):
    # Two states of `lanes` 8 x 8 complex lanes: 2 * lanes * 1024 bytes.
    lanes = pooling.MAX_ROOT_MEMO_BYTES // 2048 + above
    states = [np.broadcast_to(np.eye(8) / 8, (lanes, 8, 8))] * 2
    for rule in RULES.values():
        rule(states)
    assert (pooling._last_roots is None) == above
    assert len(sqrt_calls) == 1 + above


def test_the_kept_roots_are_read_only(sqrt_calls):
    pooling.pool_ordered(np.eye(2) / 2, np.diag([0.25, 0.75]))
    roots = pooling._last_roots[2]
    with pytest.raises(ValueError, match="read-only"):
        roots[0, 0, 0] = 1.0
