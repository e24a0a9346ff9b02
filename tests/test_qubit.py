import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpool import linalg, pooling, qubit
from qpool.errors import IncompatibleStatesError, QpoolError

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def _random_pair(rng, pure_fraction=0.25):
    vs = []
    for _ in range(2):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if rng.random() >= pure_fraction:
            v *= rng.random()
        vs.append(v)
    return vs


class TestWeightFactor:
    @pytest.mark.parametrize(
        "x,expected", [(0.0, 2.0), (1.0, 1.0), (0.6, 1.8), (0.8, 1.6)]
    )
    def test_values(self, x, expected):
        assert qubit.weight_factor(x) == pytest.approx(expected, abs=1e-15)

    def test_domain(self):
        with pytest.raises(QpoolError, match=r"outside \[0, 1\]"):
            qubit.weight_factor(-0.1)
        with pytest.raises(QpoolError, match=r"outside \[0, 1\]"):
            qubit.weight_factor(1.1)
        # Rounding-level overshoot is clipped, not rejected.
        assert qubit.weight_factor(1.0 + 5e-13) == 1.0

    @pytest.mark.parametrize("x", ["a", None, True])
    def test_rejects_a_non_number(self, x):
        with pytest.raises(QpoolError, match="must be a real number"):
            qubit.weight_factor(x)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, x):
        assert 1.0 <= qubit.weight_factor(x) <= 2.0


class TestCertaintyWeight:
    def test_endpoints(self):
        assert qubit.certainty_weight(0.0) == 0.0
        assert qubit.certainty_weight(1.0) == 1.0

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, 1.0, 10_001)
        vals = [qubit.certainty_weight(x) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBlochWeights:
    def test_identical_vectors(self):
        w = qubit.bloch_weights([0.3, 0.1, -0.2], [0.3, 0.1, -0.2])
        assert w.alpha == pytest.approx(0.5, abs=1e-12)
        assert w.beta == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pure(self):
        w = qubit.bloch_weights(Z, X)
        assert w.alpha == pytest.approx(0.25, abs=1e-15)
        assert w.beta == pytest.approx(0.25, abs=1e-15)

    def test_equal_norms_give_equal_weights(self):
        rng = np.random.default_rng(40)
        for _ in range(500):
            n = rng.random()
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            a *= n / np.linalg.norm(a)
            b *= n / np.linalg.norm(b)
            w = qubit.bloch_weights(a, b)
            assert abs(w.alpha - w.beta) < 1e-12

    def test_nearly_pure_snaps_to_pure(self):
        v = Z * (1.0 - 1e-13)
        w_near = qubit.bloch_weights(v, X)
        w_pure = qubit.bloch_weights(Z, X)
        assert w_near.alpha == pytest.approx(w_pure.alpha, abs=1e-13)
        assert w_near.beta == pytest.approx(w_pure.beta, abs=1e-13)

    def test_too_long_rejected(self):
        with pytest.raises(QpoolError, match=r"exceeds 1"):
            qubit.bloch_weights([0.0, 0.0, 1.01], Z)


class TestPoolBloch:
    def test_total_ignorance_pair(self):
        out = qubit.pool_bloch(np.zeros(3), np.zeros(3))
        assert np.array_equal(out, np.zeros(3))

    def test_orthogonal_pure_pair(self):
        out = qubit.pool_bloch(Z, X)
        assert np.abs(out - np.array([0.5, 0.0, 0.5])).max() < 1e-15

    def test_parallel_equal_lengths_sharpen(self):
        for r in np.linspace(0.05, 0.95, 19):
            out = qubit.pool_bloch(r * Z, r * Z)
            expected = 2.0 * r / (1.0 + r * r)
            assert out[2] == pytest.approx(expected, abs=1e-13)
            assert out[2] >= r

    def test_identical_pure_fixed_point(self):
        assert np.abs(qubit.pool_bloch(Z, Z) - Z).max() < 1e-15

    def test_pure_with_mixed_stays_mixed(self):
        # The certain observer dominates but does not absorb: the other
        # observer may have measured after them and moved the system.
        out = qubit.pool_bloch(Z, 0.4 * X)
        assert np.abs(out - np.array([0.2, 0.0, 0.958257569495584])).max() < 1e-12
        assert np.linalg.norm(out) < 1.0

    def test_antipodal_pure_rejected(self):
        with pytest.raises(IncompatibleStatesError):
            qubit.pool_bloch(Z, -Z)

    def test_antipodal_mixed_allowed(self):
        out = qubit.pool_bloch(0.8 * Z, -0.5 * Z)
        assert np.linalg.norm(out) <= 1.0

    def test_matches_dense_route(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 2000:
            a, b = _random_pair(rng)
            if 0.5 * (1.0 + a @ b) < 1e-6:
                continue
            dense = linalg.density_to_bloch(
                pooling.pool_symmetric(
                    linalg.bloch_to_density(a), linalg.bloch_to_density(b)
                ).pooled
            )
            closed = qubit.pool_bloch(a, b)
            assert np.abs(closed - dense).max() < 1e-9
            checked += 1

    def test_pooled_never_longer_than_one(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b = _random_pair(rng)
            if 0.5 * (1.0 + a @ b) < 1e-6:
                continue
            assert np.linalg.norm(qubit.pool_bloch(a, b)) <= 1.0

    def test_leans_toward_the_more_certain_observer(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            a, b = _random_pair(rng)
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na < nb:
                a, b = b, a
                na, nb = nb, na
            w = qubit.bloch_weights(a, b)
            assert w.alpha * na >= w.beta * nb - 1e-12

    def test_bad_shape(self):
        with pytest.raises(QpoolError, match=r"shape \(3,\)"):
            qubit.pool_bloch([0.0, 1.0], [0.0, 0.0, 1.0])

    # Before the same-kind cast: ValueError, TypeError, TypeError, and the
    # string "0.1" read as a number; bools were read as 1.0 and 0.0.
    @pytest.mark.parametrize("v", ["abc", [1j, 0, 0], {1: 2}, ["0.1", 0, 0], [True, False, False]])
    def test_non_real_rejected(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QpoolError, match="expected a real Bloch vector"):
                qubit.pool_bloch(v, Z)

    def test_weights_reject_bad_shape(self):
        with pytest.raises(QpoolError, match=r"shape \(3,\)"):
            qubit.bloch_weights([0.0, 0.5], [0.5, 0.0])


# The qubit layer before its float path: numpy on every step.  The float
# path must give these bits, return types, errors and messages.
def _ref_as_bloch_vector(v):
    a = linalg._cast(v, float, "real Bloch vector")
    if a.shape != (3,):
        raise QpoolError(f"Bloch vector must have shape (3,), got {a.shape}")
    for c in a.tolist():
        if not abs(c) <= 1.0 + linalg.BLOCH_SLACK:
            raise QpoolError(f"Bloch vector component {c!r} exceeds 1 in magnitude")
    n = float(np.linalg.norm(a))
    if not n <= 1.0 + linalg.BLOCH_SLACK:
        raise QpoolError(f"Bloch vector norm {n!r} exceeds 1")
    return a, n


def _ref_weights(ab, na, nb):
    na = 1.0 if na >= qubit._PURE_NORM_SNAP else na
    nb = 1.0 if nb >= qubit._PURE_NORM_SNAP else nb
    fa = qubit.weight_factor(na)
    fb = qubit.weight_factor(nb)
    return qubit.BlochWeights(
        alpha=0.5 + 0.25 * (ab / fa - nb * nb / fb), beta=0.5 + 0.25 * (ab / fb - na * na / fa)
    )


def _ref_bloch_weights(a, b):
    va, na = _ref_as_bloch_vector(a)
    vb, nb = _ref_as_bloch_vector(b)
    return _ref_weights(float(np.dot(va, vb)), na, nb)


def _ref_pool(a, b):
    va, na = _ref_as_bloch_vector(a)
    vb, nb = _ref_as_bloch_vector(b)
    ab = float(np.dot(va, vb))
    w = _ref_weights(ab, na, nb)
    compat = linalg.normalizer(np.float64(0.5 * (1.0 + ab)), "overlap", IncompatibleStatesError)
    pooled = (w.alpha * va + w.beta * vb) / compat
    n = float(np.linalg.norm(pooled))
    if not n <= 1.0 + 1e-9:
        raise QpoolError(f"pooled Bloch norm {n!r} exceeds 1")
    if n > 1.0:
        pooled = pooled / n
    return pooled, w, compat


def _ref_bloch_to_density(v):
    a, n = _ref_as_bloch_vector(v)
    if n > 1.0:
        a = a / n
    x, y, z = a
    return np.array([[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]], dtype=complex) / 2.0


def _outcome(f, *args):
    try:
        return f(*args)
    except QpoolError as exc:
        return type(exc), str(exc)


def _assert_same_bits(got, ref):
    assert type(got) is type(ref)
    if isinstance(got, tuple):  # a rejection, or _pool's result and BlochWeights
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            _assert_same_bits(g, r)
    elif isinstance(got, np.ndarray):
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes()
    elif isinstance(got, float):
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    else:
        assert got == ref


_SLACK = linalg.BLOCH_SLACK
# Bloch lengths at the closed form's edges: zero, mixed, snapped to pure,
# and past the sphere by up to BLOCH_SLACK (rescaled) or by more (rejected).
_lengths = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0),
    st.floats(qubit._PURE_NORM_SNAP, 1.0),
    st.just(1.0),
    st.floats(1.0, 1.0 + _SLACK),
    st.floats(1.0 + _SLACK, 1.5),
)
_directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 1e-3)


@st.composite
def _bloch_inputs(draw):
    """A Bloch vector as callers pass one: array (contiguous or strided), list or tuple."""
    kind = draw(st.sampled_from(["length", "ints", "components"]))
    if kind == "length":
        u = np.array(draw(_directions))
        v = u * (draw(_lengths) / np.linalg.norm(u))
    elif kind == "ints":
        v = np.array(draw(st.tuples(*[st.integers(-1, 1)] * 3)))
    else:
        v = np.array(draw(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 3)))
    form = draw(st.sampled_from(["array", "strided", "list", "tuple"]))
    if form == "strided":
        s = np.zeros((3, 2), dtype=v.dtype)
        s[:, 1] = v
        return s[:, 1]
    return {"array": v, "list": v.tolist(), "tuple": tuple(v.tolist())}[form]


_bad_inputs = st.sampled_from(
    [
        [True, False, False],
        np.array([False, False, True]),
        [1j, 0, 0],
        np.array([0.1, 0.2, 0.3j]),
        [0.0, 0.0],
        np.zeros((3, 1)),
        np.zeros((1, 3)),
        0.5,
        "abc",
        ["0.1", 0, 0],
        [0.0, 0.0, 1.0 + 2 * _SLACK],
        [0.8, 0.8, 0.0],
        [math.nan, 0.0, 0.0],
        [0.0, -math.inf, 0.0],
    ]
)
_any_input = st.one_of(_bloch_inputs(), _bad_inputs)


def _assert_layer_matches_reference(a, b):
    _assert_same_bits(_outcome(qubit._pool, a, b), _outcome(_ref_pool, a, b))
    _assert_same_bits(_outcome(qubit.pool_bloch, a, b), _outcome(lambda *v: _ref_pool(*v)[0], a, b))
    _assert_same_bits(_outcome(qubit.bloch_weights, a, b), _outcome(_ref_bloch_weights, a, b))
    _assert_same_bits(_outcome(linalg.bloch_to_density, a), _outcome(_ref_bloch_to_density, a))


class TestFloatPathBits:
    """pool_bloch, bloch_weights, _pool and bloch_to_density against the numpy formulas."""

    @given(_any_input, _any_input)
    @settings(max_examples=400, deadline=None)
    def test_pairs(self, a, b):
        _assert_layer_matches_reference(a, b)

    @given(_directions, st.floats(qubit._PURE_NORM_SNAP, 1.0 + _SLACK))
    @settings(max_examples=200, deadline=None)
    def test_antipodal_and_identical_pure_pairs(self, u, length):
        a = np.array(u) * (length / math.hypot(*u))
        for b in (-a, a, a.tolist()):
            _assert_layer_matches_reference(a, b)

    # The closed form's edges, as the CLI command list runs them, and the
    # antipodal pure pair (IncompatibleStatesError).
    @pytest.mark.parametrize(
        "a, b",
        [
            ([0, 0, 1], [1, 0, 0]),
            ([0, 0.6, 0.8], [0, 0.6, 0.8]),
            ([0, 0, 1.0000000000005], [0.1, 0.2, 0.3]),
            ([0, 0, 0], [0, 0, 0]),
            ([0, 0, 0.999], [0, 0, -0.999]),
            ([0, 0.6, 0.8], [-0.3, 0.4, 0.1]),
            ([0, 0, 1], [0, 0, -1]),
        ],
    )
    def test_edges(self, a, b):
        _assert_layer_matches_reference(np.array(a, dtype=float), np.array(b, dtype=float))
        _assert_layer_matches_reference(a, b)
