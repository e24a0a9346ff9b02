import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpool import linalg, measurement
from qpool.errors import QpoolError

Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def _random_density(dim, rng, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return linalg.hermitianize(m) / np.trace(m).real


class TestValidateDensity:
    def test_clean_input_unchanged(self):
        m = np.eye(2, dtype=complex) / 2
        out = linalg.validate_density(m)
        assert np.array_equal(out, m)

    def test_renormalizes_slightly_off_trace(self):
        out = linalg.validate_density(np.diag([0.6, 0.4 + 5e-11]).astype(complex))
        assert abs(np.trace(out).real - 1.0) < 1e-15

    def test_clips_rounding_negative_eigenvalue(self):
        m = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        out = linalg.validate_density(m)
        w = np.linalg.eigvalsh(out)
        assert w[0] >= 0.0
        assert abs(np.trace(out).real - 1.0) < 1e-15

    def test_rejects_bad_trace(self):
        with pytest.raises(QpoolError, match=r"differs from 1"):
            linalg.validate_density(np.diag([0.6, 0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 1e-3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(QpoolError, match=r"not Hermitian"):
            linalg.validate_density(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(QpoolError, match=r"negative eigenvalue"):
            linalg.validate_density(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_square(self):
        with pytest.raises(QpoolError):
            linalg.validate_density(np.zeros((2, 3)))

    @pytest.mark.parametrize(
        "tol", ["x", np.nan, -1e-10, np.inf], ids=["str", "nan", "negative", "inf"]
    )
    def test_rejects_bad_tol(self, tol):
        # Before the gate: numpy's UFuncTypeError, a misleading "not
        # Hermitian: ... = 0.000e+00", or (inf) any finite matrix accepted.
        with pytest.raises(QpoolError, match=r"tol must be") as exc:
            linalg.validate_density(np.diag([2.0, 0.0]), tol=tol)
        assert exc.type is QpoolError

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_random_densities_pass(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(20):
            m = _random_density(dim, rng)
            out = linalg.validate_density(m)
            assert np.allclose(out, m, atol=1e-14)


class TestHermitianSqrt:
    def test_diagonal(self):
        s = linalg.hermitian_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(s, np.diag([2.0, 3.0]), atol=1e-14)

    def test_projector_is_fixed_point(self):
        assert np.allclose(linalg.hermitian_sqrt(Z0), Z0, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_square_recovers_input(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(10):
            m = _random_density(dim, rng)
            s = linalg.hermitian_sqrt(m)
            assert linalg.hermiticity_defect(s) == 0.0
            assert np.abs(s @ s - m).max() < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(QpoolError, match=r"negative eigenvalue"):
            linalg.hermitian_sqrt(np.diag([1.0, -1.0]).astype(complex))

    def test_floors_rounding_scale_eigenvalues(self):
        # sqrt is not Lipschitz at 0, so eigenvalues below the floor must
        # map to exactly 0 rather than ~1e-7.
        s = linalg.hermitian_sqrt(np.diag([1.0, 1e-13]).astype(complex))
        assert s[1, 1] == 0.0


TOL = linalg.DEFAULT_TOL

# Smallest eigenvalues -tol (1 + delta) around the gate, and an exact zero.
LOWEST = [-TOL * (1.0 + delta) for delta in (1e-6, -1e-6, 1e-3, -1e-3, -0.5, -0.9)] + [0.0]


def _with_lowest(dim, low, rng):
    """Hermitian matrix with smallest eigenvalue low, the rest in [0.1, 0.9], in a random basis."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    w = np.concatenate([[low], rng.uniform(0.1, 0.9, dim - 1)])
    return linalg.hermitianize((q * w) @ q.conj().T)


def _lanes(m, rng):
    """A 5-lane stack holding m in lane 2, zero padding in lanes 0 and 3, valid elements elsewhere."""
    dim = m.shape[-1]
    zero = np.zeros((dim, dim), dtype=complex)
    return np.array([zero, _with_lowest(dim, 0.2, rng), m, zero, _with_lowest(dim, 0.1, rng)])


def _spoiled(m, kind):
    m = m.copy()
    if kind == "nan":
        m[-1, 0] = np.nan
    else:
        # An imaginary part 3 tol off: the diagonal at dim 1, a corner above.
        m[0, -1] += 3j * TOL
    return m


def _message(check, *args):
    """None if check(*args) passes, else the message of the QpoolError it raises."""
    try:
        check(*args)
    except QpoolError as exc:
        return str(exc)
    return None


def _per_element(elements):
    for i, e in enumerate(elements):
        linalg.check_positive(e, TOL, f"element {i}")


def _counted(monkeypatch, name):
    """Replace np.linalg.<name> with a wrapper; returns the list each call appends to."""
    calls = []
    original = getattr(np.linalg, name)

    def wrapper(a, *args, **kwargs):
        calls.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


class TestCholeskyAccept:
    """check_positive accepts by one shifted Cholesky factorization; eigvalsh decides the rest."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("low", LOWEST)
    def test_accepts_only_what_the_eigenvalue_gate_passes(self, dim, low, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        calls = _counted(monkeypatch, "eigvalsh")
        rng = np.random.default_rng(dim * 1000 + LOWEST.index(low))
        m = _with_lowest(dim, low, rng)
        # Lane 2 of 5 holds m; in the POVM {E, I - E} it is element 0 of that lane.
        for x, suffix, povm_suffix in (
            (m, "", " (1 of 2 lanes, first 0)"),
            (_lanes(m, rng), " (1 of 5 lanes, first 2)", " (1 of 10 lanes, first 2)"),
        ):
            passes = bool(np.all(linalg.lowest(eigvalsh(linalg.hermitianize(x))) >= -TOL))
            calls.clear()
            message = _message(linalg.check_positive, x, TOL, "m")
            assert (message is None) == passes
            if -TOL <= low < -TOL / 2:
                # Below -tol / 2 no factor exists, so eigvalsh decides these.
                assert calls == [x.shape]
            if low >= 0.0:
                assert calls == []
            # validate_povm gets the verdict of the per-element gate and names
            # the failing element as a lane of its (2, *lanes, d, d) stack.
            povm = [x, np.eye(dim) - x]
            loop = _message(_per_element, povm)
            calls.clear()
            got = _message(measurement.validate_povm, povm)
            if loop is None:
                assert got is None
            else:
                assert got == loop.replace("element 0", "element").removesuffix(suffix) + povm_suffix
            if low >= 0.0:
                assert calls == []
        if -TOL * (1.0 - 1e-3) <= low:
            # 1e-13 or more above -tol, far beyond rounding: the gate passes it.
            for x in (m, _lanes(m, rng)):
                measurement.validate_povm([x, np.eye(dim) - x])

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("kind", ["nan", "non-Hermitian"])
    def test_bad_entries_decided_by_the_gate(self, dim, kind, monkeypatch):
        rng = np.random.default_rng(dim)
        m = _spoiled(_with_lowest(dim, 0.3, rng), kind)
        message = {"nan": "non-finite entry", "non-Hermitian": "not Hermitian"}[kind]
        calls = _counted(monkeypatch, "cholesky")
        for x in (m, _lanes(m, rng)):
            with pytest.raises(QpoolError, match=message):
                linalg.check_positive(x, TOL, "m")
        # The finite and Hermiticity gates run first, so cholesky never sees a bad entry.
        assert calls == []


class TestOneDotProductGates:
    """hermitian_part and check_unit_trace clear a stack by one sum of squares, lanes on failure."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_hermiticity_at_the_boundary(self, dim):
        rng = np.random.default_rng(dim)
        m = _with_lowest(dim, 0.3, rng)
        # Every defect entry at 0.9 tol; their Frobenius norm, 0.9 tol * dim, is over tol.
        spread = m + 0.45j * TOL * np.ones((dim, dim))
        one = m.copy()
        one[0, -1] += 1.01 * TOL
        lanes = " (1 of 5 lanes, first 2)"
        for stack, suffix in ((lambda x: x, ""), (lambda x: _lanes(x, rng), lanes)):
            x = stack(spread)
            assert np.array_equal(linalg.hermitian_part(x, TOL, "m"), linalg.hermitianize(x))
            assert np.array_equal(linalg.check_positive(x, TOL, "m"), linalg.hermitianize(x))
            with pytest.raises(QpoolError) as exc:
                linalg.hermitian_part(stack(one), TOL, "m")
            assert str(exc.value) == "m is not Hermitian: max |M - M^dag| = 1.010e-10" + suffix

    def test_unit_trace_at_the_boundary(self):
        def states(*devs):
            return np.array([np.diag([0.5, 0.5 + d]) for d in devs]).squeeze()

        # Five lanes 0.9 tol off sum their squares to over tol^2, yet each passes.
        for x in (states(0.9 * TOL), states(*[0.9 * TOL] * 5)):
            assert np.array_equal(linalg.check_unit_trace(x, TOL, "trace"), linalg.trace(x))
        for x, suffix in (
            (states(1.01 * TOL), ""),
            (states(0.0, 0.0, 1.01 * TOL, 0.0, 0.0), " (1 of 5 lanes, first 2)"),
        ):
            with pytest.raises(QpoolError, match=r"^trace 1\.0000000001\d* differs") as exc:
                linalg.check_unit_trace(x, TOL, "trace")
            assert str(exc.value).endswith("differs from 1 by more than 1e-10" + suffix)


class TestTraceProduct:
    def test_orthogonal_pure(self):
        assert linalg.trace_product(Z0, Z1) == 0.0

    def test_identical_pure(self):
        assert linalg.trace_product(Z0, Z0) == 1.0

    def test_z_and_plus(self):
        assert linalg.trace_product(Z0, PLUS) == pytest.approx(0.5, abs=1e-15)

    def test_mixed_with_anything(self):
        rng = np.random.default_rng(3)
        m = _random_density(2, rng)
        assert linalg.trace_product(np.eye(2) / 2, m) == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 5):
            for _ in range(20):
                a = _random_density(dim, rng)
                b = _random_density(dim, rng)
                t = linalg.trace_product(a, b)
                assert -1e-15 <= t <= 1.0 + 1e-15
                assert abs(t - linalg.trace_product(b, a)) < 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(QpoolError, match=r"dimension mismatch"):
            linalg.trace_product(np.eye(2) / 2, np.eye(3) / 3)

    def test_overflow_rejected(self):
        # Finite entries whose product overflows: Tr[AB] would be inf.
        big = np.diag([1e200, 1.0])
        with pytest.raises(QpoolError, match=r"Tr\[AB\] inf is not finite"):
            linalg.trace_product(big, big)

    def test_complex_trace_raises_under_optimize(self):
        # python -O strips asserts; the imaginary-part check must survive it.
        code = (
            "from qpool import linalg\n"
            "from qpool.errors import QpoolError\n"
            "try:\n"
            "    linalg.trace_product([[0, 1j], [0, 0]], [[0, 0], [1, 0]])\n"
            "except QpoolError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True)
        assert proc.returncode == 0, proc.stderr


class TestBlochMaps:
    def test_poles_and_origin(self):
        assert np.array_equal(linalg.bloch_to_density([0.0, 0.0, 1.0]), Z0)
        assert np.array_equal(linalg.bloch_to_density([0.0, 0.0, 0.0]), np.eye(2) / 2)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.standard_normal(3)
            v = v * rng.random() / np.linalg.norm(v)
            back = linalg.density_to_bloch(linalg.bloch_to_density(v))
            assert np.abs(back - v).max() < 1e-12

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_round_trip_on_axis(self, z):
        back = linalg.density_to_bloch(linalg.bloch_to_density([0.0, 0.0, z]))
        assert abs(back[2] - z) < 1e-12

    def test_slightly_long_vector_rescaled(self):
        rho = linalg.bloch_to_density([0.0, 0.0, 1.0 + 5e-13])
        w = np.linalg.eigvalsh(rho)
        assert w[0] >= -1e-15
        assert abs(np.trace(rho).real - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "v, match", [([0.0, 0.0, 1.001], "component"), ([0.9, 0.9, 0.0], "norm")]
    )
    def test_too_long_rejected(self, v, match):
        with pytest.raises(QpoolError, match=rf"{match} .* exceeds 1"):
            linalg.bloch_to_density(v)

    def test_bad_shape_rejected(self):
        with pytest.raises(QpoolError):
            linalg.bloch_to_density([1.0, 0.0])

    def test_density_to_bloch_needs_qubit(self):
        with pytest.raises(QpoolError, match=r"expected a 2x2 matrix"):
            linalg.density_to_bloch(np.eye(3) / 3)


def test_frobenius_distance_half_mixed_vs_pure():
    d = linalg.frobenius_distance(np.eye(2) / 2, Z0)
    assert d == pytest.approx(0.7071067811865476, abs=1e-15)


def test_frobenius_distance_zero_on_self():
    assert linalg.frobenius_distance(PLUS, PLUS) == 0.0


def test_frobenius_distance_dim_mismatch():
    with pytest.raises(QpoolError, match=r"dimension mismatch"):
        linalg.frobenius_distance(np.eye(2), np.eye(3))


@pytest.mark.parametrize("first, second", [((), (5,)), ((5,), ())])
def test_same_shape_with_a_0d_array_raises_a_typed_error(first, second):
    # A single POVM's lane shape () against a stacked outcome, and back.
    with pytest.raises(QpoolError, match="shape mismatch"):
        linalg.same_shape((np.zeros(first), np.zeros(second)), ("a", "b"))


def test_maximally_mixed():
    m = linalg.maximally_mixed(4)
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(QpoolError):
        linalg.maximally_mixed(0)


# Entries numpy cannot hold as complex numbers, or rows of unequal length.
NON_NUMERIC_MATRICES = {
    "string entry": [[1, "a"], [0, 1]],
    "None entry": [[1, None], [0, 1]],
    "string": "a",
    "ragged rows": [[1, 0], [0]],
}


@pytest.mark.parametrize("name", sorted(NON_NUMERIC_MATRICES))
def test_the_matrix_gate_rejects_non_numeric_input(name):
    m = NON_NUMERIC_MATRICES[name]
    with pytest.raises(QpoolError, match="expected a numeric matrix"):
        linalg.as_complex_matrix(m)
    with pytest.raises(QpoolError, match="expected a numeric matrix"):
        linalg.hermitian_sqrt(m)
