"""Hermitian matrix utilities: validation, spectral square root, Bloch maps.

The matrix functions other than the Bloch maps take one matrix or a stack
of them: an array whose leading axes index the matrices ("lanes") and whose
last two axes are square.  A single matrix is the stack with no leading axes, so both run the
same code.  Inputs that pair lane by lane must have the same shape
(same_shape).  A gate that some lanes of a stack fail raises once; its
message says how many lanes failed and which came first.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import QpoolError

DEFAULT_TOL = 1e-10

# A probability, overlap, trace or discarded imaginary part this small is zero.
ZERO_TOL = 1e-12

# Bloch vectors and lengths up to 1 + BLOCH_SLACK count as on the unit sphere.
BLOCH_SLACK = 1e-12

# Eigenvalues below this are treated as exact zeros by hermitian_sqrt.
# Must stay coordinated with qubit._PURE_NORM_SNAP: a qubit of Bloch length n
# has smallest eigenvalue (1 - n) / 2, so the matrix route and the closed-form
# route purify together at n >= 1 - 2 * EIGENVALUE_FLOOR.
EIGENVALUE_FLOOR = 1e-12


def require(ok, message: str, value=None, error: type[QpoolError] = QpoolError) -> None:
    """Raise `error` unless `ok` holds for every lane.

    `ok` is a numpy bool (or 0-d array) for a single input, or a bool array
    with one entry per lane of a stack.  `message` is formatted with the
    float `value` of the first failing lane (when given); for a stack it
    ends with the count of failing lanes and the flat index of the first.
    A NaN comparison is false, so a NaN value fails its gate.
    """
    if not ok.shape:
        if ok:
            return
        first, suffix = value, ""
    else:
        # count_nonzero takes under half the time of all() on a small stack.
        if np.count_nonzero(ok) == ok.size:
            return
        bad = np.flatnonzero(~ok)
        first = None if value is None else np.ravel(value)[bad[0]]
        suffix = f" ({len(bad)} of {ok.size} lanes, first {bad[0]})"
    raise error((message if value is None else message.format(float(first))) + suffix)


def normalizer(t, what: str, error: type[QpoolError] = QpoolError):
    """Return t, a trace, probability or overlap about to be divided by.

    Every lane must hold a finite t, else QpoolError (a bad input, not an
    impossible outcome), and t > ZERO_TOL, else `error`.  The caller
    divides by the returned t.
    """
    # abs(t) < inf is false for NaN and both infinities, and quick on a scalar.
    require(abs(t) < np.inf, f"{what} {{!r}} is not finite", t)
    require(t > ZERO_TOL, f"{what} {{:.3e}} is numerically zero or negative", t, error)
    return t


def check_int(n, what: str, low: int | None = None) -> int:
    """Return n as an int: a Python or numpy integer (not a bool), at least low if given."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise QpoolError(f"{what} must be an integer, got {n!r}")
    if low is not None and n < low:
        raise QpoolError(f"{what} must be >= {low}, got {n}")
    return int(n)


def check_real(x, what: str) -> float:
    """Return x as a float: a Python or numpy real number (not a bool)."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise QpoolError(f"{what} must be a real number, got {x!r}")
    return float(x)


def check_tol(tol) -> float:
    """Return a tolerance as a float; it must be a finite positive real."""
    tol = check_real(tol, "tol")
    if not 0.0 < tol < np.inf:
        raise QpoolError(f"tol must be finite and positive, got {tol!r}")
    return tol


def generators(rng) -> tuple[list, bool]:
    """The random streams of a call and whether it is for a single input.

    rng is one numpy Generator, or a list or tuple of them, one per lane.
    Anything else, or any other entry, raises QpoolError.
    """
    if isinstance(rng, np.random.Generator):
        return [rng], True
    if isinstance(rng, (list, tuple)):
        for i, g in enumerate(rng):
            if not isinstance(g, np.random.Generator):
                raise QpoolError(f"rng lane {i} is not a numpy Generator: {type(g).__name__}")
        return list(rng), False
    raise QpoolError(
        f"rng must be a numpy Generator or a list or tuple of them, got {type(rng).__name__}"
    )


def _cast(v, dtype, what: str) -> np.ndarray:
    """v as a dtype array by a same-kind cast: no bools, strings, objects, or complex to float."""
    try:
        a = np.asarray(v)
        if a.dtype.kind != "b":
            return a.astype(dtype, copy=False, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise QpoolError(f"expected a {what}: {exc}") from None
    raise QpoolError(f"expected a {what}, got a bool array")


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a complex128 matrix or stack of matrices, square in the last two axes."""
    a = _cast(m, complex, "numeric matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise QpoolError(f"expected a square matrix, got shape {a.shape}")
    return a


def as_distribution(p) -> np.ndarray:
    """Coerce input to a float vector or stack of vectors, non-empty along the last axis."""
    a = _cast(p, float, "real probability vector")
    if a.ndim < 1 or a.shape[-1] == 0:
        raise QpoolError("probability vectors must be non-empty along their last axis")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix."""
    return m.conj().swapaxes(-1, -2)


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^dag) / 2, the Hermitian part of M."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def hermiticity_defect(m: np.ndarray):
    """Largest entrywise deviation |M - M^dag|, per matrix."""
    return np.abs(m - dagger(m)).max(axis=(-2, -1))


def trace(m: np.ndarray):
    """Real part of the trace, per matrix."""
    return m.trace(axis1=-2, axis2=-1).real


def per_matrix(x):
    """A per-lane value shaped to scale or shift each matrix of a stack.

    x is a numpy scalar for one matrix, which broadcasts as it is.
    """
    return x[..., None, None] if x.shape else x


def lowest(w: np.ndarray):
    """Smallest eigenvalue per matrix, from eigh/eigvalsh output (ascending).

    A numpy scalar for one matrix (the [()] unwraps the 0-d array that
    [..., 0] gives, which compares about five times slower).
    """
    return w[..., 0][()]


def maximally_mixed(dim: int) -> np.ndarray:
    """The state of complete ignorance, I / dim."""
    dim = check_int(dim, "dim", 1)
    return np.eye(dim, dtype=complex) / dim


def check_finite(m: np.ndarray, what: str) -> None:
    """Raise QpoolError if M has a NaN or inf entry; numpy warns about none.

    Entries so large that sum |M_ij|^2 overflows fail too, before any
    arithmetic that could overflow on them; no state or effect has an
    entry above 1.
    """
    # One dot product over the whole stack clears the usual case.  np.vdot
    # runs in BLAS, so a NaN or inf entry raises no floating-point warning,
    # and one call is quicker than a sum.
    if not cmath.isfinite(np.vdot(m, m)):
        require(np.isfinite(m).all(axis=(-2, -1)), f"{what} has a non-finite entry")
        with np.errstate(over="ignore"):
            squares = (m.real**2 + m.imag**2).sum(axis=(-2, -1))
        require(squares < np.inf, f"{what} has entries so large that sum |M_ij|^2 overflows")


def _within(x: np.ndarray, tol: float) -> bool:
    """Whether sum |x_i|^2 <= tol^2, which puts every entry within tol (np.vdot: no warning)."""
    return np.vdot(x, x).real <= tol**2


def hermitian_part(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Check M passes check_finite and is Hermitian within tol; return (M + M^dag) / 2.

    The Hermiticity gate of every input state and effect; equals hermitianize(m).
    """
    check_finite(m, what)
    md = dagger(m)
    if not _within(m - md, tol):
        defect = hermiticity_defect(m)
        require(defect <= tol, f"{what} is not Hermitian: max |M - M^dag| = {{:.3e}}", defect)
    return (m + md) / 2.0


def check_unit_trace(m: np.ndarray, tol: float, what: str):
    """Raise QpoolError ("<what> <trace> differs from 1 ...") unless each trace is 1 within tol."""
    tr = trace(m)
    dev = tr - 1.0
    if not _within(dev, tol):
        require(abs(dev) <= tol, f"{what} {{!r}} differs from 1 by more than {tol:.0e}", tr)
    return tr


def _check_lowest(w: np.ndarray, tol: float, what: str) -> None:
    """The eigenvalue gate: each matrix's smallest eigenvalue (eigh/eigvalsh output) >= -tol."""
    low = lowest(w)
    require(low >= -tol, f"{what} has negative eigenvalue {{:.3e}} below -{tol:.0e}", low)


def check_positive(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Check M passes hermitian_part and has eigenvalues >= -tol; return its Hermitian part.

    One Cholesky factorization of the whole stack, shifted by (tol / 2) I,
    accepts the usual input: a factor exists only if every eigenvalue is
    above -tol / 2 less rounding, so what it accepts the eigenvalue gate
    passes.  Only when it fails does eigvalsh decide, which passes
    eigenvalues in [-tol, -tol / 2) and words every rejection.
    """
    h = hermitian_part(m, tol, what)
    try:
        np.linalg.cholesky(h + (tol / 2) * np.eye(h.shape[-1]))
    except np.linalg.LinAlgError:
        _check_lowest(np.linalg.eigvalsh(h), tol, what)
    return h


def check_state(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The state gate; return the Hermitian part of M.

    The one place where the rule "finite, Hermitian, positive semidefinite,
    unit trace" is composed: check_positive, then check_unit_trace, whose
    message calls the trace "<what> trace".  validate_density and
    pooling._roots gate states by their own eigendecomposition instead,
    since both need the spectrum.
    """
    h = check_positive(m, tol, what)
    check_unit_trace(h, tol, f"{what} trace")
    return h


def validate_density(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check that M is a density matrix and return a cleaned copy.

    Requires M Hermitian within tol, eigenvalues >= -tol, and trace within
    tol of 1.  Eigenvalues in [-tol, 0) are clipped to zero and the result
    is renormalized to unit trace.  Inputs that already satisfy the
    invariants exactly come back unchanged.

    Raises QpoolError naming the rule that failed (check_tol gates tol).
    """
    tol = check_tol(tol)
    # The state rule without check_state: the clip needs the eigenvalues, so
    # this gate takes eigvalsh where check_positive would try a Cholesky accept.
    h = hermitian_part(as_complex_matrix(m), tol, "matrix")
    w = np.linalg.eigvalsh(h)
    _check_lowest(w, tol, "matrix")
    tr = check_unit_trace(h, tol, "trace")
    clip = lowest(w) < 0.0
    if clip.any():
        # Clip rounding-level negatives and rebuild those matrices.
        w_full, v = np.linalg.eigh(h[clip])
        w_full[w_full < 0.0] = 0.0
        h[clip] = hermitianize((v * w_full[..., None, :]) @ dagger(v))
        tr = trace(h)
    return h / per_matrix(tr)


def hermitian_sqrt(m) -> np.ndarray:
    """Principal square root of a PSD matrix, Hermitian within DEFAULT_TOL (hermitian_part).

    Eigenvalues below EIGENVALUE_FLOOR are treated as exact zeros: the square
    root is not Lipschitz at 0, so rounding noise in a near-zero eigenvalue
    would otherwise be amplified to ~1e-8 in the result.
    """
    h = hermitian_part(as_complex_matrix(m), DEFAULT_TOL, "matrix")
    w, v = np.linalg.eigh(h)
    _check_lowest(w, DEFAULT_TOL, "matrix")
    w[w < EIGENVALUE_FLOOR] = 0.0
    return hermitianize((v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))


def same_shape(arrays, names) -> None:
    """Raise QpoolError unless every array has exactly the shape of the first.

    The rule for inputs that pair lane by lane: the same dim (last axis),
    then the same stack axes; nothing broadcasts across lanes.  names labels
    the arrays in the message: one label per array, or a str that labels
    array i as "<names> <i>".  Labels are only built when the gate raises.
    """
    shape = arrays[0].shape
    for i, a in enumerate(arrays):
        if a.shape != shape:
            name = f"{names} {i}" if isinstance(names, str) else names[i]
            # A 0-d array (a single input's lane shape) has no dim to compare.
            if a.ndim and shape and a.shape[-1] != shape[-1]:
                raise QpoolError(
                    f"dimension mismatch: {name} has dim {a.shape[-1]}, expected {shape[-1]}"
                )
            raise QpoolError(f"shape mismatch: {name} has shape {a.shape}, expected {shape}")


def cast_inputs(items, cast, names, least: int = 2) -> list[np.ndarray]:
    """Return items cast: the one admission gate of a call that takes several inputs.

    In order: a length, at least `least` (1 or 2) items, `cast` of each, then same_shape.
    """
    try:
        count = len(items)
    except TypeError:
        raise QpoolError(f"expected a sequence of {names}s, got {type(items).__name__}") from None
    if count < least:
        raise QpoolError(f"need at least two {names}s, got {count}" if count else f"got no {names}s")
    arrays = [cast(x) for x in items]
    same_shape(arrays, names)
    return arrays


def trace_product(a, b):
    """Tr[A B] for Hermitian A, B of equal dimension, as a real number per matrix pair."""
    ma, mb = cast_inputs((a, b), as_complex_matrix, ("a", "b"))
    t = np.einsum("...ij,...ji->...", ma, mb)
    require(abs(t.imag) <= ZERO_TOL, "Tr[AB] has imaginary part {:.3e}", t.imag)
    require(np.isfinite(t.real), "Tr[AB] {!r} is not finite", t.real)
    return t.real


def as_bloch_vector(v) -> tuple[np.ndarray, float, list[float]]:
    """Return v as a float vector of shape (3,), its norm and its components.

    A value that is not real, another shape, or a component or norm that is
    not at most 1 + BLOCH_SLACK in magnitude raises QpoolError.  The norm
    is np.linalg.norm's value, sqrt of one BLAS dot product; the components
    are the Python floats the component gate checked.
    """
    a = _cast(v, float, "real Bloch vector")
    if a.shape != (3,):
        raise QpoolError(f"Bloch vector must have shape (3,), got {a.shape}")
    # No component at or below 1 + BLOCH_SLACK can overflow the norm, and
    # one above it fails the norm gate anyway.
    comps = a.tolist()
    for c in comps:
        if not abs(c) <= 1.0 + BLOCH_SLACK:
            raise QpoolError(f"Bloch vector component {c!r} exceeds 1 in magnitude")
    # np.linalg.norm(a) without its call overhead: the dot of ravel(order="K").
    r = a.ravel(order="K")
    n = math.sqrt(r.dot(r))
    if not n <= 1.0 + BLOCH_SLACK:
        raise QpoolError(f"Bloch vector norm {n!r} exceeds 1")
    return a, n, comps


def bloch_to_density(v) -> np.ndarray:
    """Qubit density matrix (I + v . sigma) / 2 for a Bloch vector v.

    Norms in (1, 1 + BLOCH_SLACK] are rescaled onto the unit sphere.
    """
    _, n, (x, y, z) = as_bloch_vector(v)
    if n > 1.0:
        x, y, z = x / n, y / n, z / n
    return np.array(
        [[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]], dtype=complex
    ) / 2.0


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix, components Re Tr[rho sigma_i].

    rho must pass check_state at DEFAULT_TOL.
    """
    r = as_complex_matrix(rho)
    if r.shape != (2, 2):
        raise QpoolError(f"expected a 2x2 matrix, got {r.shape}")
    (h00, h01), (h10, h11) = check_state(r, DEFAULT_TOL, "state").tolist()
    return np.array([h10.real + h01.real, h10.imag - h01.imag, h00.real - h11.real])


def frobenius_distance(a, b):
    """Frobenius norm of A - B per matrix pair.

    QpoolError if an entry is NaN or inf, or if the norm overflows.
    """
    ma, mb = cast_inputs((a, b), as_complex_matrix, ("a", "b"))
    check_finite(ma, "a")
    check_finite(mb, "b")
    # Huge finite entries overflow the norm to inf or NaN, which the gate rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.norm(ma - mb, axis=(-2, -1))
    require(np.isfinite(d), "distance {!r} is not finite", d)
    return d
