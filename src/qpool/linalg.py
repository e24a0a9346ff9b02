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


def generators(rng) -> tuple[list, bool]:
    """The random streams of a call and whether it is for a single input.

    rng is one numpy Generator, or a list or tuple with one entry per lane
    (entries are used as they are).  Anything else raises QpoolError.
    """
    if isinstance(rng, np.random.Generator):
        return [rng], True
    if isinstance(rng, (list, tuple)):
        return list(rng), False
    raise QpoolError(
        f"rng must be a numpy Generator or a list or tuple of them, got {type(rng).__name__}"
    )


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a complex128 matrix or stack of matrices, square in the last two axes."""
    try:
        # A same-kind cast refuses strings and objects (None, ints too large for a float).
        a = np.asarray(m).astype(complex, copy=False, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise QpoolError(f"expected a numeric matrix: {exc}") from None
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise QpoolError(f"expected a square matrix, got shape {a.shape}")
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
    """Raise QpoolError if M has a NaN or inf entry (which makes its sum non-finite)."""
    # One sum over the whole stack clears the usual case at the cost of a single check.
    if not cmath.isfinite(m.sum()):
        require(np.isfinite(m.sum(axis=(-2, -1))), f"{what} has a non-finite entry")


def check_positive(m: np.ndarray, tol: float, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Check M is Hermitian with eigenvalues >= -tol.

    Returns the eigenvalues in ascending order and the Hermitian part of M.
    A NaN or inf entry makes the Hermiticity defect non-finite, so it fails.
    """
    defect = hermiticity_defect(m)
    require(defect <= tol, f"{what} is not Hermitian: max |M - M^dag| = {{:.3e}}", defect)
    h = hermitianize(m)
    w = np.linalg.eigvalsh(h)
    low = lowest(w)
    require(low >= -tol, f"{what} has negative eigenvalue {{:.3e}} below -{tol:.0e}", low)
    return w, h


def cholesky_accepts(m: np.ndarray, tol: float) -> bool:
    """Whether every matrix of the stack surely passes check_positive(m, tol).

    True when every Hermiticity defect is <= tol and one Cholesky
    factorization of hermitianize(m) + (tol / 2) I succeeds.  A factor
    exists only if every eigenvalue is above -tol / 2 minus rounding, so a
    matrix this accepts is one the eigenvalue gate passes.  False decides
    nothing: a NaN or inf entry, a defect over tol, or an eigenvalue below
    -tol / 2 (the gate still passes those in [-tol, -tol / 2)).
    """
    # cholesky only sees finite matrices Hermitian within tol; the finite
    # test comes first, so an inf entry raises no warning here.
    if not (cmath.isfinite(m.sum()) and (np.abs(m - dagger(m)) <= tol).all()):
        return False
    try:
        np.linalg.cholesky(hermitianize(m) + (tol / 2) * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def validate_density(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check that M is a density matrix and return a cleaned copy.

    Requires M Hermitian within tol, eigenvalues >= -tol, and trace within
    tol of 1.  Eigenvalues in [-tol, 0) are clipped to zero and the result
    is renormalized to unit trace.  Inputs that already satisfy the
    invariants exactly come back unchanged.

    Raises QpoolError naming the rule that failed.
    """
    w, h = check_positive(as_complex_matrix(m), tol, "matrix")
    tr = trace(h)
    require(abs(tr - 1.0) <= tol, f"trace {{!r}} differs from 1 by more than {tol:.0e}", tr)
    clip = lowest(w) < 0.0
    if clip.any():
        # Clip rounding-level negatives and rebuild those matrices.
        w_full, v = np.linalg.eigh(h[clip])
        w_full[w_full < 0.0] = 0.0
        h[clip] = hermitianize((v * w_full[..., None, :]) @ dagger(v))
        tr = trace(h)
    return h / per_matrix(tr)


def hermitian_sqrt(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues below EIGENVALUE_FLOOR are treated as exact zeros: the square
    root is not Lipschitz at 0, so rounding noise in a near-zero eigenvalue
    would otherwise be amplified to ~1e-8 in the result.
    """
    a = as_complex_matrix(m)
    check_finite(a, "matrix")
    w, v = np.linalg.eigh(hermitianize(a))
    low = lowest(w)
    require(low >= -DEFAULT_TOL, f"negative eigenvalue {{:.3e}} below -{DEFAULT_TOL:.0e}", low)
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
            if a.shape[-1] != shape[-1]:
                raise QpoolError(
                    f"dimension mismatch: {name} has dim {a.shape[-1]}, expected {shape[-1]}"
                )
            raise QpoolError(f"shape mismatch: {name} has shape {a.shape}, expected {shape}")


def trace_product(a, b):
    """Tr[A B] for Hermitian A, B of equal dimension, as a real number per matrix pair."""
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    same_shape((ma, mb), ("a", "b"))
    t = np.einsum("...ij,...ji->...", ma, mb)
    require(abs(t.imag) <= ZERO_TOL, "Tr[AB] has imaginary part {:.3e}", t.imag)
    require(np.isfinite(t.real), "Tr[AB] {!r} is not finite", t.real)
    return t.real


def as_bloch_vector(v) -> tuple[np.ndarray, float]:
    """Return v as a float vector of shape (3,) with its norm.

    Another shape, or a norm that is not at most 1 + BLOCH_SLACK, raises QpoolError.
    """
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise QpoolError(f"Bloch vector must have shape (3,), got {a.shape}")
    n = float(np.linalg.norm(a))
    if not n <= 1.0 + BLOCH_SLACK:
        raise QpoolError(f"Bloch vector norm {n!r} exceeds 1")
    return a, n


def bloch_to_density(v) -> np.ndarray:
    """Qubit density matrix (I + v . sigma) / 2 for a Bloch vector v.

    Norms in (1, 1 + BLOCH_SLACK] are rescaled onto the unit sphere.
    """
    a, n = as_bloch_vector(v)
    if n > 1.0:
        a = a / n
    x, y, z = a
    return np.array(
        [[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]], dtype=complex
    ) / 2.0


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix, components Re Tr[rho sigma_i]."""
    r = as_complex_matrix(rho)
    if r.shape != (2, 2):
        raise QpoolError(f"expected a 2x2 matrix, got {r.shape}")
    check_finite(r, "matrix")
    x = float(r[1, 0].real + r[0, 1].real)
    y = float(r[1, 0].imag - r[0, 1].imag)
    z = float(r[0, 0].real - r[1, 1].real)
    return np.array([x, y, z])


def frobenius_distance(a, b):
    """Frobenius norm of A - B per matrix pair.

    QpoolError if it is not finite (a NaN or inf entry).
    """
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    same_shape((ma, mb), ("a", "b"))
    d = np.linalg.norm(ma - mb, axis=(-2, -1))
    require(np.isfinite(d), "distance {!r} is not finite", d)
    return d
