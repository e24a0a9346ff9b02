"""Hermitian matrix utilities: validation, spectral square root, Bloch maps."""

from __future__ import annotations

import cmath

import numpy as np

from .errors import (
    BadTraceError,
    BlochTooLongError,
    DimMismatchError,
    DomainError,
    NotHermitianError,
    NotPositiveError,
    QpoolError,
)

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

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex128 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise QpoolError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^dag) / 2, the Hermitian part of M."""
    return (m + m.conj().T) / 2.0


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dag|."""
    return float(np.abs(m - m.conj().T).max())


def maximally_mixed(dim: int) -> np.ndarray:
    """The state of complete ignorance, I / dim."""
    if dim < 1:
        raise QpoolError(f"dim must be >= 1, got {dim}")
    return np.eye(dim, dtype=complex) / dim


def check_finite(m: np.ndarray, what: str) -> None:
    """Raise NotHermitianError if M has a NaN or inf entry (which makes its sum non-finite)."""
    if not cmath.isfinite(m.sum()):
        raise NotHermitianError(f"{what} has a non-finite entry")


def check_positive(m: np.ndarray, tol: float, what: str) -> np.ndarray:
    """Check M is Hermitian with eigenvalues >= -tol; return them in ascending order.

    A NaN or inf entry makes the Hermiticity defect non-finite, so it fails.
    """
    defect = hermiticity_defect(m)
    if not defect <= tol:
        raise NotHermitianError(f"{what} is not Hermitian: max |M - M^dag| = {defect:.3e}")
    w = np.linalg.eigvalsh(hermitianize(m))
    if w[0] < -tol:
        raise NotPositiveError(f"{what} has negative eigenvalue {w[0]:.3e} below -{tol:.0e}")
    return w


def validate_density(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Check that M is a density matrix and return a cleaned copy.

    Requires M Hermitian within tol, eigenvalues >= -tol, and trace within
    tol of 1.  Eigenvalues in [-tol, 0) are clipped to zero and the result
    is renormalized to unit trace.  Inputs that already satisfy the
    invariants exactly come back unchanged.

    Raises
    ------
    NotHermitianError, NotPositiveError, BadTraceError
    """
    a = as_complex_matrix(m)
    w = check_positive(a, tol, "matrix")
    h = hermitianize(a)
    tr = float(np.trace(h).real)
    if abs(tr - 1.0) > tol:
        raise BadTraceError(f"trace {tr!r} differs from 1 by more than {tol:.0e}")
    if w[0] < 0.0:
        # Clip rounding-level negatives and rebuild.
        w_full, v = np.linalg.eigh(h)
        w_full[w_full < 0.0] = 0.0
        h = hermitianize((v * w_full) @ v.conj().T)
        tr = float(np.trace(h).real)
    return h / tr


def hermitian_sqrt(m) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues below EIGENVALUE_FLOOR are treated as exact zeros: the square
    root is not Lipschitz at 0, so rounding noise in a near-zero eigenvalue
    would otherwise be amplified to ~1e-8 in the result.
    """
    a = as_complex_matrix(m)
    check_finite(a, "matrix")
    h = hermitianize(a)
    w, v = np.linalg.eigh(h)
    if w[0] < -DEFAULT_TOL:
        raise NotPositiveError(f"negative eigenvalue {w[0]:.3e} below -{DEFAULT_TOL:.0e}")
    w[w < EIGENVALUE_FLOOR] = 0.0
    return hermitianize((v * np.sqrt(w)) @ v.conj().T)


def trace_product(a, b) -> float:
    """Tr[A B] for Hermitian A, B of equal dimension, as a real number."""
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
    t = complex(np.einsum("ij,ji->", ma, mb))
    if not abs(t.imag) <= ZERO_TOL:
        raise NotHermitianError(f"Tr[AB] has imaginary part {t.imag:.3e}")
    return t.real


def as_bloch_vector(v) -> tuple[np.ndarray, float]:
    """Return v as a float vector of shape (3,) (else DomainError) with its norm.

    A norm that is not at most 1 + BLOCH_SLACK raises BlochTooLongError.
    """
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise DomainError(f"Bloch vector must have shape (3,), got {a.shape}")
    n = float(np.linalg.norm(a))
    if not n <= 1.0 + BLOCH_SLACK:
        raise BlochTooLongError(f"Bloch vector norm {n!r} exceeds 1")
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
        raise DimMismatchError(f"expected a 2x2 matrix, got {r.shape}")
    x = float(r[1, 0].real + r[0, 1].real)
    y = float(r[1, 0].imag - r[0, 1].imag)
    z = float(r[0, 0].real - r[1, 1].real)
    return np.array([x, y, z])


def frobenius_distance(a, b) -> float:
    """Frobenius norm of A - B."""
    ma = as_complex_matrix(a)
    mb = as_complex_matrix(b)
    if ma.shape != mb.shape:
        raise DimMismatchError(f"dimension mismatch: {ma.shape[0]} vs {mb.shape[0]}")
    return float(np.linalg.norm(ma - mb))
