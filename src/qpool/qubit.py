"""Closed-form qubit pooling in Bloch-vector coordinates."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import IncompatibleStatesError, QpoolError
from .linalg import BLOCH_SLACK, EIGENVALUE_FLOOR, ZERO_TOL, as_bloch_vector, check_real, normalizer

# A qubit of Bloch length n has smallest eigenvalue (1 - n) / 2.  Lengths at
# or above this are treated as exactly pure so the closed form and the
# matrix route (which floors eigenvalues at EIGENVALUE_FLOOR) purify
# together.
_PURE_NORM_SNAP = 1.0 - 2.0 * EIGENVALUE_FLOOR


class BlochWeights(NamedTuple):
    """Coefficients of the two Bloch vectors in the pooled numerator."""

    alpha: float
    beta: float


def weight_factor(x: float) -> float:
    """1 + sqrt(1 - x^2) for a Bloch length x in [0, 1].

    Decreases from 2 (total ignorance) to 1 (pure state); it is the
    denominator that sets how strongly a state's direction is weighted.
    """
    if not -BLOCH_SLACK <= check_real(x, "Bloch length") <= 1.0 + BLOCH_SLACK:
        raise QpoolError(f"Bloch length {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return 1.0 + math.sqrt(1.0 - x * x)


def certainty_weight(x: float) -> float:
    """x / weight_factor(x): strictly increasing on [0, 1], from 0 to 1.

    Orders observers by certainty: the pooled direction leans toward the
    input with the larger value.
    """
    return x / weight_factor(x)


def _effective_norm(n: float) -> float:
    return 1.0 if n >= _PURE_NORM_SNAP else n


def bloch_weights(a, b) -> BlochWeights:
    """Numerator coefficients (alpha, beta) for pooled = alpha a + beta b.

    alpha = 1/2 + (1/4) (a.b / weight_factor(|a|) - |b|^2 / weight_factor(|b|))
    and beta is the same with the roles swapped.  The snapped norm is used
    both inside weight_factor and in the squared-norm terms; mixing snapped
    and raw values would split the two purification routes apart.
    """
    va, na, _ = as_bloch_vector(a)
    vb, nb, _ = as_bloch_vector(b)
    return _weights(float(va.dot(vb)), na, nb)


def _weights(ab: float, na: float, nb: float) -> BlochWeights:
    """bloch_weights on norms that as_bloch_vector gated: weight_factor without its gate."""
    na = _effective_norm(na)
    nb = _effective_norm(nb)
    fa = 1.0 + math.sqrt(1.0 - na * na)
    fb = 1.0 + math.sqrt(1.0 - nb * nb)
    alpha = 0.5 + 0.25 * (ab / fa - nb * nb / fb)
    beta = 0.5 + 0.25 * (ab / fb - na * na / fa)
    return BlochWeights(alpha=alpha, beta=beta)


def pool_bloch(a, b) -> np.ndarray:
    """Pool two qubit states of knowledge given as Bloch vectors.

    Returns (alpha a + beta b) / ((1/2)(1 + a.b)), the Bloch vector of the
    symmetric pooled state.  Raises IncompatibleStatesError when the states
    are antipodal pure (zero overlap).
    """
    return _pool(a, b)[0]


def _pool(a, b) -> tuple[np.ndarray, BlochWeights, np.float64]:
    """pool_bloch's result with the weights and the overlap it was built from.

    The dot products a.b and |pooled|^2 run in numpy (BLAS ddot, whose bits
    a sequential Python sum does not reproduce); the rest is Python float
    arithmetic, which rounds each step as numpy's elementwise ops do.
    """
    va, na, (ax, ay, az) = as_bloch_vector(a)
    vb, nb, (bx, by, bz) = as_bloch_vector(b)
    ab = float(va.dot(vb))
    alpha, beta = w = _weights(ab, na, nb)
    compat = 0.5 * (1.0 + ab)
    if not compat > ZERO_TOL:
        normalizer(np.float64(compat), "overlap", IncompatibleStatesError)
    # Spelled out: a comprehension over the components costs 0.4 us more.
    pooled = np.array(
        [
            (alpha * ax + beta * bx) / compat,
            (alpha * ay + beta * by) / compat,
            (alpha * az + beta * bz) / compat,
        ]
    )
    n = math.sqrt(pooled.dot(pooled))
    if not n <= 1.0 + 1e-9:
        raise QpoolError(f"pooled Bloch norm {n!r} exceeds 1")
    if n > 1.0:
        pooled = pooled / n
    return pooled, w, np.float64(compat)
