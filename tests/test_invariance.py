"""The paper's intuitive notions of pooling, as exact laws of the rules.

Permutation symmetry: pool_symmetric_multi of a reordered collection is the
same state.  Unitary covariance: pooling U rho_i U^dag gives U (pooled)
U^dag, for both rules; for the qubit closed form, pool_bloch(R a, R b) =
R pool_bloch(a, b) for a rotation R.  Neither law needs the oracle, so they
check the rules at every observer count they accept, the symmetric rule's
Liouville route (n = 5 and 6 at d <= 3) included.
"""

import numpy as np
import pytest

from qpool import pooling, qubit

from test_pooling import _draw
from test_qubit import _random_pair

# Worst Frobenius residuals over 30 draws per cell at n = 2..6, d = 2..4,
# single and stacked: permutation 4.4e-16, covariance 2.5e-14 (symmetric)
# and 2.6e-14 (ordered); pool_bloch 1.5e-14 over 20,000 pairs.
INVARIANCE_TOL = 1e-12

COUNTS = range(2, pooling.MAX_SYMMETRIC_STATES + 1)
DIMS = (2, 3, 4)
LANES = 4

RULES = {"ordered": pooling.pool_ordered_multi, "symmetric": pooling.pool_symmetric_multi}


def haar_unitary(dim, rng, lanes=()):
    """Haar-random unitaries: Q of a complex Gaussian's QR, columns rephased by R's diagonal."""
    shape = (*lanes, dim, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / abs(d))[..., None, :]


def collection(n, dim, rng, lanes=None):
    """n full-rank random states, each a stack of `lanes` states if lanes is given."""
    return np.array([_draw(dim, dim, rng, lanes) for _ in range(n)])


def _gap(a, b) -> float:
    """Largest Frobenius distance between two states or stacks of states."""
    return float(np.linalg.norm(a - b, axis=(-2, -1)).max())


def permutation_residual(states, rng) -> float:
    """How far the symmetric rule moves under a cyclic shift and a random reordering."""
    pooled = pooling.pool_symmetric_multi(states).pooled
    reorders = (np.roll(states, 1, axis=0), states[rng.permutation(len(states))])
    return float(np.max([_gap(pooling.pool_symmetric_multi(s).pooled, pooled) for s in reorders]))


def covariance_residual(rule, states, rng) -> float:
    """How far rule(U rho_i U^dag) is from U rule(rho_i) U^dag, one Haar U per lane."""
    u = haar_unitary(states.shape[-1], rng, states.shape[1:-2])
    ud = u.conj().swapaxes(-1, -2)
    rotated = rule(u @ states @ ud).pooled
    return _gap(rotated, u @ rule(states).pooled @ ud)


def random_rotation(rng) -> np.ndarray:
    """A Haar-random rotation in SO(3)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


CELLS = [(n, dim, lanes) for n in COUNTS for dim in DIMS for lanes in (None, LANES)]


def _ids(cell):
    n, dim, lanes = cell
    return f"n{n}-d{dim}-{'single' if lanes is None else 'stacked'}"


@pytest.mark.parametrize("cell", CELLS, ids=map(_ids, CELLS))
def test_symmetric_rule_ignores_the_order_of_its_states(cell):
    n, dim, lanes = cell
    rng = np.random.default_rng([n, dim, lanes or 0])
    for _ in range(3):
        assert permutation_residual(collection(n, dim, rng, lanes), rng) <= INVARIANCE_TOL


@pytest.mark.parametrize("rule", sorted(RULES))
@pytest.mark.parametrize("cell", CELLS, ids=map(_ids, CELLS))
def test_both_rules_are_unitarily_covariant(cell, rule):
    n, dim, lanes = cell
    rng = np.random.default_rng([n, dim, lanes or 0, 1])
    for _ in range(3):
        states = collection(n, dim, rng, lanes)
        assert covariance_residual(RULES[rule], states, rng) <= INVARIANCE_TOL


def test_pool_bloch_is_rotation_covariant():
    rng = np.random.default_rng(19)
    for _ in range(2000):
        (a, b), rot = _random_pair(rng), random_rotation(rng)
        got = qubit.pool_bloch(rot @ a, rot @ b)
        assert np.abs(got - rot @ qubit.pool_bloch(a, b)).max() <= INVARIANCE_TOL
