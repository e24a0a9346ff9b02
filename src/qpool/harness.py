"""First-principles oracle and randomized verification sweeps.

The oracle never calls the pooling rules: it is the state reached by a
chain of bare updates starting from total ignorance, the chain that
run_scenario walks while it samples the outcomes.  sweep(trials, dims, tol,
seed, observers, family) generates random scenarios of `observers`
observers measuring POVMs of one family, pools their individual posteriors
by both rules, and compares against the oracle.  SUITES names the
(observers, family) pairs that qpool verify runs, and FAMILIES the POVM
families; both are qpool.suites' objects, kept in that data-only module so
the CLI parser reads them without loading this one.  Each verify_* function
is one suite.  Trial i of n observers runs at dims[i % len(dims)] from
default_rng(trial_seed(seed, i + (n - 2) * _OBSERVER_INDEX_STRIDE)).

A sweep seeds all its trial streams in one pass (trial_generators) and runs
the trials at one dim as one stack, each lane drawing from its own trial
stream in the order a lone trial would.  A stack in which any lane trips a
gate reruns each of its trials alone from a fresh stream, so the report is
the one that running every trial alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, measurement, pooling
from .errors import IncompatibleStatesError, QpoolError, ZeroProbabilityError
from .suites import FAMILIES, SUITES

# Odd 64-bit constant; consecutive trial seeds land in well-separated
# generator streams.
TRIAL_SEED_STRIDE = 0x9E3779B97F4A7C15

# Trial indices of consecutive observer counts lie this far apart, so within
# one call no two counts share a stream (a sweep has far fewer trials).
_OBSERVER_INDEX_STRIDE = 2**61

MAX_CHAIN_RESAMPLES = 32
SINGULAR_SUM_TOL = 1e-10


@dataclass(frozen=True)
class Scenario:
    """One measurement history: POVMs applied in order, outcomes once run.

    final_state is the state the run's chain of bare updates ends in: the
    oracle for the pooled observers.  POVMs with stacked elements hold one
    history per lane; their outcomes are then arrays with one index per lane.
    """

    dim: int
    povms: tuple[measurement.Povm, ...]
    seed: int
    sampled_outcomes: tuple | None = None
    final_state: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.povms, (list, tuple)) or not all(
            isinstance(p, measurement.Povm) for p in self.povms
        ):
            raise QpoolError("Scenario povms must be a list or tuple of Povm (validate_povm)")


@dataclass
class VerificationReport:
    """Outcome of a randomized sweep; qpool verify prints its fields in this order.

    failures holds (trial_seed, distance) pairs for trials beyond
    tolerance; resamples counts chains redrawn after a numerically
    impossible outcome.
    """

    trials: int
    max_oracle_distance: float
    max_norm_discrepancy: float
    mean_norm_discrepancy: float = 0.0
    resamples: int = 0
    failures: list[tuple[int, float]] = field(default_factory=list)


def trial_seed(seed: int, index: int) -> int:
    return (seed + index * TRIAL_SEED_STRIDE) % 2**64


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, mul) constants of each call of a SeedSequence hash, as uint32 columns.

    The hash constant starts at init and is multiplied by mult in every
    call; call c xors with its value before that step and multiplies by
    its value after.
    """
    h = np.array([init * pow(mult, c, 2**32) % 2**32 for c in range(calls + 1)], dtype=np.uint32)
    return h[:-1, None], h[1:, None]


# numpy's SeedSequence with its default pool of four uint32 words
# (numpy/random/bit_generator.pyx): mix_entropy hashes the four entropy
# words, then each word into each of the other three (16 calls of the pool
# hash); generate_state(4, uint64) cycles through the pool twice (8 calls).
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.array([[0xCA01F9DD], [0x4973F715]], dtype=np.uint32)
_OTHER_WORDS = [np.array([j for j in range(4) if j != i]) for i in range(4)]


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mul
    return v ^ v >> 16


class _Words(np.random.bit_generator.ISeedSequence):
    """The seed sequence that hands PCG64 one lane's seed words, computed ahead.

    PCG64 asks for generate_state(4, uint64) once, when it is built.  Not
    spawnable: Generator.spawn on a generator seeded this way raises, and no
    sweep spawns.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def trial_generators(seed: int, lanes) -> list[np.random.Generator]:
    """default_rng(trial_seed(seed, i)) for each trial index i in lanes, in one pass.

    Runs numpy's SeedSequence for all lanes at once on uint32 arrays, one
    column per lane: each trial seed is below 2**64, so its entropy is its
    low word and its high word, padded with zeros to the pool size.  Every
    generator's bit_generator.state equals that of default_rng, and its
    draws are the same.  (Arrays wrap on overflow silently, where numpy
    scalars would warn.)
    """
    seed = linalg.check_int(seed, "seed")
    seeds = np.array(
        [trial_seed(seed, linalg.check_int(i, "trial index")) for i in lanes], dtype=np.uint64
    )
    count = len(seeds)
    pool = np.zeros((4, count), dtype=np.uint32)
    pool[:2] = seeds.astype("<u8").view("<u4").reshape(count, 2).T
    xor, mul = _POOL_HASH
    pool = _hashmix(pool, xor[:4], mul[:4])
    # A source word mixes into the other three and stays as it is, so its
    # three hashes are one call.
    for src, dst in enumerate(_OTHER_WORDS):
        c = slice(4 + 3 * src, 7 + 3 * src)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], xor[c], mul[c])
        pool[dst] = mixed ^ mixed >> 16
    state = _hashmix(np.concatenate((pool, pool)), *_STATE_HASH)
    # Word pairs join little-endian into uint64, as generate_state joins them.
    words = state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_Words(w))) for w in words]


def _outcome_effect(povm: measurement.Povm, k) -> np.ndarray:
    """The effect of outcome k, an integer in [0, len(povm)).

    For stacked POVMs k is an integer array with one index per lane.
    """
    idx = np.asarray(k)
    if idx.dtype.kind not in "iu" or ((idx < 0) | (idx >= len(povm))).any():
        raise QpoolError(f"outcome {k!r} is not an integer in [0, {len(povm)})")
    linalg.same_shape((povm.elements[0, ..., 0, 0], idx), ("POVM lanes", "outcome"))
    # Lane l takes elements[idx[l], l]; a plain index, cheaper than take_along_axis.
    return povm.elements[(idx, *np.indices(idx.shape, sparse=True))]


def _walk(scenario: Scenario, outcome) -> tuple[tuple, np.ndarray]:
    """Bare-update I/dim by each POVM's outcome in turn, outcome(povm, rho) naming it.

    Returns the outcomes and the state the chain ends in.  The POVMs must
    have the scenario's dim and one lane shape; with stacked POVMs the
    chain runs once per lane.  Those shapes are checked once, and each
    chosen effect passes hermitian_sqrt; the states are I/dim and what the
    update step (measurement._update) made of it, so no state gate runs.
    """
    rho = linalg.maximally_mixed(scenario.dim)
    if scenario.povms:
        firsts = [povm.elements[0] for povm in scenario.povms]
        rho = np.broadcast_to(rho, firsts[0].shape[:-2] + rho.shape)
        linalg.same_shape((firsts[0], rho), ("POVM 0", "I/dim"))
        linalg.same_shape(firsts, "POVM")
    outcomes = []
    for povm in scenario.povms:
        k = outcome(povm, rho)
        effect = _outcome_effect(povm, k)
        rho = measurement._update(effect, linalg.hermitian_sqrt(effect), rho)
        outcomes.append(k)
    return tuple(outcomes), rho


def run_scenario(scenario: Scenario, rng=None) -> Scenario:
    """Sample one outcome per POVM along the updated state; return a copy.

    The state starts maximally mixed and is bare-updated after each
    outcome; the copy carries the outcomes and the final state.  With rng
    None a fresh stream is seeded from scenario.seed; the sweeps pass their
    own stream instead so outcome draws stay independent of the POVM entries
    drawn earlier from the same stream.  For stacked POVMs, rng is a
    list or tuple with one generator per lane.
    """
    if rng is None:
        rng = np.random.default_rng(linalg.check_int(scenario.seed, "seed", 0))
    rngs = linalg.generators(rng)[0]
    outcomes, rho = _walk(
        scenario, lambda povm, rho: measurement._draw(measurement._probabilities(povm, rho), rngs)
    )
    return replace(scenario, sampled_outcomes=outcomes, final_state=rho)


def oracle_pool(scenario: Scenario) -> np.ndarray:
    """What a measurement record itself implies: chained bare updates.

    Starts from I/dim and applies each recorded outcome's effect in order.
    This is the ground truth the pooling rules are checked against, for a
    record held outside a run (run_scenario carries it as final_state).
    """
    if scenario.sampled_outcomes is None:
        raise QpoolError("scenario has no sampled outcomes; run it first")
    if not isinstance(scenario.sampled_outcomes, (list, tuple)):
        raise QpoolError("sampled outcomes must be a list or tuple, one per POVM")
    if len(scenario.sampled_outcomes) != len(scenario.povms):
        raise QpoolError("outcome count does not match POVM count")
    recorded = iter(scenario.sampled_outcomes)
    return _walk(scenario, lambda povm, rho: next(recorded))[1]


def random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix of the given rank: G G^dag / Tr, G complex Gaussian."""
    dim = linalg.check_int(dim, "dim", 1)
    if not 1 <= linalg.check_int(rank, "rank") <= dim:
        raise QpoolError(f"rank {rank} outside [1, {dim}]")
    if not isinstance(rng, np.random.Generator):
        raise QpoolError(f"rng must be one numpy Generator, got {type(rng).__name__}")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return linalg.hermitianize(m) / float(np.trace(m).real)


def random_povm(dim: int, n_outcomes, rng) -> measurement.Povm:
    """Random POVM: Wishart draws whitened by their sum, E_k = H_k H_k^dag.

    G_k is a dim x dim complex Gaussian block, S = sum_k G_k G_k^dag, and
    H = S^-1/2 [G_1|...|G_k] holds the whitened blocks side by side, so
    E_k = S^-1/2 G_k G_k^dag S^-1/2 and the E_k sum to I.  A call takes
    four stacked products: S = G G^dag, S^-1/2 from the eigenbasis of S,
    H = S^-1/2 G, and H_k H_k^dag for every block k of every lane at once.

    With a list or tuple of generators for rng and one outcome count per
    generator for n_outcomes, draws one POVM per lane from that lane's
    generator, in the order a single call draws, and returns them stacked:
    elements of shape (k, lanes, dim, dim), padded with zero effects up to
    the largest count k.  A lane whose S is near-singular raises.  Each lane
    draws its blocks once, with one standard_normal(out=...) call into a
    (lanes, k, 2, dim, dim) buffer, the order of standard_normal((k, 2, dim, dim)).
    """
    dim = linalg.check_int(dim, "dim", 1)
    rngs, single = linalg.generators(rng)
    one_count = not isinstance(n_outcomes, (list, tuple))
    counts = [n_outcomes] if one_count else list(n_outcomes)
    counts = [linalg.check_int(m, "outcome count", 2) for m in counts]
    if len(rngs) != len(counts) or not rngs or single != one_count:
        raise QpoolError(
            "rng and n_outcomes must be one generator and one count, or equal-length sequences"
        )
    k = max(counts)
    # Each lane's Gaussian blocks in draw order: block, real or imaginary
    # part, row, column.  A lane fills its first counts[i] blocks in place;
    # padding blocks stay zero.
    x = np.zeros((len(rngs), k, 2, dim, dim))
    for r, m, xi in zip(rngs, counts, x):
        r.standard_normal(out=xi[:m])
    # G = [G_1|...|G_k] per lane, (dim, k, dim), copied from one view.
    parts = x.transpose(2, 0, 3, 1, 4)
    g = np.empty(parts.shape[1:], dtype=complex)
    g.real, g.imag = parts
    g = g.reshape(len(rngs), dim, k * dim)
    w, v = np.linalg.eigh(g @ linalg.dagger(g))
    low = w[0, 0] if single else w[:, 0]
    linalg.require(low >= SINGULAR_SUM_TOL, "POVM sum S is near-singular: eigenvalue {:.3e}", low)
    h = (v * (1.0 / np.sqrt(w))[:, None, :]) @ linalg.dagger(v) @ g
    # H's blocks as a (k, lanes, dim, dim) stack, so H_k H_k^dag is E_k.
    hk = h.reshape(-1, dim, k, dim).transpose(2, 0, 1, 3)
    elements = hk @ linalg.dagger(hk)
    return measurement.validate_povm(elements[:, 0] if single else elements)


def _random_diagonal_povm(dim: int, counts: list[int], rngs: list) -> measurement.Povm:
    """Diagonal POVMs stacked as random_povm stacks them, lane i drawn from rngs[i]."""
    # Columns normalized to 1, so completeness holds to rounding; padding
    # rows are zero, so they change no column sum.
    w = np.zeros((max(counts), len(rngs), dim))
    for i, (r, m) in enumerate(zip(rngs, counts)):
        w[:m, i] = r.random((m, dim))
    w = w / w.sum(axis=0)
    return measurement.validate_povm((w[..., None] * np.eye(dim)).astype(complex))


def _trial_alone(n: int, family: str, dim: int, tseed: int) -> tuple[float, float, int]:
    """One trial as a stack of one, redrawn from its stream after a zero
    probability or zero overlap at most MAX_CHAIN_RESAMPLES times.

    Returns (oracle_distance, norm_discrepancy, resamples); a trial that never
    completes has an infinite distance and no discrepancy.
    """
    rng = np.random.default_rng(tseed)
    for redraw in range(MAX_CHAIN_RESAMPLES):
        try:
            d, disc = _trial(n, family, dim, [rng])
        except (ZeroProbabilityError, IncompatibleStatesError):
            continue
        return float(d[0]), float(np.ravel(disc)[0]), redraw
    return math.inf, 0.0, MAX_CHAIN_RESAMPLES


def sweep(
    trials: int, dims, tol: float, seed: int, observers: int, family: str
) -> VerificationReport:
    """Run `trials` trials per dim, cycling through dims, into one report.

    Each trial pools `observers` observers, an integer in [2,
    pooling.MAX_SYMMETRIC_STATES], who measure POVMs of `family`, one of
    FAMILIES; both are checked before anything is drawn.  dims is a
    list, tuple or range.  Trial i runs at dims[i % len(dims)] and draws
    from default_rng(trial_seed(seed', i)), where seed' is trial_seed(seed,
    (observers - 2) * _OBSERVER_INDEX_STRIDE); trial_generators seeds all
    the sweep's trials in one pass.  The trials at one dim run as one stack
    (_trial); if it raises QpoolError, each of its trials runs alone
    (_trial_alone), from a fresh default_rng(trial_seed(seed', i)), as a
    failing seed is replayed.  Each failure carries that seed.  With two
    observers or the diagonal family, a norm_discrepancy above tol fails
    its trial.
    """
    n = linalg.check_int(observers, "observers", 2)
    if n > pooling.MAX_SYMMETRIC_STATES:
        raise QpoolError(f"observers must be <= {pooling.MAX_SYMMETRIC_STATES}, got {n}")
    if not isinstance(family, str) or family not in FAMILIES:
        raise QpoolError(f"family must be {' or '.join(map(repr, FAMILIES))}, got {family!r}")
    tol = linalg.check_tol(tol)
    trials = linalg.check_int(trials, "trials", 1)
    seed = trial_seed(linalg.check_int(seed, "seed"), (n - 2) * _OBSERVER_INDEX_STRIDE)
    if not isinstance(dims, (list, tuple, range)):
        raise QpoolError(f"dims must be a list, tuple or range, got {dims!r}")
    dims = [linalg.check_int(d, "dim", 2) for d in dims]
    if not dims:
        raise QpoolError("a sweep needs at least one dim")
    total = trials * len(dims)
    dist = np.full(total, math.inf)
    disc = np.zeros(total)
    resamples = 0
    gens = trial_generators(seed, range(total))
    for j, dim in enumerate(dims):
        lanes = range(j, total, len(dims))
        try:
            dist[lanes], disc[lanes] = _trial(n, family, dim, gens[j :: len(dims)])
        except QpoolError:
            for i in lanes:
                dist[i], disc[i], redraws = _trial_alone(n, family, dim, trial_seed(seed, i))
                resamples += redraws
    if n == 2 or family == "diagonal":
        # trace_norm = paper_norm exactly here, so a discrepancy above tol fails.
        dist = np.where(disc <= tol, dist, np.maximum(dist, disc))
    dist, disc = dist.tolist(), disc.tolist()
    return VerificationReport(
        trials=total,
        max_oracle_distance=max(dist),
        max_norm_discrepancy=max(disc),
        failures=[(trial_seed(seed, i), d) for i, d in enumerate(dist) if not d <= tol],
        # Python's sum adds in order; np.sum adds pairwise and changes the bytes.
        mean_norm_discrepancy=sum(disc) / total,
        resamples=resamples,
    )


def _distance(pooled: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-lane Frobenius distance, or inf where the pooled state has a NaN or inf entry.

    A pooled result of the wrong shape is inf in every lane.  A rule that
    returns such a state fails its trial instead of ending the sweep.
    """
    d = np.full(reference.shape[:-2], math.inf)
    if np.shape(pooled) == reference.shape:
        finite = np.isfinite(pooled).all(axis=(-2, -1))
        d[finite] = linalg.frobenius_distance(pooled[finite], reference[finite])
    return d


def _is_density(rho) -> bool:
    """Whether rho passes the state gate at the sweeps' 1e-9 tolerance."""
    try:
        linalg.check_state(rho, 1e-9, "matrix")
    except QpoolError:
        return False
    return True


def _trial(n: int, family: str, dim: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """n observers measure one chain per generator, and both rules are checked.

    Draws n POVMs of the family with 2 to 4 outcomes per lane and runs them
    from each lane's generator (run_scenario).  The posteriors are rooted
    once (pooling._roots), and both rules' bodies take those roots: the
    ordered rule is held to the chain's final state, the symmetric rule to
    the classical product of the posteriors' diagonals in the diagonal
    family, else to being a density matrix (inf if not).  Returns per lane
    the larger distance, and the symmetric norm_discrepancy.
    """
    diagonal = family == "diagonal"
    make_povm = _random_diagonal_povm if diagonal else random_povm
    povms = tuple(
        make_povm(dim, [int(r.integers(2, 5)) for r in rngs], rngs) for _ in range(n)
    )
    scen = run_scenario(Scenario(dim=dim, povms=povms, seed=0), rng=rngs)
    effects = np.array([_outcome_effect(p, k) for p, k in zip(povms, scen.sampled_outcomes)])
    # Already the (n, lanes, d, d) complex stack that pooling._matrices makes.
    posteriors = measurement.posterior_from_outcome(effects)
    roots = pooling._roots(posteriors)
    d = _distance(pooling._ordered(posteriors, roots).pooled, scen.final_state)
    symmetric = pooling._symmetric(posteriors, roots)
    if diagonal:
        classical = pooling.classical_pool(*np.diagonal(posteriors, axis1=-2, axis2=-1).real)
        d = np.maximum(d, _distance(symmetric.pooled, classical[..., None] * np.eye(dim)))
    elif not _is_density(symmetric.pooled):
        d[[not _is_density(rho) for rho in symmetric.pooled]] = math.inf
    return d, symmetric.norm_discrepancy


def verify_two_observer(trials: int, dims, tol: float, seed: int) -> VerificationReport:
    """The "two" suite of SUITES: two observers, random POVMs (sweep)."""
    return sweep(trials, dims, tol, seed, *SUITES["two"])


def verify_commuting_reduction(trials: int, dims, tol: float, seed: int) -> VerificationReport:
    """The "commuting" suite of SUITES: two observers, diagonal POVMs (sweep)."""
    return sweep(trials, dims, tol, seed, *SUITES["commuting"])


def verify_three_observer(trials: int, dims, tol: float, seed: int) -> VerificationReport:
    """The "three" suite of SUITES: three observers, random POVMs (sweep)."""
    return sweep(trials, dims, tol, seed, *SUITES["three"])
