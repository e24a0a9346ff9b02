"""First-principles oracle and randomized verification sweeps.

The oracle never calls the pooling rules: it is the state reached by a
chain of bare updates starting from total ignorance, the chain that
run_scenario walks while it samples the outcomes.  The verify_* sweeps
generate random scenarios, pool the observers' individual posteriors, and
compare against the oracle.

A sweep runs all its trials at one dim as one stack, each lane drawing
from its own trial stream in the order a lone trial would.  A stack in
which any lane trips a gate reruns each of its trials alone from a fresh
stream, so the report is the one that running every trial alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, measurement, pooling
from .errors import IncompatibleStatesError, QpoolError, ZeroProbabilityError

# Odd 64-bit constant; consecutive trial seeds land in well-separated
# generator streams.
TRIAL_SEED_STRIDE = 0x9E3779B97F4A7C15

MAX_CHAIN_RESAMPLES = 32
MAX_POVM_ATTEMPTS = 8
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


@dataclass
class VerificationReport:
    """Outcome of a randomized sweep.

    failures holds (trial_seed, distance) pairs for trials beyond
    tolerance; resamples counts chains redrawn after a numerically
    impossible outcome.
    """

    trials: int
    max_oracle_distance: float
    max_norm_discrepancy: float
    failures: list[tuple[int, float]] = field(default_factory=list)
    mean_norm_discrepancy: float = 0.0
    resamples: int = 0

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "max_oracle_distance": self.max_oracle_distance,
            "max_norm_discrepancy": self.max_norm_discrepancy,
            "mean_norm_discrepancy": self.mean_norm_discrepancy,
            "resamples": self.resamples,
            "failures": [[int(s), d] for s, d in self.failures],
        }


def trial_seed(seed: int, index: int) -> int:
    return (seed + index * TRIAL_SEED_STRIDE) % 2**64


def _outcome_effect(povm: measurement.Povm, k) -> np.ndarray:
    """The effect of outcome k, an integer in [0, len(povm)).

    For stacked POVMs k is an integer array with one index per lane.
    """
    idx = np.asarray(k)
    if idx.dtype.kind not in "iu" or ((idx < 0) | (idx >= len(povm))).any():
        raise QpoolError(f"outcome {k!r} is not an integer in [0, {len(povm)})")
    effects = np.stack(povm.elements, axis=-3)
    # One True per lane, at its outcome: the mask has the shape of a lane's
    # outcome distribution, and picks the effects out in lane order.
    picked = idx[..., None] == np.arange(len(povm))
    linalg.same_shape((effects[..., 0, 0], picked), ("POVM", "outcome mask"))
    return effects[picked].reshape(effects.shape[:-3] + effects.shape[-2:])


def _ignorance(scenario: Scenario) -> np.ndarray:
    """I/dim, once per lane of the scenario's POVMs, which must have that dim."""
    rho = linalg.maximally_mixed(scenario.dim)
    if scenario.povms:
        effect = scenario.povms[0].elements[0]
        rho = np.broadcast_to(rho, effect.shape[:-2] + rho.shape)
        linalg.same_shape((effect, rho), ("POVM 0", "I/dim"))
    return rho


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
    rho = _ignorance(scenario)
    outcomes = []
    for povm in scenario.povms:
        k = measurement.sample_outcome(povm, rho, rng)
        rho = measurement.bare_update(_outcome_effect(povm, k), rho)
        outcomes.append(k)
    return replace(scenario, sampled_outcomes=tuple(outcomes), final_state=rho)


def oracle_pool(scenario: Scenario) -> np.ndarray:
    """What a measurement record itself implies: chained bare updates.

    Starts from I/dim and applies each recorded outcome's effect in order.
    This is the ground truth the pooling rules are checked against, for a
    record held outside a run (run_scenario carries it as final_state).
    """
    if scenario.sampled_outcomes is None:
        raise QpoolError("scenario has no sampled outcomes; run it first")
    if len(scenario.sampled_outcomes) != len(scenario.povms):
        raise QpoolError("outcome count does not match POVM count")
    rho = _ignorance(scenario)
    for povm, k in zip(scenario.povms, scenario.sampled_outcomes):
        rho = measurement.bare_update(_outcome_effect(povm, k), rho)
    return rho


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


def _lane_args(rng, n_outcomes) -> tuple[list, list[int], bool]:
    """Generators and outcome counts per lane, and whether the call is for one POVM."""
    rngs, single = linalg.generators(rng)
    one_count = not isinstance(n_outcomes, (list, tuple))
    counts = [n_outcomes] if one_count else list(n_outcomes)
    counts = [linalg.check_int(m, "outcome count", 2) for m in counts]
    if len(rngs) != len(counts) or not rngs or single != one_count:
        raise QpoolError(
            "rng and n_outcomes must be one generator and one count, or equal-length sequences"
        )
    return rngs, counts, single


def _stacked_povm(elements: np.ndarray, single: bool) -> measurement.Povm:
    """Validate (lanes, outcomes, dim, dim) effects as one POVM per lane."""
    return measurement.validate_povm(list(elements[0] if single else elements.swapaxes(0, 1)))


def random_povm(dim: int, n_outcomes, rng) -> measurement.Povm:
    """Random POVM: Wishart draws whitened by their sum, E_k = S^-1/2 W_k S^-1/2.

    W_k = G_k G_k^dag with G_k a dim x dim complex Gaussian block, and
    S = sum_k W_k, so the E_k sum to I.

    With a list or tuple of generators for rng and one outcome count per
    generator for n_outcomes, draws one POVM per lane from that lane's
    generator, in the order a single call draws, and returns them stacked:
    elements of shape (lanes, dim, dim), padded with zero effects up to the
    largest count.  A lane whose normalizer is near-singular redraws from
    its own generator.
    """
    dim = linalg.check_int(dim, "dim", 1)
    rngs, counts, single = _lane_args(rng, n_outcomes)
    # Real and imaginary Gaussian parts per lane and outcome; padding stays zero.
    x = np.zeros((len(rngs), max(counts), 2, dim, dim))
    elements = np.zeros((len(rngs), max(counts), dim, dim), dtype=complex)
    pending = np.arange(len(rngs))
    for _ in range(MAX_POVM_ATTEMPTS):
        for i in pending:
            x[i, : counts[i]] = rngs[i].standard_normal((counts[i], 2, dim, dim))
        g = x[pending, :, 0] + 1j * x[pending, :, 1]
        wishart = g @ linalg.dagger(g)
        s = linalg.hermitianize(wishart.sum(axis=1))
        w, v = np.linalg.eigh(s)
        ok = w[:, 0] >= SINGULAR_SUM_TOL
        every = np.count_nonzero(ok) == ok.size
        if not every:
            w, v, wishart = w[ok], v[ok], wishart[ok]
        inv_sqrt = (v * (1.0 / np.sqrt(w))[:, None, :]) @ linalg.dagger(v)
        inv_sqrt = inv_sqrt[:, None]
        whitened = linalg.hermitianize(inv_sqrt @ wishart @ inv_sqrt)
        if every and len(pending) == len(rngs):
            # The usual case: every lane's first normalizer is regular.
            return _stacked_povm(whitened, single)
        elements[pending[ok]] = whitened
        pending = pending[~ok]
        if not len(pending):
            break
    drawn = np.ones(len(rngs), dtype=bool)
    drawn[pending] = False
    linalg.require(
        drawn[0] if single else drawn,
        f"POVM normalizer stayed near-singular after {MAX_POVM_ATTEMPTS} attempts",
    )
    return _stacked_povm(elements, single)


def _random_diagonal_povm(dim: int, n_outcomes, rng) -> measurement.Povm:
    # Columns normalized to 1, so completeness holds to rounding; padding
    # rows are zero, so they change no column sum.
    rngs, counts, single = _lane_args(rng, n_outcomes)
    w = np.zeros((len(rngs), max(counts), dim))
    for i, (r, m) in enumerate(zip(rngs, counts)):
        w[i, :m] = r.random((m, dim))
    w = w / w.sum(axis=1, keepdims=True)
    return _stacked_povm((w[..., None] * np.eye(dim)).astype(complex), single)


def _trial_alone(trial, dim: int, tseed: int) -> tuple[float, float, int]:
    """One trial as a stack of one, redrawn from its stream after a zero
    probability or zero overlap at most MAX_CHAIN_RESAMPLES times.

    Returns (oracle_distance, norm_discrepancy, resamples); a trial that never
    completes has an infinite distance and no discrepancy.
    """
    rng = np.random.default_rng(tseed)
    for redraw in range(MAX_CHAIN_RESAMPLES):
        try:
            d, disc = trial(dim, [rng])
        except (ZeroProbabilityError, IncompatibleStatesError):
            continue
        return float(d[0]), float(np.ravel(disc)[0]), redraw
    return math.inf, 0.0, MAX_CHAIN_RESAMPLES


def _sweep(dims, trials: int, tol: float, seed: int, trial) -> VerificationReport:
    """Run `trials` trials per dim, cycling through dims, into one report.

    Trial i draws from default_rng(trial_seed(seed, i)).  trial(dim, rngs)
    runs one trial per generator as a stack and returns per-lane
    (oracle_distance, norm_discrepancy).  The trials at one dim run as one
    stack; if it raises QpoolError, each of its trials runs alone
    (_trial_alone).
    """
    tol = linalg.check_real(tol, "tol")
    if not (math.isfinite(tol) and tol > 0):
        raise QpoolError(f"tol must be finite and positive, got {tol!r}")
    trials = linalg.check_int(trials, "trials", 1)
    seed = linalg.check_int(seed, "seed")
    dims = [linalg.check_int(d, "dim", 2) for d in dims]
    if not dims:
        raise QpoolError("a sweep needs at least one dim")
    total = trials * len(dims)
    dist = np.full(total, math.inf)
    disc = np.zeros(total)
    resamples = 0
    for j, dim in enumerate(dims):
        lanes = range(j, total, len(dims))
        try:
            dist[lanes], disc[lanes] = trial(
                dim, [np.random.default_rng(trial_seed(seed, i)) for i in lanes]
            )
        except QpoolError:
            for i in lanes:
                dist[i], disc[i], redraws = _trial_alone(trial, dim, trial_seed(seed, i))
                resamples += redraws
    report = VerificationReport(
        trials=total, max_oracle_distance=0.0, max_norm_discrepancy=0.0, resamples=resamples
    )
    disc_sum = 0.0
    for i, (d, c) in enumerate(zip(dist.tolist(), disc.tolist())):
        report.max_oracle_distance = max(report.max_oracle_distance, d)
        report.max_norm_discrepancy = max(report.max_norm_discrepancy, c)
        disc_sum += c
        if not d <= tol:
            report.failures.append((trial_seed(seed, i), d))
    report.mean_norm_discrepancy = disc_sum / total
    return report


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
    """Whether rho passes validate_density at the sweeps' 1e-9 tolerance."""
    try:
        linalg.validate_density(rho, tol=1e-9)
    except QpoolError:
        return False
    return True


def _random_chain(make_povm, dim: int, n: int, rngs) -> tuple[Scenario, list[np.ndarray]]:
    """Draw n random POVMs with 2 to 4 outcomes per lane and run them in order.

    Returns the run scenario and each observer's posterior, stacked over
    the lanes.  Outcomes come from each lane's own generator, so the
    scenario's own seed is never read.
    """
    povms = tuple(
        make_povm(dim, [int(r.integers(2, 5)) for r in rngs], rngs) for _ in range(n)
    )
    scen = run_scenario(Scenario(dim=dim, povms=povms, seed=0), rng=rngs)
    posteriors = [
        measurement.posterior_from_outcome(_outcome_effect(p, k))
        for p, k in zip(povms, scen.sampled_outcomes)
    ]
    return scen, posteriors


def verify_two_observer(trials: int, dim_range, tol: float, seed: int) -> VerificationReport:
    """Pooled two-observer posteriors vs the two-step oracle.

    Runs `trials` random scenarios at every dim in dim_range (inclusive),
    pools the observers' posteriors with the ordered rule, and records the
    Frobenius distance to the oracle.
    """
    if not isinstance(dim_range, (list, tuple)) or len(dim_range) != 2:
        raise QpoolError(f"dim_range must be a (low, high) pair, got {dim_range!r}")
    lo, hi = linalg.check_int(dim_range[0], "dim"), linalg.check_int(dim_range[1], "dim")

    def trial(dim, rngs):
        scen, (rho_a, rho_b) = _random_chain(random_povm, dim, 2, rngs)
        pooled = pooling.pool_ordered(rho_a, rho_b)
        return _distance(pooled.pooled, scen.final_state), pooled.norm_discrepancy

    return _sweep(list(range(lo, hi + 1)), trials, tol, seed, trial)


def verify_commuting_reduction(trials: int, dim: int, tol: float, seed: int) -> VerificationReport:
    """Diagonal scenarios: symmetric pooling vs the classical product rule.

    All operators commute, so the pooled state must be the diagonal matrix
    of the renormalized product of the two posterior distributions.
    """

    def trial(dim, rngs):
        _, (rho_a, rho_b) = _random_chain(_random_diagonal_povm, dim, 2, rngs)
        pooled = pooling.pool_symmetric(rho_a, rho_b)
        classical = pooling.classical_pool(
            np.diagonal(rho_a, axis1=-2, axis2=-1).real, np.diagonal(rho_b, axis1=-2, axis2=-1).real
        )
        d = _distance(pooled.pooled, classical[..., None] * np.eye(dim))
        return d, pooled.norm_discrepancy

    return _sweep([dim], trials, tol, seed, trial)


def verify_three_observer(
    trials: int,
    dim: int,
    seed: int,
    *,
    tol: float = 1e-10,
    diagonal: bool = False,
) -> VerificationReport:
    """Three observers: ordered pooling vs the three-step oracle.

    Also pools symmetrically (trace normalization), checks the result is a
    valid density matrix (an invalid one registers as an infinite oracle
    distance), and records the trace-vs-closed-form denominator
    discrepancy.  With diagonal=True all effects commute and the
    discrepancy itself must vanish to rounding.
    """
    make_povm = _random_diagonal_povm if diagonal else random_povm

    def trial(dim, rngs):
        scen, posteriors = _random_chain(make_povm, dim, 3, rngs)
        ordered = pooling.pool_ordered_multi(posteriors)
        d = _distance(ordered.pooled, scen.final_state)
        symmetric = pooling.pool_symmetric_multi(posteriors, norm_mode="trace")
        # Invalid pooled output counts as an infinite-distance failure so
        # the report invariant still holds.
        if not _is_density(symmetric.pooled):
            d[[not _is_density(rho) for rho in symmetric.pooled]] = math.inf
        return d, symmetric.norm_discrepancy

    return _sweep([dim], trials, tol, seed, trial)


def merge_reports(reports) -> VerificationReport:
    """Combine sweep reports: sums for counts, maxima for distances."""
    reports = list(reports)
    if not reports:
        raise QpoolError("nothing to merge")
    total = sum(r.trials for r in reports)
    return VerificationReport(
        trials=total,
        max_oracle_distance=max(r.max_oracle_distance for r in reports),
        max_norm_discrepancy=max(r.max_norm_discrepancy for r in reports),
        failures=[f for r in reports for f in r.failures],
        mean_norm_discrepancy=sum(
            r.mean_norm_discrepancy * r.trials for r in reports
        )
        / total,
        resamples=sum(r.resamples for r in reports),
    )
