"""First-principles oracle and randomized verification sweeps.

The oracle never calls the pooling rules: it replays the measurement
history as a chain of bare updates starting from total ignorance.  The
verify_* sweeps generate random scenarios, pool the observers' individual
posteriors, and compare against the oracle.
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
    """One measurement history: POVMs applied in order, outcomes once run."""

    dim: int
    povms: tuple[measurement.Povm, ...]
    seed: int
    sampled_outcomes: tuple[int, ...] | None = None


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


def run_scenario(scenario: Scenario, rng: np.random.Generator | None = None) -> Scenario:
    """Sample one outcome per POVM along the updated state; return a copy.

    The state starts maximally mixed and is bare-updated after each
    outcome.  With rng None a fresh stream is seeded from scenario.seed;
    the sweeps pass their own stream instead so outcome draws stay
    independent of the POVM entries drawn earlier from the same stream.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    rho = linalg.maximally_mixed(scenario.dim)
    outcomes = []
    for povm in scenario.povms:
        k = measurement.sample_outcome(povm, rho, rng)
        rho = measurement.bare_update(povm.elements[k], rho)
        outcomes.append(k)
    return replace(scenario, sampled_outcomes=tuple(outcomes))


def oracle_pool(scenario: Scenario) -> np.ndarray:
    """What the measurement record itself implies: chained bare updates.

    Starts from I/dim and applies each recorded outcome's effect in order.
    This is the ground truth the pooling rules are checked against.
    """
    if scenario.sampled_outcomes is None:
        raise QpoolError("scenario has no sampled outcomes; run it first")
    if len(scenario.sampled_outcomes) != len(scenario.povms):
        raise QpoolError("outcome count does not match POVM count")
    rho = linalg.maximally_mixed(scenario.dim)
    for povm, k in zip(scenario.povms, scenario.sampled_outcomes):
        rho = measurement.bare_update(povm.elements[k], rho)
    return rho


def random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random density matrix of the given rank: G G^dag / Tr, G complex Gaussian."""
    if not 1 <= rank <= dim:
        raise QpoolError(f"rank {rank} outside [1, {dim}]")
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return linalg.hermitianize(m) / float(np.trace(m).real)


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> measurement.Povm:
    """Random POVM: Wishart draws whitened by their sum, S^-1/2 G_k S^-1/2."""
    if n_outcomes < 2:
        raise QpoolError(f"POVM needs at least two outcomes, got {n_outcomes}")
    for _ in range(MAX_POVM_ATTEMPTS):
        gs = []
        for _ in range(n_outcomes):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            gs.append(g @ g.conj().T)
        s = linalg.hermitianize(sum(gs))
        w, v = np.linalg.eigh(s)
        if w[0] < SINGULAR_SUM_TOL:
            continue
        inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
        elements = [linalg.hermitianize(inv_sqrt @ g @ inv_sqrt) for g in gs]
        return measurement.validate_povm(elements)
    raise QpoolError(f"POVM normalizer stayed near-singular after {MAX_POVM_ATTEMPTS} attempts")


def _random_diagonal_povm(
    dim: int, n_outcomes: int, rng: np.random.Generator
) -> measurement.Povm:
    # Columns normalized to 1, so completeness holds to rounding.
    w = rng.random((n_outcomes, dim))
    w = w / w.sum(axis=0)
    return measurement.validate_povm([np.diag(row).astype(complex) for row in w])


def _sweep(dims, trials: int, tol: float, seed: int, trial) -> VerificationReport:
    """Run `trials` trials per dim, cycling through dims, into one report.

    trial(dim, rng) returns (oracle_distance, norm_discrepancy).  A zero
    probability or zero overlap redraws it from the same stream, at most
    MAX_CHAIN_RESAMPLES times; a trial that never completes counts as an
    infinite distance.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise QpoolError(f"tol must be finite and positive, got {tol!r}")
    total = trials * len(dims)
    report = VerificationReport(
        trials=total, max_oracle_distance=0.0, max_norm_discrepancy=0.0
    )
    disc_sum = 0.0
    for i in range(total):
        tseed = trial_seed(seed, i)
        rng = np.random.default_rng(tseed)
        d = math.inf
        for _ in range(MAX_CHAIN_RESAMPLES):
            try:
                d, disc = trial(dims[i % len(dims)], rng)
            except (ZeroProbabilityError, IncompatibleStatesError):
                report.resamples += 1
                continue
            report.max_norm_discrepancy = max(report.max_norm_discrepancy, disc)
            disc_sum += disc
            break
        report.max_oracle_distance = max(report.max_oracle_distance, d)
        if not d <= tol:
            report.failures.append((tseed, d))
    report.mean_norm_discrepancy = disc_sum / total
    return report


def _distance(pooled: np.ndarray, reference: np.ndarray) -> float:
    """Frobenius distance, or inf when a NaN or inf entry makes it non-finite.

    A rule that returns such a state fails its trial instead of ending the sweep.
    """
    try:
        return linalg.frobenius_distance(pooled, reference)
    except QpoolError:
        return math.inf


def _random_chain(make_povm, dim: int, n: int, rng) -> tuple[Scenario, list[np.ndarray]]:
    """Draw n random POVMs with 2 to 4 outcomes from rng and run them in order.

    Returns the run scenario and each observer's posterior.  Outcomes come
    from rng itself, so the scenario's own seed is never read.
    """
    povms = tuple(make_povm(dim, int(rng.integers(2, 5)), rng) for _ in range(n))
    scen = run_scenario(Scenario(dim=dim, povms=povms, seed=0), rng=rng)
    posteriors = [
        measurement.posterior_from_outcome(p.elements[k])
        for p, k in zip(povms, scen.sampled_outcomes)
    ]
    return scen, posteriors


def verify_two_observer(trials: int, dim_range, tol: float, seed: int) -> VerificationReport:
    """Pooled two-observer posteriors vs the two-step oracle.

    Runs `trials` random scenarios at every dim in dim_range (inclusive),
    pools the observers' posteriors with the ordered rule, and records the
    Frobenius distance to the oracle.
    """
    lo, hi = int(dim_range[0]), int(dim_range[1])
    if trials < 1 or lo < 2 or hi < lo:
        raise QpoolError(f"bad sweep parameters: trials={trials}, dims={lo}..{hi}")

    def trial(dim, rng):
        scen, (rho_a, rho_b) = _random_chain(random_povm, dim, 2, rng)
        pooled = pooling.pool_ordered(rho_a, rho_b)
        d = _distance(pooled.pooled, oracle_pool(scen))
        return d, pooled.norm_discrepancy

    return _sweep(list(range(lo, hi + 1)), trials, tol, seed, trial)


def verify_commuting_reduction(trials: int, dim: int, tol: float, seed: int) -> VerificationReport:
    """Diagonal scenarios: symmetric pooling vs the classical product rule.

    All operators commute, so the pooled state must be the diagonal matrix
    of the renormalized product of the two posterior distributions.
    """
    if trials < 1 or dim < 2:
        raise QpoolError(f"bad sweep parameters: trials={trials}, dim={dim}")

    def trial(dim, rng):
        _, (rho_a, rho_b) = _random_chain(_random_diagonal_povm, dim, 2, rng)
        pooled = pooling.pool_symmetric(rho_a, rho_b)
        classical = pooling.classical_pool(np.diag(rho_a).real, np.diag(rho_b).real)
        d = _distance(pooled.pooled, np.diag(classical))
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
    if trials < 1 or dim < 2:
        raise QpoolError(f"bad sweep parameters: trials={trials}, dim={dim}")
    make_povm = _random_diagonal_povm if diagonal else random_povm

    def trial(dim, rng):
        scen, posteriors = _random_chain(make_povm, dim, 3, rng)
        ordered = pooling.pool_ordered_multi(posteriors)
        d = _distance(ordered.pooled, oracle_pool(scen))
        symmetric = pooling.pool_symmetric_multi(posteriors, norm_mode="trace")
        try:
            linalg.validate_density(symmetric.pooled, tol=1e-9)
        except QpoolError:
            # Invalid pooled output counts as an infinite-distance failure
            # so the report invariant still holds.
            d = math.inf
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
