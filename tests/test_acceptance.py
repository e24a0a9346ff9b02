"""Acceptance sweep: every release gate in one file, one line of output each.

Run with `pytest -v tests/test_acceptance.py` (add -s for the detail lines).
Each test prints PASS/FAIL with the measured margin before asserting, so a
red run still reports how far off it was.
"""

import json
import subprocess
import sys

import numpy as np

from qpool import cli, harness, linalg, measurement, pooling, qubit

Z0 = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def _random_bloch_pair(rng, pure_fraction=0.25):
    out = []
    for _ in range(2):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if rng.random() >= pure_fraction:
            v *= rng.random()
        out.append(v)
    return out


def _combined(reports) -> harness.VerificationReport:
    """One report of per-dim sweeps: summed trials, joined failures, largest maxima."""
    trials = sum(r.trials for r in reports)
    return harness.VerificationReport(
        trials=trials,
        max_oracle_distance=max(r.max_oracle_distance for r in reports),
        max_norm_discrepancy=max(r.max_norm_discrepancy for r in reports),
        failures=[f for r in reports for f in r.failures],
        mean_norm_discrepancy=sum(r.mean_norm_discrepancy * r.trials for r in reports) / trials,
        resamples=sum(r.resamples for r in reports),
    )


def test_01_ordered_rule_matches_sequential_oracle():
    # 1000 scenarios per dimension, dims 2..5, every trial within 1e-10.
    report = harness.verify_two_observer(1000, range(2, 6), 1e-10, seed=101)
    _report(
        "ordered rule vs two-step oracle, dims 2-5",
        report.trials == 4000 and not report.failures,
        f"trials={report.trials} max_distance={report.max_oracle_distance:.3e} "
        f"failures={len(report.failures)} resamples={report.resamples}",
    )


def test_02_commuting_scenarios_reduce_to_classical_rule():
    # 500 diagonal scenarios spread over dims up to 16.
    report = _combined(
        [
            harness.verify_commuting_reduction(125, [dim], 1e-10, seed=102 + dim)
            for dim in (2, 4, 8, 16)
        ]
    )
    _report(
        "diagonal pooling vs classical product rule, dims up to 16",
        report.trials == 500 and not report.failures,
        f"trials={report.trials} max_distance={report.max_oracle_distance:.3e}",
    )


def test_03_qubit_closed_form_matches_dense_route():
    rng = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        a, b = _random_bloch_pair(rng)
        if 0.5 * (1.0 + a @ b) < 1e-6:
            continue
        dense = linalg.density_to_bloch(
            pooling.pool_symmetric(
                linalg.bloch_to_density(a), linalg.bloch_to_density(b)
            ).pooled
        )
        closed = qubit.pool_bloch(a, b)
        worst = max(worst, float(np.abs(closed - dense).max()))
        checked += 1
    _report(
        "qubit closed form vs dense evaluation, 10^4 pairs",
        worst <= 1e-9,
        f"worst per-component deviation={worst:.3e}",
    )


def test_04_qubit_weights_behave_like_certainty():
    rng = np.random.default_rng(104)
    n = 10_000

    worst_ab = 0.0
    for _ in range(n):
        length = rng.random()
        a, b = (rng.standard_normal(3) for _ in range(2))
        a, b = a * length / np.linalg.norm(a), b * length / np.linalg.norm(b)
        w = qubit.bloch_weights(a, b)
        worst_ab = max(worst_ab, abs(w.alpha - w.beta))
    equal_ok = worst_ab <= 1e-12

    worst_sharpen = 0.0
    for _ in range(n):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        na, nb = rng.random(), rng.random()
        pooled = qubit.pool_bloch(na * u, nb * u)
        worst_sharpen = max(
            worst_sharpen, max(na, nb) - float(np.linalg.norm(pooled))
        )
    sharpen_ok = worst_sharpen <= 1e-12

    worst_lean = 0.0
    for _ in range(n):
        a, b = _random_bloch_pair(rng)
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < nb:
            a, b, na, nb = b, a, nb, na
        w = qubit.bloch_weights(a, b)
        worst_lean = max(worst_lean, w.beta * nb - w.alpha * na)
    lean_ok = worst_lean <= 1e-12

    grid = np.linspace(0.0, 1.0, 10_000)
    monotone_ok = bool(
        np.all(np.diff([qubit.certainty_weight(x) for x in grid]) > 0.0)
    )

    _report(
        "qubit weight properties over 10^4 pairs",
        equal_ok and sharpen_ok and lean_ok and monotone_ok,
        f"equal-norm |alpha-beta|<= {worst_ab:.3e}; "
        f"parallel shortening <= {worst_sharpen:.3e}; "
        f"certainty-order violation <= {worst_lean:.3e}; "
        f"monotone grid={'yes' if monotone_ok else 'no'}",
    )


def test_05_compatibility_is_the_outcome_probability():
    rng = np.random.default_rng(105)
    worst_effect = 0.0
    for i in range(1000):
        dim = 2 + i % 4
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        effect = linalg.hermitianize(g @ g.conj().T)
        rho = harness.random_density(dim, dim, rng)
        lhs = pooling.compatibility(
            rho, measurement.posterior_from_outcome(effect)
        ) * float(np.trace(effect).real)
        rhs = linalg.trace_product(effect, rho)
        worst_effect = max(worst_effect, abs(lhs - rhs))

    worst_bloch = 0.0
    for _ in range(1000):
        a, b = _random_bloch_pair(rng)
        c = pooling.compatibility(
            linalg.bloch_to_density(a), linalg.bloch_to_density(b)
        )
        worst_bloch = max(worst_bloch, abs(c - 0.5 * (1.0 + a @ b)))

    _report(
        "compatibility identities, 1000 effect pairs + 1000 qubit pairs",
        worst_effect <= 1e-12 and worst_bloch <= 1e-12,
        f"effect identity dev={worst_effect:.3e}; Bloch dot dev={worst_bloch:.3e}",
    )


def test_06_measurement_does_not_disturb_total_ignorance():
    rng = np.random.default_rng(106)
    worst = 0.0
    for i in range(500):
        dim = 2 + i % 5
        povm = harness.random_povm(dim, int(rng.integers(2, 5)), rng)
        mixed = linalg.maximally_mixed(dim)
        total = np.zeros((dim, dim), dtype=complex)
        for e in povm.elements:
            s = linalg.hermitian_sqrt(e)
            total += s @ mixed @ s
        worst = max(worst, linalg.frobenius_distance(total, mixed))
    _report(
        "non-disturbance of total ignorance, 500 POVMs dims 2-6",
        worst <= 1e-10,
        f"worst distance={worst:.3e}",
    )


def test_07_three_observer_suite():
    generic = _combined(
        [
            harness.verify_three_observer(250, [2], 1e-10, seed=107),
            harness.verify_three_observer(250, [3], 1e-10, seed=1007),
        ]
    )
    commuting = _combined(
        [
            harness._sweep(250, [2], 1e-10, 207, 3, True),
            harness._sweep(250, [3], 1e-10, 2007, 3, True),
        ]
    )
    ok = (
        generic.trials == 500
        and not generic.failures
        and not commuting.failures
        and commuting.max_norm_discrepancy <= 1e-10
    )
    _report(
        "three observers: oracle, validity, normalizer split",
        ok,
        f"max_oracle_distance={generic.max_oracle_distance:.3e}; "
        f"discrepancy max={generic.max_norm_discrepancy:.3e} "
        f"mean={generic.mean_norm_discrepancy:.3e} over 500 non-commuting; "
        f"commuting max={commuting.max_norm_discrepancy:.3e}",
    )


def test_08_ordering_matters_for_non_commuting_states():
    forward = pooling.pool_ordered(Z0, PLUS).pooled
    reverse = pooling.pool_ordered(PLUS, Z0).pooled
    d = linalg.frobenius_distance(forward, reverse)
    ok = (
        np.abs(forward - PLUS).max() < 1e-10
        and np.abs(reverse - Z0).max() < 1e-10
        and abs(d - 1.0) <= 1e-10
    )
    _report(
        "later measurer wins: reversal moves the result",
        ok,
        f"|forward - plus|={np.abs(forward - PLUS).max():.3e}; "
        f"|reverse - z0|={np.abs(reverse - Z0).max():.3e}; distance={d:.6f}",
    )


def test_09_verification_is_byte_deterministic():
    argv = [
        sys.executable, "-m", "qpool.cli", "verify", "--suite", "all",
        "--trials", "5", "--dims", "2..3", "--tol", "1e-10", "--seed", "109",
    ]
    runs = [
        subprocess.run(argv, capture_output=True).stdout for _ in range(2)
    ]
    payload = json.loads(runs[0])
    ok = runs[0] == runs[1] and set(payload) == {"two", "commuting", "three"}
    _report(
        "repeated verify runs are byte-identical",
        ok,
        f"bytes={len(runs[0])} equal={runs[0] == runs[1]}",
    )
