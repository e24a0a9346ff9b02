"""Tests of the benchmark itself.

Run from the repository root with: python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qpool import harness, linalg, pooling  # noqa: E402

ORIGINALS = {(m, f): getattr(m, f) for m, f in ((pooling, "pool_ordered"), (linalg, "hermitian_sqrt"), (np.linalg, "eigh"))}


def _run_batches(wl, traced: bool):
    tally = reference.Tally()
    tracer = spans.Tracer() if traced else None
    wl.setup()
    batch = wl.run_batch(tracer, tally)
    return tally, tracer, batch


@pytest.mark.parametrize("name", ["pool_pairs", "pool_multi", "sweep"])
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_in_process_run_passes_the_gate(name, traced):
    wl = workloads.Sweep(3, trials=2) if name == "sweep" else workloads.WORKLOADS[name](3)
    tally, tracer, batch = _run_batches(wl, traced)
    assert tally.attempted == batch.ops > 0
    assert tally.failed == 0, tally.first_failure
    if traced:
        values = metrics.per_layer(tracer.table, wl.stats, {}, 1.0)
        assert set(values) == {m[0] for m in metrics.PER_LAYER}
        assert values["trace.overhead_ratio"] == 1.0
    # Tracing leaves the package and numpy as it found them.
    assert all(getattr(m, f) is orig for (m, f), orig in ORIGINALS.items())


def test_tiny_cli_run_passes_the_gate(tmp_path):
    wl = workloads.CliPool(3, tmp_path, probes=1)
    tally, _tracer, batch = _run_batches(wl, traced=False)
    assert tally.attempted == batch.ops == workloads.CliPool.CHILDREN_PER_BATCH
    assert tally.failed == 0, tally.first_failure
    assert wl.peak_rss_mb() > 0
    tracer = spans.Tracer()
    wl.run_batch(tracer, tally)
    assert tally.failed == 0, tally.first_failure
    values = metrics.per_layer(tracer.table, wl.stats, wl.probe_layers(), 1.0)
    assert values["cli.cmd_pool.calls"] == workloads.CliPool.CHILDREN_PER_BATCH
    assert values["cli.load_density.calls"] > 0 and values["cli.import_ms"] > 0


def test_sweep_phases_cover_generate_and_pool():
    wl = workloads.Sweep(4, trials=2)
    _tally, tracer, _batch = _run_batches(wl, traced=True)
    values = metrics.per_layer(tracer.table, wl.stats, {}, 1.0)
    shares = [values[f"harness.phase.{p}_share"] for p in metrics.PHASES]
    assert all(s > 0 for s in shares) and sum(shares) <= 1.0
    assert values["harness.useful_chain_ratio"] > 0
    assert values["linalg.eigh_calls"] >= values["linalg.hermitian_sqrt.calls"]


def test_perturbed_pooled_state_counts_as_failed():
    rng = np.random.default_rng(5)
    scen, (ra, rb) = reference.draw_scenario(3, 2, rng)
    ref = harness.oracle_pool(scen)
    good = pooling.pool_ordered(ra, rb)
    bad = pooling.PoolReport(
        pooled=good.pooled + 1e-8 * np.eye(3),
        compatibility=good.compatibility,
        paper_norm=good.paper_norm,
        trace_norm=good.trace_norm,
        norm_discrepancy=good.norm_discrepancy,
    )
    tally = reference.Tally()
    check = partial(workloads._pooled_ok, ref)
    tally.record_result(good, check, "good")
    tally.record_result(bad, check, "perturbed")
    tally.record_result(ValueError("raised"), check, "raised")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.fraction == pytest.approx(2 / 3)
    assert tally.first_failure == "perturbed"


def test_symmetric_reference_matches_two_chain_mean():
    rng = np.random.default_rng(6)
    scen, states = reference.draw_scenario(3, 2, rng)
    mean = (harness.oracle_pool(scen) + harness.oracle_pool(reference.reversed_chain(scen))) / 2
    assert reference.state_ok(reference.symmetric_sum(states), mean)
    assert reference.bloch_ok(reference.bloch(linalg.bloch_to_density([0.1, -0.2, 0.3])), np.array([0.1, -0.2, 0.3]))


def test_end_to_end_is_at_reference_speed():
    # Twice as slow as the reference: times halve, rates double.
    batch = workloads.BatchResult(ops=2, wall_ns=4_000, latencies_ns=[1_000, 3_000], slowness=2.0)
    values = metrics.end_to_end([batch], [0.2, 0.4, 0.3], 40.0)
    assert values["ops_per_s"] == pytest.approx(1e6)
    assert values["op_latency_p50_us"] == pytest.approx(1.0)
    assert values["setup_s"] == 0.3 and values["peak_rss_mb"] == 40.0
    _result, factor = metrics.slowness(lambda: None)
    assert factor > 0


def test_self_times_on_hand_built_tree():
    t = spans.SpanTable()
    root = t.add("op", 0, 100, -1)
    a = t.add("a", 10, 40, root)  # 30 long, children cover 5 + 10
    t.add("a1", 12, 17, a)
    t.add("a2", 20, 30, a)
    t.add("b", 50, 90, root)  # 40 long, no children
    cols = t.arrays()
    own = spans.self_times(cols["start"], cols["end"], cols["parent"])
    assert own.tolist() == [100 - 30 - 40, 30 - 15, 5, 10, 40]
    assert own.sum() == 100  # self times partition the root's interval
    assert spans.outermost_time(t.names, cols, {"a", "a1", "b"}) == 70


def test_self_times_count_overlapping_children_once():
    t = spans.SpanTable()
    root = t.add("op", 0, 10, -1)
    t.add("x", 2, 6, root)
    t.add("y", 4, 12, root)  # overlaps x and runs past the parent's end
    cols = t.arrays()
    assert spans.self_times(cols["start"], cols["end"], cols["parent"])[0] == 2


def test_span_table_round_trips_and_merges(tmp_path):
    t = spans.SpanTable()
    t.add("op", 0, 10, -1, op=0)
    t.add("f", 1, 5, 0, op=0, size=3)
    t.eigh_calls = 2
    t.save(tmp_path / "s.npz")
    merged = spans.SpanTable()
    merged.add("g", 0, 1, -1, op=0)
    merged.extend(spans.SpanTable.load(tmp_path / "s.npz"), op_offset=7)
    cols = merged.arrays()
    assert [merged.names[i] for i in cols["name"]] == ["g", "op", "f"]
    assert cols["parent"].tolist() == [-1, -1, 1]
    assert cols["op"].tolist() == [0, 7, 7]
    assert cols["size"].tolist() == [-1, -1, 3]
    assert merged.eigh_calls == 2


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(metrics.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(trace):
    p = _run(ROOT, "--workload", "pool_pairs", "--seed", "9", "--seconds", "0.3", "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m[0]: m[1] for m in spec}


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
