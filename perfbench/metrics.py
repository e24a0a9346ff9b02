"""Metric names, units and the arithmetic that turns samples and spans into them.

BENCHMARK.json lists the same names; the benchmark's tests keep the two in
step.  A per-layer metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import time

import numpy as np

import spans

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_latency_p50_us", "us", "lower"),
    ("op_latency_p90_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Which spans make up each phase of a sweep trial.  A span nested inside
# another span of the same phase (validate_povm inside random_povm) is
# counted once, through the outer span.
PHASES = {
    "generate": {"harness.random_povm", "measurement.validate_povm"},
    "sample": {"harness.run_scenario"},
    "pool": {
        "measurement.posterior_from_outcome",
        "pooling.pool_ordered",
        "pooling.pool_symmetric",
        "pooling.pool_ordered_multi",
        "pooling.pool_symmetric_multi",
    },
    "oracle": {"harness.oracle_pool", "linalg.frobenius_distance"},
}

SIZED_P50 = (
    [("pooling.pool_symmetric_multi", f"n{n}", n) for n in (3, 4, 5, 6)]
    + [(f"pooling.pool_{rule}", f"d{d}", d) for rule in ("ordered", "symmetric") for d in (2, 3, 4)]
)

# cli functions are reported per call: median self time, or median duration.
CLI_PER_CALL = (("cli.load_density", "self_us"), ("cli.matrix_file_text", "self_us"), ("cli.cmd_pool", "p50_us"))
CLI_PROBES = (("cli.interpreter_start_ms", "ms"), ("cli.import_ms", "ms"))


def _per_layer_spec():
    out = []
    for mod, funcs in spans.TRACED.items():
        if mod == "cli":
            continue
        for f in funcs:
            out.append((f"{mod}.{f}.calls", "count", "lower"))
            out.append((f"{mod}.{f}.self_s", "s", "lower"))
        if mod == "linalg":
            out.append(("linalg.eigh_calls", "count", "lower"))
        if mod == "pooling":
            out += [(f"{fn}.{tag}.p50_us", "us", "lower") for fn, tag, _ in SIZED_P50]
        if mod == "harness":
            out += [
                ("harness.resamples", "count", "lower"),
                ("harness.useful_chain_ratio", "ratio", "higher"),
                ("harness.oracle_distance_max", "norm", "lower"),
            ]
            out += [(f"harness.phase.{p}_share", "share", "lower") for p in PHASES]
    for fn, kind in CLI_PER_CALL:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.{kind}", "us", "lower"))
    out += [(name, unit, "lower") for name, unit in CLI_PROBES]
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return tuple(out)


PER_LAYER = _per_layer_spec()


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q)) if len(samples) else 0.0


# The reference kernel's time on the machine the benchmark was sized on (a
# 2-vCPU x86-64 VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31) when no other
# tenant slowed it.
REFERENCE_KERNEL_NS = 1_200_000
_G = np.array([[1.0, 2.0j, 0.5], [0.3, 1.0 + 1.0j, -1.0], [2.0, 0.0, 1.0j]])
_KERNEL_MATRIX = _G @ _G.conj().T


def kernel_ns() -> int:
    """Time of a fixed kernel that never touches qpool.

    It does what the workloads spend their time on: small complex eigh
    calls and matrix products, and Python dict and integer work.
    """
    t0 = time.perf_counter_ns()
    for _ in range(40):
        h = (_KERNEL_MATRIX + _KERNEL_MATRIX.conj().T) / 2.0
        w, v = np.linalg.eigh(h)
        r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        float(np.trace(r @ _KERNEL_MATRIX @ r).real)
    d: dict[int, int] = {}
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i
    return time.perf_counter_ns() - t0


def slowness(measure):
    """Run `measure()` between two runs of the reference kernel.

    Returns its result and the machine's slowness while it ran: the kernel's
    mean time divided by REFERENCE_KERNEL_NS.
    """
    before = kernel_ns()
    result = measure()
    return result, (before + kernel_ns()) / 2 / REFERENCE_KERNEL_NS


def end_to_end(batches, setup_samples, peak_rss_mb: float) -> dict:
    """End-to-end values from untraced batches and set-up probes, at reference speed.

    Every time is divided, and every rate multiplied, by the slowness
    measured around its own batch or probe.
    """
    lat_us = [ns / 1e3 / b.slowness for b in batches for ns in b.latencies_ns]
    return {
        "setup_s": float(np.median(setup_samples)),
        "ops_per_s": float(np.median([b.ops_per_s * b.slowness for b in batches])),
        "op_latency_p50_us": percentile(lat_us, 50),
        "op_latency_p90_us": percentile(lat_us, 90),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(table: spans.SpanTable, stats: dict, probes: dict, overhead_ratio: float) -> dict:
    """Per-layer values from the traced spans plus workload counters and probes."""
    cols = table.arrays()
    names = table.names
    dur = cols["end"] - cols["start"]
    own = spans.self_times(cols["start"], cols["end"], cols["parent"])

    def rows(name):
        return cols["name"] == names.index(name) if name in names else np.zeros(len(dur), bool)

    out = {}
    for mod, funcs in spans.TRACED.items():
        if mod == "cli":
            continue
        for f in funcs:
            sel = rows(f"{mod}.{f}")
            out[f"{mod}.{f}.calls"] = int(sel.sum())
            out[f"{mod}.{f}.self_s"] = float(own[sel].sum()) / 1e9
    out["linalg.eigh_calls"] = table.eigh_calls
    for fn, tag, size in SIZED_P50:
        out[f"{fn}.{tag}.p50_us"] = percentile(dur[rows(fn) & (cols["size"] == size)] / 1e3, 50)
    trials = stats.get("trials", 0)
    resamples = stats.get("resamples", 0)
    out["harness.resamples"] = resamples
    out["harness.useful_chain_ratio"] = trials / (trials + resamples) if trials else 0.0
    out["harness.oracle_distance_max"] = stats.get("oracle_distance_max", 0.0)
    op_total = float(dur[rows(spans.OP)].sum())
    for phase, members in PHASES.items():
        share = spans.outermost_time(names, cols, members) / op_total if op_total else 0.0
        out[f"harness.phase.{phase}_share"] = share
    for fn, kind in CLI_PER_CALL:
        sel = rows(fn)
        out[f"{fn}.calls"] = int(sel.sum())
        out[f"{fn}.{kind}"] = percentile((own if kind == "self_us" else dur)[sel] / 1e3, 50)
    for name, _unit in CLI_PROBES:
        out[name] = probes.get(name, 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
