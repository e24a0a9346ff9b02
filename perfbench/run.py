"""qpool benchmark: one workload per run, end-to-end or traced per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,pool_pairs,pool_multi,cli_pool} \
        --seed N --seconds S --trace {0,1}

Prints the machine record and every metric with its unit and sample count,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  Exits 1 if any op failed its check and 2 if the checkout has
no qpool sources.
"""

import os

# Pin BLAS before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402  (numpy only; qpool is imported once src is found)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep", "pool_pairs", "pool_multi", "cli_pool")
SETUP_PROBES = 5
# A run goes on past --seconds until it has this many latency samples, so
# that p90 has at least ten beyond it.
MIN_LATENCY_SAMPLES = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="qpool benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_record(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def setup_probes(args, env) -> list[float]:
    """Seconds from spawn to exit of fresh processes that only set the workload up, at reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]

    def probe() -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stdout.decode(errors='replace')}")
        return time.perf_counter() - t0

    times = []
    for _ in range(SETUP_PROBES):
        seconds, factor = metrics.slowness(probe)
        times.append(seconds / factor)
    return times


def run_untraced(wl, seconds: float, tally) -> list:
    # Hard stop well inside the 180 s a run may take, even if the minimum
    # sample count is not reached.
    t_end = time.perf_counter() + seconds
    t_cap = time.perf_counter() + max(seconds, 120.0)
    batches, samples = [], 0
    while (time.perf_counter() < t_end or samples < MIN_LATENCY_SAMPLES) and time.perf_counter() < t_cap:
        batch, factor = metrics.slowness(lambda: wl.run_batch(None, tally))
        batch.slowness = factor
        batches.append(batch)
        samples += len(batch.latencies_ns)
    return batches


def run_traced(wl, seconds: float, tally, tracer) -> float:
    """Alternate untraced and traced batches; return the tracing overhead ratio."""
    plain, traced = [], []
    for _ in range(wl.trace_batches(seconds)):
        plain.append(wl.run_batch(None, tally).ops_per_s)
        traced.append(wl.run_batch(tracer, tally).ops_per_s)
    return statistics.median(plain) / statistics.median(traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpool" / "__init__.py").is_file():
        print(f"error: no qpool sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qpool
    import reference
    import spans
    import workloads

    if Path(qpool.__file__).resolve().parent != SRC / "qpool":
        print(f"error: imported qpool from {qpool.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        if args.setup_only:
            wl.setup()
            return 0
        record = machine_record(args.seed)
        print("machine " + json.dumps(record))
        tally = reference.Tally()
        if args.trace:
            wl.setup()
            tracer = spans.Tracer()
            overhead = run_traced(wl, args.seconds, tally, tracer)
            values = metrics.per_layer(tracer.table, wl.stats, wl.probe_layers(), overhead)
            spec = metrics.PER_LAYER
            span_path = OUT / f"{args.workload}-seed{args.seed}.spans.npz"
            tracer.table.save(span_path)
            print(f"{args.workload} {len(tracer.table)} spans written to {span_path.relative_to(ROOT)}")
            counts = {}
        else:
            setup = setup_probes(args, workloads.child_env())
            wl.setup()
            batches = run_untraced(wl, args.seconds, tally)
            values = metrics.end_to_end(batches, setup, wl.peak_rss_mb())
            spec = metrics.END_TO_END
            samples = sum(len(b.latencies_ns) for b in batches)
            counts = {
                "setup_s": f"{len(setup)} probes",
                "ops_per_s": f"{len(batches)} batches",
                "op_latency_p50_us": f"{samples} samples",
                "op_latency_p90_us": f"{samples} samples",
            }
            record["slowness_median"] = statistics.median(b.slowness for b in batches)
            print(f"machine slowness median {record['slowness_median']!r} (reference kernel time / nominal)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out = {name: {"value": values[name], "unit": unit} for name, unit, _better in spec}
    for name, unit, _better in spec:
        n = counts.get(name)
        print(f"{args.workload} {name} {values[name]!r} {unit}" + (f" (n={n})" if n is not None else ""))
    print(f"{args.workload} failed_fraction {tally.fraction!r} ({tally.failed}/{tally.attempted})")
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": out}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": record, "sample_counts": counts, **result}, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
