"""The four benchmark workloads.

Each is a closed loop with one caller: the next op starts only after the
previous one returned.  Inputs come from the run's seed and are never
repeated.  A workload runs in batches: the batch's inputs and references are
built untimed, its ops are timed one by one, then each output is checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import reference
import spans
from qpool import cli, harness, pooling, qubit

HERE = Path(__file__).resolve().parent


@dataclass
class BatchResult:
    """One timed batch: ops completed, timed wall time, per-op latency samples.

    slowness is the machine's slowness while the batch ran, as
    metrics.slowness measures it; 1.0 until measured.
    """

    ops: int
    wall_ns: int
    latencies_ns: list
    slowness: float = 1.0

    @property
    def ops_per_s(self) -> float:
        return self.ops / (self.wall_ns / 1e9)


def _invoke(module, attr: str, *args, **kwargs):
    # Resolve the attribute at call time so installed span wrappers are used.
    return getattr(module, attr)(*args, **kwargs)


def time_calls(calls, tracer=None):
    """Run zero-argument calls one after another; return results, latencies, wall time.

    An exception raised by a call becomes that call's result, so it is
    counted as a failed op instead of ending the run.
    """
    results, lats = [], []
    clock = time.perf_counter_ns
    ctx = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with ctx:
        start = clock()
        for call in calls:
            t0 = clock()
            try:
                if tracer is None:
                    r = call()
                else:
                    with tracer.op():
                        r = call()
            except Exception as exc:  # counted as a failed op by the caller
                r = exc
            lats.append(clock() - t0)
            results.append(r)
        wall = clock() - start
    return results, lats, wall


def _pooled_ok(ref, report) -> bool:
    return reference.state_ok(report.pooled, ref)


class Workload:
    name = ""
    # Batches traced in a --trace run per second of --seconds; each traced
    # batch is paired with an untraced one.  Fixed per run, so call counts
    # repeat exactly for a given seed.
    TRACE_BATCHES_PER_S = 1.0

    def __init__(self) -> None:
        self.stats: dict = {}

    def trace_batches(self, seconds: float) -> int:
        return max(1, round(seconds * self.TRACE_BATCHES_PER_S))

    def probe_layers(self) -> dict:
        """Per-layer values measured outside the ops, by name."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InProcess(Workload):
    """Workloads whose ops are library calls: (call, check, label) triples per batch."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.rng = np.random.default_rng([seed, 1])
        self._warm_rng = np.random.default_rng([seed, 0])
        self._pending = None

    def make_ops(self, rng) -> list:
        raise NotImplementedError

    def setup(self) -> None:
        """Build the first batch, then run one batch from a separate stream untimed."""
        self._pending = self.make_ops(self.rng)
        for call, _check, _what in self.make_ops(self._warm_rng):
            call()

    def run_batch(self, tracer, tally) -> BatchResult:
        ops = self._pending if self._pending is not None else self.make_ops(self.rng)
        self._pending = None
        results, lats, wall = time_calls([c for c, _, _ in ops], tracer)
        for (_call, check, what), r in zip(ops, results):
            tally.record_result(r, check, what)
        return BatchResult(len(ops), wall, lats)


class PoolPairs(InProcess):
    """Two-observer posteriors at d in {2, 3, 4}, alternating ordered and symmetric.

    Pairs at d = 2 also go through the qubit closed form.
    """

    name = "pool_pairs"
    DIMS = (2, 3, 4)
    PAIRS_PER_BATCH = 60
    TRACE_BATCHES_PER_S = 12.0

    def make_ops(self, rng) -> list:
        ops = []
        for i in range(self.PAIRS_PER_BATCH):
            dim = self.DIMS[i % len(self.DIMS)]
            ordered = (i // len(self.DIMS)) % 2 == 0
            scen, (ra, rb) = reference.draw_scenario(dim, 2, rng)
            ab = harness.oracle_pool(scen)
            if ordered and dim != 2:
                sym = None
            else:
                sym = (ab + harness.oracle_pool(reference.reversed_chain(scen))) / 2.0
            if ordered:
                ops.append((partial(_invoke, pooling, "pool_ordered", ra, rb), partial(_pooled_ok, ab), f"pool_ordered d={dim}"))
            else:
                ops.append((partial(_invoke, pooling, "pool_symmetric", ra, rb), partial(_pooled_ok, sym), f"pool_symmetric d={dim}"))
            if dim == 2:
                ops.append(
                    (
                        partial(_invoke, qubit, "pool_bloch", reference.bloch(ra), reference.bloch(rb)),
                        partial(reference.bloch_ok, ref=reference.bloch(sym)),
                        "pool_bloch",
                    )
                )
        return ops


class PoolMulti(InProcess):
    """n in {3, 4, 5, 6} posteriors at d = 3, each pooled ordered and symmetric."""

    name = "pool_multi"
    DIM = 3
    OBSERVERS = (3, 4, 5, 6)
    TRACE_BATCHES_PER_S = 20.0

    def make_ops(self, rng) -> list:
        ops = []
        for n in self.OBSERVERS:
            scen, states = reference.draw_scenario(self.DIM, n, rng)
            ops.append(
                (
                    partial(_invoke, pooling, "pool_ordered_multi", states),
                    partial(_pooled_ok, harness.oracle_pool(scen)),
                    f"pool_ordered_multi n={n}",
                )
            )
            ops.append(
                (
                    partial(_invoke, pooling, "pool_symmetric_multi", states, norm_mode="trace"),
                    partial(_pooled_ok, reference.symmetric_sum(states)),
                    f"pool_symmetric_multi n={n}",
                )
            )
        return ops


class Sweep(Workload):
    """In-process `qpool verify --suite all --dims 2..4` passes, a fresh seed per pass.

    An op is one sweep trial; each pass is one batch and one latency sample
    (the pass's wall time over its trials).
    """

    name = "sweep"
    TRIALS = 40  # per dimension and suite: 9 * TRIALS trials per pass
    SUITES = ("two", "commuting", "three")
    DIM_COUNT = 3
    # Pass seeds step by 10 so `seed + d` offsets inside cmd_verify never collide.
    PASS_STRIDE = 1_000_000
    PASS_STEP = 10
    TRACE_BATCHES_PER_S = 1.0

    def __init__(self, seed: int, trials: int = TRIALS) -> None:
        super().__init__()
        self.seed = seed
        self.trials = trials
        self.passes = 0
        self.stats = {"trials": 0, "resamples": 0, "oracle_distance_max": 0.0}

    def _argv(self, pass_no: int, trials: int) -> list[str]:
        seed = self.seed * self.PASS_STRIDE + self.PASS_STEP * pass_no
        return ["verify", "--suite", "all", "--dims", "2..4", "--trials", str(trials), "--seed", str(seed)]

    def setup(self) -> None:
        _verify(self._argv(0, 2))

    def run_batch(self, tracer, tally) -> BatchResult:
        self.passes += 1
        expected = self.trials * self.DIM_COUNT * len(self.SUITES)
        (result,), _lats, wall = time_calls([partial(_verify, self._argv(self.passes, self.trials))], tracer)
        failed, what = expected, f"verify pass {self.passes}"
        if isinstance(result, Exception):
            what = f"{what}: {result!r}"
        else:
            rc, text = result
            report = _parse_report(text)
            suites_ok = report is not None and all(
                report.get(s, {}).get("trials") == self.trials * self.DIM_COUNT for s in self.SUITES
            )
            failed = sum(len(report[s]["failures"]) for s in self.SUITES) if suites_ok else expected
            if rc != 0 and failed == 0:
                failed = expected
            if failed:
                what = f"{what}: exit {rc}, output {text[:200]!r}"
            elif tracer is not None:
                self.stats["trials"] += expected
                self.stats["resamples"] += sum(report[s]["resamples"] for s in self.SUITES)
                self.stats["oracle_distance_max"] = max(
                    [self.stats["oracle_distance_max"]] + [report[s]["max_oracle_distance"] for s in self.SUITES]
                )
        tally.record(expected, failed, what)
        return BatchResult(expected, wall, [wall / expected])


def _verify(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _parse_report(text: str):
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first, BLAS pinned."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv, env) -> tuple[int, str, int, int]:
    """Run a child to completion; return exit code, output, spawn-to-exit ns, peak RSS in KiB."""
    t0 = time.perf_counter_ns()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env) as p:
        out = p.stdout.read()
        # wait4 reaps the child and reports its own resource use.
        _pid, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.perf_counter_ns() - t0
    return p.returncode, out.decode("utf-8", "replace"), elapsed, usage.ru_maxrss


class CliPool(Workload):
    """Sequential `python -m qpool.cli pool` children on 2 or 3 state files at d in {2, 3, 4}.

    An op is one child, timed from spawn to exit.  Batches take the (mode,
    n, d) combinations in turn, on fresh files.  A child's time is mostly
    interpreter start and imports, so batches differ little in cost, and a
    short batch keeps the slowness measured around it current.
    """

    name = "cli_pool"
    COMBOS = tuple((mode, n, d) for mode in ("ordered", "symmetric") for n in (2, 3) for d in (2, 3, 4))
    CHILDREN_PER_BATCH = 4
    PROBES = 10
    TRACE_BATCHES_PER_S = 0.75

    def __init__(self, seed: int, workdir: Path, probes: int = PROBES) -> None:
        super().__init__()
        self.rng = np.random.default_rng([seed, 1])
        self._warm_rng = np.random.default_rng([seed, 0])
        self.workdir = Path(workdir)
        self.probes = probes
        self.env = child_env()
        self._pending = None
        self._peak_rss_kb = 0
        self._batches = 0

    def _inputs(self, rng, tag: str, combos) -> list:
        jobs = []
        for k, (mode, n, d) in enumerate(combos):
            scen, states = reference.draw_scenario(d, n, rng)
            files = []
            for j, s in enumerate(states):
                path = self.workdir / f"{tag}{k}_{j}.json"
                path.write_text(cli.matrix_file_text(s), encoding="utf-8")
                files.append(str(path))
            ref = harness.oracle_pool(scen) if mode == "ordered" else reference.symmetric_sum(states)
            out = str(self.workdir / f"{tag}{k}_out.json")
            jobs.append((["pool", "--mode", mode, "--in", *files, "--out", out], out, ref, f"cli pool {mode} n={n} d={d}"))
        return jobs

    def _next_inputs(self) -> list:
        first = self._batches * self.CHILDREN_PER_BATCH % len(self.COMBOS)
        self._batches += 1
        return self._inputs(self.rng, "b", self.COMBOS[first : first + self.CHILDREN_PER_BATCH])

    def setup(self) -> None:
        self._pending = self._next_inputs()
        argv, _out, _ref, _what = self._inputs(self._warm_rng, "w", self.COMBOS[:1])[0]
        spawn([sys.executable, "-m", "qpool.cli", *argv], self.env)

    def run_batch(self, tracer, tally) -> BatchResult:
        jobs = self._pending if self._pending is not None else self._next_inputs()
        self._pending = None
        lats, wall = [], 0
        for argv, out, ref, what in jobs:
            if tracer is None:
                cmd = [sys.executable, "-m", "qpool.cli", *argv]
            else:
                span_file = self.workdir / "child_spans.npz"
                cmd = [sys.executable, str(HERE / "traced_child.py"), str(span_file), *argv]
            rc, text, elapsed, rss_kb = spawn(cmd, self.env)
            lats.append(elapsed)
            wall += elapsed
            if tracer is None:
                self._peak_rss_kb = max(self._peak_rss_kb, rss_kb)
            elif rc == 0:
                tracer.table.extend(spans.SpanTable.load(span_file), op_offset=tracer.next_op())
            tally.record(1, 0 if self._child_ok(rc, text, out, ref) else 1, f"{what}: exit {rc}, output {text[:200]!r}")
        return BatchResult(len(jobs), wall, lats)

    @staticmethod
    def _child_ok(rc: int, text: str, out: str, ref) -> bool:
        if rc != 0:
            return False
        payload = _parse_report(text)
        c = payload.get("compatibility") if payload else None
        if not isinstance(c, float) or not 0.0 <= c <= 1.0:
            return False
        try:
            got = reference.read_matrix_file(out)
        except (OSError, ValueError, KeyError):
            return False
        return reference.state_ok(got, ref)

    def probe_layers(self) -> dict:
        """Interpreter start and `import qpool.cli` time, median of fresh children, in ms."""
        start, imports = [], []
        code = "import time; t = time.perf_counter(); import qpool.cli; print(time.perf_counter() - t)"
        for _ in range(self.probes):
            start.append(spawn([sys.executable, "-c", "pass"], self.env)[2] / 1e6)
            rc, text, _ns, _rss = spawn([sys.executable, "-c", code], self.env)
            if rc != 0:
                raise RuntimeError(f"import probe failed: {text}")
            imports.append(float(text) * 1e3)
        return {"cli.interpreter_start_ms": float(np.median(start)), "cli.import_ms": float(np.median(imports))}

    def peak_rss_mb(self) -> float:
        return self._peak_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (Sweep, PoolPairs, PoolMulti, CliPool)}


def make(name: str, seed: int, workdir: Path):
    if name == CliPool.name:
        return CliPool(seed, workdir)
    return WORKLOADS[name](seed)
