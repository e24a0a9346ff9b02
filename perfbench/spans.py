"""Span tracing installed from outside the package.

The tracer replaces module attributes of qpool's public functions with thin
wrappers.  Package code calls its siblings through module attributes
(``linalg.hermitian_sqrt``, ``measurement.bare_update``) and its own module
globals, so internal calls go through the wrappers too and spans nest the
way the calls do.  Spans are kept in memory as columns and written out once,
at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

# The functions each layer is measured by.  cli.cmd_pool is reached through
# the parser's set_defaults, which reads the module global when the parser is
# built, so wrapping before cli.main runs is enough.
TRACED = {
    "linalg": ("hermitian_sqrt", "validate_density", "trace_product", "frobenius_distance"),
    "measurement": ("validate_povm", "bare_update", "sample_outcome", "posterior_from_outcome"),
    "pooling": (
        "pool_ordered",
        "pool_symmetric",
        "pool_ordered_multi",
        "pool_symmetric_multi",
        "classical_pool",
    ),
    "qubit": ("pool_bloch", "bloch_weights"),
    "harness": (
        "random_povm",
        "run_scenario",
        "oracle_pool",
        "verify_two_observer",
        "verify_commuting_reduction",
        "verify_three_observer",
    ),
    "cli": ("load_density", "matrix_file_text", "cmd_pool"),
}

# numpy.linalg entry points counted (not timed) as linalg.eigh_calls.
COUNTED = ("eigh", "eigvalsh")

OP = "bench.op"
COLUMNS = ("name", "start", "end", "parent", "op", "size")


def _size(args) -> int:
    """Dimension of a matrix argument or length of a list of states, else -1."""
    if not args:
        return -1
    a = args[0]
    if isinstance(a, np.ndarray):
        return a.shape[0] if a.ndim else -1
    if isinstance(a, (list, tuple)):
        return len(a)
    return -1


class SpanTable:
    """Spans as parallel integer columns; times are perf_counter_ns values.

    A span's parent is the row index of the span that was open when it
    started, or -1.  ``size`` is the first argument's dimension or length.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in COLUMNS}
        self.eigh_calls = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: int, end: int, parent: int, op: int = 0, size: int = -1) -> int:
        """Append one finished span and return its row."""
        row = len(self.cols["name"])
        for c, v in zip(COLUMNS, (self.name_id(name), start, end, parent, op, size)):
            self.cols[c].append(v)
        return row

    def __len__(self) -> int:
        return len(self.cols["name"])

    def arrays(self) -> dict[str, np.ndarray]:
        return {c: np.array(self.cols[c], dtype=np.int64) for c in COLUMNS}

    def extend(self, other: "SpanTable", op_offset: int = 0) -> None:
        """Append another table's spans, remapping names, parent rows and op ids."""
        offset = len(self)
        remap = [self.name_id(n) for n in other.names]
        oc = other.cols
        for i in range(len(other)):
            self.cols["name"].append(remap[oc["name"][i]])
            p = oc["parent"][i]
            self.cols["parent"].append(p + offset if p >= 0 else -1)
            self.cols["op"].append(oc["op"][i] + op_offset)
            for c in ("start", "end", "size"):
                self.cols[c].append(oc[c][i])
        self.eigh_calls += other.eigh_calls

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names, dtype=str), eigh_calls=self.eigh_calls, **self.arrays())

    @classmethod
    def load(cls, path) -> "SpanTable":
        t = cls()
        with np.load(path) as z:
            for n in z["names"]:
                t.name_id(str(n))
            for c in COLUMNS:
                t.cols[c].extend(int(v) for v in z[c])
            t.eigh_calls = int(z["eigh_calls"])
        return t


class Tracer:
    """Installs span wrappers on qpool module attributes and records into a SpanTable."""

    def __init__(self) -> None:
        self.table = SpanTable()
        self._stack = [-1]
        self._op = -1

    def _wrap(self, name: str, fn):
        nid = self.table.name_id(name)
        cols = self.table.cols
        c_name, c_start, c_end, c_parent, c_op, c_size = (cols[c] for c in COLUMNS)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1])
            c_op.append(self._op)
            c_size.append(_size(args))
            c_start.append(0)
            c_end.append(0)
            stack.append(row)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                c_start[row] = t0
                c_end[row] = t1

        return wrapper

    def _counter(self, fn):
        table = self.table

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table.eigh_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED function and COUNTED numpy entry point; restore on exit."""
        saved = []
        try:
            for mod_name, funcs in TRACED.items():
                mod = importlib.import_module(f"qpool.{mod_name}")
                for f in funcs:
                    orig = getattr(mod, f)
                    saved.append((mod, f, orig))
                    setattr(mod, f, self._wrap(f"{mod_name}.{f}", orig))
            for f in COUNTED:
                orig = getattr(np.linalg, f)
                saved.append((np.linalg, f, orig))
                setattr(np.linalg, f, self._counter(orig))
            yield self
        finally:
            for mod, f, orig in reversed(saved):
                setattr(mod, f, orig)

    def next_op(self) -> int:
        """Reserve the next op id."""
        self._op += 1
        return self._op

    @contextlib.contextmanager
    def op(self):
        """Root span for one benchmark op; spans opened inside share its op id."""
        cols = self.table.cols
        row = self.table.add(OP, 0, 0, self._stack[-1], self.next_op())
        self._stack.append(row)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            cols["start"][row] = t0
            cols["end"][row] = t1


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = int(parent[i])
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = (end - start).astype(np.int64)
    for p, kids in children.items():
        lo, hi = int(start[p]), int(end[p])
        covered = 0
        reach = lo
        for k in sorted(kids, key=lambda k: int(start[k])):
            s = max(int(start[k]), reach)
            e = min(int(end[k]), hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def outermost_time(names: list[str], table_arrays: dict, members: set[str]) -> int:
    """Total duration of spans named in `members` that have no ancestor in `members`."""
    name, start, end, parent = (table_arrays[c] for c in ("name", "start", "end", "parent"))
    ids = {i for i, n in enumerate(names) if n in members}
    total = 0
    for i in np.flatnonzero(np.isin(name, list(ids))):
        p = int(parent[i])
        while p >= 0 and int(name[p]) not in ids:
            p = int(parent[p])
        if p < 0:
            total += int(end[i] - start[i])
    return total
