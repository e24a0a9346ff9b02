"""Command-line front end: pool, compat, bloch, verify, random."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

# pool and compat need only these; each other command imports what it runs
# (harness, measurement, qubit) on first call.
from . import linalg, pooling, suites
from .errors import IncompatibleStatesError, QpoolError

# Human-authored files carry fewer digits than internally generated ones.
FILE_DENSITY_TOL = 1e-8

INCOMPATIBLE_MESSAGE = "incompatible states: Tr[ρAρB] ≈ 0"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCOMPATIBLE = 3


def _file_text(payload: dict) -> str:
    # Float repr is the shortest text that reads back to the same double.
    return json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"


def _pairs(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def matrix_file_text(m: np.ndarray) -> str:
    return _file_text({"dim": m.shape[0], "matrix": _pairs(m)})


def povm_file_text(povm) -> str:
    """The file text of a measurement.Povm."""
    return _file_text({"dim": povm.dim, "elements": [_pairs(e) for e in povm.elements]})


def _rows_to_matrix(rows, dim: int, what: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise QpoolError(f"{what} must have {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise QpoolError(f"{what} row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(type(v) in (int, float) for v in entry)
            ):
                raise QpoolError(
                    f"{what} entry ({i},{j}) must be a [re, im] number pair"
                )
            try:
                out[i, j] = complex(entry[0], entry[1])
            except OverflowError as exc:
                raise QpoolError(f"{what} entry ({i},{j}) is too large for a float") from exc
    return out


def _payload_dim(obj, key: str, what: str) -> int:
    if not isinstance(obj, dict) or "dim" not in obj or key not in obj:
        raise QpoolError(f'{what} file must be {{"dim": ..., "{key}": ...}}')
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:
        raise QpoolError(f"dim must be a positive integer, got {dim!r}")
    return dim


def parse_matrix_payload(obj) -> np.ndarray:
    dim = _payload_dim(obj, "matrix", "matrix")
    return _rows_to_matrix(obj["matrix"], dim, "matrix")


def parse_povm_payload(obj):
    """The measurement.Povm a parsed POVM file holds, validated."""
    from . import measurement

    dim = _payload_dim(obj, "elements", "POVM")
    elements = obj["elements"]
    if not isinstance(elements, list) or not elements:
        raise QpoolError("elements must be a non-empty list of matrices")
    return measurement.validate_povm(
        [_rows_to_matrix(rows, dim, f"element {k}") for k, rows in enumerate(elements)]
    )


def parse_density_payload(obj) -> np.ndarray:
    return linalg.validate_density(parse_matrix_payload(obj), tol=FILE_DENSITY_TOL)


def load_density(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:
        # Not UTF-8, or nested deeper than the decoder's recursion limit.
        raise QpoolError(f"{path}: {exc}") from exc
    return parse_density_payload(obj)


def _write_file(path: str, text: str, parse) -> None:
    """Write text to path only if parse, the reader for that kind of file, accepts it.

    The gate runs before the file is opened, so a rejected result leaves no file.
    """
    parse(json.loads(text))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_safe(obj):
    # A distance that is not finite (a trial that never completed) prints as null.
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(obj: dict, pretty: bool) -> None:
    print(json.dumps(_json_safe(obj), indent=2 if pretty else None, allow_nan=False))


def _parse_bloch(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise QpoolError(f"expected X,Y,Z with three components, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise QpoolError(f"bad Bloch component in {text!r}") from exc


def _parse_dims(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError as exc:
        raise QpoolError(f"expected LO..HI or a single integer, got {text!r}") from exc
    if lo_i < 2 or hi_i < lo_i:
        raise QpoolError(f"bad dimension range {text!r}")
    return range(lo_i, hi_i + 1)


def cmd_pool(args) -> int:
    if len(args.inputs) < 2:
        raise QpoolError("pooling needs at least two input files")
    states = [load_density(p) for p in args.inputs]
    if args.mode == "ordered":
        report = pooling.pool_ordered_multi(states)
    else:
        report = pooling.pool_symmetric_multi(states)
    _write_file(args.out, matrix_file_text(report.pooled), parse_density_payload)
    payload = {"compatibility": report.compatibility}
    if len(states) >= 3:
        payload["norm_discrepancy"] = report.norm_discrepancy
    _emit(payload, args.pretty)
    return EXIT_OK


def cmd_compat(args) -> int:
    a = load_density(args.file_a)
    b = load_density(args.file_b)
    print(f"{pooling.compatibility(a, b):.15f}")
    return EXIT_OK


def cmd_bloch(args) -> int:
    from . import qubit

    pooled, weights, compat = qubit._pool(_parse_bloch(args.a), _parse_bloch(args.b))
    _emit(
        {
            "pooled": [float(x) for x in pooled],
            "alpha": weights.alpha,
            "beta": weights.beta,
            "compatibility": compat,
        },
        args.pretty,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import harness

    dims = _parse_dims(args.dims)
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    reports = {
        name: harness.sweep(args.trials, dims, args.tol, args.seed, *suites.SUITES[name])
        for name in names
    }
    payload = {name: dataclasses.asdict(r) for name, r in reports.items()}
    _emit(payload if args.suite == "all" else payload[args.suite], args.pretty)
    failed = any(r.failures for r in reports.values())
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_random(args) -> int:
    from . import harness

    # Refused rather than ignored: each size option applies to one kind.
    if args.kind == "state" and args.outcomes is not None:
        raise QpoolError("--outcomes does not apply to random state")
    if args.kind == "povm" and args.rank is not None:
        raise QpoolError("--rank does not apply to random povm")
    rng = np.random.default_rng(linalg.check_int(args.seed, "seed", 0))
    if args.kind == "state":
        rank = args.rank if args.rank is not None else args.dim
        m = harness.random_density(args.dim, rank, rng)
        _write_file(args.out, matrix_file_text(m), parse_density_payload)
    else:
        outcomes = args.outcomes if args.outcomes is not None else 2
        povm = harness.random_povm(args.dim, outcomes, rng)
        _write_file(args.out, povm_file_text(povm), parse_povm_payload)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse 3.11+ drops an OSError from writing help; here it reaches
        # main, as one from any other write does.
        (file or sys.stdout).write(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = _Parser(
        prog="qpool",
        description="Pool independent observers' quantum states of knowledge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pool = sub.add_parser("pool", help="pool two or more states from files")
    p_pool.add_argument("--mode", choices=("ordered", "symmetric"), required=True)
    p_pool.add_argument(
        "--in", dest="inputs", nargs="+", action="extend", required=True, metavar="FILE",
        help="input state files, in measurement order for --mode ordered;"
        " a repeated --in appends",
    )
    p_pool.add_argument("--out", required=True, metavar="FILE")
    p_pool.add_argument("--pretty", action="store_true")

    p_compat = sub.add_parser("compat", help="print the overlap of two states")
    p_compat.add_argument("file_a")
    p_compat.add_argument("file_b")

    p_bloch = sub.add_parser("bloch", help="pool two qubit Bloch vectors")
    p_bloch.add_argument("--a", required=True, metavar="X,Y,Z")
    p_bloch.add_argument("--b", required=True, metavar="X,Y,Z")
    p_bloch.add_argument("--pretty", action="store_true")

    p_verify = sub.add_parser("verify", help="run randomized oracle sweeps")
    p_verify.add_argument("--suite", choices=(*suites.SUITES, "all"), default="all")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--dims", default="2..4", metavar="LO..HI")
    p_verify.add_argument("--tol", type=float, default=1e-10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--pretty", action="store_true")

    p_random = sub.add_parser("random", help="write a random state or POVM file")
    p_random.add_argument("kind", choices=("state", "povm"))
    p_random.add_argument("--dim", type=int, required=True)
    p_random.add_argument("--rank", type=int, default=None)
    p_random.add_argument("--outcomes", type=int, default=None)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--out", required=True, metavar="FILE")

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            # cmd_<name> is looked up per call, so a wrapper set on it after
            # the parser was built still sees the call.
            return globals()[f"cmd_{args.command}"](args)
        finally:
            # Help and reports are written here, not at interpreter exit, so
            # a closed stdout fails like any other write.
            sys.stdout.flush()
    except IncompatibleStatesError:
        print(INCOMPATIBLE_MESSAGE, file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (QpoolError, OSError, json.JSONDecodeError, MemoryError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader is gone; what stdout still holds goes to devnull,
            # or the interpreter's flush at exit fails a second time.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
