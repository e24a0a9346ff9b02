"""A hypothesis drive of every subcommand through cli.main.

Every case must end one of two ways:
- exit 0 (or exit 1 from verify) with strict JSON on stdout (empty for
  random), nothing on stderr, and every file written readable by qpool's
  own reader;
- exit 2 or 3 with a single line on stderr, nothing on stdout and no file
  written.
No exception may escape main.  Sizes stay small (dim <= 4, trials <= 3,
outcomes <= 6), so no case allocates more than a few MB.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from qpool import cli, harness, linalg

DRIVE = settings(max_examples=100, deadline=None)

OVERFLOW_BYTES = b'{"dim": 1, "matrix": [[[1' + b"0" * 400 + b', 0]]]}'
DEEP_BYTES = b"[" * 100_000 + b"]" * 100_000
Z0_BYTES = b'{"dim": 2, "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]}'


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_povm(path):
    with open(path, encoding="utf-8") as fh:
        return cli.parse_povm_payload(json.load(fh))


def _drive(argv, written=(), read=cli.load_density):
    """Run argv and check how it ended; return the exit code."""
    code, out, err = _run(argv)
    if code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED):
        assert code == cli.EXIT_OK or argv[0] == "verify"
        assert err == ""
        if argv[0] == "random":
            assert out == ""
        else:
            json.loads(out, parse_constant=_no_constants)
        for path in written:
            read(path)
    else:
        assert code in (cli.EXIT_USAGE, cli.EXIT_INCOMPATIBLE), code
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
        if code == cli.EXIT_USAGE:
            assert err.startswith("error: ")
        else:
            assert err == cli.INCOMPATIBLE_MESSAGE + "\n"
        for path in written:
            assert not Path(path).exists()
    return code


def _pure_qubit(v):
    v = np.asarray(v, dtype=float)
    return linalg.bloch_to_density(v / np.linalg.norm(v))


def _tiny_eigenvalue(rng, dim, floor):
    rest = rng.random(dim - 1) + 0.1
    w = np.append(floor, rest / rest.sum() if dim > 1 else rest)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return linalg.hermitianize((q * w) @ linalg.dagger(q))


def _text(m, dim=None, entry=None):
    pairs = [[[z.real, z.imag] for z in row] for row in np.asarray(m).tolist()]
    if entry is not None:
        (i, j, k), value = entry
        pairs[i % len(pairs)][j % len(pairs)][k % 2] = value
    payload = {"dim": len(pairs) if dim is None else dim, "matrix": pairs}
    return json.dumps(payload, allow_nan=True).encode()


@st.composite
def state_files(draw, dim):
    """The bytes of one state file of the given dim, valid or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(
            ["full rank", "rank deficient", "tiny eigenvalue", "non-finite", "boolean",
             "wrong dim", "arbitrary", "bytes"]
        )
    )
    if kind == "full rank":
        return _text(harness.random_density(dim, dim, rng))
    if kind == "rank deficient":
        return _text(harness.random_density(dim, max(dim - 1, 1), rng))
    if kind == "tiny eigenvalue":
        floor = draw(st.sampled_from([1e-12, -1e-12, 1e-13, -5e-11]))
        return _text(_tiny_eigenvalue(rng, dim, floor))
    spot = draw(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)))
    if kind == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return _text(harness.random_density(dim, dim, rng), entry=(spot, bad))
    if kind == "boolean":
        return _text(harness.random_density(dim, dim, rng), entry=(spot, draw(st.booleans())))
    if kind == "wrong dim":
        return _text(harness.random_density(dim, dim, rng), dim=draw(st.integers(-1, 5)))
    if kind == "arbitrary":
        pair = st.lists(st.floats(), min_size=2, max_size=2)
        rows = st.lists(st.lists(pair, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
        return json.dumps({"dim": dim, "matrix": draw(rows)}).encode()
    return draw(st.binary(max_size=64))


@st.composite
def pool_inputs(draw):
    """The bytes of 2 to 4 state files of one dim, or a near-antipodal qubit pair."""
    if draw(st.booleans()):
        direction = np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3)))
        if np.linalg.norm(direction) < 1e-3:
            direction = np.array([0.0, 0.0, 1.0])
        tilt = draw(st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, 1e-3]))
        other = -direction + tilt * np.array([1.0, -1.0, 0.5])
        return [_text(_pure_qubit(direction)), _text(_pure_qubit(other))]
    dim = draw(st.integers(1, 4))
    return draw(st.lists(state_files(dim), min_size=2, max_size=4))


@given(files=pool_inputs(), mode=st.sampled_from(["ordered", "symmetric"]))
@example(files=[b"\xff\xfe", Z0_BYTES], mode="ordered")
@example(files=[Z0_BYTES, OVERFLOW_BYTES], mode="symmetric")
@example(files=[DEEP_BYTES, Z0_BYTES], mode="ordered")
@DRIVE
def test_pool_and_compat(files, mode):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(files):
            paths.append(str(Path(tmp, f"in{i}.json")))
            Path(paths[-1]).write_bytes(data)
        out = str(Path(tmp, "out.json"))
        _drive(["compat", paths[0], paths[1]])
        if _drive(["pool", "--mode", mode, "--in", *paths, "--out", out], [out]) == 0:
            # Round trip: what pool wrote, compat and pool read back.
            _drive(["compat", out, paths[0]])
            again = str(Path(tmp, "again.json"))
            _drive(["pool", "--mode", mode, "--in", out, paths[-1], "--out", again], [again])


def _unit(draw):
    v = np.array(draw(st.tuples(*[st.floats(-1, 1)] * 3)))
    n = np.linalg.norm(v)
    return v / n if n > 1e-3 else np.array([1.0, 0.0, 0.0])


@st.composite
def bloch_pairs(draw):
    kind = draw(st.sampled_from(["inside", "near antipodal", "arbitrary"]))
    if kind == "inside":
        a = _unit(draw) * draw(st.floats(0, 1))
        b = _unit(draw) * draw(st.floats(0, 1))
    elif kind == "near antipodal":
        a = _unit(draw) * draw(st.sampled_from([1.0, 1 - 1e-13, 1 + 1e-13, 1 - 1e-9]))
        b = -a + draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4])) * _unit(draw)
    else:
        floats = st.floats(allow_nan=True, allow_infinity=True)
        a, b = (np.array(draw(st.tuples(floats, floats, floats))) for _ in range(2))
    return tuple(",".join(repr(float(x)) for x in v) for v in (a, b))


@given(pair=bloch_pairs())
@DRIVE
def test_bloch(pair):
    a, b = pair
    _drive(["bloch", f"--a={a}", f"--b={b}"])


@given(
    suite=st.sampled_from(["two", "commuting", "three", "all"]),
    trials=st.integers(-1, 3),
    lo=st.integers(-1, 4),
    hi=st.integers(-1, 4),
    tol=st.sampled_from(["1e-10", "1e-18", "1", "0", "-1", "nan", "inf"]),
    seed=st.integers(-(2**65), 2**65),
)
@DRIVE
def test_verify(suite, trials, lo, hi, tol, seed):
    _drive(
        ["verify", "--suite", suite, f"--trials={trials}", f"--dims={lo}..{hi}",
         f"--tol={tol}", f"--seed={seed}"]
    )


@given(
    kind=st.sampled_from(["state", "povm"]),
    dim=st.integers(-1, 4),
    rank=st.none() | st.integers(-1, 5),
    outcomes=st.none() | st.integers(-1, 6),
    seed=st.integers(-3, 2**65),
)
@example(kind="state", dim=2, rank=None, outcomes=None, seed=-1)
@example(kind="povm", dim=0, rank=None, outcomes=2, seed=0)
@DRIVE
def test_random(kind, dim, rank, outcomes, seed):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp, "r.json"))
        argv = ["random", kind, f"--dim={dim}", f"--seed={seed}", f"--out={out}"]
        if rank is not None:
            argv.append(f"--rank={rank}")
        if outcomes is not None:
            argv.append(f"--outcomes={outcomes}")
        read = cli.load_density if kind == "state" else _read_povm
        if _drive(argv, [out], read) == 0 and kind == "state":
            _drive(["compat", out, out])
