import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from qpool import cli, harness, linalg, measurement, pooling
from qpool.errors import QpoolError
from qpool.harness import random_density, random_povm

Z0_TEXT = '{"dim": 2, "matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]}'
Z1_TEXT = '{"dim": 2, "matrix": [[[0,0],[0,0]],[[0,0],[1,0]]]}'
PLUS_TEXT = '{"dim": 2, "matrix": [[[0.5,0],[0.5,0]],[[0.5,0],[0.5,0]]]}'
MIXED_TEXT = '{"dim": 2, "matrix": [[[0.5,0],[0,0]],[[0,0],[0.5,0]]]}'


@pytest.fixture
def state_files(tmp_path):
    paths = {}
    for name, text in (
        ("z0", Z0_TEXT),
        ("z1", Z1_TEXT),
        ("plus", PLUS_TEXT),
        ("mixed", MIXED_TEXT),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def _read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return cli.parse_matrix_payload(json.load(fh))


class TestMatrixFileRoundTrip:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(60)
        for dim in (2, 3, 5, 8):
            m = random_density(dim, dim, rng)
            back = cli.parse_matrix_payload(json.loads(cli.matrix_file_text(m)))
            assert np.array_equal(back, m)

    def test_povm_round_trip(self):
        rng = np.random.default_rng(61)
        povm = random_povm(3, 4, rng)
        back = cli.parse_povm_payload(json.loads(cli.povm_file_text(povm)))
        assert back.dim == povm.dim
        assert all(np.array_equal(x, y) for x, y in zip(back.elements, povm.elements))

    @pytest.mark.parametrize(
        "payload",
        [
            {"matrix": [[[1, 0]]]},
            {"dim": "2", "matrix": []},
            {"dim": 2, "matrix": [[[1, 0], [0, 0]]]},
            {"dim": 1, "matrix": [[[1, 0, 0]]]},
            {"dim": 1, "matrix": [[["1", "0"]]]},
            {"dim": True, "matrix": [[[1, 0]]]},
            {"dim": 1, "matrix": [[[True, False]]]},
        ],
    )
    def test_malformed_payload_rejected(self, payload):
        with pytest.raises(Exception):
            cli.parse_matrix_payload(payload)


class TestPoolCommand:
    def test_symmetric_with_mixed_partner(self, state_files, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        code = cli.main(
            ["pool", "--mode", "symmetric", "--in", state_files["z0"],
             state_files["mixed"], "--out", out]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["compatibility"] == pytest.approx(0.5, abs=1e-12)
        assert "norm_discrepancy" not in payload
        m = _read_matrix(out)
        assert np.abs(m - np.diag([1.0, 0.0])).max() < 1e-10

    def test_orthogonal_exits_3(self, state_files, tmp_path, capsys):
        code = cli.main(
            ["pool", "--mode", "symmetric", "--in", state_files["z0"],
             state_files["z1"], "--out", str(tmp_path / "x.json")]
        )
        assert code == 3
        assert "incompatible" in capsys.readouterr().err

    def test_ordered_is_order_sensitive(self, state_files, tmp_path):
        out1 = str(tmp_path / "o1.json")
        out2 = str(tmp_path / "o2.json")
        assert cli.main(
            ["pool", "--mode", "ordered", "--in", state_files["z0"],
             state_files["plus"], "--out", out1]
        ) == 0
        assert cli.main(
            ["pool", "--mode", "ordered", "--in", state_files["plus"],
             state_files["z0"], "--out", out2]
        ) == 0
        d = linalg.frobenius_distance(_read_matrix(out1), _read_matrix(out2))
        assert d == pytest.approx(1.0, abs=1e-10)

    def test_three_states_report_discrepancy(self, state_files, tmp_path, capsys):
        out = str(tmp_path / "out.json")
        code = cli.main(
            ["pool", "--mode", "symmetric", "--in", state_files["z0"],
             state_files["plus"], state_files["mixed"], "--out", out]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "norm_discrepancy" in payload
        linalg.validate_density(_read_matrix(out), tol=1e-9)

    def test_single_input_exits_2(self, state_files, tmp_path, capsys):
        code = cli.main(
            ["pool", "--mode", "ordered", "--in", state_files["z0"],
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "two input files" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = cli.main(
            ["pool", "--mode", "ordered", "--in", str(tmp_path / "nope.json"),
             str(tmp_path / "nope2.json"), "--out", str(tmp_path / "x.json")]
        )
        assert code == 2

    def test_invalid_state_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "matrix": [[[0.9,0],[0,0]],[[0,0],[0.9,0]]]}')
        code = cli.main(
            ["pool", "--mode", "ordered", "--in", str(bad), str(bad),
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "trace" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            '{"dim": 2, "matrix": [[[NaN,0],[0,0]],[[0,0],[1,0]]]}',
            '{"dim": 2, "matrix": [[[0.5,0],[Infinity,0]],[[0,0],[0.5,0]]]}',
            '{"dim": 2, "matrix": [[[0.5,0],[0,-Infinity]],[[0,0],[0.5,0]]]}',
            '{"dim": true, "matrix": [[[1,0]]]}',
            '{"dim": 2, "matrix": [[[true,0],[0,0]],[[0,0],[false,0]]]}',
        ],
    )
    def test_non_finite_or_boolean_file_exits_2(self, state_files, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = str(tmp_path / "x.json")
        for argv in (
            ["pool", "--mode", "symmetric", "--in", str(bad), state_files["z0"], "--out", out],
            ["compat", state_files["z0"], str(bad)],
        ):
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")


class TestCompatCommand:
    def test_identical_pure(self, state_files, capsys):
        assert cli.main(["compat", state_files["z0"], state_files["z0"]]) == 0
        assert capsys.readouterr().out.strip() == "1.000000000000000"

    def test_mixed_vs_anything(self, state_files, capsys):
        assert cli.main(["compat", state_files["mixed"], state_files["plus"]]) == 0
        assert capsys.readouterr().out.strip() == "0.500000000000000"

    def test_z_vs_x(self, state_files, capsys):
        assert cli.main(["compat", state_files["z0"], state_files["plus"]]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-14)


class TestBlochCommand:
    def test_orthogonal_pair(self, capsys):
        assert cli.main(["bloch", "--a", "0,0,1", "--b", "1,0,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pooled"] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
        assert payload["alpha"] == pytest.approx(0.25, abs=1e-12)
        assert payload["beta"] == pytest.approx(0.25, abs=1e-12)
        assert payload["compatibility"] == pytest.approx(0.5, abs=1e-12)

    def test_double_ignorance(self, capsys):
        assert cli.main(["bloch", "--a", "0,0,0", "--b", "0,0,0"]) == 0
        assert json.loads(capsys.readouterr().out)["pooled"] == [0.0, 0.0, 0.0]

    def test_antipodal_exits_3(self, capsys):
        assert cli.main(["bloch", "--a", "0,0,1", "--b", "0,0,-1"]) == 3
        assert "incompatible" in capsys.readouterr().err

    def test_too_long_exits_2(self, capsys):
        assert cli.main(["bloch", "--a", "0,0,2", "--b", "0,0,1"]) == 2

    def test_malformed_vector_exits_2(self, capsys):
        assert cli.main(["bloch", "--a", "0,0", "--b", "0,0,1"]) == 2
        assert cli.main(["bloch", "--a", "0,0,x", "--b", "0,0,1"]) == 2


# Each suite of harness.SUITES by its verify_* name.
VERIFY_NAMES = {
    "two": harness.verify_two_observer,
    "commuting": harness.verify_commuting_reduction,
    "three": harness.verify_three_observer,
}


class TestVerifyCommand:
    def test_two_suite_passes(self, capsys):
        code = cli.main(
            ["verify", "--suite", "two", "--trials", "5", "--dims", "2..3",
             "--tol", "1e-10", "--seed", "42"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 10
        assert payload["failures"] == []

    def test_all_suites(self, capsys):
        code = cli.main(
            ["verify", "--suite", "all", "--trials", "3", "--dims", "2..2",
             "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"two", "commuting", "three"}

    @pytest.mark.parametrize("suite,verify", [(s, VERIFY_NAMES[s]) for s in harness.SUITES])
    def test_a_suite_prints_its_block_of_all_and_its_library_sweep(self, suite, verify, capsys):
        # The CLI holds no seed policy of its own: one suite's stdout is its
        # block of --suite all, the one sweep over the same dims, and the
        # suite's verify_* name.
        args = ["--trials", "3", "--dims", "2..3", "--tol", "1e-10", "--seed", "17"]
        assert cli.main(["verify", "--suite", suite, *args]) == 0
        alone = capsys.readouterr().out
        assert cli.main(["verify", "--suite", "all", *args]) == 0
        assert alone == json.dumps(json.loads(capsys.readouterr().out)[suite]) + "\n"
        swept = harness.sweep(3, range(2, 4), 1e-10, 17, *harness.SUITES[suite])
        assert alone == json.dumps(dataclasses.asdict(swept)) + "\n"
        assert swept == verify(3, range(2, 4), 1e-10, 17)

    def test_zero_trials_exits_2(self, capsys):
        assert cli.main(["verify", "--trials", "0"]) == 2

    def test_bad_dims_exits_2(self, capsys):
        assert cli.main(["verify", "--trials", "2", "--dims", "5..2"]) == 2
        assert cli.main(["verify", "--trials", "2", "--dims", "abc"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_non_positive_or_non_finite_tolerance_exits_2(self, tol, capsys):
        code = cli.main(
            ["verify", "--suite", "all", "--trials", "2", "--dims", "2..2",
             "--tol", tol]
        )
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_impossible_tolerance_exits_1(self, capsys):
        code = cli.main(
            ["verify", "--suite", "two", "--trials", "2", "--dims", "2..2",
             "--tol", "1e-18", "--seed", "3"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["failures"]

    def test_repeat_runs_identical(self, capsys):
        argv = ["verify", "--suite", "all", "--trials", "3", "--dims", "2..3",
                "--tol", "1e-10", "--seed", "11"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first


class TestRandomCommand:
    def test_state_file_is_valid(self, tmp_path):
        out = str(tmp_path / "s.json")
        assert cli.main(
            ["random", "state", "--dim", "3", "--rank", "2", "--seed", "4",
             "--out", out]
        ) == 0
        rho = linalg.validate_density(_read_matrix(out), tol=1e-8)
        assert rho.shape == (3, 3)

    def test_rank_one_state_is_pure(self, tmp_path):
        out = str(tmp_path / "p.json")
        assert cli.main(
            ["random", "state", "--dim", "2", "--rank", "1", "--seed", "4",
             "--out", out]
        ) == 0
        rho = _read_matrix(out)
        assert linalg.trace_product(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_povm_file_is_valid(self, tmp_path):
        out = str(tmp_path / "m.json")
        assert cli.main(
            ["random", "povm", "--dim", "3", "--outcomes", "4", "--seed", "4",
             "--out", out]
        ) == 0
        with open(out, encoding="utf-8") as fh:
            povm = cli.parse_povm_payload(json.load(fh))
        assert len(povm) == 4

    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert cli.main(
                ["random", "state", "--dim", "4", "--seed", "17", "--out", str(out)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_rank_exits_2(self, tmp_path, capsys):
        code = cli.main(
            ["random", "state", "--dim", "2", "--rank", "5", "--seed", "0",
             "--out", str(tmp_path / "x.json")]
        )
        assert code == 2
        assert "rank" in capsys.readouterr().err


class TestArgparseBehavior:
    def test_unknown_mode_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pool", "--mode", "sideways", "--in", "a", "b", "--out", "c"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


def test_console_script_end_to_end(tmp_path):
    # The installed entry point, through a real process boundary.
    out = str(tmp_path / "s.json")
    proc = subprocess.run(
        [sys.executable, "-m", "qpool.cli", "random", "state", "--dim", "2",
         "--rank", "1", "--seed", "8", "--out", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "qpool.cli", "compat", out, out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(1.0, abs=1e-10)


# The qpool modules that pool and compat run; the other commands import
# harness, measurement or qubit when they are called.
POOL_PATH_MODULES = {
    "qpool", "qpool.cli", "qpool.errors", "qpool.linalg", "qpool.pooling", "qpool.suites",
}


# The installed qpool script imports qpool.cli and calls main; python -m runs
# qpool.cli as __main__, so that route imports every other module but it.
LAUNCH_ROUTES = {
    "script": ["-c", "import sys; from qpool.cli import main; sys.exit(main())"],
    "-m": ["-m", "qpool.cli"],
}


@pytest.mark.parametrize("route", sorted(LAUNCH_ROUTES))
@pytest.mark.parametrize("command", ["pool", "compat"])
def test_a_pool_or_compat_child_imports_only_the_modules_it_runs(
    command, route, state_files, tmp_path
):
    argv = {
        "pool": [
            "pool", "--mode", "ordered", "--in", state_files["z0"], state_files["plus"],
            state_files["mixed"], "--out", str(tmp_path / "out.json"),
        ],
        "compat": ["compat", state_files["z0"], state_files["plus"]],
    }[command]
    # -X importtime prints one stderr line per module, "... | <name>", as
    # each import finishes: a module numpy imports comes before numpy's line.
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *LAUNCH_ROUTES[route], *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert {m for m in imported if m.split(".")[0] == "qpool"} | {"qpool.cli"} == POOL_PATH_MODULES
    # numpy before 1.25 imports numpy.random inside import numpy; nothing after may.
    assert "numpy.random" not in imported[imported.index("numpy") + 1:]


def test_import_qpool_loads_no_submodule_and_not_numpy():
    code = (
        "import sys, qpool; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('qpool', 'numpy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['qpool']"


class TestWriteGate:
    def test_pool_result_the_reader_rejects_exits_2_and_writes_nothing(
        self, state_files, tmp_path, capsys, monkeypatch
    ):
        # A result of trace 1.13, as the removed --norm paper mode produced.
        def inflated(states, norm_mode="trace"):
            return pooling.PoolReport(
                pooled=np.diag([0.565, 0.565]).astype(complex), compatibility=0.5,
                paper_norm=0.5, trace_norm=0.565, norm_discrepancy=0.065,
            )

        monkeypatch.setattr(pooling, "pool_symmetric_multi", inflated)
        out = tmp_path / "out.json"
        code = cli.main(
            ["pool", "--mode", "symmetric", "--in", state_files["z0"],
             state_files["plus"], state_files["mixed"], "--out", str(out)]
        )
        assert code == 2
        assert "error: trace 1.13 differs from 1" in capsys.readouterr().err
        assert not out.exists()

    def test_random_state_the_reader_rejects_exits_2_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(harness, "random_density", lambda dim, rank, rng: np.eye(dim) / 2)
        out = tmp_path / "s.json"
        assert cli.main(["random", "state", "--dim", "3", "--out", str(out)]) == 2
        assert "differs from 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["random", "state", "--dim", "100000", "--out", "s.json"], "random_density"),
            (["verify", "--trials", "2"], "sweep"),
        ],
        ids=["random", "verify"],
    )
    def test_out_of_memory_exits_2_and_writes_nothing(
        self, argv, target, tmp_path, capsys, monkeypatch
    ):
        # numpy's message for an allocation it cannot make; nothing is allocated here.
        def no_memory(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(harness, target, no_memory)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 74.5 GiB for an array\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_norm_flag_is_gone(self, state_files, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["pool", "--mode", "symmetric", "--norm", "paper", "--in",
                 state_files["z0"], state_files["plus"], "--out", str(tmp_path / "x.json")]
            )
        assert exc.value.code == 2


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_stdout_is_strict_json_when_trials_fail_with_nan(monkeypatch, capsys):
    def nan_pool(arrs, roots):
        return pooling.PoolReport(
            pooled=np.full(arrs.shape[1:], np.nan, dtype=complex),
            compatibility=1.0, paper_norm=1.0, trace_norm=1.0, norm_discrepancy=0.0,
        )

    # Every suite holds the ordered rule's body to the chain oracle.
    monkeypatch.setattr(pooling, "_ordered", nan_pool)
    code = cli.main(["verify", "--suite", "all", "--trials", "2", "--dims", "2..3", "--seed", "4"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    for suite in ("two", "commuting", "three"):
        assert payload[suite]["max_oracle_distance"] is None
        assert [d for _, d in payload[suite]["failures"]] == [None] * 4


# Inputs that once escaped main as a traceback; each must end in exit 2 with one error line.
BAD_FILE_BYTES = {
    "not utf-8": b"\xff\xfe",
    "integer too large for a float": b'{"dim": 1, "matrix": [[[1' + b"0" * 400 + b', 0]]]}',
    "nested past the decoder's recursion limit": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(BAD_FILE_BYTES))
def test_unreadable_file_exits_2(name, state_files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(BAD_FILE_BYTES[name])
    out = tmp_path / "x.json"
    for argv in (
        ["pool", "--mode", "ordered", "--in", str(bad), state_files["z0"], "--out", str(out)],
        ["compat", state_files["z0"], str(bad)],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
    assert not out.exists()


SHORT_ROW = {"dim": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}


@pytest.mark.parametrize(
    "parse, payload, message",
    [
        (cli.parse_matrix_payload, SHORT_ROW, "matrix row 1 must have 2 entries"),
        (
            cli.parse_povm_payload,
            {"dim": 2, "elements": []},
            "elements must be a non-empty list of matrices",
        ),
    ],
    ids=["short row", "no elements"],
)
def test_payload_rejection_names_its_rule(parse, payload, message):
    with pytest.raises(QpoolError) as exc:
        parse(payload)
    assert str(exc.value) == message


def test_compat_on_a_short_row_exits_2(state_files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(SHORT_ROW))
    assert cli.main(["compat", state_files["z0"], str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix row 1 must have 2 entries\n"


def test_parser_rejects_an_integer_too_large_for_a_float():
    with pytest.raises(QpoolError, match=r"too large for a float"):
        cli.parse_matrix_payload({"dim": 1, "matrix": [[[10**400, 0]]]})


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "state", "--dim", "2", "--seed", "-1"],
        ["random", "povm", "--dim", "0", "--outcomes", "2"],
        ["random", "povm", "--dim", "2", "--rank", "1"],
        ["random", "state", "--dim", "2", "--outcomes", "3"],
    ],
    ids=["negative seed", "zero dim povm", "rank for a povm", "outcomes for a state"],
)
def test_bad_random_arguments_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_verify_accepts_a_negative_seed(capsys):
    argv = ["verify", "--suite", "all", "--trials", "2", "--dims", "2..2", "--seed", "-1"]
    assert cli.main(argv) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"two", "commuting", "three"}


@pytest.mark.parametrize(
    "kind, option", [("povm", ["--rank", "1"]), ("state", ["--outcomes", "3"])]
)
def test_random_names_the_option_that_does_not_apply(kind, option, tmp_path, capsys):
    argv = ["random", kind, "--dim", "2", *option, "--out", str(tmp_path / "x.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {option[0]} does not apply to random {kind}\n"


def test_repeated_in_appends_its_files(state_files, tmp_path, capsys):
    z0, plus, mixed = state_files["z0"], state_files["plus"], state_files["mixed"]
    cases = (([z0, plus], [z0, "--in", plus]), ([z0, plus, mixed], [z0, "--in", plus, mixed]))
    for files, repeated in cases:
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        assert cli.main(["pool", "--mode", "ordered", "--in", *files, "--out", str(once)]) == 0
        assert cli.main(["pool", "--mode", "ordered", "--in", *repeated, "--out", str(twice)]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert once.read_bytes() == twice.read_bytes() and first == second
        # Only a pool of three or more states reports the discrepancy.
        assert ("norm_discrepancy" in json.loads(second)) == (len(files) == 3)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["pool", "--mode", "symmetric", "--in", "z0", "plus", "mixed", "--out", "OUT"], 0),
        (["pool", "--mode", "ordered", "--in", "z0", "z1", "--out", "OUT"], 3),
        (["compat", "z0", "plus"], 0),
        (["bloch", "--a", "0,0,1", "--b", "0.6,0,0", "--pretty"], 0),
        (["bloch", "--a", "0,0,2", "--b", "0,0,1"], 2),
        (["verify", "--suite", "all", "--trials", "3", "--dims", "2..3", "--seed", "5"], 0),
        (["verify", "--dims", "1..3"], 2),
        (["random", "povm", "--dim", "3", "--outcomes", "3", "--seed", "4", "--out", "OUT"], 0),
        (["random", "state", "--dim", "2", "--rank", "3", "--out", "OUT"], 2),
    ],
    ids=[
        "pool", "pool incompatible", "compat", "bloch", "bloch too long",
        "verify", "verify bad dims", "random povm", "random state bad rank",
    ],
)
def test_main_twice_in_one_process_gives_the_same_result(
    argv, code, state_files, tmp_path, capsys
):
    # The parser is built once per process; a second call through it must
    # print, write and exit as the first did.
    out = tmp_path / "out.json"
    argv = [state_files.get(a, str(out) if a == "OUT" else a) for a in argv]
    runs = []
    for _ in range(2):
        rc = cli.main(argv)
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        runs.append((rc, captured.out, captured.err, written))
    assert runs[0] == runs[1]
    assert runs[0][0] == code
    # Only a command that succeeds writes its file.
    assert (runs[0][3] is not None) == (code == 0 and str(out) in argv)


def test_main_calls_a_command_patched_after_the_parser_is_built(
    state_files, monkeypatch, capsys
):
    argv = ["compat", state_files["z0"], state_files["plus"]]
    assert cli.main(argv) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_compat", lambda args: seen.append(args.file_a) or 0)
    assert cli.main(argv) == 0
    assert seen == [state_files["z0"]]
    assert capsys.readouterr().out == ""
