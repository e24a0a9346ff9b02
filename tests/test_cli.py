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

    @pytest.mark.parametrize(
        "suite,sweep",
        [
            ("two", harness.verify_two_observer),
            ("commuting", harness.verify_commuting_reduction),
            ("three", harness.verify_three_observer),
        ],
    )
    def test_a_suite_prints_its_block_of_all_and_its_library_sweep(self, suite, sweep, capsys):
        # The CLI holds no seed policy of its own: one suite's stdout is its
        # block of --suite all and the one library call over the same dims.
        args = ["--trials", "3", "--dims", "2..3", "--tol", "1e-10", "--seed", "17"]
        assert cli.main(["verify", "--suite", suite, *args]) == 0
        alone = capsys.readouterr().out
        assert cli.main(["verify", "--suite", "all", *args]) == 0
        assert alone == json.dumps(json.loads(capsys.readouterr().out)[suite]) + "\n"
        assert alone == json.dumps(sweep(3, range(2, 4), 1e-10, 17).as_dict()) + "\n"

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


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first use (from 1.25); loading it when
    # qpool is imported would add about 6 MB to every CLI process.
    code = (
        "import sys, numpy; lazy = 'numpy.random' not in sys.modules; "
        "import qpool.cli; print(lazy and 'numpy.random' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
    def nan_pool(first, second):
        return pooling.PoolReport(
            pooled=np.full(np.shape(first), np.nan, dtype=complex),
            compatibility=1.0, paper_norm=1.0, trace_norm=1.0, norm_discrepancy=0.0,
        )

    monkeypatch.setattr(pooling, "pool_ordered", nan_pool)
    code = cli.main(["verify", "--suite", "all", "--trials", "2", "--dims", "2..3", "--seed", "4"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert payload["two"]["max_oracle_distance"] is None
    assert [d for _, d in payload["two"]["failures"]] == [None] * 4
    assert payload["three"]["failures"] == []


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


def test_parser_rejects_an_integer_too_large_for_a_float():
    with pytest.raises(QpoolError, match=r"too large for a float"):
        cli.parse_matrix_payload({"dim": 1, "matrix": [[[10**400, 0]]]})


@pytest.mark.parametrize(
    "argv",
    [
        ["random", "state", "--dim", "2", "--seed", "-1"],
        ["random", "povm", "--dim", "0", "--outcomes", "2"],
    ],
    ids=["negative seed", "zero dim povm"],
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
