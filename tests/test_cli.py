"""Command-line behavior: exit codes, formats, and file round-trips."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from svetlichny import cli, linalg, operators, reproduce, states
from svetlichny.bounds import BoundsReport, Verdict
import corpus

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run(*argv):
    return cli.main(list(argv))


class TestExitCodes:
    def test_genuine_is_zero(self, capsys):
        assert run("analyze", "--family", "pure-W-class-1", "--param", "0.92") == 0
        assert "verdict: genuine" in capsys.readouterr().out

    def test_not_applicable_is_two(self, capsys):
        assert run("analyze", "--ref", "product-000") == 2
        assert "not-applicable" in capsys.readouterr().out

    def test_parse_failures_are_sixty_four(self, capsys):
        assert run("analyze") == 64
        assert run("analyze", "--family", "pure-W-class-1") == 64
        assert run("analyze", "--ref", "GHZ", "--matrix", "x") == 64
        assert run("analyze", "--matrix", "/does/not/exist") == 64
        assert run("nonsense") == 64
        assert run("analyze", "--family", "pure-W-class-1", "--param", "oops") == 64
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("flag", ["--matrix", "--witness"])
    def test_non_utf8_input_is_sixty_four(self, flag, source, tmp_path, monkeypatch, capsys):
        # bytes that do not decode are a parse failure that names the file
        raw = b"\xff\xfe\x00bad"
        if source == "file":
            path = str(tmp_path / "bad.mat")
            Path(path).write_bytes(raw)
        else:
            path = "-"
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
        state = [] if flag == "--matrix" else ["--ref", "GHZ"]
        assert run("analyze", *state, flag, path) == 64
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0")

    @pytest.mark.parametrize("command", ["analyze", "optimize"])
    def test_param_without_family_is_sixty_four(self, command, capsys):
        # only a family reads a parameter, so one given without it is an error, not dropped
        assert run(command, "--ref", "GHZ", "--param", "0.5") == 64
        assert "--param needs --family" in capsys.readouterr().err

    def test_flag_prefixes_are_sixty_four(self, capsys):
        # a unique prefix of a flag is an unknown flag, not the flag itself
        assert run("analyze", "--ref", "GHZ", "--form", "json") == 64
        assert "--form" in capsys.readouterr().err
        assert run("optimize", "--ref", "GHZ", "--rest", "2") == 64
        assert "--rest" in capsys.readouterr().err
        assert run("reproduce", "--tab", "1") == 64
        capsys.readouterr()

    def test_invalid_state_is_sixty_five(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 8\n" + "\n".join(" ".join("0,0" for _ in range(8))
                                             for _ in range(8)) + "\n")
        assert run("analyze", "--matrix", str(bad)) == 65
        assert run("optimize", "--ref", "Bell-Phi+", "--target", "svetlichny") == 65
        assert run("optimize", "--ref", "GHZ", "--target", "chsh") == 65
        capsys.readouterr()

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("token", ["inf,0.0", "nan,0.0"])
    def test_non_finite_entry_is_sixty_five(self, tmp_path, capsys, token, cell):
        rows = [["0.125,0.0" if i == j else "0.0,0.0" for j in range(8)] for i in range(8)]
        rows[cell[0]][cell[1]] = token
        bad = tmp_path / "bad.mat"
        bad.write_text("dim 8\n" + "\n".join(" ".join(row) for row in rows) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("analyze", "--matrix", str(bad)) == 65
        assert caught == []
        assert capsys.readouterr().err == "error: matrix contains NaN or Inf entries\n"

    def test_out_of_range_family_parameter_is_sixty_five(self, capsys):
        assert run("analyze", "--family", "pure-W-class-1", "--param", "2.0") == 65
        capsys.readouterr()


class TestParserReuse:
    """main parses with one parser built at import and dispatches on the
    command through the module's cmd_* names."""

    GOOD = ("analyze", "--family", "identity-W", "--param", "0.82", "--format", "csv")

    def test_bad_flag_then_good_call_prints_what_a_fresh_interpreter_prints(self, capsys):
        assert run("analyze", "--ref", "GHZ", "--bogus") == 64
        assert run(*self.GOOD) == 0
        out, err = capsys.readouterr()
        code = ("import sys; from svetlichny import cli; "
                f"sys.exit(cli.main({list(self.GOOD)!r}))")
        fresh = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, env=_child_env())
        assert fresh.returncode == 0, fresh.stderr
        assert out == fresh.stdout
        assert err == "error: unrecognized arguments: --bogus\n" + fresh.stderr

    def test_rebound_command_is_the_one_that_runs(self, monkeypatch, capsys):
        assert run("analyze", "--ref", "GHZ") == 2
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.ref) or 7)
        assert run("analyze", "--ref", "W") == 7
        assert seen == ["W"]
        capsys.readouterr()


class TestImportOnDemand:
    """analyze and optimize leave the reproduce module unimported; the first
    reproduce command imports it."""

    # the modules the benchmark reads from sys.modules right after importing cli
    EAGER = ("bounds", "optimize", "operators", "states", "nonlocality")

    def test_only_reproduce_imports_reproduce(self, tmp_path):
        out = tmp_path / "reports"
        code = (
            "import contextlib, io, json, sys\n"
            "from svetlichny import cli\n"
            "def loaded():\n"
            "    return sorted(name for name in sys.modules if name.startswith('svetlichny.'))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['analyze', '--ref', 'GHZ']),\n"
            "             cli.main(['optimize', '--ref', 'GHZ', '--restarts', '2'])]\n"
            "    before = loaded()\n"
            f"    codes.append(cli.main(['reproduce', '--table', '1', '--out', {str(out)!r}]))\n"
            "print(json.dumps({'codes': codes, 'before': before, 'after': loaded()}))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_child_env())
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen["codes"] == [2, 0, 0]
        assert "svetlichny.reproduce" not in seen["before"]
        assert {f"svetlichny.{name}" for name in self.EAGER} <= set(seen["before"])
        assert "svetlichny.reproduce" in seen["after"]
        assert (out / "table_1.txt").exists()
        assert (out / "table_1.csv").exists()


def _child_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH, for a child
    interpreter that may start elsewhere."""
    package = importlib.import_module("svetlichny")
    source_root = str(Path(package.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source_root, env.get("PYTHONPATH"))))
    return env


class TestMatrixGrammar:
    def test_round_trip_at_full_precision(self, rng):
        for _ in range(25):
            m = corpus.random_density(rng, 8)
            back = cli.parse_matrix_text(cli.format_matrix_text(m))
            assert np.abs(back - m).max() <= 1e-15

    def test_comments_and_blank_lines_ignored(self):
        text = "# two-level example\ndim 2\n\n1,0 0,0\n0,0 0,0  # fine\n"
        m = cli.parse_matrix_text(text)
        assert m.shape == (2, 2)
        assert m[0, 0] == 1.0

    def test_malformed_inputs_raise_parse_errors(self):
        for text in ("", "dim x\n", "dim 2\n1,0\n0,0 0,0\n",
                     "dim 2\n1,0 0,0\n", "dim 2\n1 0\n0 0\n",
                     "size 2\n1,0 0,0\n0,0 1,0\n"):
            with pytest.raises(cli.CliParseError):
                cli.parse_matrix_text(text)

    def test_export_then_reanalyze(self, tmp_path, capsys):
        out = tmp_path / "state.mat"
        assert run("analyze", "--family", "identity-W", "--param", "0.82",
                   "--export", str(out)) == 0
        first = capsys.readouterr().out
        assert run("analyze", "--matrix", str(out)) == 0
        second = capsys.readouterr().out
        # same verdict block either way
        assert first.splitlines()[-2:] == second.splitlines()[-2:]


    def test_two_qubit_state_is_rejected_and_never_exported(self, tmp_path, capsys):
        # partial_trace's three-qubit rule is the only one, and it runs before the export
        out = tmp_path / "state.mat"
        assert run("analyze", "--ref", "Bell-Phi+", "--export", str(out)) == 65
        assert capsys.readouterr().err == (
            "error: bad-dimension: partial_trace expects a 3-qubit state\n")
        assert not out.exists()


class TestAnalyzeOutput:
    def test_json_mirrors_report_field_names(self, capsys):
        assert run("analyze", "--family", "identity-W", "--param", "0.82",
                   "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["report"]
        assert list(report) == [f.name for f in fields(BoundsReport)]
        assert report["regime"] == "undetected"
        verdict = payload["verdict"]
        assert list(verdict) == [f.name for f in fields(Verdict)]
        assert verdict["outcome"] == "genuine"
        assert verdict["window"]["empty"] is False
        windows = [value for key, value in report.items() if key.endswith("window")]
        for window in windows + [verdict["window"]]:
            assert list(window) == ["lower", "upper", "empty"]

    def test_json_report_is_null_when_it_cannot_be_formed(self, capsys):
        assert run("analyze", "--ref", "product-000", "--format", "json") == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["report_error"]
        assert payload["report"] is None
        assert list(payload["verdict"]) == [f.name for f in fields(Verdict)]

    def test_csv_single_row(self, capsys):
        assert run("analyze", "--family", "mixed-GHZ-2W", "--param", "0.55",
                   "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == ("outcome,route,parameter,value,window_lower,window_upper,"
                            "pair,witness,neg_AB,neg_AC,neg_BC")
        assert lines[1].split(",")[0] == "genuine"

    def test_pair_and_witness_flags_change_certificate(self, capsys):
        assert run("analyze", "--family", "pure-W-class-1", "--param", "0.92",
                   "--pair", "AC", "--witness", "xz") == 0
        out = capsys.readouterr().out
        assert "pair A-C, witness xz" in out
        assert "regime: detected" in out

    def test_witness_file_joins_search(self, tmp_path, capsys):
        from svetlichny.operators import plane_witness
        path = tmp_path / "w.mat"
        path.write_text(cli.format_matrix_text(plane_witness("xz")))
        assert run("analyze", "--family", "pure-W-class-1", "--param", "0.92",
                   "--witness", str(path)) == 0
        assert "witness user" in capsys.readouterr().out

    def test_analyze_solve_counts(self, solves, capsys, monkeypatch):
        # one record per pair serves the negativities, the certificate and
        # the search: the state once (by validation), one stack of the
        # three pairs and their transposes, and one stack of the three
        # pairs' products; each certificate adds its witness, the report
        # alone solves P_max, and no plane witness is rebuilt
        calls = []
        solver = linalg._solve

        def counted(m, vectors):
            calls.append(np.shape(m)[-1])
            return solver(m, vectors)

        monkeypatch.setattr(linalg, "_solve", counted)
        solves.clear()
        assert run("analyze", "--family", "identity-W", "--param", "0.82",
                   "--format", "json") == 0
        capsys.readouterr()
        assert solves[8] == 4 and solves[4] == 8 and solves[3] == 1, solves
        assert solves[2] == 0, solves
        assert calls.count(8) == 2, calls
        # GHZ has no entangled pair, so no route is formed, but its records
        # hold their products all the same
        solves.clear()
        calls.clear()
        assert run("analyze", "--ref", "GHZ", "--format", "json") == 2
        capsys.readouterr()
        assert solves[8] == 4 and solves[4] == 6, solves
        assert calls.count(8) == 2, calls
        # the certificate and the search share the pair's record and its
        # (AC, xy) candidate with its witness congruence
        solves.clear()
        assert run("analyze", "--family", "identity-W", "--param", "0.82",
                   "--pair", "AC", "--format", "json") == 0
        capsys.readouterr()
        assert solves[8] == 4 and solves[4] == 7 and solves[3] == 1, solves

    def test_analyze_accepts_state_with_tolerated_negative_eigenvalues(
            self, tmp_path, capsys):
        m = np.diag([1 + 1.8e-9, 0, 0, 0, 0, 0, -0.9e-9, -0.9e-9]).astype(complex)
        path = tmp_path / "edge.mat"
        path.write_text(cli.format_matrix_text(m))
        assert run("analyze", "--matrix", str(path)) in (0, 1, 2)
        capsys.readouterr()

    def test_vacuous_cap_still_reports(self, tmp_path, capsys):
        # P_max = 0.8051 exceeds 3/4 + K (K = 0.00111) on pair AB under xz:
        # every weight keeps the strength positive, so the cap is 1
        gen = np.random.default_rng(15)
        ket = corpus.random_pure(gen, 8)
        path = tmp_path / "vacuous.mat"
        path.write_text(cli.format_matrix_text(np.outer(ket, ket.conj())))
        run("analyze", "--matrix", str(path), "--pair", "AB", "--witness", "xz",
            "--format", "json")
        report = json.loads(capsys.readouterr().out)["report"]
        assert report is not None
        assert report["regime"] == "undetected"
        assert report["intermediates"]["r"] == 0.5

    def test_k_not_positive_leaves_report_unavailable(self, tmp_path, capsys):
        # pair AC under xz has K = -0.0643: no strength to report, while
        # the search still fires on AC under xy
        gen = np.random.default_rng(0)
        for _ in range(5):
            ket = corpus.random_pure(gen, 8)
        path = tmp_path / "k-negative.mat"
        path.write_text(cli.format_matrix_text(np.outer(ket, ket.conj())))
        assert run("analyze", "--matrix", str(path), "--pair", "AC", "--witness", "xz") == 0
        out = capsys.readouterr().out
        assert "  unavailable: the cap needs K > 0, got -0.06429993149031794\n" in out
        assert "verdict: genuine\n  route undetected-p, pair A-C, witness xy\n" in out

    def test_eigenvectors_are_solved_only_where_a_root_reads_them(self, monkeypatch, capsys):
        # the state's validation and the three reductions; every product,
        # partial transpose, witness maximum and T^t T is a spectrum alone
        calls = []
        for name in ("eigh", "eigvalsh"):
            def solver(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, solver)
        assert run("analyze", "--family", "identity-W", "--param", "0.82") == 0
        assert "verdict: genuine" in capsys.readouterr().out
        assert [shape for name, shape in calls if name == "eigh"] == [(1, 8, 8), (3, 4, 4)]
        assert {name for name, _ in calls} == {"eigh", "eigvalsh"}


class TestOptimizeCommand:
    def test_ghz_text_output(self, capsys):
        assert run("optimize", "--ref", "GHZ", "--restarts", "6") == 0
        out = capsys.readouterr().out
        assert "5.656854" in out
        assert "theta" in out

    def test_json_reports_seed_and_settings(self, capsys):
        assert run("optimize", "--ref", "GHZ", "--restarts", "2", "--seed", "3",
                   "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["seed"], payload["backend"]) == (3, "gradient")
        assert run("optimize", "--ref", "Bell-Phi+", "--target", "chsh",
                   "--restarts", "6", "--seed", "3", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)
        assert set(payload["settings"]) == {"A0", "A1", "B0", "B1"}

    def test_chsh_reads_no_ascent_setting(self, capsys):
        # the exact target ignores values the ascent would reject, and reports neither
        assert run("optimize", "--ref", "Bell-Phi+", "--target", "chsh", "--restarts", "0",
                   "--seed", "-1", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert "seed" not in payload and "backend" not in payload
        assert run("optimize", "--ref", "Bell-Phi+", "--target", "chsh", "--seed", "-1") == 0
        assert "restarts: 1\n" in capsys.readouterr().out

    def test_iteration_cap_is_not_a_flag(self, capsys):
        assert run("optimize", "--ref", "GHZ", "--max-iterations", "5") == 64
        assert "--max-iterations" in capsys.readouterr().err

    def test_env_seed_respected(self, capsys):
        assert run("optimize", "--ref", "W", "--restarts", "4",
                   "--format", "json") == 0
        first = json.loads(capsys.readouterr().out)
        assert first["seed"] == 1729
        assert run("optimize", "--ref", "W", "--restarts", "4",
                   "--format", "json") == 0
        second = json.loads(capsys.readouterr().out)
        assert first["value"] == second["value"]
        assert first["settings"] == second["settings"]

    def test_json_reports_restart_statistics(self, capsys):
        assert run("optimize", "--ref", "GHZ", "--restarts", "6",
                   "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert 1 <= payload["restarts_at_best"] <= 6
        assert payload["restarts_capped"] == 0
        assert 0.0 <= payload["restart_spread"] <= 1e-6
        assert run("optimize", "--ref", "GHZ", "--restarts", "6") == 0
        lines = capsys.readouterr().out.splitlines()
        assert (f"restarts within 1e-6 of best: {payload['restarts_at_best']}, "
                f"capped: 0, spread: {payload['restart_spread']:.3g}") in lines

    def test_negative_seed_is_sixty_five(self, capsys):
        assert run("optimize", "--ref", "GHZ", "--seed", "-1") == 65
        err = capsys.readouterr().err
        assert "seed" in err
        assert "Traceback" not in err
        assert run("optimize", "--ref", "GHZ", "--restarts", "0") == 65
        assert "restarts" in capsys.readouterr().err

    def test_chsh_on_three_qubits_requires_pair(self, capsys):
        assert run("optimize", "--ref", "GHZ", "--target", "chsh") == 65
        assert run("optimize", "--ref", "GHZ", "--target", "chsh",
                   "--pair", "BC", "--restarts", "4") == 0
        capsys.readouterr()

    def test_pair_without_use_is_sixty_four(self, capsys):
        # --pair only reduces a three-qubit state for the chsh target
        assert run("optimize", "--ref", "GHZ", "--pair", "AC") == 64
        assert "--pair" in capsys.readouterr().err
        assert run("optimize", "--ref", "Bell-Phi+", "--target", "chsh",
                   "--pair", "AC") == 64
        assert "--pair" in capsys.readouterr().err


class TestReproduceCommand:
    def test_writes_text_and_csv(self, tmp_path, capsys):
        assert run("reproduce", "--table", "1", "--out", str(tmp_path)) == 0
        assert (tmp_path / "table_1.txt").exists()
        assert (tmp_path / "table_1.csv").exists()
        csv_text = (tmp_path / "table_1.csv").read_text()
        assert csv_text.count("\n") == 5
        capsys.readouterr()

    def test_discrepancies_do_not_change_exit(self, tmp_path, capsys):
        assert run("reproduce", "--table", "5", "--out", str(tmp_path)) == 0
        assert "discrepancy" in capsys.readouterr().out

    def test_all_tables_and_erratum(self, tmp_path, capsys):
        err = tmp_path / "erratum.json"
        assert run("reproduce", "--out", str(tmp_path),
                   "--erratum", str(err)) == 0
        for which in range(1, 6):
            assert (tmp_path / f"table_{which}.txt").exists()
        entries = json.loads(err.read_text())
        assert len(entries) == 19
        capsys.readouterr()

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Table numbers in the order reproduce_table is called."""
        calls = []
        table = reproduce.reproduce_table
        monkeypatch.setattr(reproduce, "reproduce_table",
                            lambda which: calls.append(which) or table(which))
        return calls

    def test_each_result_evaluated_once(self, tmp_path, evaluated, solves, capsys):
        # the erratum renders the printed rows and the closed-form checks,
        # and each family state is built once per grid point, so no 8x8 or
        # 3x3 matrix is diagonalized twice
        solves.clear()
        assert run("reproduce", "--out", str(tmp_path),
                   "--erratum", str(tmp_path / "erratum.json")) == 0
        capsys.readouterr()
        assert evaluated == [1, 2, 3, 4, 5]
        assert solves[8] == 508 and solves[3] == 12, solves

    def test_erratum_covers_every_table_whichever_is_shown(self, tmp_path, evaluated,
                                                           capsys):
        for shown in ("all", "3"):
            evaluated.clear()
            assert run("reproduce", "--table", shown, "--out", str(tmp_path / shown),
                       "--erratum", str(tmp_path / f"{shown}.json")) == 0
            assert evaluated == [1, 2, 3, 4, 5]
        assert "table 3 " in capsys.readouterr().out
        assert not (tmp_path / "3" / "table_1.txt").exists()
        assert (tmp_path / "3.json").read_bytes() == (tmp_path / "all.json").read_bytes()


class TestJsonWriter:
    """The CLI's one json.dumps call raises TypeError on a value that is
    neither a dataclass nor something json can print."""

    @pytest.mark.parametrize("value", [
        np.int64(1), object(), {1, 2}, [0.5, {"a": np.int64(1)}],
    ], ids=["np.int64", "object", "set", "nested-np.int64"])
    def test_unprintable_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)


def _json_outputs(tmp_path) -> dict[str, str]:
    """Every kind of JSON text the CLI writes, each ending in its newline."""
    witness = tmp_path / "w.mat"
    witness.write_text(cli.format_matrix_text(operators.plane_witness("xz")))
    named = tmp_path / 'état "q".mat'
    named.write_text(cli.format_matrix_text(states.make_example("identity-W", 0.82).matrix))
    calls = {
        "analyze-family": ["analyze", "--family", "identity-W", "--param", "0.82"],
        "analyze-product": ["analyze", "--ref", "product-000"],
        "analyze-witness-file": ["analyze", "--matrix", str(named), "--witness", str(witness)],
        "optimize-svetlichny": ["optimize", "--ref", "GHZ", "--restarts", "2"],
        "optimize-chsh": ["optimize", "--ref", "Bell-Phi+", "--target", "chsh"],
    }
    outputs = {}
    for name, argv in calls.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            run(*argv, "--format", "json")
        outputs[name] = stdout.getvalue()
    erratum = tmp_path / "erratum.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("reproduce", "--out", str(tmp_path), "--erratum", str(erratum)) == 0
    outputs["erratum"] = erratum.read_text(encoding="utf-8")
    return outputs


class TestJsonOutputs:
    def test_each_output_is_its_own_json_dumps(self, tmp_path):
        # json.dumps(json.loads(text)) gives the text back: this oracle
        # reads only the printed bytes, never the writer
        outputs = _json_outputs(tmp_path)
        assert json.loads(outputs["analyze-product"])["report"] is None
        assert isinstance(json.loads(outputs["analyze-product"])["report_error"], str)
        assert r'\u00e9tat \"q\".mat",' in outputs["analyze-witness-file"]
        for name, text in outputs.items():
            assert text.endswith("\n"), name
            assert json.dumps(json.loads(text)) == text[:-1], name

    @pytest.mark.parametrize("argv", [
        ["analyze", "--family", "identity-W", "--param", "0.82", "--format", "json"],
        ["optimize", "--ref", "GHZ", "--restarts", "2", "--format", "json"],
        ["reproduce", "--table", "1", "--out", ".", "--erratum", "erratum.json"],
    ], ids=["analyze", "optimize", "reproduce-erratum"])
    def test_call_leaves_no_cyclic_garbage(self, argv, tmp_path, monkeypatch, capsys):
        # json's pure-Python encoder left its closures as cycles on every
        # call, which kept the collector running in a long-lived process
        monkeypatch.chdir(tmp_path)
        run(*argv)  # warm-up: first-call caches and imports
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            run(*argv)
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert unreachable == 0


class TestConsoleScript:
    """The `svet` console script declared in pyproject.toml.

    An installed checkout puts a generated `svet` script on PATH that runs
    `sys.exit(main())`, with `main()` reading `sys.argv[1:]`. The first
    test runs the declared entry point the same way from a fresh
    interpreter, so it needs no installation; the second runs the real
    script where one is installed.
    """

    @staticmethod
    def _declared_entry_point() -> EntryPoint:
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        return EntryPoint(name="svet", value=scripts["svet"],
                          group="console_scripts")

    @staticmethod
    def _reproduce_table_1(command, tmp_path, env=None):
        out = tmp_path / "reports"
        done = subprocess.run([*command, "reproduce", "--table", "1",
                               "--out", str(out)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env)
        assert done.returncode == 0, done.stderr
        assert (out / "table_1.csv").exists()

    def test_entry_point_installed(self, tmp_path):
        entry = self._declared_entry_point()
        head = entry.attr.split(".")[0]
        code = (f"import sys; from {entry.module} import {head}; "
                f"sys.exit({entry.attr}())")
        # the child starts in tmp_path, where a relative source path from
        # the parent's PYTHONPATH no longer resolves
        self._reproduce_table_1([sys.executable, "-c", code], tmp_path, _child_env())

    @pytest.mark.skipif(shutil.which("svet") is None,
                        reason="no installed svet script on PATH")
    def test_installed_script_runs(self, tmp_path):
        self._reproduce_table_1([shutil.which("svet")], tmp_path)
