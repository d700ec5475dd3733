import os
import subprocess
import sys

import pytest

from chronosat.cli import PRESETS, main
from chronosat.dimacs import write_dimacs
from chronosat.gen import pigeonhole, random_ksat

SAT_TEXT = "p cnf 2 2\n1 2 0\n-1 0\n"
UNSAT_TEXT = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def stat_lines(captured):
    return [l for l in captured.out.splitlines() if l.startswith("c stat ")]


# -- solve ----------------------------------------------------------------------


def test_solve_sat_exit_code_and_output(tmp_path, capsys):
    rc = main(["solve", write(tmp_path, "s.cnf", SAT_TEXT)])
    out = capsys.readouterr().out
    assert rc == 10
    assert "s SATISFIABLE" in out
    assert any(line.startswith("v ") for line in out.splitlines())
    assert "c stat conflicts=" in out
    assert "c time wall_s=" in out


def test_solve_unsat_exit_code(tmp_path, capsys):
    rc = main(["solve", write(tmp_path, "u.cnf", UNSAT_TEXT)])
    out = capsys.readouterr().out
    assert rc == 20
    assert "s UNSATISFIABLE" in out
    assert "v " not in out


def test_solve_timeout_exits_zero(tmp_path, capsys):
    path = write(tmp_path, "hard.cnf", write_dimacs(pigeonhole(8, 7)))
    rc = main(["solve", path, "--time-limit", "0.05"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "s UNKNOWN" in out


def test_solve_missing_file_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "/nonexistent/nope.cnf"])
    assert exc.value.code == 2


def test_solve_malformed_cnf_exits_two(tmp_path, capsys):
    path = write(tmp_path, "bad.cnf", "p cnf nope\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", path])
    assert exc.value.code == 2


def test_unknown_flag_exits_two(tmp_path):
    path = write(tmp_path, "s.cnf", SAT_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_value_exits_two(tmp_path):
    path = write(tmp_path, "s.cnf", SAT_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--dps-decay", "7.0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("limit", ["nan", "inf"])
def test_non_finite_time_limit_exits_two(tmp_path, capsys, command, limit):
    path = write(tmp_path, "s.cnf", SAT_TEXT)
    args = [command, "--time-limit", limit]
    if command == "solve":
        args.append(path)
    else:
        args += [str(tmp_path), "--out", str(tmp_path / "r.csv")]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_bad_config_exits_two_before_reading_the_cnf(tmp_path, capsys):
    path = write(tmp_path, "t.cnf", "p cnf 2 2\n1 -1 0\n2 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", path, "--time-limit", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "finite and positive" in err
    assert not any(line.startswith("c warning") for line in err.splitlines())


def test_parser_warnings_go_to_stderr(tmp_path, capsys):
    text = "p cnf 2 5\n1 2 0\n-1 0\n"  # declared 5 clauses, provided 2
    rc = main(["solve", write(tmp_path, "w.cnf", text)])
    captured = capsys.readouterr()
    assert rc == 10
    assert "c warning" in captured.err
    assert "c warning" not in captured.out


def test_solve_reads_a_comment_holding_a_form_feed_as_a_comment(tmp_path, capsys):
    path = write(tmp_path, "f.cnf", "p cnf 1 2\nc note\f-1 0\n1 0\n")
    rc = main(["solve", path])
    captured = capsys.readouterr()
    assert rc == 10
    assert "c warning: line 3: header declares 2 clauses, found 1" in captured.err


# -- presets and determinism ------------------------------------------------------


def test_preset_names_are_pinned():
    assert sorted(PRESETS) == ["mldc-like", "mldc-lsids-like"]


def test_preset_equals_its_explicit_flags(tmp_path, capsys):
    path = write(tmp_path, "r.cnf", write_dimacs(random_ksat(30, ratio=4.4, seed=4)))
    rc1 = main(["solve", path, "--preset", "mldc-lsids-like"])
    first = stat_lines(capsys.readouterr())
    rc2 = main(
        [
            "solve",
            path,
            "--phase-ncb",
            "saved",
            "--phase-cb",
            "lsids",
            "--cb-threshold-t",
            "100",
            "--cb-min-conflicts-c",
            "4000",
        ]
    )
    second = stat_lines(capsys.readouterr())
    assert rc1 == rc2
    assert first == second


def test_explicit_flag_overrides_preset(tmp_path, capsys):
    path = write(tmp_path, "r.cnf", write_dimacs(random_ksat(30, ratio=4.4, seed=4)))
    main(["solve", path, "--preset", "mldc-like"])
    base = stat_lines(capsys.readouterr())
    main(["solve", path, "--preset", "mldc-like", "--cb-min-conflicts-c", "0",
          "--cb-threshold-t", "0"])
    overridden = stat_lines(capsys.readouterr())
    assert base != overridden  # the override changed backtracking behaviour
    cb_line = [l for l in overridden if "cb_backtracks" in l and "ncb" not in l][0]
    assert int(cb_line.split("=")[1]) > 0


def test_python_m_chronosat_runs_the_cli(repo_root, capsys):
    path = os.path.join(repo_root, "benchmarks", "pack50", "sat_000.cnf")
    assert main(["solve", path]) == 10
    expected = stat_lines(capsys.readouterr())
    child = subprocess.run(
        [sys.executable, "-m", "chronosat", "solve", path],
        env=dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src")),
        capture_output=True,
        text=True,
    )
    assert child.returncode == 10
    assert [l for l in child.stdout.splitlines() if l.startswith("c stat ")] == expected
    assert len(expected) == 8


# -- verify -----------------------------------------------------------------------


def test_verify_good_model(tmp_path, capsys):
    cnf = write(tmp_path, "s.cnf", SAT_TEXT)
    model = write(tmp_path, "m.txt", "v -1 2 0\n")
    assert main(["verify", cnf, model]) == 0


def test_verify_bare_integers_model(tmp_path):
    cnf = write(tmp_path, "s.cnf", SAT_TEXT)
    model = write(tmp_path, "m.txt", "-1 2\n")
    assert main(["verify", cnf, model]) == 0


def test_verify_full_solver_output_as_model(tmp_path):
    cnf = write(tmp_path, "s.cnf", SAT_TEXT)
    model = write(tmp_path, "m.txt", "c comment\ns SATISFIABLE\nv -1\nv 2 0\n")
    assert main(["verify", cnf, model]) == 0


def test_verify_reads_files_that_start_with_a_byte_order_mark(tmp_path):
    cnf = tmp_path / "s.cnf"
    cnf.write_text(SAT_TEXT, encoding="utf-8-sig")
    model = tmp_path / "m.txt"
    model.write_text("v -1 2 0\n", encoding="utf-8-sig")
    assert main(["verify", str(cnf), str(model)]) == 0


def test_verify_reads_a_model_comment_holding_a_form_feed(tmp_path):
    cnf = write(tmp_path, "s.cnf", SAT_TEXT)
    model = write(tmp_path, "m.txt", "c from\f x\nv -1 2 0\n")
    assert main(["verify", cnf, model]) == 0


def test_verify_falsifying_model_exits_one(tmp_path, capsys):
    cnf = write(tmp_path, "s.cnf", SAT_TEXT)
    model = write(tmp_path, "m.txt", "1 2 0\n")  # violates the unit clause -1
    rc = main(["verify", cnf, model])
    assert rc == 1
    assert "falsifies clause" in capsys.readouterr().out


@pytest.mark.parametrize(
    "model_text",
    ["1 0\n", "1 2 3 0\n", "1 1 -2 0\n", "1 x 0\n", "1 -2 0 5\n"],
    ids=["missing-var", "over-count", "duplicate", "junk-token", "after-zero"],
)
def test_verify_malformed_models_exit_two(tmp_path, capsys, model_text):
    cnf = write(tmp_path, "s.cnf", SAT_TEXT)
    model = write(tmp_path, "m.txt", model_text)
    with pytest.raises(SystemExit) as exc:
        main(["verify", cnf, model])
    assert exc.value.code == 2
    assert f"{model}: line 1: " in capsys.readouterr().err


def test_verify_undecodable_model_exits_two(tmp_path, capsys):
    cnf = write(tmp_path, "s.cnf", SAT_TEXT)
    model = tmp_path / "m.txt"
    model.write_bytes(b"v -1 \xff 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", cnf, str(model)])
    assert exc.value.code == 2
    assert "line 1: invalid literal" in capsys.readouterr().err


# -- bench ------------------------------------------------------------------------


def test_bench_writes_csv_row_per_instance(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.cnf").write_text(SAT_TEXT)
    (corpus / "b.cnf").write_text(UNSAT_TEXT)
    out = str(tmp_path / "r.csv")
    rc = main(
        ["bench", str(corpus), "--phase-cb", "lsids", "--time-limit", "60", "--out", out]
    )
    assert rc == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("instance,configLabel,verdict,")
    assert len(lines) == 3
    assert lines[1].startswith("a.cnf,custom,SAT,")
    assert lines[2].startswith("b.cnf,custom,UNSAT,")
    assert "c bench par2=" in capsys.readouterr().out


def test_bench_label_defaults_to_preset(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.cnf").write_text(SAT_TEXT)
    out = str(tmp_path / "r.csv")
    assert main(["bench", str(corpus), "--preset", "mldc-like", "--out", out]) == 0
    with open(out) as fh:
        assert ",mldc-like," in fh.read().splitlines()[1]


def test_bench_empty_corpus_exits_two(tmp_path):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(corpus), "--out", str(tmp_path / "r.csv")])
    assert exc.value.code == 2


def test_bench_on_a_file_exits_two(tmp_path, capsys):
    path = write(tmp_path, "some.cnf", SAT_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["bench", path, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"not a directory: {path}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("out", ["missing/r.csv", "."], ids=["missing-dir", "dir"])
def test_bench_unwritable_out_exits_two_before_the_suite(
    tmp_path, capsys, monkeypatch, out
):
    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran before --out was checked")

    monkeypatch.setattr("chronosat.cli.run_suite", run_suite)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.cnf").write_text(SAT_TEXT)
    out = str(tmp_path / out)
    with pytest.raises(SystemExit) as exc:
        main(["bench", str(corpus), "--out", out])
    assert exc.value.code == 2
    assert f"cannot write {out}: " in capsys.readouterr().err


def test_bench_keeps_an_existing_csv_when_the_suite_fails(tmp_path):
    path = write(tmp_path, "some.cnf", SAT_TEXT)
    out = tmp_path / "r.csv"
    out.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        main(["bench", path, "--out", str(out)])
    assert exc.value.code == 2
    assert out.read_text() == "kept\n"


def test_no_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
