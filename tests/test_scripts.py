"""End-to-end checks of the command-line scripts under scripts/."""

import csv
import importlib.util
import os
import shutil

import pytest


def load_script(repo_root, name):
    path = os.path.join(repo_root, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def test_make_bench_pack_regenerates_the_bundled_pack(repo_root, pack_dir, tmp_path):
    make_bench_pack = load_script(repo_root, "make_bench_pack")
    out = tmp_path / "pack"
    assert make_bench_pack.main(["--out-dir", str(out)]) == 0
    names = sorted(os.listdir(pack_dir))
    assert len(names) == 200
    assert sorted(os.listdir(out)) == names
    for name in names:
        with open(os.path.join(pack_dir, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


def test_run_ab_writes_runs_scatter_and_cactus(repo_root, pack_dir, tmp_path, capsys):
    run_ab = load_script(repo_root, "run_ab")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("sat_000.cnf", "sat_001.cnf", "unsat_000.cnf", "unsat_001.cnf"):
        shutil.copy(os.path.join(pack_dir, name), corpus / name)
    out = tmp_path / "ab"
    assert run_ab.main(["--corpus", str(corpus), "--out-dir", str(out)]) == 0

    runs = csv_rows(out / "runs.csv")
    assert len(runs) == 8
    solved = [r for r in runs if r[2] in ("SAT", "UNSAT")]
    assert len(solved) == 8
    assert len(csv_rows(out / "scatter.csv")) == 4
    cactus = csv_rows(out / "cactus.csv")
    assert len(cactus) == len(solved)
    assert sorted({r[0] for r in cactus}) == [run_ab.LABEL_A, run_ab.LABEL_B]
    assert "wrote runs.csv, cactus.csv, scatter.csv" in capsys.readouterr().out


@pytest.mark.parametrize("limit", ["nan", "0", "inf"])
@pytest.mark.parametrize("name", ["run_ab"])
def test_scripts_reject_bad_limits_with_exit_two(repo_root, pack_dir, tmp_path, capsys,
                                                  name, limit):
    script = load_script(repo_root, name)
    out = tmp_path / "out"
    argv = ["--out-dir", str(out), "--time-limit", limit, "--corpus", pack_dir]
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not out.exists()
