import csv
import gc
import os
import re
from dataclasses import fields, replace
from enum import Enum

import pytest
from hypothesis import given, strategies as st

from chronosat import bench, dimacs, engine
from chronosat.bench import (
    COUNTER_NAMES,
    CSV_HEADER,
    RunRecord,
    cactus_points,
    discover_instances,
    par2_score,
    read_csv,
    run_instance,
    run_suite,
    scatter_points,
    search_key,
    write_csv,
)
from chronosat.cli import PRESETS
from chronosat.dimacs import parse_dimacs_file, write_dimacs
from chronosat.engine import solve_formula
from chronosat.gen import pigeonhole, random_ksat
from chronosat.model import PhaseHeuristic, SolverConfig

SAT_TEXT = "p cnf 2 2\n1 2 0\n-1 0\n"
UNSAT_TEXT = "p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n"
# Two texts of the same length with different verdicts.
SAT_TWIN = "p cnf 2 2\n1 0\n-2 0\n"
UNSAT_TWIN = "p cnf 2 2\n1 0\n-1 0\n"


def untimed(record):
    return replace(record, time_s=0.0)


def count_engine_solves(monkeypatch):
    """Patch engine.solve_formula to log its calls; returns the log."""
    calls = []
    original = engine.solve_formula

    def counting(formula, config=None):
        calls.append(config)
        return original(formula, config)

    monkeypatch.setattr(engine, "solve_formula", counting)
    return calls


def rec(instance="i", label="a", verdict="SAT", time_s=1.0, timed_out=False, **kw):
    return RunRecord(instance, label, verdict, time_s, timed_out, **kw)


# -- PAR-2 ---------------------------------------------------------------------


def test_par2_all_solved_is_mean_time():
    rows = [rec(time_s=2.0), rec(time_s=4.0)]
    assert par2_score(rows, time_limit=10.0) == 3.0


def test_par2_unsolved_costs_twice_the_limit():
    rows = [rec(time_s=100.0), rec(verdict="UNKNOWN", time_s=5000.0, timed_out=True)]
    assert par2_score(rows, time_limit=5000.0) == 5050.0


def test_par2_error_rows_count_as_unsolved():
    rows = [rec(verdict="ERROR", time_s=0.0)]
    assert par2_score(rows, time_limit=3.0) == 6.0


def test_par2_rejects_empty_and_bad_limit():
    with pytest.raises(ValueError):
        par2_score([], 10.0)
    with pytest.raises(ValueError):
        par2_score([rec()], 0.0)


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8), st.permutations(range(8)))
def test_par2_is_permutation_invariant(times, perm):
    rows = [rec(instance=f"i{k}", time_s=t) for k, t in enumerate(times)]
    shuffled = [rows[p] for p in perm if p < len(rows)]
    if len(shuffled) == len(rows):
        assert par2_score(shuffled, 10.0) == pytest.approx(par2_score(rows, 10.0))


# -- CSV -----------------------------------------------------------------------


def test_csv_header_is_pinned():
    assert CSV_HEADER == [
        "instance",
        "configLabel",
        "verdict",
        "time_s",
        "timed_out",
        "conflicts",
        "decisions",
        "propagations",
        "restarts",
        "cb_backtracks",
        "ncb_backtracks",
        "lsids_decisions",
        "lsids_differs_saved",
    ]


def test_csv_roundtrip(tmp_path):
    counters = dict(zip(COUNTER_NAMES, range(11, 19)))
    rows = [
        rec(instance="x.cnf", label="cfg1", verdict="UNSAT", time_s=0.25, **counters),
        rec(instance="y.cnf", label="cfg1", verdict="UNKNOWN", timed_out=True),
    ]
    path = str(tmp_path / "out.csv")
    write_csv(rows, path)
    with open(path) as fh:
        raw = list(csv.reader(fh))
    assert raw[0] == CSV_HEADER
    assert raw[1][:3] == ["x.cnf", "cfg1", "UNSAT"]
    assert raw[1][5:] == [str(v) for v in range(11, 19)]
    assert raw[2][4] == "true"
    back = read_csv(path)
    assert [r.instance for r in back] == ["x.cnf", "y.cnf"]
    assert {name: getattr(back[0], name) for name in COUNTER_NAMES} == counters
    assert all(getattr(back[1], name) == 0 for name in COUNTER_NAMES)
    assert back[0].timed_out is False and back[1].timed_out is True
    assert back[0].time_s == pytest.approx(0.25)


def _read_csv_error(tmp_path, bad):
    """The message read_csv raises on a file whose third line is `bad`."""
    path = str(tmp_path / "bad.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerow(rec(instance="x.cnf").as_csv_row())
        writer.writerow(bad)
    with pytest.raises(ValueError) as exc:
        read_csv(path)
    assert str(exc.value).startswith(f"{path}: line 3: ")
    return str(exc.value)


@pytest.mark.parametrize("width", [7, len(CSV_HEADER) + 1])
def test_read_csv_rejects_rows_of_the_wrong_width(tmp_path, width):
    bad = (rec(instance="x.cnf").as_csv_row() * 2)[:width]
    message = _read_csv_error(tmp_path, bad)
    assert f"line 3: expected {len(CSV_HEADER)} fields, got {width}" in message


@pytest.mark.parametrize(
    "column, value, expected",
    [
        (2, "MAYBE", "unknown verdict 'MAYBE'"),
        (4, "yes", "timed_out is 'yes'"),
        (3, "abc", "non-numeric field"),
        (5, "abc", "non-numeric field"),
        (len(CSV_HEADER) - 1, "1.5", "non-numeric field"),
        (3, "nan", "time_s is 'nan', expected a finite number >= 0"),
        (3, "inf", "time_s is 'inf', expected a finite number >= 0"),
        (3, "-3", "time_s is '-3', expected a finite number >= 0"),
        (5, "-1", "conflicts is -1, expected a count >= 0"),
        (len(CSV_HEADER) - 1, "-2", "lsids_differs_saved is -2, expected a count >= 0"),
    ],
    ids=[
        "verdict",
        "timed_out",
        "time_s",
        "first-counter",
        "last-counter",
        "time_s-nan",
        "time_s-inf",
        "time_s-negative",
        "first-counter-negative",
        "last-counter-negative",
    ],
)
def test_read_csv_rejects_a_malformed_field(tmp_path, column, value, expected):
    bad = rec(instance="x.cnf").as_csv_row()
    bad[column] = value
    assert expected in _read_csv_error(tmp_path, bad)


@pytest.mark.parametrize(
    "fields, expected",
    [
        (dict(timed_out=True), "timed_out is 'true' with verdict SAT"),
        (dict(verdict="UNKNOWN"), "timed_out is 'false' with verdict UNKNOWN"),
        (dict(verdict="ERROR", timed_out=True), "timed_out is 'true' with verdict ERROR"),
        (dict(verdict="ERROR"), "ERROR row with a nonzero time_s or counter"),
        (dict(verdict="ERROR", time_s=0.0, restarts=1), "ERROR row with a nonzero"),
        ({}, "second row for instance 'x.cnf' under configLabel 'a'"),
    ],
    ids=[
        "sat-timed-out",
        "unknown-not-timed-out",
        "error-timed-out",
        "error-time",
        "error-counter",
        "repeated-key",
    ],
)
def test_read_csv_rejects_a_row_run_instance_never_writes(tmp_path, fields, expected):
    bad = rec(instance="x.cnf", **fields).as_csv_row()
    assert expected in _read_csv_error(tmp_path, bad)


def test_read_csv_reads_back_every_kind_of_row_the_harness_writes(tmp_path):
    _write(tmp_path, "sat.cnf", SAT_TEXT)
    _write(tmp_path, "bad.cnf", "p cnf 1 1\nx 0\n")
    _write(tmp_path, "hard.cnf", write_dimacs(pigeonhole(8, 7)))
    configs = [("a", SolverConfig()), ("b", SolverConfig(cb_phase_heuristic="saved"))]
    rows = run_suite(str(tmp_path), configs, time_limit=0.05)
    assert {r.verdict for r in rows} == {"SAT", "ERROR", "UNKNOWN"}
    path = str(tmp_path / "runs.csv")
    write_csv(rows, path)
    assert read_csv(path) == [replace(r, time_s=float(f"{r.time_s:.6f}")) for r in rows]


def test_read_csv_rejects_an_empty_file_naming_it(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError) as exc:
        read_csv(str(path))
    assert str(path) in str(exc.value) and "empty" in str(exc.value)


def test_read_csv_rejects_foreign_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="line 1: unexpected CSV header"):
        read_csv(path)


# -- running suites --------------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_instance_solves_and_fills_counters(tmp_path, pack_dir):
    path = _write(tmp_path, "unsat.cnf", UNSAT_TEXT)
    r = run_instance(path, "dflt", SolverConfig())
    assert r.instance == "unsat.cnf"
    assert r.verdict == "UNSAT"
    assert r.timed_out is False
    assert r.conflicts >= 1
    assert r.time_s >= 0.0
    # Under T=0, C=0 this pack instance backtracks chronologically and
    # decides with LSIDS, so every counter is copied from a nonzero source.
    path = os.path.join(pack_dir, "unsat_000.cnf")
    cfg = SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0, cb_phase_heuristic="lsids")
    r = run_instance(path, "cb", cfg)
    expected = solve_formula(parse_dimacs_file(path)[0], cfg).stats.counter_items()
    assert dict(expected)["cb_backtracks"] > 0
    assert dict(expected)["lsids_decisions"] > 0
    assert [(name, getattr(r, name)) for name in COUNTER_NAMES] == expected


def test_run_instance_turns_parse_failures_into_error_rows(tmp_path):
    path = _write(tmp_path, "broken.cnf", "this is not dimacs\n")
    r = run_instance(path, "dflt", SolverConfig())
    assert r.verdict == "ERROR"
    assert not r.solved


def test_run_suite_orders_rows_and_covers_the_matrix(tmp_path):
    _write(tmp_path, "b_unsat.cnf", UNSAT_TEXT)
    _write(tmp_path, "a_sat.cnf", SAT_TEXT)
    configs = [
        ("ncb", SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=10**9)),
        ("cb", SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0)),
    ]
    rows = run_suite(str(tmp_path), configs)
    assert [(r.instance, r.config_label) for r in rows] == [
        ("a_sat.cnf", "cb"),
        ("a_sat.cnf", "ncb"),
        ("b_unsat.cnf", "cb"),
        ("b_unsat.cnf", "ncb"),
    ]
    verdicts = {(r.instance, r.config_label): r.verdict for r in rows}
    assert verdicts[("a_sat.cnf", "cb")] == "SAT"
    assert verdicts[("b_unsat.cnf", "ncb")] == "UNSAT"


def test_run_suite_error_rows_do_not_abort_the_suite(tmp_path):
    _write(tmp_path, "ok.cnf", SAT_TEXT)
    _write(tmp_path, "bad.cnf", "p cnf oops\n")
    rows = run_suite(str(tmp_path), [("d", SolverConfig())])
    by_name = {r.instance: r for r in rows}
    assert by_name["bad.cnf"].verdict == "ERROR"
    assert by_name["ok.cnf"].verdict == "SAT"
    # An unparsable file gives one ERROR row per configuration, serially and
    # in worker processes, and the files after it still run.
    _write(tmp_path, "z_ok.cnf", UNSAT_TEXT)
    configs = [(label, SolverConfig()) for label in ("x", "y", "z")]
    for workers in (1, 2):
        rows = run_suite(str(tmp_path), configs, workers=workers)
        assert [(r.instance, r.config_label, r.verdict) for r in rows] == [
            *(("bad.cnf", label, "ERROR") for label in "xyz"),
            *(("ok.cnf", label, "SAT") for label in "xyz"),
            *(("z_ok.cnf", label, "UNSAT") for label in "xyz"),
        ]
        assert all(r.time_s == 0.0 and not r.timed_out for r in rows[:3])


def test_run_suite_parses_each_file_once_and_runs_every_job(tmp_path, pack_dir, monkeypatch):
    paths = [os.path.join(pack_dir, f"{kind}_000.cnf") for kind in ("sat", "unsat")]
    paths.append(_write(tmp_path, "small.cnf", UNSAT_TEXT))
    configs = [
        ("a", SolverConfig()),
        ("b", SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0)),
        ("c", SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0, cb_phase_heuristic="lsids")),
    ]
    expected = [
        run_instance(path, label, cfg) for path in paths for label, cfg in configs
    ]
    expected.sort(key=lambda r: (r.instance, r.config_label))
    parses, jobs = [], []
    original_parse, original_job = bench.parse_dimacs_file, bench.run_instance

    def counting_parse(path):
        parses.append(path)
        return original_parse(path)

    def counting_job(path, label, config):
        jobs.append((path, label))
        return original_job(path, label, config)

    monkeypatch.setattr(bench, "parse_dimacs_file", counting_parse)
    monkeypatch.setattr(bench, "run_instance", counting_job)
    rows = run_suite(paths, configs)
    assert parses == paths
    # Every job still goes through the module's run_instance, where callers
    # such as the benchmark's model re-check wrap it.
    assert sorted(jobs) == sorted((p, label) for p in paths for label, _ in configs)
    assert bench._current_file is None
    assert [untimed(r) for r in rows] == [untimed(r) for r in expected]


def test_a_file_rewritten_to_the_same_size_is_read_again(tmp_path):
    path = _write(tmp_path, "twin.cnf", SAT_TWIN)
    assert len(SAT_TWIN) == len(UNSAT_TWIN)
    stat = os.stat(path)

    def rewrite(text):
        with open(path, "w") as fh:
            fh.write(text)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))

    configs = [("d", SolverConfig())]
    assert run_suite([path], configs)[0].verdict == "SAT"
    rewrite(UNSAT_TWIN)
    assert run_suite([path], configs)[0].verdict == "UNSAT"
    rewrite(SAT_TWIN)
    assert run_instance(path, "d", SolverConfig()).verdict == "SAT"
    rewrite(UNSAT_TWIN)
    assert run_instance(path, "d", SolverConfig()).verdict == "UNSAT"


@pytest.mark.parametrize("enabled_before", [True, False])
@pytest.mark.parametrize("job", ["solved", "error", "timeout"])
def test_run_instance_pauses_the_collector_and_restores_its_state(
    tmp_path, gc_probe, enabled_before, job
):
    if job == "solved":
        path, config = _write(tmp_path, "s.cnf", SAT_TEXT), SolverConfig()
    elif job == "error":
        # The bad token is reported from inside the parse, after the header.
        path = _write(tmp_path, "e.cnf", "p cnf 2 1\n1 oops 0\n")
        config = SolverConfig()
    else:
        path = _write(tmp_path, "t.cnf", write_dimacs(pigeonhole(8, 7)))
        config = SolverConfig(time_limit_seconds=0.05)
    # Probes inside parsing (its last step, and its token reader, which
    # all three files reach: SAT_TEXT and pigeonhole(8, 7) have mixed
    # widths, and "oops" is junk), construction and search: each library
    # call pauses the collector.
    parse = gc_probe(dimacs, "_trusted_formula")
    token_reader = gc_probe(dimacs, "_read_clauses")
    construction = gc_probe(engine, "PhaseSelector")
    search = gc_probe(engine.Solver, "_search")
    gc.enable() if enabled_before else gc.disable()
    r = run_instance(path, "d", config)
    assert gc.isenabled() is enabled_before
    assert r.verdict == {"solved": "SAT", "error": "ERROR", "timeout": "UNKNOWN"}[job]
    assert token_reader == [False]
    assert parse == ([] if job == "error" else [False])
    assert construction == search == ([] if job == "error" else [False])


def test_run_suite_applies_time_limit(tmp_path, monkeypatch):
    hard = tmp_path / "hard.cnf"
    hard.write_text(write_dimacs(pigeonhole(8, 7)))
    # The two configs have one search key, but a timed-out search is never
    # shared: its counters depend on the clock.
    configs = [("d", SolverConfig()), ("s", SolverConfig(cb_phase_heuristic="saved"))]
    solves = count_engine_solves(monkeypatch)
    rows = run_suite([str(hard)], configs, time_limit=0.05)
    assert len(solves) == 2
    assert [(r.verdict, r.timed_out) for r in rows] == [("UNKNOWN", True)] * 2


def test_run_suite_validation(tmp_path):
    with pytest.raises(ValueError):
        run_suite(str(tmp_path), [("d", SolverConfig())])  # no instances
    _write(tmp_path, "ok.cnf", SAT_TEXT)
    with pytest.raises(ValueError):
        run_suite(str(tmp_path), [])
    with pytest.raises(ValueError):
        run_suite(str(tmp_path), [("d", SolverConfig()), ("d", SolverConfig())])
    for workers in (0, 1.5, float("nan"), True):
        with pytest.raises(ValueError, match=f"got {workers!r}$"):
            run_suite(str(tmp_path), [("d", SolverConfig())], workers=workers)
    with pytest.raises(ValueError):
        discover_instances([])


def test_run_suite_rejects_a_path_that_is_not_a_directory(tmp_path):
    path = _write(tmp_path, "some.cnf", SAT_TEXT)
    with pytest.raises(ValueError, match=f"not a directory: {re.escape(path)}$"):
        run_suite(path, [("d", SolverConfig())])


def test_discover_instances_rejects_a_repeated_basename(tmp_path):
    # Rows name an instance by basename, so the two files' rows would merge.
    (tmp_path / "d1").mkdir()
    (tmp_path / "d2").mkdir()
    paths = [
        _write(tmp_path / "d1", "a.cnf", SAT_TEXT),
        _write(tmp_path / "d2", "a.cnf", UNSAT_TEXT),
    ]
    with pytest.raises(ValueError, match="basename 'a.cnf'"):
        discover_instances(paths)
    with pytest.raises(ValueError, match="basename 'a.cnf'"):
        run_suite(paths, [("x", SolverConfig()), ("y", SolverConfig())])


def test_discover_instances_reads_a_directory_whose_name_is_a_glob_pattern(tmp_path):
    runs = tmp_path / "runs[1]"
    runs.mkdir()
    path = _write(runs, "x.cnf", SAT_TEXT)
    assert discover_instances(str(runs)) == [path]


def test_run_suite_takes_a_directory_as_a_path(tmp_path):
    a = _write(tmp_path, "a_sat.cnf", SAT_TEXT)
    b = _write(tmp_path, "b_unsat.cnf", UNSAT_TEXT)
    assert discover_instances(tmp_path) == [a, b]
    rows = run_suite(tmp_path, [("d", SolverConfig())])
    assert [(r.instance, r.verdict) for r in rows] == [
        ("a_sat.cnf", "SAT"),
        ("b_unsat.cnf", "UNSAT"),
    ]


def test_worker_count_does_not_change_results(tmp_path, pack_dir):
    for k in range(4):
        text = SAT_TEXT if k % 2 == 0 else UNSAT_TEXT
        _write(tmp_path, f"i{k}.cnf", text)
    configs = [("a", SolverConfig()), ("b", SolverConfig(cb_threshold_t=0, cb_min_conflicts_c=0))]
    serial = run_suite(str(tmp_path), configs, workers=1)
    threaded = run_suite(str(tmp_path), configs, workers=4)
    key = lambda r: (r.instance, r.config_label, r.verdict, r.conflicts, r.decisions)
    assert [key(r) for r in serial] == [key(r) for r in threaded]
    # Both presets share each file's search, in worker processes too: the
    # rows agree apart from time_s, and each file's two rows report one time.
    paths = [
        os.path.join(pack_dir, f"{kind}_00{i}.cnf") for kind in ("sat", "unsat") for i in range(2)
    ]
    presets = [(name, SolverConfig(**preset)) for name, preset in PRESETS.items()]
    serial = run_suite(paths, presets, workers=1)
    pooled = run_suite(paths, presets, workers=2)
    assert [untimed(r) for r in serial] == [untimed(r) for r in pooled]
    for rows in (serial, pooled):
        assert [r.time_s for r in rows[::2]] == [r.time_s for r in rows[1::2]]


# Every phase heuristic pair the sharing rule distinguishes, at cells where
# CB never fires (T=100, C=4000), fires from the first conflict (T=0, C=0;
# T=5, C=0) and fires after a warm-up (T=0, C=30), with two values of each
# field the rule leaves out unless the ncb heuristic reads it.
SHARING_GRID = [
    (
        f"{ncb}-{cb.value}-{seed}-T{t}-C{c}",
        SolverConfig(
            cb_threshold_t=t,
            cb_min_conflicts_c=c,
            ncb_phase_heuristic=ncb,
            cb_phase_heuristic=cb,
            random_seed=seed,
            dps_decay=decay,
        ),
    )
    for ncb in ("saved", "dps", "random")
    for cb in PhaseHeuristic
    for seed, decay in ((0, 0.7), (7, 0.9))
    for t, c in ((100, 4000), (0, 0), (5, 0), (0, 30))
]


def test_shared_searches_give_the_rows_of_standalone_runs(tmp_path, pack_dir, monkeypatch):
    paths = [os.path.join(pack_dir, name) for name in ("sat_000.cnf", "unsat_000.cnf")]
    for n, seed in ((40, 1), (50, 2)):
        text = write_dimacs(random_ksat(n, ratio=4.26, seed=seed))
        paths.append(_write(tmp_path, f"ksat{n}.cnf", text))
    expected = sorted(
        (run_instance(path, label, cfg) for path in paths for label, cfg in SHARING_GRID),
        key=lambda r: (r.instance, r.config_label),
    )
    solves = count_engine_solves(monkeypatch)
    rows = run_suite(paths, SHARING_GRID)
    assert [untimed(r) for r in rows] == [untimed(r) for r in expected]
    # The grid shares searches, but not all of them.
    assert len(SHARING_GRID) < len(solves) < len(rows)


def _other_values(value):
    """Values other than value that a SolverConfig field holding it accepts."""
    if isinstance(value, Enum):
        return [member for member in type(value) if member is not value]
    if value is None:
        return [1.0]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, float):
        return [value / 2]
    raise AssertionError(f"no other value known for {value!r}")


def test_search_key_ignores_only_what_the_search_cannot_read():
    # A field added to SolverConfig changes the key unless this rule says
    # otherwise, so a new knob never silently shares a search.
    for ncb in PhaseHeuristic:
        base = SolverConfig(ncb_phase_heuristic=ncb)
        for f in fields(SolverConfig):
            ignored = (
                f.name == "cb_phase_heuristic"
                or (f.name == "random_seed" and ncb is not PhaseHeuristic.RANDOM)
                or (f.name == "dps_decay" and ncb is not PhaseHeuristic.DPS)
            )
            for other in _other_values(getattr(base, f.name)):
                changed = replace(base, **{f.name: other})
                same = search_key(changed) == search_key(base)
                assert same is ignored, (ncb, f.name, other)


def test_the_file_context_is_cleared_when_a_job_raises(tmp_path, monkeypatch):
    path = _write(tmp_path, "s.cnf", SAT_TEXT)
    original, seen = bench.run_instance, []

    def interrupted(path, label, config):
        seen.append(original(path, label, config).verdict)
        raise KeyboardInterrupt

    monkeypatch.setattr(bench, "run_instance", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite([path], [("a", SolverConfig()), ("b", SolverConfig())])
    assert seen == ["SAT"]
    assert bench._current_file is None


def test_another_formula_is_solved_afresh_inside_a_files_jobs(tmp_path, monkeypatch):
    path = _write(tmp_path, "s.cnf", SAT_TEXT)
    twin = parse_dimacs_file(path)[0]  # the file's clauses, another object
    original, verdicts = bench.run_instance, []

    def job(path, label, config):
        searches = bench._current_file[2]
        before = dict(searches)
        for _ in range(2):
            verdicts.append(bench.solve_formula(twin, config).verdict.value)
        assert searches == before
        return original(path, label, config)

    monkeypatch.setattr(bench, "run_instance", job)
    solves = count_engine_solves(monkeypatch)
    # One search key: the file's own search is solved once and shared.
    configs = [("a", SolverConfig()), ("b", SolverConfig(cb_phase_heuristic="saved"))]
    rows = run_suite([path], configs)
    assert [r.verdict for r in rows] == ["SAT", "SAT"]
    assert verdicts == ["SAT"] * 4
    assert len(solves) == 4 + 1


def test_a_search_is_shared_only_when_it_makes_no_cb_state_decision(pack_dir, monkeypatch):
    paths = [os.path.join(pack_dir, f"{kind}_000.cnf") for kind in ("sat", "unsat")]
    presets = [(name, SolverConfig(**preset)) for name, preset in PRESETS.items()]
    solves = count_engine_solves(monkeypatch)
    run_suite(paths, presets)
    assert len(solves) == len(paths)
    # At T=0, C=0 both searches decide in CB state, so each config solves.
    cb_always = [
        (name, replace(cfg, cb_threshold_t=0, cb_min_conflicts_c=0)) for name, cfg in presets
    ]
    solves.clear()
    rows = run_suite(paths, cb_always)
    assert len(solves) == len(rows) == 4
    assert all(r.cb_backtracks > 0 for r in rows)


# -- plot data --------------------------------------------------------------------


def test_cactus_points_rank_sorted_times():
    rows = [
        rec(instance="a", time_s=3.0),
        rec(instance="b", time_s=1.0),
        rec(instance="c", time_s=2.0),
        rec(instance="d", verdict="UNKNOWN", time_s=9.0, timed_out=True),
    ]
    pts = cactus_points(rows)
    assert pts == {"a": [(1, 1.0), (2, 2.0), (3, 3.0)]}


def test_cactus_points_keep_labels_with_no_solves():
    rows = [rec(label="zzz", verdict="UNKNOWN", timed_out=True)]
    assert cactus_points(rows) == {"zzz": []}


def test_scatter_points_pairs_and_clamps():
    rows = [
        rec(instance="a", label="x", time_s=1.0),
        rec(instance="b", label="x", verdict="UNKNOWN", time_s=10.0, timed_out=True),
        rec(instance="a", label="y", time_s=2.0),
        rec(instance="b", label="y", time_s=0.5),
    ]
    pts = scatter_points(rows, "x", "y", time_limit=10.0)
    assert len(pts) == 2
    a, b = pts
    assert (a.instance, a.time_a, a.time_b, a.a_clamped, a.b_clamped) == (
        "a",
        1.0,
        2.0,
        False,
        False,
    )
    assert (b.time_a, b.a_clamped, b.time_b, b.b_clamped) == (20.0, True, 0.5, False)


def test_scatter_points_requires_matching_instance_sets():
    rows = [
        rec(instance="a", label="x"),
        rec(instance="a", label="y"),
        rec(instance="b", label="y"),
    ]
    with pytest.raises(ValueError):
        scatter_points(rows, "x", "y", time_limit=1.0)
    with pytest.raises(ValueError):
        scatter_points([], "x", "y", time_limit=1.0)
    with pytest.raises(ValueError):
        scatter_points(rows[:2], "x", "y", time_limit=0.0)


def test_scatter_points_rejects_a_second_record_for_one_pair():
    rows = [
        rec(instance="a", label="x", time_s=1.0),
        rec(instance="a", label="x", time_s=9.0),
        rec(instance="a", label="y"),
    ]
    with pytest.raises(ValueError, match="instance 'a' under configLabel 'x'"):
        scatter_points(rows, "x", "y", time_limit=10.0)


@pytest.mark.parametrize("limit", [float("nan"), float("inf"), True])
def test_non_finite_limits_are_rejected(tmp_path, limit):
    rows = [rec(instance="a", label="x"), rec(instance="a", label="y")]
    with pytest.raises(ValueError, match="finite and positive"):
        par2_score(rows, time_limit=limit)
    with pytest.raises(ValueError, match="finite and positive"):
        scatter_points(rows, "x", "y", time_limit=limit)
    path = tmp_path / "s.cnf"
    path.write_text(SAT_TEXT)
    with pytest.raises(ValueError, match="finite and positive"):
        run_suite([str(path)], [("d", SolverConfig())], time_limit=limit)
