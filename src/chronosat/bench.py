"""Benchmark harness: timed runs over instance sets, CSV output, plot data.

Scoring uses PAR-2: a solved instance contributes its wall time, an
unsolved one (timeout or error) contributes twice the time limit, and the
score is the mean over all instances.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from glob import escape, glob
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import engine
from .dimacs import parse_dimacs_file
from .model import Formula, SolveResult, SolverConfig, SolverStats, Verdict
from .phase import search_key

COUNTER_NAMES = [name for name, _ in SolverStats().counter_items()]
CSV_HEADER = [
    "instance", "configLabel", "verdict", "time_s", "timed_out", *COUNTER_NAMES
]

_SOLVED_VERDICTS = ("SAT", "UNSAT")
_CSV_VERDICTS = (*_SOLVED_VERDICTS, "UNKNOWN", "ERROR")
_CSV_FLAGS = {"true": True, "false": False}


@dataclass
class RunRecord:
    """One (instance, configuration) benchmark outcome."""

    instance: str
    config_label: str
    verdict: str  # SAT | UNSAT | UNKNOWN | ERROR
    time_s: float
    timed_out: bool
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    cb_backtracks: int = 0
    ncb_backtracks: int = 0
    lsids_decisions: int = 0
    lsids_differs_saved: int = 0

    @property
    def solved(self) -> bool:
        return self.verdict in _SOLVED_VERDICTS

    def as_csv_row(self) -> List[str]:
        return [
            self.instance,
            self.config_label,
            self.verdict,
            f"{self.time_s:.6f}",
            "true" if self.timed_out else "false",
            *(str(getattr(self, name)) for name in COUNTER_NAMES),
        ]


def par2_score(records: Sequence[RunRecord], time_limit: float) -> float:
    """Mean penalised runtime: unsolved instances cost 2 * time_limit."""
    if not records:
        raise ValueError("PAR-2 over an empty record set is undefined")
    if isinstance(time_limit, bool) or not 0 < time_limit < float("inf"):
        raise ValueError("time_limit must be finite and positive")
    total = 0.0
    for r in records:
        total += r.time_s if r.solved else 2.0 * time_limit
    return total / len(records)


# The per-file context: `_run_file` sets it to (path, formula, searches)
# while its file's jobs run, and back to None when they end, however they
# end; each worker process holds its own.  formula is the file parsed once,
# or None when it did not parse; searches maps a `search_key` to a shared
# result on this formula (the sharing rule is in `search_key`'s docstring).
# `run_instance` and `solve_formula` keep their signatures because callers
# wrap them by attribute, so the formula and the searches reach them here.
_current_file: Optional[Tuple[str, Optional[Formula], Dict[tuple, SolveResult]]] = None


def solve_formula(formula: Formula, config: SolverConfig) -> SolveResult:
    """`engine.solve_formula`, sharing searches between a file's jobs.

    A call on the formula of the per-file context (see `_current_file`)
    looks its search up, and stores it, under `search_key` and its sharing
    rule; a shared search comes back as its stored result.  Any other
    call solves and stores nothing.
    """
    file = _current_file
    if file is None or formula is not file[1]:
        return engine.solve_formula(formula, config)
    searches = file[2]
    key = search_key(config)
    shared = searches.get(key)
    if shared is not None:
        return shared
    result = engine.solve_formula(formula, config)
    if result.verdict is not Verdict.UNKNOWN and result.stats.cb_state_decisions == 0:
        searches[key] = result
    return result


def run_instance(path: str, label: str, config: SolverConfig) -> RunRecord:
    """Solve one DIMACS file; failures become an ERROR record, not a crash.

    Called on its own, it parses and solves the file.  For the path of the
    per-file context (see `_current_file`) it takes the parsed formula from
    there instead, an ERROR row when the file did not parse, and reports
    the time_s of whatever `solve_formula` returns, a shared result included.
    """
    name = os.path.basename(path)
    file = _current_file
    try:
        if file is not None and file[0] == path:
            formula = file[1]
            if formula is None:
                raise ValueError(f"{path} did not parse")
        else:
            formula, _ = parse_dimacs_file(path)
        result = solve_formula(formula, config)
    except Exception:
        return RunRecord(name, label, "ERROR", 0.0, timed_out=False)
    stats = result.stats
    return RunRecord(
        instance=name,
        config_label=label,
        verdict=result.verdict.value,
        time_s=stats.wall_time_seconds,
        timed_out=result.verdict is Verdict.UNKNOWN,
        **dict(stats.counter_items()),
    )


def _run_file(path: str, configs: Sequence[Tuple[str, SolverConfig]]) -> List[RunRecord]:
    """Every (label, config) `run_instance` job on one file, parsed once,
    with `_current_file` set to the file's context while they run."""
    global _current_file
    try:
        formula: Optional[Formula] = parse_dimacs_file(path)[0]
    except Exception:
        formula = None
    _current_file = (path, formula, {})
    try:
        return [run_instance(path, label, config) for label, config in configs]
    finally:
        _current_file = None


def discover_instances(source: Union[str, os.PathLike, Iterable[str]]) -> List[str]:
    """A directory, as str or path, becomes its sorted *.cnf files; an
    iterable passes through.

    A record names its instance by the file's basename, so two paths with
    one basename are rejected.
    """
    if isinstance(source, (str, os.PathLike)):
        source = os.fspath(source)
        if not os.path.isdir(source):
            raise ValueError(f"not a directory: {source}")
        paths = sorted(glob(os.path.join(escape(source), "*.cnf")))
        if not paths:
            raise ValueError(f"no .cnf instances found in {source}")
        return paths
    paths = list(source)
    if not paths:
        raise ValueError("no instances given")
    names = set()
    for path in paths:
        name = os.path.basename(path)
        if name in names:
            raise ValueError(f"two instances share the basename {name!r}")
        names.add(name)
    return paths


def run_suite(
    instances: Union[str, os.PathLike, Iterable[str]],
    configs: Sequence[Tuple[str, SolverConfig]],
    time_limit: Optional[float] = None,
    workers: int = 1,
) -> List[RunRecord]:
    """Run every configuration on every instance.

    Jobs are grouped per file: each file is parsed once per suite and its
    jobs run through `run_instance` under one per-file context (see
    `_current_file`), so configurations with one `search_key` may share a
    search.  Rows come back sorted by (instance, configLabel) regardless of
    worker scheduling, so suite output is stable and counters are
    deterministic.  With workers > 1 the files run in up to that many
    spawned processes, one task per file.
    """
    paths = discover_instances(instances)
    if not configs:
        raise ValueError("no configurations given")
    labels = [label for label, _ in configs]
    if len(set(labels)) != len(labels):
        raise ValueError("configuration labels must be unique")
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be an int >= 1, got {workers!r}")
    if time_limit is not None:
        configs = [
            (label, replace(cfg, time_limit_seconds=time_limit)) for label, cfg in configs
        ]
    if workers == 1:
        per_file = [_run_file(path, configs) for path in paths]
    else:
        # Imported here: multiprocessing adds about 1.6 MB RSS to a serial run.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        with ProcessPoolExecutor(min(workers, len(paths)), get_context("spawn")) as pool:
            per_file = list(pool.map(_run_file, paths, repeat(configs)))
    records = [record for rows in per_file for record in rows]
    records.sort(key=lambda r: (r.instance, r.config_label))
    return records


def write_csv(records: Sequence[RunRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in records:
            writer.writerow(r.as_csv_row())


def read_csv(path: str) -> List[RunRecord]:
    """The records of a CSV that write_csv wrote.

    A row `run_instance` could not have written is rejected with its file
    and line: a malformed field, `timed_out` other than `verdict ==
    UNKNOWN`, an ERROR row with a nonzero time or counter, or a second row
    for one (instance, configLabel).
    """
    records = []
    keys = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected the CSV header")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: line 1: unexpected CSV header: {header}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(CSV_HEADER):
                raise ValueError(
                    f"{where}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            instance, label, verdict, time_s, timed_out, *counters = row
            if verdict not in _CSV_VERDICTS:
                raise ValueError(f"{where}: unknown verdict {verdict!r}")
            if timed_out not in _CSV_FLAGS:
                raise ValueError(
                    f"{where}: timed_out is {timed_out!r}, expected 'true' or 'false'"
                )
            try:
                seconds = float(time_s)
                counts = dict(zip(COUNTER_NAMES, map(int, counters)))
            except ValueError as err:
                raise ValueError(f"{where}: non-numeric field: {err}") from None
            if not 0.0 <= seconds < float("inf"):
                raise ValueError(
                    f"{where}: time_s is {time_s!r}, expected a finite number >= 0"
                )
            for name, count in counts.items():
                if count < 0:
                    raise ValueError(f"{where}: {name} is {count}, expected a count >= 0")
            if _CSV_FLAGS[timed_out] != (verdict == "UNKNOWN"):
                raise ValueError(
                    f"{where}: timed_out is {timed_out!r} with verdict {verdict}, "
                    "expected 'true' exactly when the verdict is UNKNOWN"
                )
            if verdict == "ERROR" and (seconds or any(counts.values())):
                raise ValueError(f"{where}: ERROR row with a nonzero time_s or counter")
            if (instance, label) in keys:
                raise ValueError(
                    f"{where}: second row for instance {instance!r} "
                    f"under configLabel {label!r}"
                )
            keys.add((instance, label))
            records.append(
                RunRecord(
                    instance, label, verdict, seconds, _CSV_FLAGS[timed_out], **counts
                )
            )
    return records


def cactus_points(records: Sequence[RunRecord]) -> Dict[str, List[Tuple[int, float]]]:
    """Solved-instance times per configuration, sorted, paired with ranks.

    Plotting rank (x) against time (y) gives the usual cactus curve: the
    point (k, t) reads "k instances solved within t seconds each".
    """
    times: Dict[str, List[float]] = {}
    for r in records:
        times.setdefault(r.config_label, [])
        if r.solved:
            times[r.config_label].append(r.time_s)
    return {
        label: [(rank, t) for rank, t in enumerate(sorted(ts), start=1)]
        for label, ts in times.items()
    }


@dataclass(frozen=True)
class ScatterPoint:
    instance: str
    time_a: float
    time_b: float
    a_clamped: bool  # unsolved under configuration A; time clamped to 2*limit
    b_clamped: bool


def scatter_points(
    records: Sequence[RunRecord],
    label_a: str,
    label_b: str,
    time_limit: float,
) -> List[ScatterPoint]:
    """Per-instance time pairs for two configurations.

    Both configurations must cover exactly the same instances, with one
    record each.  Unsolved runs are clamped to 2 * time_limit and flagged,
    so they sit on the plot's penalty edge instead of vanishing.
    """
    if isinstance(time_limit, bool) or not 0 < time_limit < float("inf"):
        raise ValueError("time_limit must be finite and positive")
    a_rows, b_rows = {}, {}
    for r in records:
        for label, rows in ((label_a, a_rows), (label_b, b_rows)):
            if r.config_label == label:
                if r.instance in rows:
                    raise ValueError(
                        f"second record for instance {r.instance!r} "
                        f"under configLabel {label!r}"
                    )
                rows[r.instance] = r
    if set(a_rows) != set(b_rows):
        raise ValueError(
            f"instance sets differ between {label_a!r} and {label_b!r}"
        )
    if not a_rows:
        raise ValueError("no records for the requested labels")
    points = []
    for name in sorted(a_rows):
        ra, rb = a_rows[name], b_rows[name]
        ta = ra.time_s if ra.solved else 2.0 * time_limit
        tb = rb.time_s if rb.solved else 2.0 * time_limit
        points.append(ScatterPoint(name, ta, tb, not ra.solved, not rb.solved))
    return points
