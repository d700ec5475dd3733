#!/usr/bin/env python3
"""Solver benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload cb-union --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see workloads.py):
  pack50-ab  the bundled pack50 under both mldc presets; set-up, parsing
             and harness are a large share and CB never fires
  rand-hard  random 3-SAT at the threshold under mldc-like; propagate,
             analyze and reduce dominate and CB never fires
  cb-union   unions of satisfiable components under both presets with C=0;
             CB fires and LSIDS decides, on long trails

One closed-loop client: each pass calls ``chronosat.bench.run_suite`` over
the whole workload and waits for it; passes repeat while another fits in
``--seconds``.  ``setup_s`` (a fresh-interpreter ``import chronosat`` plus
``parse_dimacs_file`` and ``Solver(...)`` for every instance and config) is
measured apart from solving, several times, and reported as the median.

Times are reported in reference seconds.  On a shared host the CPU speed
drifts by 10-30% from one minute to the next, and all Python code slows
together (on a 2-vCPU Xeon VM with CPython 3.11, a fixed loop and the solver
timed in alternating 0.5 s slices correlated at 0.93).  So a fixed probe
loop runs between jobs, about every 0.25 s, and every time measured in that
stretch is scaled by the probe's mean speed relative to PROBE_REF_S: a time
t becomes t * mean(PROBE_REF_S / probe duration).  The probe's own time is
left out of every measurement, and the raw pass times are printed too.  The
probe runs in the benchmark's process, so a change that slowed every Python
loop in it (a trace hook, say) would be scaled away as well.

Every verdict is checked from outside the engine: against the ``sat_`` /
``unsat_`` label of the file, and every SAT model again with
``chronosat.verify.check_model``.  The SHA-256 of the eight deterministic
counters of every (instance, config) must be the same in every pass.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with tracer.py wrapping the layer entry points, and
reports per-layer metrics per traced pass.  The last line of stdout is one
JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, replace
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import ENTRY_POINTS, Tracer  # noqa: E402

SETUP_REPS = 3
PROBE_ITERS = 25_000
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.25
WORK_ROOT = ".perfbench_work"
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import chronosat; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "par2_s": "s",
    "instance_s.p50": "s",
    "instance_s.tail": "s",
    "props_per_s": "1/s",
    "conflicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


# -- helpers the self-tests cover ---------------------------------------------


def tail_percentile(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    k = n - 10
    return sorted(values)[k - 1], 100.0 * k / n


def counters_digest(records, counter_names) -> str:
    """SHA-256 over the deterministic counters of every (instance, config)."""
    h = hashlib.sha256()
    for r in sorted(records, key=lambda r: (r.instance, r.config_label)):
        fields = " ".join(f"{n}={getattr(r, n)}" for n in counter_names)
        h.update(f"{r.instance} {r.config_label} {fields}\n".encode())
    return h.hexdigest()


# -- host speed ------------------------------------------------------------------


def _probe_loop() -> int:
    acc = 0
    table = {}
    for i in range(PROBE_ITERS):
        acc = (acc + i * i) % 1000003
        table[i & 255] = acc
    return acc


class SpeedProbe:
    """Samples host speed with a fixed loop, at most every PROBE_EVERY_S."""

    def __init__(self):
        self.restart()

    def restart(self):
        self.ratios = []
        self.spent = 0.0
        self.sample()

    def tick(self):
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.sample()

    def sample(self):
        t0 = perf_counter()
        _probe_loop()
        self.last = perf_counter()
        self.ratios.append(PROBE_REF_S / (self.last - t0))
        self.spent += self.last - t0

    def speed(self) -> float:
        """Mean host speed since restart, relative to the reference."""
        return statistics.fmean(self.ratios)


@dataclass
class Pass:
    wall: float  # raw seconds, probe time excluded
    speed: float
    records: list
    models: dict

    @property
    def ref_wall(self) -> float:
        return self.wall * self.speed


# -- model re-check -------------------------------------------------------------


class ModelCheck:
    """Re-checks every SAT model that ``run_suite`` produces.

    ``run_suite`` returns records without models, so this wraps the
    harness's ``run_instance`` and ``solve_formula`` by attribute to see
    each (instance, config) and its model.  Models it could not see (say, a
    harness that solves in other processes) are re-solved after the pass,
    outside timing, by ``fallback``.  ``after_job`` runs after every job;
    the benchmark passes the speed probe's ``tick``.
    """

    def __init__(self, bench, verify, after_job):
        self.bench = bench
        self.verify = verify
        self.after_job = after_job
        self.results = {}
        self._job = threading.local()
        self._saved = []

    def install(self):
        for attr, make in (
            ("run_instance", self._wrap_run_instance),
            ("solve_formula", self._wrap_solve_formula),
        ):
            original = getattr(self.bench, attr, None)
            if original is not None:
                self._saved.append((attr, original))
                setattr(self.bench, attr, make(original))

    def uninstall(self):
        for attr, original in reversed(self._saved):
            setattr(self.bench, attr, original)
        self._saved.clear()

    def _wrap_run_instance(self, original):
        def run_instance(path, label, config):
            self._job.key = (os.path.basename(path), label)
            try:
                return original(path, label, config)
            finally:
                self._job.key = None
                self.after_job()

        return run_instance

    def _wrap_solve_formula(self, original):
        def solve_formula(formula, config=None):
            result = original(formula, config)
            key = getattr(self._job, "key", None)
            if key is not None and result.verdict.value == "SAT":
                self.results[key] = self.verify.check_model(formula, result.model)
            return result

        return solve_formula

    def fallback(self, api, path, config) -> bool:
        formula, _ = api.parse_dimacs_file(path)
        result = api.Solver(formula, replace(config, time_limit_seconds=None)).solve()
        return result.verdict.value == "SAT" and self.verify.check_model(
            formula, result.model
        )


# -- measurement ----------------------------------------------------------------


def fresh_import_seconds(src: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(api, wl, src, probe):
    """Median set-up time and median fresh-interpreter import time, both
    in reference seconds."""
    totals, imports = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        probe.restart()
        imported = fresh_import_seconds(src)
        probe.sample()
        spent = probe.spent
        start = perf_counter()
        for path in wl.paths:
            for _, config in wl.configs:
                formula, _ = api.parse_dimacs_file(path)
                api.Solver(formula, config)
                probe.tick()
        built = perf_counter() - start - (probe.spent - spent)
        probe.sample()
        speed = probe.speed()
        totals.append((imported + built) * speed)
        imports.append(imported * speed)
    return statistics.median(totals), statistics.median(imports)


def run_passes(bench, wl, budget, checker, probe):
    """Whole-workload passes while another one fits in budget seconds."""
    passes = []
    start = perf_counter()
    while True:
        checker.results = {}
        gc.collect()
        probe.restart()
        spent = probe.spent
        t0 = perf_counter()
        records = bench.run_suite(
            wl.paths, wl.configs, time_limit=wl.time_limit, workers=wl.workers
        )
        wall = perf_counter() - t0 - (probe.spent - spent)
        probe.sample()
        passes.append(Pass(wall, probe.speed(), records, checker.results))
        longest = max(p.wall for p in passes)
        if perf_counter() - start + longest > budget:
            return passes


def check_passes(api, wl, passes, checker, counter_names):
    """Verdict and model checks over every record; returns
    (attempted, failed, digest, problems)."""
    configs = dict(wl.configs)
    paths = {os.path.basename(p): p for p in wl.paths}
    attempted = failed = 0
    problems = []
    digests = set()
    for p in passes:
        digests.add(counters_digest(p.records, counter_names))
        for r in p.records:
            attempted += 1
            expected = workloads.expected_verdict(r.instance)
            ok = r.verdict == expected
            if ok and r.verdict == "SAT":
                key = (r.instance, r.config_label)
                model_ok = p.models.get(key)
                if model_ok is None:
                    model_ok = checker.fallback(
                        api, paths[r.instance], configs[r.config_label]
                    )
                ok = model_ok
            if not ok:
                failed += 1
                problems.append(
                    f"{r.instance} under {r.config_label}: {r.verdict}, expected {expected}"
                    + ("" if r.verdict != expected else " (model fails a clause)")
                )
    if len(digests) != 1:
        problems.append("counters differ between passes of one run")
    return attempted, failed, sorted(digests)[0], problems


def preset_comparison(records, counter_names):
    """(instances whose counters differ between the two presets, instances)."""
    by_instance = {}
    for r in records:
        by_instance.setdefault(r.instance, set()).add(
            tuple(getattr(r, n) for n in counter_names)
        )
    return sum(len(v) > 1 for v in by_instance.values()), len(by_instance)


def mechanism_guard(records):
    """cb-union must fire CB and LSIDS on every instance under LSIDS."""
    return [
        f"{r.instance}: cb_backtracks={r.cb_backtracks} "
        f"lsids_decisions={r.lsids_decisions} under mldc-lsids-like"
        for r in records
        if r.config_label == "mldc-lsids-like"
        and (r.cb_backtracks == 0 or r.lsids_decisions == 0)
    ]


def end_to_end_metrics(bench, wl, passes, setup_s):
    """End-to-end metrics, every time in reference seconds."""
    par2 = [
        p.speed * bench.par2_score(p.records, wl.time_limit / p.speed) for p in passes
    ]
    per_job = {}
    solve_time = props = conflicts = 0.0
    for p in passes:
        for r in p.records:
            per_job.setdefault((r.instance, r.config_label), []).append(r.time_s * p.speed)
            solve_time += r.time_s * p.speed
            props += r.propagations
            conflicts += r.conflicts
    samples = [statistics.median(ts) for ts in per_job.values()]
    tail = tail_percentile(samples)
    metrics = {
        "wall_s": statistics.median(p.ref_wall for p in passes),
        "setup_s": setup_s,
        "par2_s": statistics.median(par2),
        "instance_s.p50": statistics.median(samples),
        "props_per_s": props / solve_time,
        "conflicts_per_s": conflicts / solve_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"instance_s.p50": f"n={len(samples)} samples"}
    if tail is not None:
        metrics["instance_s.tail"] = tail[0]
        notes["instance_s.tail"] = f"p{tail[1]:.1f}, n={len(samples)} samples"
    return metrics, notes


def layer_metrics(tracer, traced, untraced, import_s):
    """Per-layer metrics per traced pass; layers whose entry point is
    missing are left out."""
    present = {name for name, target, _, _ in ENTRY_POINTS if target not in tracer.absent}
    absent = {name for name, _, _, _ in ENTRY_POINTS} - present
    totals = tracer.totals()
    counts = tracer.counts()
    jumps = tracer.jumps()
    n = len(traced)
    records = [r for p in traced for r in p.records]

    def total(field):
        return sum(getattr(r, field) for r in records) / n

    out = {"chronosat.import_s": (import_s, "s")}
    for metric, span, kind, unit in (
        ("dimacs.parse_s", "dimacs.parse", 1, "s"),
        ("dimacs.parse_calls", "dimacs.parse", 2, "count"),
        ("engine.init_s", "engine.init", 1, "s"),
        ("engine.solve_s", "engine.solve", 0, "s"),
        ("engine.unattributed_s", "engine.solve", 1, "s"),
        ("engine.propagate_s", "engine.propagate", 1, "s"),
        ("engine.propagate_calls", "engine.propagate", 2, "count"),
        ("engine.analyze_s", "engine.analyze", 1, "s"),
        ("engine.backtrack_s", "engine.backtrack", 1, "s"),
        ("engine.backtrack_calls", "engine.backtrack", 2, "count"),
        ("engine.decide_s", "engine.decide", 1, "s"),
        ("engine.reduce_s", "engine.reduce", 1, "s"),
        ("engine.reduce_calls", "engine.reduce", 2, "count"),
        ("engine.restart_s", "engine.restart", 1, "s"),
        ("phase.erase_hook_s", "phase.erase_hook", 1, "s"),
        ("phase.erase_calls", "phase.erase_hook", 2, "count"),
        ("phase.learnt_hook_s", "phase.learnt_hook", 1, "s"),
        ("phase.select_s", "phase.select", 1, "s"),
        ("verify.check_model_s", "verify.check_model", 1, "s"),
        ("verify.check_model_calls", "verify.check_model", 2, "count"),
        ("bench.self_s", "bench.run_suite", 1, "s"),
        ("bench.run_instance_s", "bench.run_instance", 0, "s"),
    ):
        if span in absent:
            continue
        out[metric] = (totals.get(span, (0.0, 0.0, 0))[kind] / n, unit)
    if "dimacs.parse" not in absent:
        out["dimacs.bytes"] = (counts["dimacs.bytes"] / n, "bytes")
    if "engine.backtrack" not in absent:
        out["engine.erased_entries"] = (counts["engine.erased_entries"] / n, "count")
    if "engine.reduce" not in absent:
        examined = counts["engine.reduce_examined"]
        deleted = counts["engine.reduce_deleted"]
        out["engine.reduce_deleted_frac"] = (deleted / examined if examined else 0.0, "ratio")
    if "backtrack.choose" not in absent and jumps:
        ordered = sorted(jumps.elements())
        out["backtrack.jump_p50"] = (float(statistics.median(ordered)), "levels")
        out["backtrack.jump_max"] = (float(ordered[-1]), "levels")

    conflicts = total("conflicts")
    lsids = total("lsids_decisions")
    out.update(
        {
            "engine.propagations": (total("propagations"), "count"),
            "engine.conflicts": (conflicts, "count"),
            "engine.decisions": (total("decisions"), "count"),
            "engine.restarts": (total("restarts"), "count"),
            "backtrack.cb_backtracks": (total("cb_backtracks"), "count"),
            "backtrack.ncb_backtracks": (total("ncb_backtracks"), "count"),
            "backtrack.cb_frac": (total("cb_backtracks") / conflicts if conflicts else 0.0, "ratio"),
            "phase.lsids_decisions": (lsids, "count"),
            "phase.lsids_differs_frac": (
                total("lsids_differs_saved") / lsids if lsids else 0.0,
                "ratio",
            ),
            "trace.overhead_frac": (
                statistics.median(p.ref_wall for p in traced)
                / statistics.median(p.ref_wall for p in untraced)
                - 1.0,
                "ratio",
            ),
        }
    )
    residual = None
    solve = totals.get("engine.solve")
    if solve is not None:
        layers_self, wrapper = tracer.in_solve()
        out["trace.wrapper_s"] = (wrapper / n, "s")
        residual = (solve[0] - solve[1] - layers_self - wrapper) / n
    return out, residual


# -- entry point ----------------------------------------------------------------


def load_solver(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chronosat", "__init__.py")):
        raise SystemExit(f"error: no solver sources at {src}; run from the repository root")
    sys.path.insert(0, src)
    import chronosat
    import chronosat.bench
    import chronosat.verify

    loaded = os.path.dirname(os.path.abspath(chronosat.__file__))
    if loaded != os.path.join(os.path.abspath(src), "chronosat"):
        raise SystemExit(f"error: imported chronosat from {loaded}, not from {src}")
    return src, chronosat


def run_workload(args) -> int:
    root = os.getcwd()
    src, api = load_solver(root)
    bench, verify = api.bench, api.verify
    counter_names = [name for name, _ in api.SolverStats().counter_items()]
    workdir = os.path.join(root, WORK_ROOT, f"{args.workload}-{args.seed}")
    os.makedirs(workdir, exist_ok=True)

    t0 = perf_counter()
    wl = workloads.build(api, args.workload, args.seed, workdir)
    build_s = perf_counter() - t0
    probe = SpeedProbe()
    setup_s, import_s = measure_setup(api, wl, src, probe)

    checker = ModelCheck(bench, verify, after_job=probe.tick)
    checker.install()
    tracer = None
    try:
        if args.trace:
            untraced = run_passes(bench, wl, args.seconds / 2.0, checker, probe)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(bench, wl, args.seconds / 2.0, checker, probe)
            finally:
                tracer.uninstall()
            passes = untraced + traced
        else:
            passes = run_passes(bench, wl, args.seconds, checker, probe)
        attempted, failed, digest, problems = check_passes(
            api, wl, passes, checker, counter_names
        )
    finally:
        checker.uninstall()

    records = passes[0].records
    print(f"workload {wl.name} seed {args.seed}: {len(wl.paths)} instances x "
          f"{len(wl.configs)} configs, workers={wl.workers}, "
          f"{len(passes)} passes, inputs built in {build_s:.2f} s")
    print("raw pass_wall_s " + " ".join(f"{p.wall:.3f}" for p in passes))
    print("host speed vs reference " + " ".join(f"{p.speed:.3f}" for p in passes))
    print(f"counters_digest {digest}")
    print(f"cb_backtracks_total {sum(r.cb_backtracks for r in records)}")
    if len(wl.configs) == 2:
        differ, count = preset_comparison(records, counter_names)
        print(f"presets_counters_differ {differ} of {count} instances")
    if wl.name == "cb-union":
        guard = mechanism_guard(records)
        problems.extend(f"mechanism guard: {g}" for g in guard)
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")

    if args.trace:
        metrics, residual = layer_metrics(tracer, traced, untraced, import_s)
        if tracer.absent:
            print("absent entry points: " + ", ".join(tracer.absent))
        if residual is not None:
            print(f"engine.solve_s = layer self times inside it + engine.unattributed_s"
                  f" + trace.wrapper_s (residual {residual:.3g} s per pass)")
        tracer.dump(os.path.join(workdir, "trace.json"))
        notes = {}
    else:
        values, notes = end_to_end_metrics(bench, wl, passes, setup_s)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    for p in problems:
        print(f"FAIL {p}")

    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(workdir, f"result-trace{int(args.trace)}.json"), "w") as fh:
        json.dump(dict(result, counters_digest=digest, problems=problems), fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak RSS is its own."""
    worst = 0
    for name in workloads.WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOAD_NAMES) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
