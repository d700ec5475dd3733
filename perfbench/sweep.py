#!/usr/bin/env python3
"""Seed sweep: run every workload over several seeds and judge the spread.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json

For each workload and end-to-end metric of BENCHMARK.json it reports the
median and the quartiles over the seeds (``statistics.quantiles(n=4)``) and
the spread (Q3 - Q1) / median next to the metric's bound.  It also records
every run's counters digest, so a second sweep of the same code can be
checked for identical behaviour with ``--compare``, and the environment
(Python version, CPU count and model).

``--roadmap`` first measures what the ROADMAP baseline states: pack50
single-threaded (``run_suite(workers=1)``) per preset, in seconds and
propagations per second.  ``--traced`` adds one ``--trace 1`` run per
workload, on the first seed, so the per-layer split is recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

# ROADMAP baseline, pack50 single-threaded per preset.
ROADMAP_PACK50_S = (1.4, 1.6)
ROADMAP_PROPS_PER_S = (80e3, 120e3)


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def roadmap_check():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import chronosat
    import chronosat.bench
    import workloads

    out = {}
    for label, cb_phase in (("mldc-like", "saved"), ("mldc-lsids-like", "lsids")):
        config = workloads.preset(chronosat, cb_phase, 4000)
        t0 = perf_counter()
        records = chronosat.bench.run_suite(
            workloads.PACK50_DIR, [(label, config)], workers=1
        )
        wall = perf_counter() - t0
        props = sum(r.propagations for r in records) / sum(r.time_s for r in records)
        out[label] = {
            "wall_s": wall,
            "props_per_s": props,
            "wall_in_roadmap_range": ROADMAP_PACK50_S[0] <= wall <= ROADMAP_PACK50_S[1],
            "props_in_roadmap_range": ROADMAP_PROPS_PER_S[0] <= props <= ROADMAP_PROPS_PER_S[1],
        }
        print(f"roadmap pack50 {label}: {wall:.3f} s (ROADMAP {ROADMAP_PACK50_S[0]}-"
              f"{ROADMAP_PACK50_S[1]} s), {props:.0f} props/s (ROADMAP "
              f"{ROADMAP_PROPS_PER_S[0]:.0f}-{ROADMAP_PROPS_PER_S[1]:.0f})", flush=True)
    return out


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    digest = next(
        (l.split()[1] for l in lines if l.startswith("counters_digest ")), None
    )
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, digest, result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    ap.add_argument("--out", default=None, help="write the sweep as JSON here")
    ap.add_argument("--compare", default=None,
                    help="earlier sweep JSON: check digests and medians against it")
    ap.add_argument("--roadmap", action="store_true")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    report = {"environment": environment(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    print(json.dumps(report["environment"]), flush=True)
    if args.roadmap:
        report["roadmap_pack50"] = roadmap_check()

    ok = True
    for name in names:
        runs = []
        for seed in seeds:
            code, digest, result = run_once(name, seed, spec["run_seconds"])
            good = code == 0 and result is not None and result["correct"]
            ok &= good
            runs.append({"seed": seed, "exit": code, "digest": digest, "result": result})
            print(f"{name} seed {seed}: exit {code} digest {digest}", flush=True)
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs if r["result"]]
            s = metrics[metric] = summarize(values)
            within = s["spread"] <= bound or metric == "setup_s"
            ok &= within
            mark = "ok" if within else "OVER BOUND"
            print(f"  {metric:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f} / bound {bound}  {mark}",
                  flush=True)
        report["workloads"][name] = {"runs": runs, "metrics": metrics}
        if args.traced:
            code, digest, result = run_once(name, seeds[0], spec["run_seconds"], trace=1)
            ok &= code == 0 and result is not None and result["correct"]
            report["workloads"][name]["traced"] = {
                "seed": seeds[0], "exit": code, "digest": digest, "result": result
            }
            print(f"{name} traced seed {seeds[0]}: exit {code} digest {digest}", flush=True)

    if args.compare:
        with open(args.compare) as fh:
            before = json.load(fh)
        for name, wl in report["workloads"].items():
            old = before["workloads"].get(name)
            if old is None:
                continue
            old_digests = {r["seed"]: r["digest"] for r in old["runs"]}
            same = all(old_digests.get(r["seed"]) == r["digest"] for r in wl["runs"])
            ok &= same
            print(f"{name}: counters digests {'identical' if same else 'DIFFER'}")
            for metric, s in wl["metrics"].items():
                was = old["metrics"][metric]["median"]
                change = s["median"] / was - 1.0
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
                worse = change if better == "lower" else -change
                flag = "ok" if worse <= bounds[metric] else "WORSE THAN BOUND"
                print(f"  {metric:16s} median {was:.6g} -> {s['median']:.6g} "
                      f"({change:+.3f})  {flag}")
                ok &= worse <= bounds[metric]

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
