"""Seeded benchmark inputs: the three workloads and the DIMACS files they use.

The generators live here, not in ``chronosat.gen``, so that a change to the
solver package cannot change the inputs.  Every generated instance is
written as a DIMACS file and the solver only ever sees those files.  A
file's name carries its verdict label (``sat_*`` or ``unsat_*``), exactly as
in the bundled ``benchmarks/pack50``, so every workload is checked by the
same prefix rule.

The solver is used while generating in two places, outside any timing:

* rand-hard labels each candidate with a solve under ``label_config``, a
  configuration other than the one measured (always-chronological, LSIDS),
  as ``scripts/make_bench_pack.py`` does.  The measured solve must agree
  with that label.  SAT labels are backed by a model that
  ``check_model`` accepts; UNSAT labels are engine-trusted.
* cb-union keeps only components whose model ``check_model`` accepts, so
  every union is satisfiable by construction of its parts.

Only verdicts decide what is kept, never counters or times, so a change to
the search cannot change which instances a seed produces.
"""

from __future__ import annotations

import glob
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

PACK50_DIR = os.path.join("benchmarks", "pack50")
PACK50_SIZE = 200

# rand-hard: uniform random 3-SAT at the threshold ratio, many small
# instances rather than a few large ones.  Per-instance solve time varies a
# lot from seed to seed (at 175 vars one instance took 0.05-5 s on a 2-vCPU
# Xeon with CPython 3.11), so the workload total is only steady across
# seeds when it sums many instances: 100 instances of 110 vars (about 0.1 s
# each there) fit one 20 s run.  The verdict mix is fixed so that seeds
# differ only in instance hardness.
# These instances need 200-1500 conflicts, so the learnt-clause limit is
# scaled down from 2000 to 200 to make _reduce_db fire as it does at 200
# vars with the default limit.
RAND_HARD_VARS = 110
RAND_HARD_RATIO = 4.26
RAND_HARD_QUOTA = {"UNSAT": 60, "SAT": 40}
RAND_HARD_DB_LIMIT = 200

# cb-union: disjoint unions of satisfiable random 3-SAT components with
# shuffled variables and clauses.  Decision levels reach several hundred,
# far beyond T=100, so chronological backtracking fires once the warm-up
# (C=0 here) is over.  Ten instances give the 20 (instance, config) samples
# the tail percentile needs.
CB_COMPONENTS = 50
CB_COMPONENT_VARS = 50
CB_RATIO = 4.26
CB_INSTANCES = 10

WORKLOAD_NAMES = ("pack50-ab", "rand-hard", "cb-union")


@dataclass
class Workload:
    name: str
    paths: List[str]
    configs: List[Tuple[str, object]]
    workers: int
    time_limit: float


def expected_verdict(path: str) -> str:
    """Verdict label carried by an instance file name."""
    base = os.path.basename(path)
    if base.startswith("sat_"):
        return "SAT"
    if base.startswith("unsat_"):
        return "UNSAT"
    raise ValueError(f"instance {base!r} carries no sat_/unsat_ label")


def random_3sat(rng: random.Random, n_vars: int, n_clauses: int) -> List[List[int]]:
    """Uniform random 3-SAT as signed 1-based DIMACS literals."""
    clauses = []
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def dimacs_text(n_vars: int, clauses: Sequence[Sequence[int]], comment: str) -> str:
    lines = [f"c {comment}", f"p cnf {n_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, c)) + " 0" for c in clauses)
    return "\n".join(lines) + "\n"


def rand_hard_candidates(seed: int) -> Iterator[str]:
    """Endless seeded stream of rand-hard candidate instances (DIMACS text)."""
    rng = random.Random(f"rand-hard/{seed}")
    n_clauses = round(RAND_HARD_RATIO * RAND_HARD_VARS)
    k = 0
    while True:
        clauses = random_3sat(rng, RAND_HARD_VARS, n_clauses)
        yield dimacs_text(
            RAND_HARD_VARS, clauses, f"rand-hard seed {seed} candidate {k}"
        )
        k += 1


def cb_union_text(
    seed: int, index: int, component_is_sat: Callable[[str], bool]
) -> str:
    """One cb-union instance: CB_COMPONENTS satisfiable components, each
    accepted by component_is_sat, with variables and clauses shuffled."""
    rng = random.Random(f"cb-union/{seed}/{index}")
    n = CB_COMPONENT_VARS
    m = round(CB_RATIO * n)
    total = CB_COMPONENTS * n
    perm = list(range(1, total + 1))
    rng.shuffle(perm)
    clauses = []
    for comp in range(CB_COMPONENTS):
        while True:
            part = random_3sat(rng, n, m)
            if component_is_sat(dimacs_text(n, part, "component")):
                break
        base = comp * n
        for c in part:
            clauses.append(
                [perm[base + abs(l) - 1] * (1 if l > 0 else -1) for l in c]
            )
    rng.shuffle(clauses)
    return dimacs_text(total, clauses, f"cb-union seed {seed} instance {index}")


def preset(api, cb_phase: str, warmup_c: int, **overrides):
    """The CLI's mldc presets (T=100, saved phase outside CB), spelled out
    here so that a change to the CLI cannot change the benchmark."""
    return api.SolverConfig(
        ncb_phase_heuristic="saved",
        cb_phase_heuristic=cb_phase,
        cb_threshold_t=100,
        cb_min_conflicts_c=warmup_c,
        **overrides,
    )


def label_config(api):
    return api.SolverConfig(
        cb_threshold_t=0, cb_min_conflicts_c=0, cb_phase_heuristic="lsids"
    )


def _label(api, text: str, config) -> str:
    """Solve DIMACS text once; SAT only with a model check_model accepts."""
    formula, _ = api.parse_dimacs(text)
    result = api.Solver(formula, config).solve()
    verdict = result.verdict.value
    if verdict == "SAT" and not api.check_model(formula, result.model):
        raise RuntimeError("labelling solve returned a model that fails a clause")
    if verdict not in ("SAT", "UNSAT"):
        raise RuntimeError(f"labelling solve ended {verdict}")
    return verdict


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def build(api, name: str, seed: int, workdir: str) -> Workload:
    """Generate (or locate) the inputs of one workload for one seed."""
    if name == "pack50-ab":
        paths = sorted(glob.glob(os.path.join(PACK50_DIR, "*.cnf")))
        if len(paths) != PACK50_SIZE:
            raise RuntimeError(
                f"expected {PACK50_SIZE} instances in {PACK50_DIR}, found {len(paths)}"
            )
        # The pack is fixed; the seed only permutes the job order.  One
        # worker: run_suite's two threads gain nothing under the GIL and,
        # on a shared two-core host, made whole runs differ by up to 50%.
        random.Random(f"pack50-ab/{seed}").shuffle(paths)
        configs = [
            ("mldc-like", preset(api, "saved", 4000)),
            ("mldc-lsids-like", preset(api, "lsids", 4000)),
        ]
        return Workload(name, paths, configs, workers=1, time_limit=10.0)

    os.makedirs(workdir, exist_ok=True)
    for old in glob.glob(os.path.join(workdir, "*.cnf")):
        os.remove(old)
    paths = []
    if name == "rand-hard":
        cfg = label_config(api)
        kept = {"SAT": 0, "UNSAT": 0}
        for text in rand_hard_candidates(seed):
            verdict = _label(api, text, cfg)
            if kept[verdict] < RAND_HARD_QUOTA[verdict]:
                prefix = verdict.lower()
                paths.append(_write(workdir, f"{prefix}_{kept[verdict]:03d}.cnf", text))
                kept[verdict] += 1
            if kept == RAND_HARD_QUOTA:
                break
        configs = [
            (
                "mldc-like",
                preset(api, "saved", 4000, clause_db_init_limit=RAND_HARD_DB_LIMIT),
            )
        ]
        return Workload(name, paths, configs, workers=1, time_limit=60.0)

    if name == "cb-union":
        plain = api.SolverConfig()

        def component_is_sat(text: str) -> bool:
            return _label(api, text, plain) == "SAT"

        for i in range(CB_INSTANCES):
            text = cb_union_text(seed, i, component_is_sat)
            paths.append(_write(workdir, f"sat_{i:03d}.cnf", text))
        configs = [
            ("mldc-like", preset(api, "saved", 0)),
            ("mldc-lsids-like", preset(api, "lsids", 0)),
        ]
        return Workload(name, paths, configs, workers=1, time_limit=60.0)

    raise ValueError(f"unknown workload {name!r}")
