"""Span tracer that wraps the solver's layer entry points from outside.

Nothing under ``src/`` knows about it: ``install`` replaces each entry point
named in ENTRY_POINTS by attribute with a wrapper that opens a span around
the call, and ``uninstall`` puts the originals back.  An entry point that
cannot be resolved (a module, class or function renamed by a later
refactor) is listed in ``absent`` and its layer is simply not measured.

A span has a name, start, end and parent.  Self time is the span's duration
minus the time covered by its children.  The wrapper's own bookkeeping is
charged to neither: a parent counts each child's whole wrapped call as
covered, and the part outside the child's [start, end] is summed as wrapper
time, so that the hot phase hook does not inflate the self time of
``_backtrack_to``.  Each thread keeps its own stack and totals; a span
opened in a thread with no open span is a root.  Per-name totals are kept
exactly for every span; the span records themselves are kept in memory up
to ``max_spans`` per thread (the phase hook alone opens millions) and
written out by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

SOLVE_SPAN = "engine.solve"


def _erased_pre(args, kwargs):
    return len(args[0].trail)


def _erased_post(state, args, kwargs, before, result):
    state.counts["engine.erased_entries"] += before - len(args[0].trail)


def _reduce_pre(args, kwargs):
    return len(args[0].learnts)


def _reduce_post(state, args, kwargs, before, result):
    state.counts["engine.reduce_examined"] += before
    state.counts["engine.reduce_deleted"] += before - len(args[0].learnts)


def _jump_post(state, args, kwargs, before, result):
    current_level, analysis_level = args[0], args[1]
    state.jumps[current_level - analysis_level] += 1


def _bytes_post(state, args, kwargs, before, result):
    state.counts["dimacs.bytes"] += os.path.getsize(args[0])


# (span name, "module:attribute.path", pre hook, post hook).  The bench and
# engine modules are wrapped at the names they call through, so the spans
# see the calls the harness and the engine really make.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("bench.run_suite", "chronosat.bench:run_suite", None, None),
    ("bench.run_instance", "chronosat.bench:run_instance", None, None),
    ("dimacs.parse", "chronosat.bench:parse_dimacs_file", None, _bytes_post),
    ("engine.init", "chronosat.engine:Solver.__init__", None, None),
    (SOLVE_SPAN, "chronosat.engine:Solver.solve", None, None),
    ("engine.propagate", "chronosat.engine:Solver._propagate", None, None),
    ("engine.analyze", "chronosat.engine:Solver._analyze", None, None),
    ("engine.backtrack", "chronosat.engine:Solver._backtrack_to", _erased_pre, _erased_post),
    ("engine.decide", "chronosat.engine:Solver._pick_branch_var", None, None),
    ("engine.reduce", "chronosat.engine:Solver._reduce_db", _reduce_pre, _reduce_post),
    ("engine.restart", "chronosat.engine:Solver._restart", None, None),
    ("backtrack.choose", "chronosat.engine:choose_backtrack_level", None, _jump_post),
    ("phase.erase_hook", "chronosat.phase:PhaseSelector.on_assignment_erased", None, None),
    ("phase.learnt_hook", "chronosat.phase:PhaseSelector.on_clause_learnt", None, None),
    ("phase.select", "chronosat.phase:PhaseSelector.select_phase", None, None),
    ("verify.check_model", "chronosat.engine:check_model", None, None),
    ("verify.check_model", "chronosat.verify:check_model", None, None),
)

class _ThreadState:
    """Per-thread stack, totals and retained spans (no locking needed)."""

    def __init__(self, index: int):
        self.index = index
        self.stack: List[list] = []
        # name -> [total duration, self time, calls]
        self.agg: Dict[str, list] = {}
        self.counts: Counter = Counter()
        self.jumps: Counter = Counter()
        self.in_solve_self = 0.0
        self.in_solve_overhead = 0.0
        self.spans: List[tuple] = []
        self.dropped = 0


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.absent: List[str] = []
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._installed: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        for name, target, pre, post in ENTRY_POINTS:
            module_name, _, attr_path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, pre, post))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def _wrap(self, fn, name: str, pre, post):
        tracer = self
        ids = self._ids
        is_solve = name == SOLVE_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            in_solve = is_solve or (parent is not None and parent[2])
            # frame: [time covered by children, span id, inside engine.solve]
            frame = [0.0, next(ids), in_solve]
            before = pre(args, kwargs) if pre is not None else None
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if ok and post is not None:
                    post(state, args, kwargs, before, result)
                dur = end - start
                self_time = dur - frame[0]
                agg = state.agg.get(name)
                if agg is None:
                    agg = state.agg[name] = [0.0, 0.0, 0]
                agg[0] += dur
                agg[1] += self_time
                agg[2] += 1
                if len(state.spans) < tracer.max_spans:
                    state.spans.append(
                        (frame[1], parent[1] if parent else 0, name, start, end, state.index)
                    )
                else:
                    state.dropped += 1
                left = perf_counter()
                # The wrapper's own work (outside [start, end]) is charged
                # to the tracer, not to the parent's self time.
                overhead = (start - entered) + (left - end)
                if in_solve and not is_solve:
                    state.in_solve_self += self_time
                    state.in_solve_overhead += overhead
                if parent is not None:
                    parent[0] += left - entered
            return result

        return traced

    # -- results --------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[float, float, int]]:
        """name -> (total duration, self time, calls), summed over threads."""
        out: Dict[str, list] = {}
        for state in self._states:
            for name, (dur, self_time, calls) in state.agg.items():
                acc = out.setdefault(name, [0.0, 0.0, 0])
                acc[0] += dur
                acc[1] += self_time
                acc[2] += calls
        return {k: tuple(v) for k, v in out.items()}

    def counts(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    def jumps(self) -> Counter:
        total: Counter = Counter()
        for state in self._states:
            total.update(state.jumps)
        return total

    def in_solve(self) -> Tuple[float, float]:
        """(self time, wrapper time) of the spans nested inside engine.solve."""
        return (
            sum(state.in_solve_self for state in self._states),
            sum(state.in_solve_overhead for state in self._states),
        )

    def dump(self, path: str) -> None:
        spans = sorted(
            (s for state in self._states for s in state.spans), key=lambda s: s[3]
        )
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start", "end", "thread"],
                    "spans": spans,
                    "dropped_spans": sum(state.dropped for state in self._states),
                    "absent_entry_points": self.absent,
                },
                fh,
            )
