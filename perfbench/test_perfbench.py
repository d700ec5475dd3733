"""Self-tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench

They need no solver run: generators are fed a stub satisfiability check,
and the digest is fed plain records.
"""

import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

COUNTERS = [
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "cb_backtracks",
    "ncb_backtracks",
    "lsids_decisions",
    "lsids_differs_saved",
]


def _first(stream, k):
    return [next(stream) for _ in range(k)]


def test_same_seed_gives_byte_identical_rand_hard_cnf():
    a = _first(workloads.rand_hard_candidates(7), 3)
    b = _first(workloads.rand_hard_candidates(7), 3)
    assert a == b
    assert a != _first(workloads.rand_hard_candidates(8), 3)
    assert a[0].splitlines()[1] == "p cnf 110 469"


def test_same_seed_gives_byte_identical_cb_union_cnf():
    calls = []

    def every_other(text):
        calls.append(text)
        return len(calls) % 2 == 0

    a = workloads.cb_union_text(3, 0, every_other)
    calls.clear()
    b = workloads.cb_union_text(3, 0, every_other)
    assert a == b
    assert a != workloads.cb_union_text(3, 1, lambda text: True)
    header = a.splitlines()[1].split()
    total = workloads.CB_COMPONENTS * workloads.CB_COMPONENT_VARS
    assert header == ["p", "cnf", str(total), str(workloads.CB_COMPONENTS * 213)]


def test_cb_union_components_are_disjoint_and_cover_every_variable():
    text = workloads.cb_union_text(5, 2, lambda t: True)
    clauses = [
        [abs(int(x)) for x in line.split()[:-1]]
        for line in text.splitlines()[2:]
    ]
    used = {v for c in clauses for v in c}
    total = workloads.CB_COMPONENTS * workloads.CB_COMPONENT_VARS
    assert used <= set(range(1, total + 1))
    # Link variables sharing a clause; disjoint components stay apart.
    parent = {v: v for v in used}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for c in clauses:
        for v in c[1:]:
            parent[find(v)] = find(c[0])
    sizes = {}
    for v in used:
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    assert max(sizes.values()) <= workloads.CB_COMPONENT_VARS


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(1, 21))) == (10, 50.0)
    value, pct = run.tail_percentile(list(range(400, 0, -1)))
    assert (value, pct) == (390, 97.5)
    values = list(range(1, 101))
    value, pct = run.tail_percentile(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0


def _record(instance, label, **counters):
    fields = {name: counters.get(name, 1) for name in COUNTERS}
    return SimpleNamespace(instance=instance, config_label=label, **fields)


def test_counters_digest_is_stable_and_order_free():
    recs = [_record("a.cnf", "x"), _record("b.cnf", "x", conflicts=5)]
    first = run.counters_digest(recs, COUNTERS)
    assert first == run.counters_digest(list(reversed(recs)), COUNTERS)
    assert first == run.counters_digest(
        [_record("a.cnf", "x"), _record("b.cnf", "x", conflicts=5)], COUNTERS
    )
    changed = [_record("a.cnf", "x"), _record("b.cnf", "x", conflicts=6)]
    assert run.counters_digest(changed, COUNTERS) != first
    assert len(first) == 64


def test_expected_verdict_reads_the_file_prefix():
    assert workloads.expected_verdict("dir/sat_001.cnf") == "SAT"
    assert workloads.expected_verdict("unsat_000.cnf") == "UNSAT"
    try:
        workloads.expected_verdict("x.cnf")
    except ValueError:
        pass
    else:
        raise AssertionError("unlabelled instance accepted")


def test_tracer_self_time_and_absent_entry_points(monkeypatch):
    import types

    import tracer as tracer_mod

    layers = types.ModuleType("fake_layers")

    def inner():
        return sum(range(20000))

    def outer():
        # Through the module attribute, as the engine calls its layers.
        return layers.inner() + layers.inner()

    layers.inner = inner
    layers.outer = outer
    monkeypatch.setitem(sys.modules, "fake_layers", layers)
    monkeypatch.setattr(
        tracer_mod,
        "ENTRY_POINTS",
        (
            ("layer.outer", "fake_layers:outer", None, None),
            ("layer.inner", "fake_layers:inner", None, None),
            ("layer.gone", "fake_layers:renamed_away", None, None),
            ("layer.nomod", "no_such_module_here:f", None, None),
        ),
    )
    t = tracer_mod.Tracer(max_spans=2)
    t.install()
    try:
        layers.outer()
    finally:
        t.uninstall()
    assert layers.outer is outer and layers.inner is inner
    assert t.absent == ["fake_layers:renamed_away", "no_such_module_here:f"]
    totals = t.totals()
    out_dur, out_self, out_calls = totals["layer.outer"]
    in_dur, in_self, in_calls = totals["layer.inner"]
    assert (out_calls, in_calls) == (1, 2)
    assert in_dur == in_self
    # The children's wrapper work is not charged to the parent either.
    assert 0.0 < out_self <= out_dur - in_dur
    # Two inner spans are kept, the outer one is counted as dropped.
    assert len(t._states[0].spans) == 2 and t._states[0].dropped == 1


def test_speed_probe_samples_at_most_every_interval():
    probe = run.SpeedProbe()
    assert len(probe.ratios) == 1 and probe.spent > 0.0
    probe.tick()
    assert len(probe.ratios) == 1
    probe.last -= run.PROBE_EVERY_S
    probe.tick()
    assert len(probe.ratios) == 2
    assert probe.speed() == sum(probe.ratios) / 2
    probe.restart()
    assert len(probe.ratios) == 1
