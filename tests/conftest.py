"""Shared fixtures plus the acceptance-criteria summary reporter.

Every test named ``test_criterion_<N>_*`` in test_acceptance.py is tracked
here, and the terminal summary ends with one PASS/FAIL line per criterion.
"""

import gc
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CRITERION_TITLES = {
    1: "oracle equivalence across the phase/backtracking matrix",
    2: "model soundness enforced on every SAT exit",
    3: "DPS update arithmetic and phase-saving equivalence",
    4: "LSIDS bump/decay/rescore arithmetic",
    5: "chronological backtracking mechanics",
    6: "performance floor on the bundled pack",
    7: "harness arithmetic: PAR-2, CSV schema, worker counts",
    8: "A/B methodology smoke test over both presets",
    9: "byte-identical stats lines for identical seeded runs",
}

_ACCEPTANCE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")
_outcomes = {}


@pytest.fixture(scope="session")
def repo_root():
    return REPO_ROOT


@pytest.fixture(scope="session")
def pack_dir():
    """Directory of the bundled 50-var/218-clause benchmark pack."""
    path = os.path.join(REPO_ROOT, "benchmarks", "pack50")
    if not os.path.isdir(path):
        pytest.fail(
            "benchmarks/pack50 is missing; regenerate it with "
            "scripts/make_bench_pack.py"
        )
    return path


@pytest.fixture
def gc_probe(monkeypatch):
    """Collector-state probes, with the caller's state restored after.

    ``gc_probe(owner, name)`` replaces ``owner.name`` with a wrapper that
    appends ``gc.isenabled()`` to a list on each call, then calls through;
    it returns that list.
    """
    enabled = gc.isenabled()

    def probe(owner, name):
        readings = []
        original = getattr(owner, name)

        def recording(*args, **kwargs):
            readings.append(gc.isenabled())
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return readings

    yield probe
    gc.enable() if enabled else gc.disable()


def pytest_runtest_logreport(report):
    match = _ACCEPTANCE_RE.search(report.nodeid)
    if match is None:
        return
    num = int(match.group(1))
    if report.when == "call":
        if report.outcome == "failed":
            _outcomes[num] = "FAIL"
        else:
            _outcomes.setdefault(num, "PASS")
    elif report.outcome == "failed":  # setup/teardown error
        _outcomes[num] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(CRITERION_TITLES):
        outcome = _outcomes.get(num, "NOT RUN")
        terminalreporter.write_line(
            f"criterion {num}: {outcome} - {CRITERION_TITLES[num]}"
        )
