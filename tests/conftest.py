"""Pytest hooks: clears the memos before each test and prints a one-line
verdict per acceptance criterion.

The criteria live in test_acceptance.py as test_c1 .. test_c9.  After the
run we emit a compact PASS/FAIL table so the criteria outcomes are visible
without digging through the full test listing.
"""

import pytest

from setrep import classify, line_graph, oracle
from setrep.representations import _graph_generators


@pytest.fixture(autouse=True)
def clear_memos():
    """Each test starts with empty one-entry memos, so no test leans on
    the base, the generators or the partition record that another test
    left behind."""
    line_graph.cache_clear()
    classify.cache_clear()
    _graph_generators.cache_clear()
    oracle._partition_record.cache_clear()


_CRITERIA = {
    "test_c1": "tables reproduction (near-pencil / plane / silly partition)",
    "test_c2": "complete-graph oracle suite (K3..K5 sd/sa, K4 sdu)",
    "test_c3": "Fano discovery: K7 sd exhausts at 7 with 3 classes",
    "test_c4": "minimum partition bound and equality cases, n = 3..6",
    "test_c5": "line-graph formulas agree with the oracle on the corpus",
    "test_c6": "two-sided plumed triangle sa class counts",
    "test_c7": "witness validity and variant counts on random graphs",
    "test_c8": "EGP round-trip and simplicity duality",
    "test_c9": "isomorphism invariance under universe relabeling",
}

_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    full = report.nodeid.split("::")[-1].split("[")[0]
    name = "_".join(full.split("_")[:2])  # test_c1_tables_... -> test_c1
    if name not in _CRITERIA:
        return
    if report.when == "call":
        _outcomes[name] = report.outcome
    elif report.when == "setup" and report.outcome in ("failed", "skipped"):
        _outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    verdict = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for name in sorted(_CRITERIA):
        if name in _outcomes:
            line = verdict.get(_outcomes[name], _outcomes[name].upper())
            terminalreporter.write_line(f"{name}: {line} - {_CRITERIA[name]}")
