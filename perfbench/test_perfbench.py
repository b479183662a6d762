"""Tiny versions of both workloads, untraced and traced.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gauge  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = ("direct", "linegraph")


def tiny_run(name, tracer=None):
    """One untraced pass, then one more (traced if asked); returns the judge."""
    workload = workloads.WORKLOADS[name](seed=7, tiny=True)
    judge = run.Judge(workloads)
    run.timed_pass(workloads, workload, judge)
    if tracer is not None:
        tracer.install()
    try:
        run.timed_pass(workloads, workload, judge, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return judge


@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_passes_every_check(name):
    judge = tiny_run(name)
    assert judge.attempted > 0
    assert judge.problems == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_answers_match_and_layers_are_seen(name):
    tracer = tracing.Tracer()
    judge = tiny_run(name, tracer)
    assert judge.problems == []  # includes "answer differs" checks
    assert tracer.missing == []
    layers = tracer.layer_metrics()
    assert layers["partitions.kernel.calls"] > 0
    assert layers["partitions.kernel.s"] > 0
    assert layers["oracle.padding.tried"] >= layers["oracle.padding.kept"] > 0
    if name == "direct":
        assert layers["representations.canonical_form.calls"] > 0
        assert layers["representations.refine.calls"] > 0
        assert layers["oracle.symmetry.perms"] > 0
    if name == "linegraph":
        assert layers["classify.s"] > 0 and layers["theorems.s"] > 0
    for sid, _name, start, end, parent, _call in tracer.spans:
        assert start <= end and parent < sid


def test_gauge_is_sampled_outside_the_calls_and_scales_a_pass():
    meter = gauge.Gauge()
    judge = run.Judge(workloads)
    workload = workloads.WORKLOADS["direct"](seed=7, tiny=True)
    wall, calls = run.timed_pass(workloads, workload, judge, meter=meter)
    assert judge.problems == []
    assert wall == pytest.approx(sum(s for _name, s in calls))
    assert len(meter.samples) >= 2  # before the first call, after the last
    meter.samples = [1.5 * gauge.REFERENCE_S, 2.5 * gauge.REFERENCE_S]
    assert meter.scale() == pytest.approx(0.5)


CORRUPT = {
    "complete": ("direct", reference.COMPLETE, (5, "sd"), (5, 2, 11)),
    "linegraph": ("linegraph", reference.LINEGRAPH, "friendship3()",
                  {"sd": (8, 2, 3), "sa": (7, 1, 1)}),
    "direct": ("direct", reference.DIRECT, ("F3", "sa"), (9, 4, 9)),
}


@pytest.mark.parametrize("table_name", CORRUPT)
def test_corrupted_reference_raises_fail_ratio(table_name, monkeypatch):
    name, table, key, wrong = CORRUPT[table_name]
    monkeypatch.setitem(table, key, wrong)
    judge = tiny_run(name)
    assert len(judge.problems) / judge.attempted > 0
    assert all("frozen" in p for p in judge.problems)


def test_census_plane_count_is_checked(monkeypatch):
    monkeypatch.setitem(reference.CENSUS_PLANES, 7, 29)
    judge = tiny_run("direct")
    assert any("verify_dbe K7" in p for p in judge.problems)


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "HOOKS", tracing.HOOKS + (
        ("setrep.oracle", "_no_such_layer", "oracle.gone"),))
    tracer = tracing.Tracer()
    judge = tiny_run("direct", tracer)
    assert judge.problems == []
    assert tracer.missing == ["setrep.oracle._no_such_layer"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [(0, "oracle_search", 0.0, 10.0, -1, 0),
                    (1, "enumerate_edge_partitions", 1.0, 4.0, 0, 0),
                    (2, "_ClassKeyer.key", 5.0, 9.0, 0, 0),
                    (3, "canonical_form", 5.5, 8.5, 2, 0)]
    layers = tracer.layer_metrics()
    assert layers["oracle.self.s"] == pytest.approx(3.0)
    assert layers["partitions.kernel.s"] == pytest.approx(3.0)
    assert layers["oracle.keying.s"] == pytest.approx(1.0)
    assert layers["representations.canonical_form.s"] == pytest.approx(3.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
