#!/usr/bin/env python3
"""Layered benchmark of setrep's oracle and closed forms.

    python3 perfbench/run.py --workload direct|linegraph \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  With ``--trace 0`` the ladder is run in
passes until ``--seconds`` have gone by and the end-to-end metrics are
reported; with ``--trace 1`` one untraced and one traced pass give the
per-layer metrics and the tracing overhead.  Every answer is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and a fuller record (run
metadata, failures, spans) is written to ``perfbench/out/``.  End-to-end
times are scaled to a reference machine speed by ``gauge.py``.

Runs use one process; set ``SETREP_THREADS`` to measure the worker pool.
"""

import time

START = time.perf_counter()  # set-up is timed from before the package import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
SETUP_GAUGE_SAMPLES = 3  # rounds of the gauge loop after each set-up

sys.path.insert(0, str(HERE))
import gauge  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("representations.canonical_form.s", "s"),
    ("representations.canonical_form.calls", "count"),
    ("representations.refine.calls", "count"),
    ("oracle.keying.s", "s"),
    ("oracle.keying.keys", "count"),
    ("oracle.keying.classes", "count"),
    ("partitions.kernel.s", "s"),
    ("partitions.kernel.calls", "count"),
    ("partitions.kernel.nodes", "count"),
    ("partitions.kernel.partitions", "count"),
    ("oracle.padding.s", "s"),
    ("oracle.padding.tried", "count"),
    ("oracle.padding.kept", "count"),
    ("oracle.padding.kept_ratio", "ratio"),
    ("oracle.symmetry.s", "s"),
    ("oracle.symmetry.perms", "count"),
    ("classify.s", "s"),
    ("theorems.s", "s"),
    ("oracle.self.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.missing_hooks", "count"),
    ("ladder.calls", "count"),
)


def load_package():
    """Import setrep from this checkout's ``src`` and the benchmark modules."""
    src = ROOT / "src"
    if not (src / "setrep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no setrep package under {src}; run from the "
                 "root of a source checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import setrep
    if Path(setrep.__file__).resolve().parent != (src / "setrep").resolve():
        sys.exit(f"perfbench: imported setrep from {setrep.__file__}, "
                 f"not from {src}")
    import tracing
    import workloads
    return workloads, tracing


def setup(name: str, seed: int):
    """Import, input generation and a warm-up pass over the tiny ladder.
    Returns the set-up seconds as measured and at the reference speed,
    gauged right after the set-up."""
    workloads, tracing = load_package()
    workload = workloads.WORKLOADS[name](seed)
    workloads.WORKLOADS[name](seed, tiny=True).run(workloads.Pass())
    raw = time.perf_counter() - START
    g = gauge.Gauge()
    g.samples = [gauge.sample() for _ in range(SETUP_GAUGE_SAMPLES)]
    return workloads, tracing, workload, (raw, raw * g.scale())


def setup_samples(args, own: tuple[float, float]) -> list[tuple]:
    """This process's set-up times plus those of fresh interpreters."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        raw, scaled = done.stdout.split()[-2:]
        samples.append((float(raw), float(scaled)))
    return samples


def metadata() -> dict:
    from setrep.partitions import kernel_name
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                sha = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "kernel": kernel_name(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "SETREP_PURE": os.environ.get("SETREP_PURE"),
            "SETREP_THREADS": os.environ.get("SETREP_THREADS")}


def crosscheck(workload) -> dict:
    """Re-run the workload's kernel calls through both kernels; any
    disagreement is a failure.  ``ran`` is false when there is only one."""
    try:
        from setrep._partition_c import enumerate_edge_partitions as compiled
        from setrep._partition_py import enumerate_edge_partitions as pure
        from setrep.oracle import _masks
    except ImportError as exc:
        return {"ran": False, "reason": str(exc), "calls": 0,
                "mismatches": []}
    mismatches = []
    inputs = {(g.edges, g.n, q): (g, q) for g, q in workload.kernel_inputs()}
    for g, q in inputs.values():
        masks = tuple(_masks(g))
        a, b = pure(g.n, masks, q), compiled(g.n, masks, q)
        if (sorted(a[0]), a[1], a[2]) != (sorted(b[0]), b[1], b[2]):
            mismatches.append(f"n={g.n} edges={g.edges} q={q}")
    return {"ran": True, "calls": len(inputs), "mismatches": mismatches}


class Judge:
    """Checks each pass as it ends.  A call fails when it raises, when its
    check finds a wrong answer, or when its answer differs from the first
    pass's (traced or not).  Only the first pass's answers are kept, so
    memory does not grow with the number of passes."""

    def __init__(self, workloads):
        self.workloads = workloads
        self.first = None
        self.problems: list[str] = []
        self.attempted = 0

    def add(self, p) -> None:
        prints = [self.workloads.fingerprint(c.result) for c in p.calls]
        self.attempted += len(p.calls)
        if self.first is None:
            self.first = prints
        if len(prints) != len(self.first):
            self.problems.append("a pass made a different number of calls")
            return
        for c, want, have in zip(p.calls, self.first, prints):
            problem = self.workloads.failure(c)
            if problem is None and want != have:
                problem = "answer differs from the first pass"
            if problem:
                self.problems.append(f"{c.api} {c.label}: {problem}")


def timed_pass(workloads, workload, judge, tracer=None, meter=None):
    """Run one pass, check it, and return the seconds spent in its calls
    and the calls.  ``meter`` is sampled between calls and once after the
    last."""
    p = workloads.Pass(tracer, meter)
    workload.run(p)
    if meter is not None:
        meter.samples.append(gauge.sample())
    judge.add(p)
    calls = [(f"{c.api} {c.label}", c.seconds) for c in p.calls]
    return sum(s for _name, s in calls), calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("direct", "linegraph"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    workloads, tracing, workload, own_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(*own_setup)
        return 0

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "meta": metadata()}
    judge = Judge(workloads)
    if args.trace:
        plain_s, _calls = timed_pass(workloads, workload, judge)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s, calls = timed_pass(workloads, workload, judge, tracer)
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        layer["trace.overhead_s"] = traced_s - plain_s
        layer["trace.missing_hooks"] = len(tracer.missing)
        layer["ladder.calls"] = len(calls)
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        names = [name for name, _s in calls]
        record.update(missing_layers=tracer.missing,
                      pass_s={"untraced": plain_s, "traced": traced_s},
                      by_call=tracer.by_call(names),
                      spans=tracer.spans, span_calls=names)
    else:
        passes, walls, scales, lasted = [], [], [], []
        begin = time.perf_counter()
        # Start another pass only if it should end within --seconds.
        while not passes or (time.perf_counter() - begin
                             + statistics.mean(lasted) <= args.seconds):
            start = time.perf_counter()
            g = gauge.Gauge()
            wall, calls = timed_pass(workloads, workload, judge, meter=g)
            lasted.append(time.perf_counter() - start)
            walls.append(wall)
            scales.append(g.scale())
            passes.append([s for _name, s in calls])
        scaled = [w * k for w, k in zip(walls, scales)]
        setups = setup_samples(args, own_setup)
        # Percentiles of every call are kept in the record, not gated: on
        # `direct` the median falls between groups of calls and jumps.
        samples = [t for times in passes for t in times]
        record.update(pass_s=walls, pass_scale=scales, pass_scaled_s=scaled,
                      setup_s=setups, call_s=passes,
                      call_samples=len(samples),
                      call_s_p50=statistics.median(samples),
                      call_s_p90=statistics.quantiles(samples, n=10)[8])
        values = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(s for _raw, s in setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    check = crosscheck(workload)
    problems = judge.problems + [f"kernels disagree: {m}"
                                 for m in check["mismatches"]]
    attempted = judge.attempted + check["calls"]
    failed = len(problems)
    record.update(kernel_crosscheck=check, failures=problems,
                  fail_ratio=failed / attempted, metrics=metrics)

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    for line in problems[:20]:
        print(f"FAIL {line}")
    print(f"kernel={record['meta']['kernel']} "
          f"crosscheck={'ran' if check['ran'] else 'not run'} "
          f"record={out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
