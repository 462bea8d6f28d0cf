"""Benchmark entry point for pgarcs.

    python3 perfbench/run.py --workload prove|rediscover|verify \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src, in
this one process and one thread.  Set-up is timed SETUP_REPS times,
half before and half after the timed passes, which run until S seconds
have passed, at least one whole pass.  With --trace 0 the last line of
standard output is the result with every end-to-end metric of
BENCHMARK.json; with --trace 1 every call into pgarcs is wrapped in a
span and the result holds every per-layer metric instead.  A metric that names an instance or layer the
workload does not run reads 0 and is listed under "not_run" in the
report.  The full report (environment, instances, checks, spans) is
written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"

# span names whose per-repetition (or per-pass) total is a per-layer metric
TOTALS = (
    "gf.field",
    "geometry.build_plane",
    "group.closure",
    "group.conjugate",
    "group.orbits",
    "condense.condense",
    "condense.expand",
    "solver.model",
    "solver.warm_start",
    "classify.enumerate",
    "arcs.parse",
    "arcs.verify",
    "arcs.code",
    "cli.tables",
    "cli.verify",
    "cli.code",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit():
    """The commit of a git checkout, read from .git without running git;
    None where the tree is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, workloads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "budgets": workloads.BUDGETS,
        "setup_reps": workloads.SETUP_REPS,
        "lp_reps": workloads.LP_REPS,
    }


def measure(args, workloads, tr, checks, workdir):
    """Time SETUP_REPS set-ups and the timed passes, which run for
    args.seconds.  Half the set-ups run before the passes, and the pass
    uses the state of the last of these; the rest run after them, so the
    median set-up time spans the run as the passes do.  An exception
    counts as a failed operation and ends the measurement."""
    setup, run_pass, _, _ = workloads.WORKLOADS[args.workload]
    setup_times, passes = [], []

    def timed_setup(rep):
        tr.phase, tr.rep = "setup", rep
        gc.collect()
        t0 = time.perf_counter()
        state = setup(tr, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        return state

    before = (workloads.SETUP_REPS + 1) // 2
    try:
        for rep in range(before):
            state = timed_setup(rep)
    except Exception:
        checks.crashed("set-up")
        return None, setup_times, passes
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        tr.phase, tr.rep = "timed", len(passes)
        gc.collect()
        t0 = time.perf_counter()
        try:
            rep = run_pass(tr, state, checks)
        except Exception:
            checks.crashed(f"pass {len(passes)}")
            break
        rep.setdefault("wall_s", time.perf_counter() - t0)
        passes.append(rep)
    try:
        for rep in range(before, workloads.SETUP_REPS):
            timed_setup(rep)
    except Exception:
        checks.crashed("set-up")
    return state, setup_times, passes


def layer_metrics(args, workloads, tr, checks, state, passes):
    tr.phase = "probe"
    tr.rep = 0
    _, _, probe, by_workload = workloads.WORKLOADS[args.workload]
    try:
        m = probe(tr, state, checks)
        m.update(by_workload(tr, state, passes))
    except Exception:
        checks.crashed("probe")
        m = {}
    for name in TOTALS:
        if tr.durations(name):
            m[name + "_s"] = tr.total(name)
    walls = [p["wall_s"] for p in passes]
    for layer, self_s in tr.self_times("timed").items():
        m[f"{layer}.self_s"] = self_s / len(passes)
    m["bench.self_s"] = (sum(walls) - tr.top_level("timed")) / len(passes)
    last = passes[-1]
    for key in ("solved", "short_pts"):
        if key in last:
            m[f"solver.{key}"] = last[key]
    spans = sum(s["phase"] == "timed" for s in tr.spans) / len(passes)
    m["trace.wall_s"] = statistics.median(walls)
    m["trace.spans"] = spans
    m["trace.overhead_s"] = spans * tr.per_span_cost()
    return m


def main(argv=None):
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pgarcs" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: run from a pgarcs checkout; no src/pgarcs or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    # one thread: numerical libraries read these when first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from checks import Checks
    from tracer import NullTracer, Tracer

    tr = Tracer() if args.trace else NullTracer()
    checks = Checks()
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as workdir:
        state, setup_times, passes = measure(args, workloads, tr, checks, workdir)
        declared = bench["per_layer"] if args.trace else bench["end_to_end"]
        if not passes:
            values = {}
        elif args.trace:
            values = layer_metrics(args, workloads, tr, checks, state, passes)
        else:
            values = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    unknown = sorted(set(values) - {d["name"] for d in declared})
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1
    not_run = [d["name"] for d in declared if d["name"] not in values]
    metrics = {d["name"]: {"value": values.get(d["name"], 0), "unit": d["unit"]} for d in declared}

    last = passes[-1] if passes else {"instances": {}}
    report = {
        "environment": environment(args, workloads),
        "setup_s": setup_times,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "instances": last["instances"],
        "solved": last.get("solved"),
        "short_pts": last.get("short_pts"),
        "problems": checks.problems,
        "not_run": not_run,
        "metrics": metrics,
    }
    if args.trace:
        report["spans"] = tr.spans
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    for inst, rec in last["instances"].items():
        print(f"{inst}: {rec['status']} objective={rec['objective']} nodes={rec['nodes']} time={rec['time_s']:.3f}s")
    print(f"passes={len(passes)} solved={last.get('solved')} short_pts={last.get('short_pts')}")
    for problem in checks.problems:
        print("FAILED", problem)
    print(f"report: {out.relative_to(ROOT)}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
