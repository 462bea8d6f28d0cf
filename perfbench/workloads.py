"""The benchmark's workloads: prove, rediscover and verify.

Each workload is set up by `setup(tr, seed, workdir)`, which builds
fields, planes, groups and systems and returns the state (and may be
called again after the passes, to time it); measured by
`run_pass(tr, state, checks)`, one timed pass whose outputs are checked
against known values; and, in traced runs only, probed by
`probe(tr, state, checks)`, which times single calls outside the timed
pass.  `layer_metrics(tr, state, passes)` turns the spans into the
per-layer metrics.  Every call into pgarcs goes through the tracer, so a
traced run sees each layer from outside without touching the package.

Budgets are part of the input: the LNS heuristic derives its iteration
count from the budget value, not from the clock.

Seed 0 runs the bundled groups unchanged.  Any other seed conjugates
each group built here (the q=11 involution and each corpus group) by a
seeded random alpha in PGL(3,q) and moves each arc by alpha; the
conjugated systems are isomorphic, so verdicts and reachable targets do
not change while orbit numbering and search order do.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from dataclasses import dataclass

from pgarcs import (
    CORPUS,
    IlpModel,
    admits_group,
    build_plane,
    closure,
    condense,
    conjugate_group,
    enumerate_cyclic_classes,
    field_for_order,
    greedy_warm_start,
    load_corpus_arc,
    lp_bound,
    make_element,
    map_arc,
    min_distance,
    orbits,
    run_exclusion,
    solve_feasible,
    solve_max,
    to_generator_matrix,
    verify_arc,
)
from pgarcs import cli
from pgarcs.arcs import corpus_text, format_arc_file

from checks import expect, witness_problems

BUDGETS = {
    "q4_r3_max": 60.0,
    "sweep_per_class": 10.0,
    "q11_r2_inv": 120.0,
    "rediscover_per_arc": 3.0,
}
SETUP_REPS = 6
LP_REPS = 5

# known answers
Q4_OPTIMUM = 9  # largest (n,3)-arc of PG(2,4)
SWEEPS = {
    # inst: (p, r, n, nontrivial classes); m_2(2,5)=6 and m_3(2,7)=15
    "q5_r2_n7": (5, 2, 7, 29),
    "q7_r3_n16": (7, 3, 16, 57),
}
Q11_INVOLUTION = ((0, 1, 0), (1, 0, 0), (0, 0, 10))
Q11_TARGET = 13  # a (q+2,2)-arc, a hyperoval, exists only for even q
Q11_ELL = 73
RIGID = "RigidOrNonexistent"

ARCS = {name[: -len(".arc")]: (name, q, r, n) for name, (q, r, n, _) in CORPUS.items()}


@dataclass
class System:
    inst: str
    plane: object
    group: object
    orb: object
    cs: object
    model: object


def seeded_alpha(spec, seed, inst):
    """A random element of PGL(3,q) drawn from (seed, instance); None at
    seed 0."""
    if seed == 0:
        return None
    rng = random.Random(f"{seed}/{inst}")
    while True:
        mat = tuple(tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3))
        try:
            return make_element(spec, mat)
        except ValueError:  # singular
            continue


def condensed_system(tr, inst, plane, group, r):
    orb = tr.call("group.orbits", inst, orbits, plane, group)
    cs = tr.call("condense.condense", inst, condense, plane, orb, r)
    model = tr.call("solver.model", inst, IlpModel, cs)
    return System(inst, plane, group, orb, cs, model)


def field_and_plane(tr, inst, q):
    spec = tr.call("gf.field", inst, field_for_order, q)
    return spec, tr.call("geometry.build_plane", inst, build_plane, spec)


def conjugated(tr, inst, spec, group, arc, seed):
    alpha = seeded_alpha(spec, seed, inst)
    if alpha is None:
        return group, arc
    group = tr.call("group.conjugate", inst, conjugate_group, spec, alpha, group)
    if arc is not None:
        arc = tr.call("arcs.map", inst, map_arc, alpha, arc)
    return group, arc


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def root_lp_ms(tr, system):
    for _ in range(LP_REPS):
        tr.call("solver.lp_bound", system.inst, lp_bound, system.model)
    return 1000 * statistics.median(tr.durations("solver.lp_bound", system.inst))


# -- prove -----------------------------------------------------------------


def prove_setup(tr, seed, workdir):
    systems = {}
    spec, plane = field_and_plane(tr, "q4_r3_max", 4)
    group = tr.call("group.closure", "q4_r3_max", closure, spec, [])
    systems["q4_r3_max"] = condensed_system(tr, "q4_r3_max", plane, group, 3)
    spec, plane = field_and_plane(tr, "q11_r2_inv", 11)
    gens = [make_element(spec, Q11_INVOLUTION)]
    group = tr.call("group.closure", "q11_r2_inv", closure, spec, gens)
    group, _ = conjugated(tr, "q11_r2_inv", spec, group, None, seed)
    systems["q11_r2_inv"] = condensed_system(tr, "q11_r2_inv", plane, group, 2)
    classes = {}
    for inst, (p, _, _, _) in SWEEPS.items():
        reps = tr.call("classify.enumerate", inst, enumerate_cyclic_classes, p)
        classes[inst] = sum(1 for c in reps if not c.is_trivial)
    return {"systems": systems, "classes": classes}


def q4_problems(s, sol, tr):
    problems = expect("status", sol.status, "Optimal") + expect("optimum", sol.objective, Q4_OPTIMUM)
    if sol.status == "Optimal":
        problems += witness_problems(s, sol.x, Q4_OPTIMUM, tr)
    return problems


def q11_problems(s, sol):
    return expect("ell", s.cs.ell, Q11_ELL) + expect("status", sol.status, "ProvedInfeasible")


def prove_pass(tr, st, checks):
    out = {}
    s = st["systems"]["q4_r3_max"]
    sol, t = timed(tr.call, "solver.solve_max", s.inst, solve_max, s.model, budget=BUDGETS["q4_r3_max"], threads=1)
    ok = checks.record(s.inst, q4_problems(s, sol, tr))
    out[s.inst] = _record(sol.status, sol.objective, sol.nodes_explored, t, ok)

    for inst, (p, r, n, nclasses) in SWEEPS.items():

        def progress(rec, inst=inst):
            now = time.perf_counter()
            tr.add_span("solver.class", inst, now - rec["time"], now)

        with tr.span("classify.run_exclusion", inst):
            rep, t = timed(
                run_exclusion, p, r, n, budget_per_class=BUDGETS["sweep_per_class"], threads=1, progress=progress
            )
        problems = expect("verdict", rep.verdict, RIGID)
        problems += expect("classes", len(rep.classes), nclasses)
        problems += expect("classes enumerated in set-up", st["classes"][inst], nclasses)
        nodes = sum(c["nodes"] for c in rep.classes)
        out[inst] = _record(rep.verdict, None, nodes, t, checks.record(inst, problems))
        out[inst]["class_times"] = [c["time"] for c in rep.classes]

    s = st["systems"]["q11_r2_inv"]
    sol, t = timed(
        tr.call, "solver.solve_feasible", s.inst, solve_feasible, s.model, Q11_TARGET, budget=BUDGETS["q11_r2_inv"]
    )
    ok = checks.record(s.inst, q11_problems(s, sol))
    out[s.inst] = _record(sol.status, sol.objective, sol.nodes_explored, t, ok)
    return {"instances": out, "solved": sum(rec["ok"] for rec in out.values())}


def prove_probe(tr, st, checks):
    return {f"solver.root_lp_ms.{inst}": root_lp_ms(tr, s) for inst, s in st["systems"].items()}


def prove_layer_metrics(tr, st, passes):
    m = {}
    last = passes[-1]["instances"]
    for inst, s in st["systems"].items():
        m[f"group.order.{inst}"] = s.group.order
        m[f"condense.ell.{inst}"] = s.cs.ell
    solve_spans = {"q4_r3_max": "solver.solve_max", "q11_r2_inv": "solver.solve_feasible"}
    for inst, rec in last.items():
        if inst in SWEEPS:
            class_times = rec["class_times"]
            solve_s = sum(class_times)
            sweep_s = statistics.median(tr.durations("classify.run_exclusion", inst))
            m[f"classify.classes.{inst}"] = len(class_times)
            m[f"classify.class_nodes.{inst}"] = rec["nodes"]
            m[f"classify.class_s_median.{inst}"] = statistics.median(class_times)
            m[f"classify.class_s_max.{inst}"] = max(class_times)
            m[f"classify.sweep_self_s.{inst}"] = sweep_s - solve_s
        else:
            solve_s = statistics.median(tr.durations(solve_spans[inst], inst))
        m[f"solver.solve_s.{inst}"] = solve_s
        m[f"solver.nodes.{inst}"] = rec["nodes"]
        m[f"solver.nodes_per_s.{inst}"] = rec["nodes"] / solve_s
    return m


# -- rediscover ------------------------------------------------------------


def rediscover_setup(tr, seed, workdir):
    systems = {}
    for inst, (name, q, r, n) in ARCS.items():
        spec, plane = field_and_plane(tr, inst, q)
        pa = tr.call("arcs.parse", inst, load_corpus_arc, name, plane=plane)
        group = tr.call("group.closure", inst, closure, spec, pa.group.generators)
        group, arc = conjugated(tr, inst, spec, group, pa.arc, seed)
        systems[inst] = (condensed_system(tr, inst, plane, group, r), arc)
    return {"systems": systems}


def rediscover_problems(s, sol, n, tr):
    if sol.status == "FeasibleFound":
        return witness_problems(s, sol.x, n, tr)
    if sol.status != "Timeout":
        # the bundled arc is a union of orbits of its group, so the target is reachable
        return [f"status {sol.status} although the arc exists"]
    return []


def rediscover_pass(tr, st, checks):
    out = {}
    budget = BUDGETS["rediscover_per_arc"]
    for inst, (s, arc) in st["systems"].items():
        _, _, r, n = ARCS[inst]
        problems = expect("admits_group", admits_group(arc, s.group), True)
        problems += expect("arc size", len(arc.points), n)
        t0 = time.perf_counter()
        sol, solve_s = timed(tr.call, "solver.solve_feasible", inst, solve_feasible, s.model, n, budget=budget)
        problems += rediscover_problems(s, sol, n, tr)
        t = time.perf_counter() - t0
        ok = checks.record(inst, problems)
        out[inst] = _record(sol.status, sol.objective, sol.nodes_explored, t, ok)
        out[inst]["overrun_s"] = max(0.0, solve_s - budget)
    return {
        "instances": out,
        "solved": sum(rec["ok"] and rec["status"] == "FeasibleFound" for rec in out.values()),
        "short_pts": sum(max(0, ARCS[i][3] - rec["objective"]) for i, rec in out.items()),
        "wall_s": sum(rec["time_s"] for rec in out.values()),
    }


def rediscover_probe(tr, st, checks):
    m = {}
    for inst, (s, _) in st["systems"].items():
        m[f"solver.root_lp_ms.{inst}"] = root_lp_ms(tr, s)
        warm = tr.call("solver.warm_start", inst, greedy_warm_start, s.model)
        problems = expect("warm start feasible", s.model.check_feasible(warm.x), True)
        checks.record(f"{inst} warm start", problems)
        m[f"solver.warm_start_obj.{inst}"] = warm.objective
    return m


def rediscover_layer_metrics(tr, st, passes):
    m = {}
    last = passes[-1]["instances"]
    for inst, (s, _) in st["systems"].items():
        m[f"group.order.{inst}"] = s.group.order
        m[f"condense.ell.{inst}"] = s.cs.ell
        m[f"solver.best_obj.{inst}"] = last[inst]["objective"]
        m[f"solver.overrun_s.{inst}"] = last[inst]["overrun_s"]
    return m


# -- verify ----------------------------------------------------------------


def verify_setup(tr, seed, workdir):
    arcs = {}
    for inst, (name, q, r, n) in ARCS.items():
        spec, plane = field_and_plane(tr, inst, q)
        pa = tr.call("arcs.parse", inst, load_corpus_arc, name, plane=plane)
        group, arc = conjugated(tr, inst, spec, pa.group, pa.arc, seed)
        if arc is pa.arc:
            text = corpus_text(name)
        else:
            text = format_arc_file(spec, arc.points, r, plane, generators=group.generators)
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        arcs[inst] = (spec, arc, group, path)
    return {"arcs": arcs, "out": os.path.join(workdir, "report.json")}


def _cli(tr, name, inst, argv, out):
    """Run one subcommand in process; returns (exit code, report, seconds)."""
    if os.path.exists(out):
        os.remove(out)
    rc, t = timed(tr.call, name, inst, cli.main, argv + ["--out", out])
    try:
        with open(out) as fh:
            return rc, json.load(fh), t
    except (OSError, ValueError):
        return rc, None, t


def verify_pass(tr, st, checks):
    out = st["out"]
    rc, rep, wall = _cli(tr, "cli.tables", "tables", ["tables"], out)
    problems = expect("exit code", rc, 0) + expect("all_verified", rep and rep["all_verified"], True)
    checks.record("tables", problems)
    for inst, (_, _, _, path) in st["arcs"].items():
        _, _, r, n = ARCS[inst]
        rc, rep, t = _cli(tr, "cli.verify", inst, ["verify", path], out)
        wall += t
        problems = expect("exit code", rc, 0)
        if rep is not None:
            problems += expect("n", rep["n"], n) + expect("max multiplicity", rep["max_multiplicity"], r)
            problems += expect("group_admitted", rep["group_admitted"], True)
        checks.record(f"{inst} verify", problems)
        rc, rep, t = _cli(tr, "cli.code", inst, ["code", path], out)
        wall += t
        problems = expect("exit code", rc, 0) + expect("d", rep and rep["d"], n - r)
        checks.record(f"{inst} code", problems)
    return {"instances": {}, "wall_s": wall}


def verify_probe(tr, st, checks):
    for inst, (spec, arc, group, _) in st["arcs"].items():
        _, _, r, n = ARCS[inst]
        rep = tr.call("arcs.verify", inst, verify_arc, arc, group)
        gen = tr.call("arcs.code", inst, to_generator_matrix, arc)
        d = tr.call("arcs.code", inst, min_distance, spec, gen)
        problems = expect("max multiplicity", rep.max_multiplicity, r)
        problems += expect("group_admitted", rep.group_admitted, True) + expect("d", d, n - r)
        checks.record(f"{inst} api", problems)
    return {}


def verify_layer_metrics(tr, st, passes):
    return {}


def _record(status, objective, nodes, t, ok):
    return {"status": status, "objective": objective, "nodes": nodes, "time_s": t, "ok": ok}


WORKLOADS = {
    "prove": (prove_setup, prove_pass, prove_probe, prove_layer_metrics),
    "rediscover": (rediscover_setup, rediscover_pass, rediscover_probe, rediscover_layer_metrics),
    "verify": (verify_setup, verify_pass, verify_probe, verify_layer_metrics),
}
