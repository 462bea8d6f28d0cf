"""Command-line front end.

Subcommands: verify, condense, solve, exclude, classify, code, tables.
Every report is one JSON object (indented, sorted keys) carrying the
tool version, the field spec and sha256 digests of the input files, so
long runs stay attributable; it goes to --out or stdout.  condense and
classify also make an artifact (the system, the class list), which goes
to --out or stdout, the report then going to stdout or stderr.  exclude
streams one line to stderr per class solved or implied in this run
(skipped classes and records reused from a checkpoint print none):
``class <id> order <m> ell <ell>: <status> nodes=<k> time=<s>`` for a
solved class (no time= with --deterministic), and ``class <id> order
<m>: ProvedInfeasible implied by class <src>`` for a class excluded by
the solve of class src.  --deterministic drops the report's ``time``
and every class record's, so reports are byte-identical across runs of
a search that ends within its budget; a search cut by its budget
reports a node count bounded by the wall clock.  Exit codes: 1 an error
(``error: ...`` on stderr) or a failed verify or tables check; 2 a solve
timeout, or an exclude sweep with a class undecided (Timeout or
Skipped) or none excluded (verdict Inconclusive, as when every class is
realized); 0 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import Counter

from . import __version__
from .arcs import (
    CORPUS,
    admitted_group,
    bundled_rows,
    load_corpus_arc,
    min_distance,
    parse_arc_file,
    to_generator_matrix,
    verify_arc,
)
from .classify import (
    VERDICT_INCONCLUSIVE,
    enumerate_cyclic_classes,
    format_class_list,
    run_exclusion,
    subgroup_class_count,
)
from .condense import condense, format_system, parse_system
from .errors import BudgetExceededError, ParseError
from .geometry import build_plane
from .gf import field_for_order, parse_field_spec
from .group import closure, orbits, parse_group_file
from .solver import TIMEOUT, IlpModel, solve_feasible, solve_max

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def _read(path, mode="r"):
    """The whole file, closed before returning."""
    with open(path, mode) as fh:
        return fh.read()


def _digest(path):
    return hashlib.sha256(_read(path, "rb")).hexdigest()


def _meta(field=None, inputs=()):
    meta = {"tool": "pgarcs", "version": __version__}
    if field is not None:
        meta["field"] = field.spec_string()
    if inputs:
        meta["inputs"] = {p: _digest(p) for p in inputs}
    return meta


def cmd_verify(args):
    pa = parse_arc_file(_read(args.arcfile))
    convention, admitted = pa.convention, pa.admitted
    if args.group:
        gens = parse_group_file(_read(args.group), pa.spec)
        _, convention, admitted = admitted_group(pa.arc, gens)
    report = verify_arc(pa.arc).to_dict()
    report.update(group_admitted=admitted, convention=convention, r_claimed=pa.arc.r_claimed)
    report["meta"] = _meta(pa.spec, [args.arcfile] + ([args.group] if args.group else []))
    ok = report["is_arc_for_claimed_r"] and report["group_admitted"] in (None, True)
    return (EXIT_OK if ok else EXIT_ERROR), report, None


def cmd_condense(args):
    spec = field_for_order(args.q) if args.field is None else parse_field_spec(args.field)
    gens = parse_group_file(_read(args.group), spec) if args.group else []
    plane = build_plane(spec)
    grp = closure(spec, gens)
    od = orbits(plane, grp)
    cs = condense(plane, od, args.r)
    hist = Counter(od.weights)
    summary = {
        "ell": cs.ell,
        "group_order": grp.order,
        "orbit_length_histogram": {str(k): v for k, v in sorted(hist.items())},
        "meta": _meta(spec, [args.group] if args.group else []),
    }
    return EXIT_OK, summary, format_system(cs)


def cmd_solve(args):
    cs = parse_system(_read(args.system))
    model = IlpModel(cs)
    if args.target is not None:
        sol = solve_feasible(model, target=args.target, budget=args.budget)
    else:
        sol = solve_max(model, budget=args.budget)
    report = {
        "q": cs.q,
        "r": cs.r,
        "ell": cs.ell,
        "status": sol.status,
        "objective": sol.objective,
        "x": "".join(str(v) for v in sol.x),
        "nodes": sol.nodes_explored,
        "time": round(sol.wall_time, 3),
        "meta": _meta(inputs=[args.system]),
    }
    return (EXIT_INCONCLUSIVE if sol.status == TIMEOUT else EXIT_OK), report, None


def cmd_exclude(args):
    try:
        skip = [int(v) for v in args.skip.split(",") if v] if args.skip else []
    except ValueError:
        raise ValueError(f"--skip {args.skip}: class ids are comma-separated integers") from None

    def progress(rec):
        if rec["implied_by"] is not None:
            line = f"class {rec['id']} order {rec['order']}: {rec['status']} implied by class {rec['implied_by']}"
        else:
            line = f"class {rec['id']} order {rec['order']} ell {rec['ell']}: {rec['status']} nodes={rec['nodes']}"
            if not args.deterministic:
                line += f" time={rec['time']}"
        sys.stderr.write(line + "\n")

    report = run_exclusion(
        args.q,
        args.r,
        args.n,
        budget_per_class=args.budget_per_class,
        skip=skip,
        checkpoint=args.resume,
        progress=progress,
    )
    payload = report.to_dict()
    payload["meta"] = _meta(field_for_order(args.q))
    return (EXIT_INCONCLUSIVE if report.undecided or report.verdict == VERDICT_INCONCLUSIVE else EXIT_OK), payload, None


def cmd_classify(args):
    classes = enumerate_cyclic_classes(args.q)
    payload = {
        "q": args.q,
        "classes_total": len(classes),
        "classes_nontrivial": sum(1 for c in classes if not c.is_trivial),
        "cyclic_subgroup_classes": subgroup_class_count(classes),
        "meta": _meta(field_for_order(args.q)),
    }
    return EXIT_OK, payload, format_class_list(classes)


def cmd_code(args):
    pa = parse_arc_file(_read(args.arcfile))
    d = min_distance(pa.spec, to_generator_matrix(pa.arc))
    rep = verify_arc(pa.arc)
    payload = {
        "n": rep.n,
        "k": 3,
        "d": d,
        "q": pa.spec.q,
        "n_minus_r": rep.n - rep.max_multiplicity,
        "meta": _meta(pa.spec, [args.arcfile]),
    }
    return EXIT_OK, payload, None


def cmd_tables(args):
    rows = []
    planes = {}  # q -> the plane of the last row of order q
    for arcfile, (q, r, new, old) in CORPUS.items():
        pa = load_corpus_arc(arcfile, plane=planes.get(q))
        planes[q] = pa.arc.plane
        rep = verify_arc(pa.arc)
        ok = rep.n == new and rep.max_multiplicity == r and rep.is_arc_for_claimed_r and pa.admitted
        rows.append({"q": q, "r": r, "old_bound": old, "new_bound": new, "arc_file": arcfile, "verified": ok})
    all_ok = all(row["verified"] for row in rows)
    open_cases = [
        {"q": int(q), "r": int(r), "candidates": [int(v) for v in cands.split(",")]}
        for q, r, cands in bundled_rows("open_cases.tsv")
    ]
    payload = {
        "improved_bounds": rows,
        "open_cases": open_cases,
        "all_verified": all_ok,
        "meta": _meta(),
    }
    return (EXIT_OK if all_ok else EXIT_ERROR), payload, None


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="pgarcs",
        description="Construct, verify and bound (n,r)-arcs in PG(2,q).",
    )
    ap.add_argument("--version", action="version", version=f"pgarcs {__version__}")
    ap.set_defaults(deterministic=False)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the report (or the artifact) here instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[out])

    p = add("verify", help="verify an arc file, optionally with a group")
    p.add_argument("arcfile")
    p.add_argument("--group", help="separate group file to check admission against")
    p.set_defaults(func=cmd_verify)

    p = add("condense", help="build the orbit-condensed system")
    field = p.add_mutually_exclusive_group(required=True)
    field.add_argument("--q", type=int)
    field.add_argument("--field", help="field spec string, e.g. 'p=5 e=2 poly=2,1,1'")
    p.add_argument("--group", help="generator file; omit for the trivial group")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_condense)

    p = add("solve", help="run the branch-and-bound solver on a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--target", type=int, help="stop at this objective (feasibility mode)")
    p.add_argument("--budget", type=float, default=60.0)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = add("exclude", help="automorphism exclusion sweep for prime q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget-per-class", type=float, default=60.0)
    p.add_argument("--skip", help="comma-separated class ids to skip")
    p.add_argument("--resume", help="checkpoint file; per-class results are reused")
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(func=cmd_exclude)

    p = add("classify", help="enumerate cyclic conjugacy classes for prime q")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_classify)

    p = add("code", help="linear-code parameters [n, 3, d] of an arc")
    p.add_argument("arcfile")
    p.set_defaults(func=cmd_code)

    p = add("tables", help="cross-check bundled arcs against the bounds table")
    p.set_defaults(func=cmd_tables)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, report, artifact = args.func(args)
        if args.deterministic:
            for rec in [report, *report.get("classes", ())]:
                rec.pop("time", None)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        first, summary = (text, None) if artifact is None else (artifact, text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(first)
        else:
            sys.stdout.write(first)
        if summary is not None:
            (sys.stdout if args.out else sys.stderr).write(summary)
        return code
    except (ParseError, BudgetExceededError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
