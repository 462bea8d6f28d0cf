"""Command-line front end.

Subcommands: verify, condense, solve, exclude, classify, code, tables.
Reports are JSON (or a key/value block for solve) and carry the tool
version, the field spec, and sha256 digests of the input files, so long
runs stay attributable.  exclude streams one line per class to stderr:
``class <id> order <m> ell <ell>: <status> nodes=<k> time=<s>`` for a
solved class (no time= with --deterministic), and ``class <id> order
<m>: ProvedInfeasible implied by class <src>`` for a class excluded by
the solve of class src.  Exit codes: 0 success, 2 timeout or
inconclusive, 1 error; exclude exits 2 when any class is undecided
(Timeout or Skipped), so 0 means every class is excluded or realized.
With --deterministic all timing fields are omitted, making reports
byte-identical across runs of a search that ends within its budget; a
search cut by its budget reports a nodes= count bounded by the wall
clock.
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


def _write(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _emit(report, out):
    _write(_json(report), out)


def _emit_artifact(text, summary, out):
    """The artifact to --out and the summary to stdout, or the artifact to
    stdout and the summary to stderr."""
    _write(text, out)
    (sys.stdout if out else sys.stderr).write(_json(summary))


def cmd_verify(args):
    pa = parse_arc_file(_read(args.arcfile))
    group, convention = pa.group, pa.convention
    if args.group:
        gens = parse_group_file(_read(args.group), pa.spec)
        group, convention, _ = admitted_group(pa.arc, gens)
    report = verify_arc(pa.arc, group).to_dict()
    report["convention"] = convention
    report["r_claimed"] = pa.arc.r_claimed
    inputs = [args.arcfile] + ([args.group] if args.group else [])
    report["meta"] = _meta(pa.spec, inputs)
    _emit(report, args.out)
    ok = report["is_arc_for_claimed_r"] and report["group_admitted"] in (None, True)
    return EXIT_OK if ok else EXIT_ERROR


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
    _emit_artifact(format_system(cs), summary, args.out)
    return EXIT_OK


def cmd_solve(args):
    cs = parse_system(_read(args.system))
    model = IlpModel(cs)
    if args.target is not None:
        sol = solve_feasible(model, target=args.target, budget=args.budget)
    else:
        sol = solve_max(model, budget=args.budget)
    lines = [
        f"version={__version__}",
        f"input_sha256={_digest(args.system)}",
        f"q={cs.q}",
        f"r={cs.r}",
        f"ell={cs.ell}",
        f"status={sol.status}",
        f"objective={sol.objective}",
        "x=" + "".join(str(v) for v in sol.x),
        f"nodes={sol.nodes_explored}",
    ]
    if not args.deterministic:
        lines.append(f"time={sol.wall_time:.3f}")
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_INCONCLUSIVE if sol.status == TIMEOUT else EXIT_OK


def cmd_exclude(args):
    skip = [int(v) for v in args.skip.split(",") if v] if args.skip else []

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
    if args.deterministic:
        for rec in payload["classes"]:
            rec.pop("time", None)
    payload["meta"] = _meta(field_for_order(args.q))
    _emit(payload, args.out)
    return EXIT_INCONCLUSIVE if report.undecided or report.verdict == VERDICT_INCONCLUSIVE else EXIT_OK


def cmd_classify(args):
    classes = enumerate_cyclic_classes(args.q)
    payload = {
        "q": args.q,
        "classes_total": len(classes),
        "classes_nontrivial": sum(1 for c in classes if not c.is_trivial),
        "cyclic_subgroup_classes": subgroup_class_count(classes),
        "meta": _meta(field_for_order(args.q)),
    }
    _emit_artifact(format_class_list(classes), payload, args.out)
    return EXIT_OK


def cmd_code(args):
    pa = parse_arc_file(_read(args.arcfile))
    gen = to_generator_matrix(pa.arc)
    d = min_distance(pa.spec, gen)
    rep = verify_arc(pa.arc)
    payload = {
        "n": rep.n,
        "k": 3,
        "d": d,
        "q": pa.spec.q,
        "n_minus_r": rep.n - rep.max_multiplicity,
        "meta": _meta(pa.spec, [args.arcfile]),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_tables(args):
    rows = []
    all_ok = True
    for arcfile, (q, r, new, old) in CORPUS.items():
        pa = load_corpus_arc(arcfile)
        rep = verify_arc(pa.arc, pa.group)
        ok = rep.n == new and rep.max_multiplicity == r and rep.is_arc_for_claimed_r and rep.group_admitted
        all_ok = all_ok and ok
        rows.append({"q": q, "r": r, "old_bound": old, "new_bound": new, "arc_file": arcfile, "verified": ok})
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
    _emit(payload, args.out)
    return EXIT_OK if all_ok else EXIT_ERROR


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(
        prog="pgarcs",
        description="Construct, verify and bound (n,r)-arcs in PG(2,q).",
    )
    ap.add_argument("--version", action="version", version=f"pgarcs {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify an arc file, optionally with a group")
    p.add_argument("arcfile")
    p.add_argument("--group", help="separate group file to check admission against")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("condense", help="build the orbit-condensed system")
    field = p.add_mutually_exclusive_group(required=True)
    field.add_argument("--q", type=int)
    field.add_argument("--field", help="field spec string, e.g. 'p=5 e=2 poly=2,1,1'")
    p.add_argument("--group", help="generator file; omit for the trivial group")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_condense)

    p = sub.add_parser("solve", help="run the branch-and-bound solver on a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--target", type=int, help="stop at this objective (feasibility mode)")
    p.add_argument("--budget", type=float, default=60.0)
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exclude", help="automorphism exclusion sweep for prime q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget-per-class", type=float, default=60.0)
    p.add_argument("--skip", help="comma-separated class ids to skip")
    p.add_argument("--resume", help="checkpoint file; per-class results are reused")
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_exclude)

    p = sub.add_parser("classify", help="enumerate cyclic conjugacy classes for prime q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("code", help="linear-code parameters [n, 3, d] of an arc")
    p.add_argument("arcfile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("tables", help="cross-check bundled arcs against the bounds table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tables)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BudgetExceededError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
