"""Output checks: every operation the benchmark runs is counted in
`attempted`, and one whose output contradicts a known value, or that
raises, is counted in `failed`.  A check never raises."""

from __future__ import annotations

import traceback

from pgarcs import Arc, expand_solution, verify_arc


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op, problems):
        """Count one operation; `problems` lists what its output got wrong.
        Returns True when there were none."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)
        return not problems

    def crashed(self, op):
        """Count one operation that raised; call from an except block."""
        tb = traceback.format_exc(limit=4).strip().replace("\n", " | ")
        return self.record(op, ["raised: " + tb])


def expect(field, got, want):
    return [] if got == want else [f"{field} {got!r}, expected {want!r}"]


def witness_problems(system, x, target, tr):
    """Problems with a solver witness: it must expand to a point set of at
    least `target` points of the full plane, meeting some line in exactly
    r points and none in more."""
    try:
        pts = tr.call("condense.expand", system.inst, expand_solution, system.plane, system.orb, x)
        arc = Arc(plane=system.plane, points=pts, r_claimed=system.cs.r)
        rep = tr.call("arcs.verify", system.inst, verify_arc, arc)
    except ValueError as exc:
        return [f"witness does not expand to an arc: {exc}"]
    problems = []
    if rep.n < target:
        problems.append(f"witness has {rep.n} points, target {target}")
    if not rep.is_arc_for_claimed_r:
        problems.append(f"witness meets a line in {rep.max_multiplicity} points, r={system.cs.r}")
    return problems
