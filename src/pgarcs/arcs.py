"""Arc verification, group admission, arc file I/O, and the linear-code
view of an arc.

An arc is a set of point indices in a plane; the verifier reports n, the
maximum number of selected points on a line (the observed r), and how
many lines attain it.  Taking the n points as columns of a 3 x n matrix
over GF(q) generates a projective linear code of length n, dimension 3
and minimum distance n - r; min_distance recomputes the distance by
exhaustive codeword enumeration so the two views can be cross-checked.

`CORPUS` lists the bundled reference arcs.  It is read, on import, from
the improved-bounds table ``data/bounds_improved.tsv``, whose rows name
each arc file with its q, r, new bound n and the previous bound.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .errors import ParseError
from .geometry import Plane, _normalized_triples, build_plane
from .gf import Field, field_from_header, header_int, text_lines
from .group import (
    Group,
    GroupElement,
    closure,
    format_group_file,
    point_permutation,
    read_generators,
    transpose_element,
)

__all__ = [
    "Arc",
    "ArcReport",
    "CORPUS",
    "ParsedArc",
    "admits_group",
    "admitted_group",
    "bundled_rows",
    "corpus_text",
    "format_arc_file",
    "load_corpus_arc",
    "map_arc",
    "min_distance",
    "parse_arc_file",
    "to_generator_matrix",
    "verify_arc",
]

_TUPLE_RE = re.compile(r"^\((\d+),(\d+),(\d+)\)$")

_DATA = resources.files("pgarcs") / "data"


def bundled_rows(name: str):
    """The tab-separated fields of each row of a bundled table."""
    return [line.split("\t") for _, line in text_lines((_DATA / name).read_text())]


# bundled reference arcs, one per row of the improved-bounds table:
# file name -> (q, r, n, previous lower bound)
CORPUS = {
    arcfile: (int(q), int(r), int(new), int(old))
    for q, r, old, new, arcfile in bundled_rows("bounds_improved.tsv")
}


@dataclass(frozen=True)
class Arc:
    """A set of point indices in a plane, with an optional claimed r."""

    plane: Plane
    points: tuple
    r_claimed: int | None = None


@dataclass
class ArcReport:
    n: int
    max_multiplicity: int
    lines_at_max: int
    is_arc_for_claimed_r: bool
    group_admitted: bool | None = None

    def to_dict(self):
        return asdict(self)


def verify_arc(arc: Arc, group: Group | None = None) -> ArcReport:
    """Count per-line multiplicities and report the observed r."""
    if not arc.points:
        raise ValueError("cannot verify an empty point set")
    pts = list(arc.points)
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate point indices")
    sel = np.zeros(arc.plane.n, dtype=bool)
    sel[pts] = True
    mult = sel[arc.plane.incidence].sum(axis=1)
    rmax = int(mult.max())
    report = ArcReport(
        n=len(pts),
        max_multiplicity=rmax,
        lines_at_max=int((mult == rmax).sum()),
        is_arc_for_claimed_r=(arc.r_claimed is None or rmax == arc.r_claimed),
    )
    if group is not None:
        report.group_admitted = admits_group(arc, group)
    return report


def admits_group(arc: Arc, group: Group) -> bool:
    """True iff every generator maps the point set onto itself."""
    if group.spec != arc.plane.spec:
        raise ValueError("arc and group live over different fields")
    pset = set(arc.points)
    for g in group.generators:
        perm = point_permutation(arc.plane, g)
        if {perm[i] for i in pset} != pset:
            return False
    return True


def admitted_group(arc: Arc, generators):
    """(group, convention, admitted): the group the generators make under
    the column action if it stabilizes the arc, else under the transposed
    ("row") action if that one does, else the column group with
    convention None and admitted False."""
    spec = arc.plane.spec
    group = closure(spec, generators)
    if admits_group(arc, group):
        return group, "column", True
    transposed = closure(spec, [transpose_element(spec, g) for g in generators])
    if admits_group(arc, transposed):
        return transposed, "row", True
    return group, None, False


def map_arc(alpha: GroupElement, arc: Arc) -> Arc:
    """Image arc under an invertible collineation; same cardinality."""
    perm = point_permutation(arc.plane, alpha)
    pts = sorted(perm[i] for i in arc.points)
    return Arc(plane=arc.plane, points=tuple(pts), r_claimed=arc.r_claimed)


def to_generator_matrix(arc: Arc):
    """3 x n matrix whose columns are the arc's points in sorted order."""
    if not arc.points:
        raise ValueError("empty arc has no generator matrix")
    return tuple(map(tuple, arc.plane.coords[sorted(arc.points)].T.tolist()))


def min_distance(spec: Field, gen) -> int:
    """Minimum Hamming weight over all nonzero codewords of the code
    generated by the 3 x n matrix, by exhaustive message enumeration.

    Scalar multiples share a weight, so one message per projective class
    covers all q^3 - 1 nonzero messages; they are taken 64 at a time.  A
    zero-weight message is orthogonal to every column, which happens
    exactly when the matrix has rank below 3.
    """
    G = np.array(gen, dtype=np.int16)
    M = np.array(_normalized_triples(spec.q), dtype=np.int16)
    add, mul = spec.add_np, spec.mul_np
    d = G.shape[1]
    for i in range(0, len(M), 64):  # blocks of messages bound the peak memory
        B = M[i : i + 64]
        words = add[add[mul[B[:, 0]][:, G[0]], mul[B[:, 1]][:, G[1]]], mul[B[:, 2]][:, G[2]]]
        d = min(d, int((words != 0).sum(axis=1).min()))
    if d == 0:
        raise ValueError("generator matrix must have rank 3")
    return d


@dataclass
class ParsedArc:
    """Result of parsing an arc file: the field, the arc, and (when a
    group block is present) the group together with the action convention
    under which it stabilizes the point set."""

    spec: Field
    arc: Arc
    group: Group | None = None
    convention: str | None = None
    admitted: bool | None = None


def parse_arc_file(text: str, plane: Plane | None = None) -> ParsedArc:
    """Parse the arc file grammar.

    Header lines ``q= p= e= poly= r=`` (poly omitted for prime fields),
    one ``key=value`` per line, split at its first ``=`` with both sides
    stripped; an optional ``group-begin``/``group-end`` block holding generators in
    the group file format, then ``points:`` followed by ``(a,b,c)`` tuples
    in the field's integer element coding.  Tuples need not be normalized:
    any nonzero multiple names its point.  When a group is present the
    loader checks that it stabilizes the arc under the column action and
    falls back to the transposed action, recording which one succeeded.
    """
    header, at = {}, {}  # key -> value, key -> its line
    block = []  # the group block's (line number, text) pairs
    lines = text_lines(text)
    for lineno, line in lines:
        if line == "points:":
            break
        if line == "group-begin":
            for item in lines:
                if item[1] == "group-end":
                    break
                block.append(item)
            else:
                raise ParseError("unterminated group block (missing group-end)")
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ParseError(f"expected header assignment, got {line!r}", lineno)
        header[key.strip()] = val.strip()
        at[key.strip()] = lineno
    point_tokens = [(lineno, tok) for lineno, line in lines for tok in line.split()]

    if "r" not in header:
        raise ParseError("missing r= header")
    r = header_int(header, "r", at)
    spec = field_from_header(header, at)

    if plane is None:
        plane = build_plane(spec)
    elif plane.spec != spec:
        raise ValueError("supplied plane does not match the file's field")

    q = spec.q
    indices = []
    seen = set()
    for lineno, tok in point_tokens:
        m = _TUPLE_RE.match(tok)
        if not m:
            raise ParseError(f"malformed point tuple {tok!r}", lineno)
        x, y, z = (int(v) for v in m.groups())
        if max(x, y, z) >= q:
            raise ParseError(f"coordinate out of range in {tok!r}", lineno)
        if not (x or y or z):
            raise ParseError("the zero triple is not a point", lineno)
        idx = int(plane.code_index[(x * q + y) * q + z])
        if idx in seen:
            raise ParseError(f"duplicate point {tok}", lineno)
        seen.add(idx)
        indices.append(idx)
    if not indices:
        raise ParseError("no points given")
    arc = Arc(plane=plane, points=tuple(sorted(indices)), r_claimed=r)

    group = convention = admitted = None
    if block:
        group, convention, admitted = admitted_group(arc, read_generators(block, spec))
    return ParsedArc(spec=spec, arc=arc, group=group, convention=convention, admitted=admitted)


def format_arc_file(spec: Field, points, r: int, plane: Plane, generators=()) -> str:
    """Serialize an arc (and optional generators) in the arc file grammar."""
    out = [f"q={spec.q}", *spec.spec_string().split(), f"r={r}"]
    if generators:
        out += ["group-begin", *format_group_file(generators).splitlines(), "group-end"]
    out.append("points:")
    pts = plane.coords[sorted(points)].tolist()
    for start in range(0, len(pts), 8):
        out.append(" ".join(f"({a},{b},{c})" for a, b, c in pts[start : start + 8]))
    return "\n".join(out) + "\n"


def corpus_text(name: str) -> str:
    """Raw text of a bundled reference arc file."""
    if name not in CORPUS:
        raise KeyError(f"unknown corpus arc {name!r}; known: {sorted(CORPUS)}")
    return (_DATA / name).read_text()


def load_corpus_arc(name: str, plane: Plane | None = None) -> ParsedArc:
    return parse_arc_file(corpus_text(name), plane=plane)
