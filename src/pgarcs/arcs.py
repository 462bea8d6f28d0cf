"""Arc verification, group admission, arc file I/O, and the linear-code
view of an arc.

An arc is a set of point indices in a plane; the verifier reports n, the
maximum number of selected points on a line (the observed r), and how
many lines attain it.  The n points, as the columns of a 3 x n matrix G
over GF(q), generate a projective linear [n, 3, n - r] code; min_distance
finds its distance from the field tables alone, never the incidence, so
the two views cross-check: symbol j of the message (1,b,c) is zero
exactly when c*G[2][j] = -(G[0][j] + b*G[1][j]).

`CORPUS` lists the bundled reference arcs.  It is read, on import, from
the improved-bounds table ``data/bounds_improved.tsv``, whose rows name
each arc file with its q, r, new bound n and the previous bound.
"""

from __future__ import annotations

import functools
import re
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .errors import ParseError
from .geometry import Plane, build_plane
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

_TUPLE_RE = re.compile(r"\(\d+,\d+,\d+\)", re.ASCII)
_SEPARATORS = str.maketrans("(),", "   ")

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
    return ArcReport(
        n=len(pts),
        max_multiplicity=rmax,
        lines_at_max=int((mult == rmax).sum()),
        is_arc_for_claimed_r=(arc.r_claimed is None or rmax == arc.r_claimed),
        group_admitted=None if group is None else admits_group(arc, group),
    )


def admits_group(arc: Arc, group: Group) -> bool:
    """True iff every generator maps the point set onto itself."""
    if group.spec != arc.plane.spec:
        raise ValueError("arc and group live over different fields")
    pts = np.array(sorted(set(arc.points)), dtype=np.int16)
    return all(np.array_equal(np.sort(point_permutation(arc.plane, g)[pts]), pts) for g in group.generators)


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
    pts = np.sort(perm[list(arc.points)])
    return Arc(plane=arc.plane, points=tuple(pts.tolist()), r_claimed=arc.r_claimed)


def to_generator_matrix(arc: Arc):
    """3 x n matrix whose columns are the arc's points in sorted order."""
    if not arc.points:
        raise ValueError("empty arc has no generator matrix")
    return tuple(map(tuple, arc.plane.coords[sorted(arc.points)].T.tolist()))


def min_distance(spec: Field, gen) -> int:
    """Minimum Hamming weight of the code the 3 x n matrix G generates,
    over one message per projective class: (1,b,c), (0,1,c), (0,0,1).
    Symbol j of (1,b,c) is zero exactly when c*G[2][j] = -s[j], where
    s = G[0] + b*G[1] (s = G[1] for (0,1,c)), so one comparison of the
    q x n table c*G[2] with -s counts the zeros of all q messages of s.
    Weight 0, a message orthogonal to every column, means rank < 3."""
    G = np.array(gen, dtype=np.int16)
    add, mul = spec.add_np, spec.mul_np
    neg = mul[spec.p - 1]  # -a = (-1).a
    T = mul[:, G[2]]
    zeros = int((G[2] == 0).sum())  # the message (0,0,1)
    for s in (*add[G[0], mul[:, G[1]]], G[1]):
        zeros = max(zeros, int((T == neg[s]).sum(axis=1).max()))
    if zeros == len(G[0]):
        raise ValueError("generator matrix must have rank 3")
    return len(G[0]) - zeros


@dataclass
class ParsedArc:
    """Result of parsing an arc file: the field, the arc, and the group
    block's generators (empty when the file has none).

    `group`, `convention` and `admitted` are worked out by `admitted_group`
    the first time one of them is read, so a caller that needs only the
    points never pays for the closure; all three are None without a
    group block."""

    spec: Field
    arc: Arc
    generators: tuple = ()

    @functools.cached_property
    def _admission(self):
        return admitted_group(self.arc, self.generators) if self.generators else (None, None, None)

    @property
    def group(self) -> Group | None:
        return self._admission[0]

    @property
    def convention(self) -> str | None:
        return self._admission[1]

    @property
    def admitted(self) -> bool | None:
        return self._admission[2]


def parse_arc_file(text: str, plane: Plane | None = None) -> ParsedArc:
    """Parse the arc file grammar.

    Header lines ``q= p= e= poly= r=`` (poly omitted for prime fields),
    one ``key=value`` per line, split at its first ``=`` with both sides
    stripped; an optional ``group-begin``/``group-end`` block holding generators in
    the group file format, then ``points:`` followed by ``(a,b,c)`` tuples
    of the field's element codes in ASCII digits, separated by whitespace
    and read with one regex pass and one number scan per section; tokens
    are walked one by one only in a faulty section.  Tuples need not be
    normalized: any nonzero multiple names its point.  A point section
    with faults reports the earliest faulty tuple in file order, by the
    first check it fails of: malformed, coordinate out of range, the zero
    triple, duplicate (a repeated point is reported at its later copy).  When a
    group is present the generators are read here, and the loader checks
    on first use that they stabilize the arc under the column action,
    falling back to the transposed action and recording which one
    succeeded.  A given plane is used only when it lies over the file's
    field, and then its field is the parse's: none is built.
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
    point_lines = list(lines)

    if "r" not in header:
        raise ParseError("missing r= header")
    r = header_int(header, "r", at)
    spec = field_from_header(header, at, None if plane is None else plane.spec)

    if plane is None or plane.spec is not spec:
        plane = build_plane(spec)

    indices = _read_points(point_lines, plane)
    arc = Arc(plane=plane, points=tuple(indices), r_claimed=r)
    return ParsedArc(spec=spec, arc=arc, generators=tuple(read_generators(block, spec)))


def _well_formed(text):
    """True when text is ``(a,b,c)`` tuples separated by ASCII whitespace:
    with every tuple removed only that whitespace is left, and no two
    tuples touch.  (One match of the whole grammar would keep backtracking
    state for every tuple, 228 KiB for the q31 section, and raised the
    peak RSS of a process that reads the corpus.)"""
    return not _TUPLE_RE.sub("", text).strip(" \t\n\r\f\v") and ")(" not in text


def _read_points(point_lines, plane: Plane):
    """The sorted point indices of the ``(a,b,c)`` tuples on the given
    (line number, text) pairs, or ParseError at the earliest faulty one.

    A fast path reads a faultless section: one `_well_formed` pass over
    the joined lines, one C-level number scan, the range check on the
    int64 maximum (a reduction `verify_arc` also runs), and one list scan
    each for a zero code and a repeat, none on a numpy comparison kernel,
    whose code pages a first call would add to the resident set.  Any
    other section is walked token by token (split at ASCII whitespace) in
    file order, each token read by the same number scan, to the first
    that is malformed, out of range, the zero triple or a point already given."""
    q = plane.spec.q
    section = "\n".join(line for _, line in point_lines)
    if _well_formed(section):
        # strtol reads each number, clamping a longer one to the int64 maximum
        vals = np.fromstring(section.translate(_SEPARATORS), dtype=np.int64, sep=" ")
        if 0 < len(vals) == 3 * section.count("(") and int(vals.max()) < q:
            codes = (vals[0::3] * q + vals[1::3]) * q + vals[2::3]
            indices = plane.code_index[codes].tolist()
            if 0 not in codes.tolist() and len(set(indices)) == len(indices):
                return sorted(indices)
    seen = set()
    for lineno, line in point_lines:
        for tok in re.findall(r"\S+", line, re.ASCII):
            if not _TUPLE_RE.fullmatch(tok):
                raise ParseError(f"malformed point tuple {tok!r}", lineno)
            x, y, z = np.fromstring(tok.translate(_SEPARATORS), dtype=np.int64, sep=" ").tolist()
            if max(x, y, z) >= q:
                raise ParseError(f"coordinate out of range in {tok!r}", lineno)
            if not (x or y or z):
                raise ParseError("the zero triple is not a point", lineno)
            index = int(plane.code_index[(x * q + y) * q + z])
            if index in seen:
                raise ParseError(f"duplicate point {tok}", lineno)
            seen.add(index)
    if not seen:
        raise ParseError("no points given")
    return sorted(seen)


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
