"""Arc verification, group admission, arc file I/O, and the linear-code
view of an arc.

An arc is a set of point indices in a plane; the verifier reports n, the
maximum number of selected points on a line (the observed r), and how
many lines attain it.  Taking the n points as columns of a 3 x n matrix
over GF(q) generates a projective linear code of length n, dimension 3
and minimum distance n - r; min_distance recomputes the distance by
exhaustive codeword enumeration so the two views can be cross-checked.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .errors import ParseError
from .geometry import Plane, _normalized_triples, build_plane
from .gf import Field, is_prime
from .group import (
    Group,
    GroupElement,
    _null_space,
    closure,
    format_group_file,
    parse_group_file,
    point_permutation,
    transpose_element,
)

__all__ = [
    "Arc",
    "ArcReport",
    "CORPUS",
    "ParsedArc",
    "admits_group",
    "admitted_group",
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

# bundled reference arcs: file name -> (q, r, n, group kind)
CORPUS = {
    "q16_r10_n144.arc": (16, 10, 144, "s3"),
    "q25_r3_n39.arc": (25, 3, 39, "cyclic"),
    "q25_r18_n418.arc": (25, 18, 418, "cyclic"),
    "q27_r9_n201.arc": (27, 9, 201, "cyclic"),
    "q29_r14_n364.arc": (29, 14, 364, "cyclic"),
    "q29_r25_n697.arc": (29, 25, 697, "s3"),
    "q31_r25_n734.arc": (31, 25, 734, "cyclic"),
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
    covers all q^3 - 1 nonzero messages; they are taken 64 at a time.
    """
    if _null_space(spec, zip(*gen), 3):  # some message is orthogonal to every column
        raise ValueError("generator matrix must have rank 3")
    G = np.array(gen, dtype=np.int16)
    M = np.array(_normalized_triples(spec.q), dtype=np.int16)
    add, mul = spec.add_np, spec.mul_np
    d = G.shape[1]
    for i in range(0, len(M), 64):  # blocks of messages bound the peak memory
        B = M[i : i + 64]
        words = add[add[mul[B[:, 0]][:, G[0]], mul[B[:, 1]][:, G[1]]], mul[B[:, 2]][:, G[2]]]
        d = min(d, int((words != 0).sum(axis=1).min()))
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
    an optional ``group-begin``/``group-end`` block holding generators in
    the group file format, then ``points:`` followed by ``(a,b,c)`` tuples
    in the field's integer element coding.  Tuples need not be normalized:
    any nonzero multiple names its point.  When a group is present the
    loader checks that it stabilizes the arc under the column action and
    falls back to the transposed action, recording which one succeeded.
    """
    header = {}
    group_lines = []
    point_tokens = []  # (lineno, token)
    mode = "header"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if mode == "header":
            if line == "group-begin":
                mode = "group"
                continue
            if line == "points:":
                mode = "points"
                continue
            if "=" not in line:
                raise ParseError(f"expected header assignment, got {line!r}", lineno)
            key, val = line.split("=", 1)
            header[key.strip()] = val.strip()
        elif mode == "group":
            if line == "group-end":
                mode = "header"
                continue
            group_lines.append(raw)
        else:
            point_tokens.extend((lineno, tok) for tok in line.split())

    if mode == "group":
        raise ParseError("unterminated group block (missing group-end)")
    if "r" not in header:
        raise ParseError("missing r= header")
    try:
        r = int(header["r"])
    except ValueError:
        raise ParseError(f"bad r value {header['r']!r}")

    if "p" in header:
        p = int(header["p"])
        e = int(header.get("e", "1"))
    elif "q" in header:
        q = int(header["q"])
        if not is_prime(q):
            raise ParseError("non-prime q needs explicit p=, e= and poly= headers")
        p, e = q, 1
    else:
        raise ParseError("missing field headers (p=/e= or prime q=)")
    poly = None
    if e > 1:
        if "poly" not in header:
            raise ParseError("extension field needs a poly= header")
        poly = [int(c) for c in header["poly"].split(",")]
    try:
        spec = Field(p, e, poly)
    except ValueError as exc:
        raise ParseError(str(exc))
    if "q" in header and int(header["q"]) != spec.q:
        raise ParseError(f"q={header['q']} does not match p^e={spec.q}")

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
    if group_lines:
        gens = parse_group_file("\n".join(group_lines), spec)
        group, convention, admitted = admitted_group(arc, gens)
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
    return (resources.files("pgarcs") / "data" / name).read_text()


def load_corpus_arc(name: str, plane: Plane | None = None) -> ParsedArc:
    return parse_arc_file(corpus_text(name), plane=plane)
