import random

import pytest

from pgarcs.gf import field_for_order
from pgarcs.geometry import build_plane
from pgarcs.group import closure, make_element

_PLANES = {}


def normalized_triples(q: int):
    """The points of PG(2,q) as Python triples, in the plane's lex order:
    (0,0,1), then (0,1,c), then (1,b,c)."""
    return ((0, 0, 1), *((0, 1, c) for c in range(q)), *((1, b, c) for b in range(q) for c in range(q)))


@pytest.fixture
def plane_for():
    def get(q):
        if q not in _PLANES:
            _PLANES[q] = build_plane(field_for_order(q))
        return _PLANES[q]

    return get


S3_GENS = (
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
)


def s3_group(spec):
    return closure(spec, [make_element(spec, m) for m in S3_GENS])


def random_cyclic_group(spec, rng: random.Random):
    while True:
        mat = tuple(tuple(rng.randrange(spec.q) for _ in range(3)) for _ in range(3))
        try:
            g = make_element(spec, mat)
        except ValueError:
            continue
        return closure(spec, [g])
