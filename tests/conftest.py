"""Shared test data: the two worked examples used throughout.

FITZ is the rational ten-term sequence whose unique minimal polynomial
is x^5 + x - 1; FITZ_TABLE freezes its per-step construction trace
(d, delta, q before the update; f and g after).  FIRST8_TABLE freezes
the same trace for the first ten Rueppel bits run from the distinguished
basis (x + z, z).
"""

import pytest
from hypothesis import strategies

from seqideal import GF, GF2, QQ

FITZ = [1, 0, 0, 0, -1, 1, 0, 0, 1, -2]

# rows k = 1..9: (d, delta, q) consumed by step k, then (f, g) after it
FITZ_TABLE = [
    (1, 0, 0, 0, "x", "z^2"),
    (2, 1, 0, 0, "x", "z^3"),
    (3, 2, 0, 0, "x", "z^4"),
    (4, 3, -1, -1, "x^4+z^4", "xz"),
    (5, -2, 1, -1, "x^4+x^3z+z^4", "xz^2"),
    (6, -1, 1, -1, "x^4+x^3z+x^2z^2+z^4", "xz^3"),
    (7, 0, 1, -1, "x^4+x^3z+x^2z^2+xz^3+z^4", "xz^4"),
    (8, 1, 1, -1, "x^5+x^4z+x^3z^2+x^2z^3+2xz^4", "x^4z+x^3z^2+x^2z^3+xz^4+z^5"),
    (9, 0, 1, 1, "x^5+xz^4-z^5", "x^4z^2+x^3z^3+x^2z^4+xz^5+z^6"),
]

# rows k = 1..9 for the first ten Rueppel bits: (d, delta) then (f, g)
FIRST8_TABLE = [
    (1, 0, 0, "x+z", "z^2"),
    (2, 1, 1, "x^2+xz+z^2", "xz+z^2"),
    (3, 0, 0, "x^2+xz+z^2", "xz^2+z^3"),
    (4, 1, 1, "x^3+x^2z+z^3", "x^2z+xz^2+z^3"),
    (5, 0, 0, "x^3+x^2z+z^3", "x^2z^2+xz^3+z^4"),
    (6, 1, 1, "x^4+x^3z+x^2z^2+z^4", "x^3z+x^2z^2+z^4"),
    (7, 0, 0, "x^4+x^3z+x^2z^2+z^4", "x^3z^2+x^2z^3+z^5"),
    (8, 1, 1, "x^5+x^4z+x^2z^3+xz^4+z^5", "x^4z+x^3z^2+x^2z^3+z^5"),
    (9, 0, 0, "x^5+x^4z+x^2z^3+xz^4+z^5", "x^4z^2+x^3z^3+x^2z^4+z^6"),
]

ALL_FIELDS = [GF2, GF(5), GF(7), QQ]


@pytest.fixture(params=ALL_FIELDS, ids=lambda f: f.tag)
def any_field(request):
    return request.param


# hypothesis value strategies for property tests over four fields
FIELD_VALUES = {
    "gf2": (GF2, strategies.integers(0, 1)),
    "gf5": (GF(5), strategies.integers(0, 4)),
    "gf2^31-1": (GF(2**31 - 1), strategies.integers(0, 2**31 - 2)),
    "q": (QQ, strategies.fractions(-9, 9, max_denominator=9)),
}


@strategies.composite
def value_runs(draw, elements):
    # runs of one repeated value, zeros drawn as often as anything else,
    # so zero runs and all-zero prefixes are common; 1 to 64 terms
    value = strategies.one_of(strategies.just(0), elements)
    run = strategies.tuples(value, strategies.integers(1, 12))
    runs = draw(strategies.lists(run, min_size=1, max_size=16))
    return [v for v, times in runs for _ in range(times)][:64]
