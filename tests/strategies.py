"""Hypothesis strategies shared by the property tests.  Import this module
only after ``pytest.importorskip("hypothesis")``."""

import math
from fractions import Fraction

from hypothesis import strategies as st

from nakamura.model import TauSpec
from nakamura.scalars import Poly, RationalVector

from support import make_spec

COORD = st.fractions(min_value=-2, max_value=2, max_denominator=3)
COPRIME_HK = [
    (h, k) for h in range(-3, 4) for k in range(1, 4) if math.gcd(h, k) == 1
]
FACTORS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def specs(draw, max_n, min_dim=0):
    """Balanced weights drawn from a small pool, so zero and repeated
    weights are common, under Generic tau or a Special tau with gcd(h, k)
    from 1 to 4 whose c_ref is random or a multiple of a weight sum.
    Coordinates have denominators up to 3; ``basis_dim`` runs from
    ``min_dim`` to 3."""
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(min_dim, 3))
    vector = st.lists(COORD, min_size=dim, max_size=dim).map(RationalVector)
    pool = draw(st.lists(vector, min_size=1, max_size=max(1, n - 1)))
    pool.append(RationalVector.zero(dim))
    lams = [draw(st.sampled_from(pool)) for _ in range(n - 1)]
    total = RationalVector.zero(dim)
    for lam in lams:
        total = total + lam
    lams.append(-total)
    if dim == 0 or draw(st.booleans()):
        return make_spec(lams, basis_dim=dim)

    picks = draw(st.sets(st.integers(0, n - 1), min_size=1))
    derived = RationalVector.zero(dim)
    for i in picks:
        derived = derived + lams[i]
    derived = derived.scale(draw(st.sampled_from(FACTORS)))
    c_ref = derived if draw(st.booleans()) else draw(vector)
    if c_ref.is_zero():
        c_ref = RationalVector([1] + [0] * (dim - 1))
    h, k = draw(st.sampled_from(COPRIME_HK))
    if all(x <= 0 for x in c_ref) or (
        not all(x >= 0 for x in c_ref) and draw(st.booleans())
    ):
        k = -k
    g = draw(st.integers(1, 4))
    return make_spec(lams, tau=TauSpec.special(c_ref, g * h, g * k),
                     basis_dim=dim)


# monomials list each variable once, in any order; the constructor sorts them
MONOMIALS = st.dictionaries(
    st.sampled_from(("u", "q", "b1", "b2", "b10")), st.integers(1, 3),
    max_size=3,
).map(lambda exps: tuple(exps.items()))
POLYS = st.dictionaries(
    MONOMIALS, st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=5,
).map(Poly)
SCALARS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
