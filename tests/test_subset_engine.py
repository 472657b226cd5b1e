"""The subset engine (DP groups and hash joins) against the quadratic
reference engine in ``support``, on random specs under both kinds of tau."""

import math
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from nakamura import cohomology
from nakamura.model import TauSpec
from nakamura.scalars import RationalVector

from support import (
    make_spec,
    oracle_betti,
    oracle_dolbeault_generators,
    oracle_pair_data,
    oracle_subset_groups,
)

COORD = st.fractions(min_value=-2, max_value=2, max_denominator=3)
COPRIME_HK = [
    (h, k) for h in range(-3, 4) for k in range(1, 4) if math.gcd(h, k) == 1
]
FACTORS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
# the reference validates the spec twice per pair, so fewer examples here
GENERATORS = settings(PROPERTY, max_examples=30)


@st.composite
def specs(draw, max_n):
    """Balanced weights drawn from a small pool, so zero and repeated
    weights are common, under Generic tau or a Special tau with gcd(h, k)
    from 1 to 4 whose c_ref is random or a multiple of a weight sum."""
    n = draw(st.integers(1, max_n))
    dim = draw(st.integers(0, 3))
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


@PROPERTY
@given(specs(max_n=7))
def test_engine_matches_quadratic_reference(s):
    den, groups = cohomology._subset_groups(s)
    assert {
        (size, RationalVector(Fraction(x, den) for x in v)): found
        for (size, v), found in groups.items()
    } == oracle_subset_groups(s)

    reference = oracle_pair_data(s)
    assert cohomology._admissible_pair_data(s) == reference
    assert cohomology.betti_numbers(s) == oracle_betti(s)

    reports = (
        cohomology.admissible_character_set,
        cohomology.hodge_table,
        cohomology.frolicher_degenerates,
    )
    got = [report(s) for report in reports]
    with mock.patch.object(
        cohomology, "_admissible_pair_data", lambda spec: reference
    ):
        assert got == [report(s) for report in reports]


@GENERATORS
@given(specs(max_n=5))
def test_generators_match_quadratic_reference(s):
    for p in range(s.n + 2):
        for q in range(s.n + 2):
            assert cohomology.dolbeault_generators(s, p, q) == (
                oracle_dolbeault_generators(s, p, q)
            )
