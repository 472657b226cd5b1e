"""The subset engine (DP groups and hash joins) against the quadratic
reference engine in ``support``, on random specs under both kinds of tau."""

from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings

from nakamura import cohomology
from nakamura.scalars import RationalVector

from strategies import specs
from support import (
    oracle_betti,
    oracle_dolbeault_generators,
    oracle_pair_data,
    oracle_subset_groups,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
# the reference validates the spec twice per pair, so fewer examples here
GENERATORS = settings(PROPERTY, max_examples=30)


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
