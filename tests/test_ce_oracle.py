"""The modular weight-block CE oracle: against the dense rational oracle in
``support`` on random specs, against ``betti_numbers`` at n = 4 and 5, and
its check that no differential entry crosses weight blocks."""

import pytest

from nakamura import cohomology
from nakamura.cohomology import betti_numbers, ce_betti_oracle
from nakamura.model import TauSpec

from support import (
    make_spec,
    oracle_ce_betti_dense,
    rank_rational,
    spec_n2_generic,
    vec,
)


def test_rank_rational():
    rows = [[1, 2], [2, 4]]
    assert rank_rational(rows, 2) == 1
    assert rank_rational([[0, 0], [0, 0]], 2) == 0
    assert rank_rational([[1, 0], [0, 1]], 2) == 2


@pytest.mark.parametrize(
    "s",
    [
        make_spec([(1,), (-1,), (1,), (-1,)]),
        make_spec([(1,), (0,), (0,), (-1,)]),
        make_spec([(1, 0), (0, 1), (-1, 0), (0, -1)]),
        make_spec(
            [("1/2", 1), (1, "-1/3"), (0, 0), ("-3/2", "-2/3")],
            tau=TauSpec.special(vec(1, 0), 1, 2),
        ),
        make_spec([(2,), (-1,), (-1,), (0,)], tau=TauSpec.special(vec(1), 0, 1)),
        make_spec([(1,), (-1,), (1,), (-1,), (0,)]),
        make_spec(
            [(1, 0), (0, 1), ("1/2", 0), (-1, -1), ("-1/2", 0)],
            tau=TauSpec.special(vec(1, 0), 1, 1),
        ),
    ],
    ids=lambda s: f"n{s.n}",
)
def test_ce_oracle_matches_betti_at_n4_and_n5(s):
    assert ce_betti_oracle(s) == betti_numbers(s)


def test_ce_oracle_rejects_an_entry_crossing_weight_blocks(monkeypatch):
    key = cohomology._ce_weight_key

    def shifted(mono, weights):
        # e0 ^ e1 is the row d(e1) reaches; give it a block of its own
        out = key(mono, weights)
        return tuple(x + 1 for x in out) if mono == (0, 2) else out

    monkeypatch.setattr(cohomology, "_ce_weight_key", shifted)
    with pytest.raises(ArithmeticError, match="links weight blocks"):
        ce_betti_oracle(spec_n2_generic())


try:
    from hypothesis import given, settings
except ImportError:  # hypothesis is in the test extra; skip without it
    given = None

if given is not None:
    from strategies import specs

    # the dense reference costs up to about 0.2 s per n = 3 spec
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(specs(max_n=3, min_dim=1))
    def test_ce_oracle_matches_dense_reference(s):
        assert ce_betti_oracle(s) == oracle_ce_betti_dense(s)
