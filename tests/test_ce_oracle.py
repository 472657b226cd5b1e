"""The modular weight-block CE oracle: against the dense rational oracle in
``support`` on random specs, against ``betti_numbers`` at n = 4 and 5, its
check that no differential entry crosses weight blocks, its size cap, the
modular rank against the rational one, and d^2 = 0 on the built blocks."""

import pytest

from nakamura import cohomology
from nakamura.cohomology import betti_numbers, ce_betti_oracle
from nakamura.model import SpecError, TauSpec

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
    keys = cohomology._ce_weight_keys

    def shifted(weights):
        # e0 ^ e1 (bits 0 and 2) is the row d(e1) reaches; give it a block
        # of its own
        out = keys(weights)
        out[0b101] = tuple(x + 1 for x in out[0b101])
        return out

    monkeypatch.setattr(cohomology, "_ce_weight_keys", shifted)
    with pytest.raises(ArithmeticError, match="links weight blocks"):
        ce_betti_oracle(spec_n2_generic())


def test_ce_oracle_refuses_n_above_its_cap_before_building(monkeypatch):
    def build(s):
        raise AssertionError("the capped oracle built its blocks")

    monkeypatch.setattr(cohomology, "_ce_weight_blocks", build)
    s = make_spec([(1,), (-1,)] * 4)
    with pytest.raises(SpecError, match=r"cap 7: .*2\^18 = 262,144 monomials"):
        ce_betti_oracle(s)


def _blocks_at(s, q, b):
    """The CE blocks of ``s`` as dense matrices modulo the oracle prime at
    the point ``(q, b)``, keyed by ``(k, key)``."""
    p = cohomology._ORACLE_PRIME
    out = {}
    for k, key, rows, cols, entries in cohomology._ce_weight_blocks(s):
        dense = [[0] * cols for _ in range(rows)]
        for r, c, nu, with_q in entries:
            x = sum(a * y for a, y in zip(nu, b))
            dense[r][c] = (x * q if with_q else x) % p
        out[k, key] = dense
    return out


try:
    from hypothesis import given, settings
except ImportError:  # hypothesis is in the test extra; skip without it
    given = None

if given is not None:
    from hypothesis import strategies as st

    from strategies import specs

    # the dense reference costs up to about 0.2 s per n = 3 spec
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(specs(max_n=3, min_dim=1))
    def test_ce_oracle_matches_dense_reference(s):
        assert ce_betti_oracle(s) == oracle_ce_betti_dense(s)

    @st.composite
    def planted_matrices(draw):
        """Up to 8 x 8 integer matrices whose base rows have entries in
        [-4, 4], with dependent rows ``a r_i + c r_j`` (a = +-1, c in
        {-1, 0, 1}) inserted among them, so every entry has |x| <= 8."""
        ncols = draw(st.integers(1, 8))
        row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
        base = draw(st.lists(row, min_size=1, max_size=8))
        rows = list(base)
        for _ in range(draw(st.integers(0, 8 - len(base)))):
            ri, rj = (draw(st.sampled_from(base)) for _ in range(2))
            a = draw(st.sampled_from((-1, 1)))
            c = draw(st.sampled_from((-1, 0, 1)))
            planted = [a * x + c * y for x, y in zip(ri, rj)]
            rows.insert(draw(st.integers(0, len(rows))), planted)
        return ncols, rows

    # entries |x| <= 9 bound every minor of an 8 x 8 matrix by Hadamard's
    # 9^8 * 8^4 < 2^61 - 1, so the ranks over Q and modulo p agree
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(planted_matrices())
    def test_rank_mod_p_matches_rank_over_q(matrix):
        ncols, rows = matrix
        p = cohomology._ORACLE_PRIME
        reduced = [[x % p for x in row] for row in rows]
        assert cohomology._rank_mod_p(reduced, p) == rank_rational(rows, ncols)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(specs(max_n=4), st.randoms(use_true_random=False))
    def test_ce_blocks_square_to_zero(s, rng):
        p = cohomology._ORACLE_PRIME
        q = rng.randrange(1, p)
        b = [rng.randrange(1, p) for _ in range(s.basis_dim)]
        blocks = _blocks_at(s, q, b)
        for (k, key), low in blocks.items():
            high = blocks.get((k + 1, key))
            if high is None:
                continue
            assert len(high[0]) == len(low)
            for row in high:
                for c in range(len(low[0])):
                    assert sum(x * r[c] for x, r in zip(row, low)) % p == 0, (k, key)
