import random
from fractions import Fraction

import pytest

from nakamura.construct import (
    Exactness,
    analyze_integer_matrix,
    build_spec,
    specs_isomorphic,
)
from nakamura.model import SpecError, TauSpec
from nakamura.scalars import IntMatrix, RationalVector

from support import block_diag, make_spec, vec


A = [[2, 1], [1, 1]]  # eigenvalues are the squared golden ratio and its inverse
A2 = [[5, 3], [3, 2]]  # the square of A


def test_identity_gives_torus_weights():
    rep = analyze_integer_matrix(IntMatrix.identity(2))
    assert rep.char_poly == (1, -2, 1)
    assert rep.relation_basis_dim == 0
    assert rep.lambda_vectors == (RationalVector.zero(0),) * 2
    assert rep.exactness is Exactness.EXACT
    assert len(rep.factors) == 1
    assert rep.factors[0].coefficients == (1, -1)
    assert rep.factors[0].multiplicity == 2


def test_hyperbolic_2x2():
    rep = analyze_integer_matrix(A)
    assert rep.char_poly == (1, -3, 1)
    assert rep.relation_basis_dim == 1
    assert rep.lambda_vectors == (vec(1), vec(-1))
    assert rep.exactness is Exactness.EXACT
    assert rep.factors[0].coefficients == (1, -3, 1)
    assert rep.factors[0].eigenvalue_indices == (1, 2)


def test_block_4x4_independent_factors():
    m = block_diag(A, [[3, 1], [2, 1]])
    rep = analyze_integer_matrix(m)
    assert rep.char_poly == (1, -7, 14, -7, 1)
    assert rep.relation_basis_dim == 2
    assert rep.lambda_vectors == (
        vec(1, 0),
        vec(-1, 0),
        vec(0, 1),
        vec(0, -1),
    )
    assert rep.exactness is Exactness.EXACT
    assert [f.coefficients for f in rep.factors] == [(1, -3, 1), (1, -4, 1)]


def test_certified_relation_merges_symbols():
    m = block_diag(A, A2)
    rep = analyze_integer_matrix(m, [(2, 0, -1, 0)])
    assert rep.relation_basis_dim == 1
    assert rep.lambda_vectors == (vec(1), vec(-1), vec(2), vec(-2))
    assert rep.exactness is Exactness.EXACT


def test_false_certificate_rejected_exactly():
    m = block_diag(A, A2)
    with pytest.raises(SpecError):
        analyze_integer_matrix(m, [(1, 0, -1, 0)])


def test_trivial_certificate_is_a_no_op():
    m = block_diag(A, A2)
    rep = analyze_integer_matrix(m, [(1, 1, 0, 0)])
    assert rep.relation_basis_dim == 2


def test_bad_certificate_shape_rejected():
    with pytest.raises(SpecError):
        analyze_integer_matrix(A, [(1,)])
    with pytest.raises(SpecError):
        analyze_integer_matrix(A, [(Fraction(1, 2), 0)])


def test_determinant_errors():
    with pytest.raises(SpecError):
        analyze_integer_matrix([[2, 0], [0, 1]])
    with pytest.raises(SpecError):
        analyze_integer_matrix([[0, 1], [1, 0]])


def test_rotation_has_non_real_eigenvalues():
    with pytest.raises(SpecError, match="non-real"):
        analyze_integer_matrix([[0, -1], [1, 0]])


def test_negative_eigenvalues_rejected():
    with pytest.raises(SpecError, match="non-positive"):
        analyze_integer_matrix([[-2, -1], [-1, -1]])
    with pytest.raises(SpecError, match="-1"):
        analyze_integer_matrix([[-1, 0], [0, -1]])


def test_shear_is_not_diagonalizable():
    with pytest.raises(SpecError, match="diagonalizable"):
        analyze_integer_matrix([[1, 1], [0, 1]])


def test_repeated_quadratic_factor_shares_symbol():
    rep = analyze_integer_matrix(block_diag(A, A))
    assert rep.relation_basis_dim == 1
    assert rep.lambda_vectors == (vec(1), vec(-1), vec(1), vec(-1))
    assert rep.factors[-1].multiplicity == 2
    assert rep.exactness is Exactness.EXACT


def test_mixed_torus_and_hyperbolic_block():
    rep = analyze_integer_matrix(block_diag(A, [[1]]))
    assert rep.relation_basis_dim == 1
    assert rep.lambda_vectors == (vec(0), vec(1), vec(-1))


def test_cubic_goes_to_float_path():
    companion = [[0, 0, 1], [1, 0, -6], [0, 1, 5]]
    rep = analyze_integer_matrix(companion)
    assert rep.char_poly == (1, -5, 6, -1)
    assert rep.exactness is Exactness.FLOAT_CERTIFIED
    assert rep.relation_basis_dim == 2
    assert rep.lambda_vectors == (
        vec(1, 0),
        vec(0, 1),
        vec(-1, -1),
    )
    assert rep.factors[0].degree == 3

    with pytest.raises(SpecError):
        analyze_integer_matrix(companion, [(1, 0, 0)])
    rep2 = analyze_integer_matrix(companion, [(1, 1, 1)])
    assert rep2.relation_basis_dim == 2


def test_build_spec_roundtrip():
    s = build_spec(A, TauSpec.generic())
    assert s.n == 2
    assert not s.is_torus()
    assert s.lattice is not None
    assert s.lattice.matrix == IntMatrix(A)
    assert s.lambdas == (vec(1), vec(-1))

    torus = build_spec(IntMatrix.identity(2), TauSpec.generic())
    assert torus.is_torus()

    special = build_spec(A, TauSpec.special(vec(1), 0, 1))
    assert special.tau.is_special()

    with pytest.raises(SpecError):
        build_spec([[2, 0], [0, 1]], TauSpec.generic())


def test_specs_isomorphic():
    g1 = build_spec(A, TauSpec.generic())
    g2 = build_spec(A, TauSpec.generic())
    assert specs_isomorphic(g1, g2)

    s1 = build_spec(A, TauSpec.special(vec(1), 2, 4))
    s2 = build_spec(A, TauSpec.special(vec(Fraction(1, 2)), 1, 2))
    assert specs_isomorphic(s1, s2)
    assert not specs_isomorphic(g1, s1)

    other = build_spec([[3, 1], [2, 1]], TauSpec.generic())
    assert not specs_isomorphic(g1, other)

    with pytest.raises(SpecError):
        specs_isomorphic(g1, make_spec([(1,), (-1,)]))


def random_unimodular(rng, n):
    m = IntMatrix.identity(n)
    for _ in range(6):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        k = rng.choice([-2, -1, 1, 2])
        shear = [
            [1 if a == b else (k if (a, b) == (i, j) else 0) for b in range(n)]
            for a in range(n)
        ]
        m = m @ IntMatrix(shear)
    return m


def test_analysis_is_conjugation_invariant():
    rng = random.Random(67)
    blocks = [A, [[3, 1], [2, 1]], [[4, 1], [3, 1]], [[1]]]
    for _ in range(15):
        chosen = [rng.choice(blocks) for _ in range(rng.randint(1, 2))]
        b = block_diag(*chosen)
        rep = analyze_integer_matrix(b)
        c = random_unimodular(rng, len(b))
        conj = c @ IntMatrix(b) @ c.inverse_unimodular()
        rep2 = analyze_integer_matrix(conj)
        assert rep.char_poly == rep2.char_poly
        assert sorted(map(tuple, rep.lambda_vectors)) == sorted(
            map(tuple, rep2.lambda_vectors)
        )
