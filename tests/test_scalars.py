import random
from fractions import Fraction

import pytest

from nakamura.scalars import (
    IntMatrix,
    Poly,
    RationalVector,
    U,
    poly_conjugate,
    qvec_proportionality,
    qvector_poly,
    smith_normal_form,
)

from support import (
    is_canonical,
    oracle_poly_add,
    oracle_poly_conjugate,
    oracle_poly_mul,
    poly_evaluate,
)


def test_rational_vector_basics():
    v = RationalVector([Fraction(1, 2), -1])
    w = RationalVector([1, 1])
    assert (v + w).coords == (Fraction(3, 2), Fraction(0))
    assert (v - w).coords == (Fraction(-1, 2), Fraction(-2))
    assert (v * 2).coords == (Fraction(1), Fraction(-2))
    assert (v / 2).coords == (Fraction(1, 4), Fraction(-1, 2))
    assert RationalVector.zero(3).is_zero()
    assert not v.is_zero()
    assert hash(v) == hash(RationalVector(["1/2", "-1"]))


def test_rational_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        RationalVector([1]) + RationalVector([1, 2])


def test_proportionality_examples():
    r = qvec_proportionality(RationalVector([2, -2]), RationalVector([1, -1]))
    assert r == 2
    assert qvec_proportionality(
        RationalVector([2, 2]), RationalVector([1, -1])
    ) is None
    assert qvec_proportionality(
        RationalVector([0, 0]), RationalVector([1, -1])
    ) == 0
    with pytest.raises(ValueError):
        qvec_proportionality(RationalVector([1, 1]), RationalVector([0, 0]))


def test_poly_arithmetic():
    b1 = Poly.variable("b1")
    p = (U + 1) * (b1 - 2)
    q = U * b1 - 2 * U + b1 - 2
    assert p == q
    assert (p - q).is_zero()
    assert poly_evaluate(p, {"u": Fraction(1, 3), "b1": 5}) == Fraction(4, 3) * 3
    assert poly_evaluate(b1 ** 3, {"b1": 2}) == 8


def test_poly_conjugate_involution():
    rng = random.Random(7)
    names = ["u", "b1", "b2"]
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            mono = tuple(
                (n, rng.randint(1, 3))
                for n in names
                if rng.random() < 0.5
            )
            terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        p = Poly(terms)
        assert poly_conjugate(poly_conjugate(p)) == p


def test_poly_conjugate_fixes_reals_and_flips_u():
    b2 = Poly.variable("b2")
    assert poly_conjugate(b2) == b2
    assert poly_conjugate(U) == Poly.constant(1) - U
    # u is never real, so u and its conjugate always differ
    assert poly_conjugate(U) != U


def test_poly_rendering_stable():
    b1 = Poly.variable("b1")
    p = 2 * U * b1 - 2 * b1
    assert str(p) == "2*u*b1 - 2*b1"
    assert str(Poly()) == "0"
    assert str(Poly.constant(Fraction(-1, 2))) == "-1/2"
    assert str(U ** 2 - U) == "u^2 - u"


def test_qvector_poly():
    v = RationalVector([1, 0, Fraction(-1, 2)])
    assert str(qvector_poly(v)) == "b1 - 1/2*b3"
    assert qvector_poly(RationalVector.zero(2)).is_zero()


def test_int_matrix_basics():
    m = IntMatrix([[2, 1], [1, 1]])
    assert m.det() == 1
    assert (m @ m.inverse_unimodular()) == IntMatrix.identity(2)
    assert m ** -1 == IntMatrix([[1, -1], [-1, 2]])
    assert m ** 0 == IntMatrix.identity(2)
    assert m ** 3 == m @ m @ m
    assert m.transpose() == IntMatrix([[2, 1], [1, 1]])
    with pytest.raises(TypeError):
        IntMatrix([[1.5, 0], [0, 1]])


def test_char_poly():
    m = IntMatrix([[2, 1], [1, 1]])
    assert m.char_poly() == [1, -3, 1]
    torus = IntMatrix.identity(3)
    assert torus.char_poly() == [1, -3, 3, -1]
    block = IntMatrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, 1], [0, 0, 2, 1]])
    assert block.char_poly() == [1, -7, 14, -7, 1]


def test_char_poly_matches_det_expansion():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        )
        coeffs = m.char_poly()
        # p(0) = det(-M) and p(1) = det(I - M), two independent spot checks
        assert coeffs[-1] == (-m).det()
        assert sum(coeffs) == (IntMatrix.identity(n) - m).det()


def test_smith_normal_form_frozen_examples():
    # hand-checked: det = -2, invariant factors 1 and 2
    m = IntMatrix([[-2, -1], [-2, 0]])
    u, d, v = smith_normal_form(m)
    assert d == IntMatrix([[1, 0], [0, 2]])
    assert u @ m @ v == d
    assert u.det() in (1, -1) and v.det() in (1, -1)

    # hand-checked: det = -1, unimodular, so trivial factors
    m2 = IntMatrix([[-1, -1], [-1, 0]])
    u2, d2, v2 = smith_normal_form(m2)
    assert d2 == IntMatrix.identity(2)
    assert u2 @ m2 @ v2 == d2


def test_smith_normal_form_random_properties():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        )
        u, d, v = smith_normal_form(m)
        assert u @ m @ v == d
        assert u.det() in (1, -1)
        assert v.det() in (1, -1)
        diag = [d[i, i] for i in range(n)]
        assert all(x >= 0 for x in diag)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert d[i, j] == 0
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0 or b == 0
            else:
                assert b == 0
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(m.det())


def _terms_from_sympy(sympy, expr):
    names = ("u", "q", "b1", "b2", "b10")
    gens = sympy.symbols(names)
    return {
        tuple((name, e) for name, e in zip(names, exps) if e):
            Fraction(int(c.p), int(c.q))
        for exps, c in sympy.Poly(expr, *gens).as_dict().items()
    }


def _to_sympy(sympy, p):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(name) ** e for name, e in mono))
        for mono, c in p.terms.items()
    ))


try:
    from hypothesis import given, settings
except ImportError:  # hypothesis is in the test extra; skip without it
    given = None

if given is not None:
    from strategies import POLYS, SCALARS

    PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

    @PROPERTY
    @given(POLYS, POLYS, SCALARS)
    def test_poly_results_stay_canonical(p, q, k):
        conj = poly_conjugate(p)
        for r in (p + q, p - q, p - p, -p, p * q, p * k, k * p, p + k,
                  k - p, conj, conj + p, p * p * q):
            assert is_canonical(r), r
        assert p + q == oracle_poly_add(p, q)
        assert p * q == oracle_poly_mul(p, q)
        assert p * k == oracle_poly_mul(p, Poly.constant(k))
        assert conj == oracle_poly_conjugate(p)

    @settings(PROPERTY, max_examples=60)
    @given(POLYS, POLYS)
    def test_poly_products_and_conjugates_match_sympy(p, q):
        sympy = pytest.importorskip("sympy")
        u = sympy.Symbol("u")
        x, y = _to_sympy(sympy, p), _to_sympy(sympy, q)
        assert (p * q).terms == _terms_from_sympy(sympy, sympy.expand(x * y))
        # the cross terms cancel inside one product
        assert ((p + q) * (p - q)).terms == _terms_from_sympy(
            sympy, sympy.expand(x * x - y * y)
        )
        assert poly_conjugate(p).terms == _terms_from_sympy(
            sympy, sympy.expand(x.subs(u, 1 - u))
        )
