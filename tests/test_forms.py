import random

import pytest

from nakamura.forms import (
    InvariantForm,
    balanced_omega,
    balanced_power,
    canonical_psi,
    character_function,
    conjugate,
    d,
    dbar,
    del_,
    form_power,
    phi,
    phibar,
    wedge,
)
from nakamura.model import SpecError, TauSpec
from nakamura.scalars import Poly, U, qvector_poly

from support import (
    is_canonical,
    oracle_conjugate,
    oracle_d,
    oracle_dbar,
    oracle_del,
    oracle_wedge,
    random_character,
    random_form,
    random_spec,
    spec_n2_generic,
    spec_n2_special,
    spec_n3_mixed,
    torus2,
    vec,
)


def lam_poly(spec, i):
    return qvector_poly(spec.lambdas[i - 1])


def test_structure_equations_dbar():
    s = spec_n2_generic()
    assert dbar(phi(s, 0)).is_zero()
    assert dbar(phibar(s, 0)).is_zero()
    # dbar(phi_i) = lambda_i * u * phi_i ^ phibar0
    for i in (1, 2):
        expected = lam_poly(s, i) * U * wedge(phi(s, i), phibar(s, 0))
        assert dbar(phi(s, i)) == expected
    # dbar(phibar_i) = -lambda_i * u * phibar0 ^ phibar_i
    for i in (1, 2):
        expected = -lam_poly(s, i) * U * wedge(phibar(s, 0), phibar(s, i))
        assert dbar(phibar(s, i)) == expected


def test_structure_equations_full_d():
    s = spec_n2_generic()
    # d(phi_i) = lambda_i * ((u-1) phi0 - u phibar0) ^ phi_i
    for i in (1, 2):
        eta = (U - 1) * phi(s, 0) - U * phibar(s, 0)
        expected = lam_poly(s, i) * eta.wedge(phi(s, i))
        assert d(phi(s, i)) == expected
    assert d(phi(s, 0)).is_zero()
    assert d(phibar(s, 0)).is_zero()


def test_character_function_differentials():
    s = spec_n2_generic()
    c = vec(2)
    f = character_function(s, c)
    assert dbar(f) == U * qvector_poly(c) * wedge(f, phibar(s, 0))
    assert del_(f) == (U - 1) * qvector_poly(c) * wedge(f, phi(s, 0))


def test_wedge_structure():
    s = spec_n2_generic()
    a, b = phi(s, 1), phibar(s, 2)
    assert a.wedge(a).is_zero()
    assert a.wedge(b) == -(b.wedge(a))
    f1 = character_function(s, vec(1))
    f2 = character_function(s, vec(-2))
    prod = f1.wedge(f2)
    ((char, mono),) = list(prod.terms)
    assert char == vec(-1)
    assert mono == ()


def test_zero_weight_generators_are_closed_on_torus():
    t = torus2()
    for i in (1, 2):
        assert d(phi(t, i)).is_zero()
        assert d(phibar(t, i)).is_zero()


def test_bidegree_and_degree():
    s = spec_n2_generic()
    form = wedge(phi(s, 0), phi(s, 1), phibar(s, 2))
    assert form.bidegree() == (2, 1)
    assert form.degree() == 3
    assert InvariantForm.zero(s).bidegree() is None
    mixed = phi(s, 1) + wedge(phi(s, 1), phibar(s, 1))
    with pytest.raises(SpecError):
        mixed.degree()


def test_conjugate_is_an_involution():
    rng = random.Random(17)
    for _ in range(40):
        s = random_spec(rng, max_n=3)
        x = random_form(s, rng)
        assert conjugate(conjugate(x)) == x


def test_conjugate_swaps_del_and_dbar():
    rng = random.Random(19)
    for _ in range(30):
        s = random_spec(rng, max_n=3)
        x = random_form(s, rng)
        assert conjugate(dbar(x)) == del_(conjugate(x))
        assert conjugate(del_(x)) == dbar(conjugate(x))


def test_differentials_square_to_zero():
    rng = random.Random(21)
    for _ in range(40):
        s = random_spec(rng, max_n=3)
        x = random_form(s, rng)
        assert dbar(dbar(x)).is_zero()
        assert del_(del_(x)).is_zero()
        assert (del_(dbar(x)) + dbar(del_(x))).is_zero()
        assert d(d(x)).is_zero()


def test_leibniz_rule():
    rng = random.Random(25)
    for _ in range(30):
        s = random_spec(rng, max_n=3)
        deg_a = rng.randint(0, 2)
        a = random_form(s, rng, degree=deg_a)
        b = random_form(s, rng, degree=rng.randint(0, 2))
        sign = -1 if deg_a % 2 else 1
        for op in (d, dbar, del_):
            lhs = op(a.wedge(b))
            rhs = op(a).wedge(b) + sign * a.wedge(op(b))
            assert lhs == rhs


def test_del_formulas_for_complex_generators():
    # the four shapes: del of f_c (phi^I ^ phibar^J) possibly with phi0 and
    # phibar0 in front; the two shapes containing phi0 are del-closed and the
    # other two pick up the factor 2c(u-1) and a phi0
    rng = random.Random(27)
    for _ in range(25):
        s = random_spec(rng, max_n=4)
        n = s.n
        I = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        J = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        c = vec(*[sum(s.lambdas[i - 1][t] for i in I + J) for t in range(s.basis_dim)])
        body = character_function(s, c)
        for i in I:
            body = body.wedge(phi(s, i))
        for j in J:
            body = body.wedge(phibar(s, j))
        factor = 2 * (U - 1) * qvector_poly(c)

        plain = body
        assert del_(plain) == factor * phi(s, 0).wedge(plain)

        with_phi0 = phi(s, 0).wedge(body)
        assert del_(with_phi0).is_zero()

        with_phibar0 = phibar(s, 0).wedge(body)
        assert del_(with_phibar0) == factor * wedge(
            phi(s, 0), phibar(s, 0), body
        )

        with_both = wedge(phi(s, 0), phibar(s, 0), body)
        assert del_(with_both).is_zero()

        # and every one of the four shapes is dbar-closed
        for shape in (plain, with_phi0, with_phibar0, with_both):
            assert dbar(shape).is_zero()


def test_canonical_psi_is_closed():
    rng = random.Random(31)
    for _ in range(20):
        s = random_spec(rng, max_n=4)
        psi = canonical_psi(s)
        assert psi.bidegree() == (s.n + 1, 0)
        assert d(psi).is_zero()


def test_balanced_omega_top_power_is_closed():
    rng = random.Random(33)
    for _ in range(12):
        s = random_spec(rng, max_n=3)
        omega = balanced_omega(s)
        assert omega.bidegree() == (1, 1)
        top = form_power(omega, s.n)
        assert not top.is_zero()
        assert d(top).is_zero()


def test_balanced_power_matches_repeated_wedges():
    rng = random.Random(37)
    specs = [spec_n2_generic(), spec_n2_special(), torus2(), spec_n3_mixed()]
    specs += [random_spec(rng, max_n=6) for _ in range(8)]
    for s in specs:
        omega = balanced_omega(s)
        for k in range(s.n + 2):
            assert balanced_power(s, k) == form_power(omega, k)
    with pytest.raises(ValueError):
        balanced_power(spec_n2_generic(), -1)


def test_forms_from_different_specs_do_not_mix():
    a = spec_n2_generic()
    b = torus2()
    with pytest.raises(SpecError):
        phi(a, 1).wedge(phi(b, 1))
    with pytest.raises(SpecError):
        phi(a, 1) + phi(b, 1)


def test_rendering():
    s = spec_n2_generic()
    form = 2 * (U - 1) * lam_poly(s, 1) * wedge(
        character_function(s, vec(1)), phi(s, 0), phi(s, 1), phibar(s, 2)
    )
    assert str(form) == "(2*u*b1 - 2*b1) * f[c=(1)] * phi0^phi1^phibar2"
    assert str(InvariantForm.zero(s)) == "0"
    assert str(InvariantForm.one(s)) == "1"
    assert str(phi(s, 2) + phi(s, 1)) == "phi1  +  phi2"


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # hypothesis is in the test extra; skip without it
    given = None

if given is not None:
    from strategies import specs

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(specs(max_n=4, min_dim=1), st.randoms(use_true_random=False))
    def test_form_engine_matches_reference(s, rng):
        """Multi-term forms of every degree, with characters and polynomial
        coefficients, against the engine without fast paths."""
        for degree in range(2 * s.n + 3):
            x = random_form(s, rng, degree=degree)
            y = random_form(s, rng, degree=rng.randint(0, 2))
            results = {
                "d": (d(x), oracle_d(x)),
                "del_": (del_(x), oracle_del(x)),
                "dbar": (dbar(x), oracle_dbar(x)),
                "conjugate": (conjugate(x), oracle_conjugate(x)),
                "wedge": (wedge(x, y), oracle_wedge(x, y)),
            }
            for name, (got, want) in results.items():
                assert got == want, (name, degree)
                assert all(map(is_canonical, got.terms.values())), (name, degree)
            assert del_(results["del_"][0]).is_zero()
            assert dbar(results["dbar"][0]).is_zero()
