import cmath
import math
import random
from fractions import Fraction

import pytest

from nakamura.model import SpecError, TauSpec
from nakamura.scalars import RationalVector
from nakamura.tau import (
    canonical_triple,
    same_fiber,
    tau_from_triple,
    tau_ratio_invariants,
)
from support import tau_to_float


def vec(*coords):
    return RationalVector(coords)


def test_tau_from_triple():
    t = tau_from_triple(vec(1), 0, 1)
    assert t.is_special()
    assert (t.c_ref, t.h, t.k) == (vec(1), 0, 1)
    with pytest.raises(SpecError):
        tau_from_triple(vec(0), 1, 1)
    with pytest.raises(SpecError):
        tau_from_triple(vec(1), 1, 0)
    with pytest.raises(SpecError):
        tau_from_triple(vec(1), 0, -2)  # c > 0 forced, so k must be positive


def test_canonical_triple_frozen_example():
    assert canonical_triple(vec(1), 2, 4) == (vec(Fraction(1, 2)), 1, 2)


def test_canonical_triple_idempotent_and_h_zero():
    c, h, k = canonical_triple(vec(1), 2, 4)
    assert canonical_triple(c, h, k) == (c, h, k)
    # gcd(0, k) is |k|
    assert canonical_triple(vec(3), 0, -6) == (vec(Fraction(1, 2)), 0, -1)


def test_same_fiber_examples():
    t1 = tau_from_triple(vec(1), 2, 4)
    t2 = tau_from_triple(vec(Fraction(1, 2)), 1, 2)
    t3 = tau_from_triple(vec(1), 1, 2)
    assert same_fiber(t1, t2)
    assert not same_fiber(t1, t3)
    with pytest.raises(SpecError):
        same_fiber(t1, TauSpec.generic())


def random_triple(rng, dim):
    while True:
        c = vec(*[Fraction(rng.randint(-3, 3)) for _ in range(dim)])
        if not c.is_zero():
            break
    h = rng.randint(-4, 4)
    k = rng.choice([x for x in range(-4, 5) if x != 0])
    return TauSpec.special(c, h, k)


def test_same_fiber_is_an_equivalence_on_random_triples():
    rng = random.Random(23)
    triples = [random_triple(rng, 2) for _ in range(100)]
    sample = rng.sample(triples, 20)
    for t in sample:
        assert same_fiber(t, t)
    for a in sample[:12]:
        for b in sample[:12]:
            assert same_fiber(a, b) == same_fiber(b, a)
    for a in sample[:8]:
        for b in sample[:8]:
            for c in sample[:8]:
                if same_fiber(a, b) and same_fiber(b, c):
                    assert same_fiber(a, c)


def test_canonical_triple_lands_in_the_same_fiber():
    rng = random.Random(29)
    for _ in range(100):
        t = random_triple(rng, 2)
        c, h, k = canonical_triple(t.c_ref, t.h, t.k)
        assert math.gcd(h, k) == 1
        assert same_fiber(t, TauSpec.special(c, h, k))


def test_scaled_triples_share_a_fiber():
    rng = random.Random(31)
    for _ in range(50):
        t = random_triple(rng, 2)
        m = rng.choice([x for x in range(-3, 4) if x != 0])
        scaled = TauSpec.special(t.c_ref * m, t.h * m, t.k * m)
        assert same_fiber(t, scaled)


def test_ratio_invariants():
    assert tau_ratio_invariants(TauSpec.generic()).is_rational is False
    rep = tau_ratio_invariants(tau_from_triple(vec(1), 3, 6))
    assert rep.rational_value == Fraction(1, 2)


def test_ratio_invariants_match_float_evaluator():
    # tau((1), 0, 1) at b1 = 1 is 2*pi*i
    t = tau_from_triple(vec(1), 0, 1)
    z = tau_to_float(t, [1.0])
    assert cmath.isclose(z, complex(0, 2 * math.pi), rel_tol=1e-12)
    # Re(tau)/|tau|^2 evaluated in floats matches the exact rational
    t2 = tau_from_triple(vec(2), 3, 5)
    z2 = tau_to_float(t2, [0.7])
    ratio = tau_ratio_invariants(t2).rational_value
    assert math.isclose(z2.real / abs(z2) ** 2, ratio, rel_tol=1e-12)
