import random
from fractions import Fraction

import pytest

from nakamura.automorphisms import (
    AutCandidate,
    EMode,
    GroupElement,
    commutant_search,
    compose_candidates,
    deck_candidate,
    deck_conjugate,
    e_mode_space,
    h_coset_group,
    invert_candidate,
    verify_candidate,
)
from nakamura.construct import build_spec
from nakamura.model import LatticeSpec, SpecError, TauSpec
from nakamura.scalars import IntMatrix, RationalVector

from support import block_diag, make_spec, oracle_commutant, vec

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # hypothesis is in the test extra; only one test needs it
    st = None

A = [[2, 1], [1, 1]]
M3 = [[3, 1], [2, 1]]
ROT = [[0, 1], [-1, 0]]


def a_spec(tau=None):
    return build_spec(A, tau or TauSpec.generic())


def m3_spec():
    return build_spec(M3, TauSpec.generic())


def zero2():
    return RationalVector.zero(2)


def candidate(t, a_prime, x1=None, x2=None, e_modes=()):
    return AutCandidate(
        t=t,
        a_prime=IntMatrix(a_prime),
        x1=x1 if x1 is not None else zero2(),
        x2=x2 if x2 is not None else zero2(),
        e_modes=e_modes,
    )


def test_verify_deck_and_rotation():
    s = a_spec()
    assert verify_candidate(s, candidate(1, A)).ok
    assert verify_candidate(s, candidate(-1, ROT)).ok


def test_verify_violations():
    s = a_spec()
    bad_commute = verify_candidate(s, candidate(1, [[1, 1], [0, 1]]))
    assert not bad_commute.ok
    assert any("intertwine" in v for v in bad_commute.violations)

    bad_t = verify_candidate(s, candidate(2, A))
    assert any("t must be" in v for v in bad_t.violations)

    bad_det = verify_candidate(s, candidate(1, [[2, 0], [0, 2]]))
    assert any("det A'" in v for v in bad_det.violations)

    bad_x = verify_candidate(
        s, candidate(1, A, x1=RationalVector([Fraction(1, 2), Fraction(0)]))
    )
    assert any("not integral" in v for v in bad_x.violations)


def test_verify_translation_condition_depends_on_matrix():
    # I - M3 has determinant -2, so half-integer translations can be fine
    s = m3_spec()
    half = RationalVector([Fraction(1, 2), Fraction(0)])
    ok = verify_candidate(s, candidate(1, M3, x1=half))
    assert ok.ok
    third = RationalVector([Fraction(1, 3), Fraction(0)])
    assert not verify_candidate(s, candidate(1, M3, x1=third)).ok


def test_verify_requires_nonzero_weights_and_lattice():
    torus = build_spec(IntMatrix.identity(2), TauSpec.generic())
    with pytest.raises(SpecError, match="nonzero"):
        verify_candidate(torus, candidate(1, [[1, 0], [0, 1]]))

    import nakamura.construct as construct

    mixed = build_spec(
        [[2, 1, 0], [1, 1, 0], [0, 0, 1]], TauSpec.generic()
    )
    with pytest.raises(SpecError, match="nonzero"):
        verify_candidate(
            mixed,
            AutCandidate(
                t=1,
                a_prime=IntMatrix.identity(3),
                x1=RationalVector.zero(3),
                x2=RationalVector.zero(3),
            ),
        )

    no_lattice = make_spec([(1,), (-1,)])
    with pytest.raises(SpecError, match="lattice"):
        verify_candidate(no_lattice, candidate(1, A))


def test_e_mode_space_examples():
    s = a_spec(TauSpec.special(vec(1), 0, 1))
    assert e_mode_space(s, 1, 1) == (0, 1)
    assert e_mode_space(s, 1, 2) == (0, -1)
    assert e_mode_space(s, -1, 1) == (0, -1)
    assert e_mode_space(a_spec(), 1, 1) is None

    # proportionality exists but the scaled (h, k) are not integers
    s2 = a_spec(TauSpec.special(vec(2), 0, 1))
    assert e_mode_space(s2, 1, 1) is None

    with pytest.raises(SpecError):
        e_mode_space(s, 1, 3)
    with pytest.raises(SpecError):
        e_mode_space(s, 0, 1)


def test_verify_e_modes():
    s = a_spec(TauSpec.special(vec(1), 0, 1))
    good = candidate(1, A, e_modes=(EMode(i=1, m=0, k=1),))
    assert verify_candidate(s, good).ok

    wrong = candidate(1, A, e_modes=(EMode(i=1, m=1, k=1),))
    assert any(
        "canonical" in v for v in verify_candidate(s, wrong).violations
    )

    on_generic = candidate(1, A, e_modes=(EMode(i=1, m=0, k=1),))
    assert any(
        "no exponential mode" in v
        for v in verify_candidate(a_spec(), on_generic).violations
    )

    out_of_range = candidate(1, A, e_modes=(EMode(i=5, m=0, k=1),))
    assert any(
        "out of range" in v
        for v in verify_candidate(s, out_of_range).violations
    )

    with pytest.raises(SpecError):
        EMode(i=1, m=0, k=0)


def test_deck_candidate_always_verifies():
    rng = random.Random(71)
    for s in (a_spec(), m3_spec()):
        for _ in range(25):
            g = GroupElement(
                beta1=tuple(rng.randint(-5, 5) for _ in range(2)),
                beta2=tuple(rng.randint(-5, 5) for _ in range(2)),
                a1=rng.randint(-3, 3),
                a2=rng.randint(-3, 3),
            )
            c = deck_candidate(s, g)
            assert verify_candidate(s, c).ok


def test_deck_conjugate_examples():
    s = a_spec()
    rho1 = deck_candidate(s, GroupElement((0, 0), (0, 0), 1, 0))
    moved = deck_conjugate(s, rho1, GroupElement((1, 0), (0, 0), 0, 0))
    assert moved == GroupElement((2, 1), (0, 0), 0, 0)

    rot = candidate(-1, ROT)
    flipped = deck_conjugate(s, rot, GroupElement((0, 0), (0, 0), 1, 0))
    assert flipped == GroupElement((0, 0), (0, 0), -1, 0)

    ident = GroupElement.identity(2)
    assert deck_conjugate(s, rot, ident) == ident


def test_deck_conjugate_rejects_unverified():
    s = a_spec()
    with pytest.raises(SpecError, match="fails verification"):
        deck_conjugate(
            s, candidate(1, [[1, 1], [0, 1]]), GroupElement.identity(2)
        )


def half_translation(rng):
    coords1 = [Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2))]
    coords2 = [Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2))]
    return candidate(1, M3, x1=RationalVector(coords1), x2=RationalVector(coords2))


def test_deck_conjugate_is_always_integral():
    rng = random.Random(73)
    s_a = a_spec()
    s_m3 = m3_spec()
    cases = []
    for _ in range(120):
        g = GroupElement(
            beta1=tuple(rng.randint(-4, 4) for _ in range(2)),
            beta2=tuple(rng.randint(-4, 4) for _ in range(2)),
            a1=rng.randint(-4, 4),
            a2=rng.randint(-4, 4),
        )
        deck_g = GroupElement(
            beta1=tuple(rng.randint(-3, 3) for _ in range(2)),
            beta2=tuple(rng.randint(-3, 3) for _ in range(2)),
            a1=rng.randint(-2, 2),
            a2=rng.randint(-2, 2),
        )
        cases.append((s_a, deck_candidate(s_a, deck_g), g))
        cases.append((s_a, candidate(-1, ROT), g))
        cases.append((s_m3, half_translation(rng), g))
    for s, c, g in cases:
        out = deck_conjugate(s, c, g)
        assert all(isinstance(v, int) for v in out.beta1 + out.beta2)


def test_conjugation_by_composite_is_sequential():
    rng = random.Random(79)
    s = a_spec()
    pool = [
        deck_candidate(s, GroupElement((1, 0), (0, 1), 1, 0)),
        deck_candidate(s, GroupElement((0, 2), (1, 0), -1, 1)),
        candidate(-1, ROT),
        candidate(1, [[1, -1], [-1, 2]], x1=RationalVector([1, 3])),
    ]
    for c in pool:
        assert verify_candidate(s, c).ok
    for _ in range(40):
        c1 = rng.choice(pool)
        c2 = rng.choice(pool)
        g = GroupElement(
            beta1=tuple(rng.randint(-3, 3) for _ in range(2)),
            beta2=tuple(rng.randint(-3, 3) for _ in range(2)),
            a1=rng.randint(-2, 2),
            a2=rng.randint(-2, 2),
        )
        combined = compose_candidates(c1, c2)
        assert verify_candidate(s, combined).ok
        assert deck_conjugate(s, combined, g) == deck_conjugate(
            s, c1, deck_conjugate(s, c2, g)
        )


def test_compose_and_invert():
    s = a_spec()
    rho1 = deck_candidate(s, GroupElement((0, 0), (0, 0), 1, 0))
    squared = compose_candidates(rho1, rho1)
    assert squared.t == 1
    assert squared.a_prime == IntMatrix(A) @ IntMatrix(A)
    assert squared.x1 == zero2()

    rot = candidate(-1, ROT)
    inv = invert_candidate(rot)
    assert inv.t == -1
    assert inv.a_prime == IntMatrix([[0, -1], [1, 0]])

    round_trip = compose_candidates(rot, inv)
    ident = deck_candidate(s, GroupElement.identity(2))
    assert round_trip == ident

    with_x = candidate(1, A, x1=RationalVector([2, -1]))
    assert compose_candidates(with_x, invert_candidate(with_x)) == ident


def test_compose_rejects_exponential_modes():
    s = a_spec(TauSpec.special(vec(1), 0, 1))
    with_mode = candidate(1, A, e_modes=(EMode(i=1, m=0, k=1),))
    assert verify_candidate(s, with_mode).ok
    plain = candidate(1, A)
    with pytest.raises(SpecError, match="affine"):
        compose_candidates(with_mode, plain)
    with pytest.raises(SpecError, match="affine"):
        invert_candidate(with_mode)


def test_h_coset_group():
    trivial = h_coset_group(a_spec())
    assert trivial.order == 1
    assert trivial.invariant_factors_x1 == (1, 1)

    four = h_coset_group(m3_spec())
    assert four.order == 4
    assert four.invariant_factors_x1 == (1, 2)
    assert four.invariant_factors_x2 == (1, 2)
    assert str(four) == "order 4, factors (1,2)x(1,2)"

    torus = build_spec(IntMatrix.identity(2), TauSpec.generic())
    with pytest.raises(SpecError):
        h_coset_group(torus)


def test_coset_order_matches_determinant():
    for m in (A, M3, [[4, 1], [3, 1]], [[5, 2], [2, 1]]):
        s = build_spec(m, TauSpec.generic())
        i_minus_m = IntMatrix.identity(2) - IntMatrix(m)
        assert h_coset_group(s).order == i_minus_m.det() ** 2


def test_commutant_search_examples():
    s = a_spec()
    found = commutant_search(s, 1, bound=2)
    m = IntMatrix(A)
    m_inv = IntMatrix([[1, -1], [-1, 2]])
    for expected in (
        IntMatrix.identity(2),
        m,
        m_inv,
    ):
        assert expected in found
        negated = IntMatrix([[-x for x in row] for row in expected.entries])
        assert negated in found
    for a_prime in found:
        assert m @ a_prime == a_prime @ m

    flips = commutant_search(s, -1, bound=1)
    assert IntMatrix(ROT) in flips
    for a_prime in flips:
        assert m.inverse_unimodular() @ a_prime == a_prime @ m

    assert commutant_search(s, 1, bound=0) == []


def _lattice_spec(m):
    """A spec carrying ``m`` as its lattice matrix; the search reads
    nothing else, so the weights are placeholders (nonzero, balanced)."""
    n = m.nrows
    lams = [(1,)] * (n - 1) + [(1 - n,)]
    return make_spec(lams, lattice=LatticeSpec(matrix=m))


CUBIC = [[0, 0, 1], [1, 0, -5], [0, 1, 6]]  # companion of x^3 - 6x^2 + 5x - 1


def test_commutant_search_cap():
    # A's commutant lattice has rank 2: 7 ** 2 = 49 points at bound 3
    with pytest.raises(SpecError, match="cap"):
        commutant_search(a_spec(), 1, bound=3, max_states=48)
    with pytest.raises(SpecError):
        commutant_search(a_spec(), 0, bound=1)


def test_commutant_search_cap_counts_lattice_points():
    # the box at bound 3 holds 7 ** 9 matrices; the cubic's lattice has rank 3
    s = _lattice_spec(IntMatrix(CUBIC))
    found = commutant_search(s, 1, bound=3, max_states=7**3)
    assert IntMatrix.identity(3) in found
    assert IntMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]) in found
    with pytest.raises(SpecError, match="cap"):
        commutant_search(s, 1, bound=3, max_states=7**3 - 1)
    assert commutant_search(s, 1, bound=3) == found


def test_commutant_search_cap_refuses_the_full_box():
    # every matrix commutes with I, so its lattice is the whole box
    with pytest.raises(SpecError, match="cap"):
        commutant_search(
            _lattice_spec(IntMatrix.identity(3)), 1, bound=1, max_states=3**9 - 1
        )


@pytest.mark.parametrize("t", [True, 1.0, Fraction(1), "1", None])
def test_commutant_search_rejects_non_integer_t(t):
    with pytest.raises(SpecError, match="t must be"):
        commutant_search(a_spec(), t, bound=1)


@pytest.mark.parametrize("bound", [True, 1.5, 2.0, Fraction(1), "1", None])
def test_commutant_search_rejects_non_integer_bound(bound):
    with pytest.raises(SpecError, match="bound must be an integer"):
        commutant_search(a_spec(), 1, bound=bound)


if st is not None:
    # Diagonal blocks of each size: eigenvalue 1, hyperbolic companions of
    # x^2 - t x + 1, totally real cubic companions of x^3 - a x^2 + b x - 1.
    BLOCKS = {
        1: [((1,),)],
        2: [((0, -1), (1, t)) for t in (3, 4, 5)],
        3: [((0, 0, 1), (1, 0, -b), (0, 1, a)) for a, b in ((6, 5), (7, 6))],
    }
    # (1, 1, 1) conjugates to I only, which an explicit example covers
    SHAPES = {2: [(1, 1), (2,)], 3: [(1, 2), (2, 1), (3,)]}

    @st.composite
    def searches(draw):
        """``(M, t, bound)``: M a block diagonal of the blocks above (repeats
        allowed) conjugated by up to three elementary matrices, and a bound
        of at most 2 for n = 2 and 1 for n = 3."""
        n = draw(st.sampled_from([2, 3]))
        shape = draw(st.sampled_from(SHAPES[n]))
        m = IntMatrix(
            block_diag(*[draw(st.sampled_from(BLOCKS[k])) for k in shape])
        )
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.permutations(range(n)))[:2]
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            e = [[int(r == s) for s in range(n)] for r in range(n)]
            e[i][j] = c
            m = IntMatrix(e) @ m @ IntMatrix(e).inverse_unimodular()
        return m, draw(st.sampled_from([1, -1])), draw(st.integers(0, 4 - n))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(searches())
    # the full-rank kernel (M = I) and the rank-0 kernel (a cubic whose
    # characteristic polynomial is not self-reciprocal has no flip)
    @example((IntMatrix.identity(2), 1, 2))
    @example((IntMatrix.identity(3), -1, 1))
    @example((IntMatrix(BLOCKS[3][0]), -1, 1))
    def test_commutant_search_matches_brute_force(search):
        m, t, bound = search
        assert commutant_search(_lattice_spec(m), t, bound) == (
            oracle_commutant(m, t, bound)
        )


def test_group_element_validation():
    with pytest.raises(SpecError):
        GroupElement((1, 0), (0,), 0, 0)
    with pytest.raises(SpecError):
        GroupElement((Fraction(1, 2), 0), (0, 0), 0, 0)
    with pytest.raises(SpecError):
        AutCandidate(
            t=1,
            a_prime=IntMatrix(A),
            x1=RationalVector.zero(3),
            x2=RationalVector.zero(2),
        )
