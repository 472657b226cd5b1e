"""Shared builders for the test suite: canned specs, random generators, the
quadratic subset engine kept as the reference for the hash join, the
brute-force commutant search kept as the reference for the lattice search,
the dense rational CE oracle kept as the reference for the modular one, a
float evaluator of tau kept as the reference for its exact ratio, and the
form engine without fast paths kept as the reference for ``Poly`` and
``forms``."""

import itertools
import math
import random
from fractions import Fraction

from nakamura.cohomology import (
    Family,
    GeneratorDescriptor,
    character_of,
    is_admissible,
)
from nakamura.forms import ANTI, HOLO, InvariantForm, _wedge_monomials
from nakamura.model import ManifoldSpec, TauSpec
from nakamura.scalars import IntMatrix, Poly, RationalVector, qvector_poly


def vec(*coords):
    return RationalVector(coords)


def make_spec(lambdas, tau=None, basis_dim=None, lattice=None):
    lams = tuple(vec(*l) if isinstance(l, tuple) else l for l in lambdas)
    dim = basis_dim if basis_dim is not None else lams[0].dim
    return ManifoldSpec(
        lambdas=lams,
        basis_dim=dim,
        tau=tau if tau is not None else TauSpec.generic(),
        lattice=lattice,
    )


def block_diag(*blocks):
    """The block diagonal matrix of square blocks, as a list of rows."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[offset + i][offset + j] = x
        offset += len(b)
    return out


def spec_n2_generic():
    return make_spec([(1,), (-1,)])


def spec_n2_special():
    return make_spec([(1,), (-1,)], tau=TauSpec.special(vec(1), 0, 1))


def torus2(tau=None):
    return make_spec([(0,), (0,)], tau=tau)


def spec_n3_mixed():
    return make_spec([(1,), (0,), (-1,)])


def random_spec(rng, max_n=4, allow_torus=True):
    """A random valid spec: balanced weights plus a random tau variant."""
    n = rng.randint(1, max_n)
    d = rng.randint(1, 2)
    while True:
        lams = [
            vec(*[Fraction(rng.randint(-2, 2)) for _ in range(d)])
            for _ in range(n - 1)
        ]
        total = RationalVector.zero(d)
        for lam in lams:
            total = total + lam
        lams.append(-total)
        if allow_torus or not all(l.is_zero() for l in lams):
            break
    if rng.random() < 0.5:
        tau = TauSpec.generic()
    else:
        while True:
            c = vec(*[Fraction(rng.randint(-2, 2)) for _ in range(d)])
            if not c.is_zero():
                break
        h = rng.randint(-3, 3)
        k = rng.choice([x for x in range(-3, 4) if x != 0])
        # keep the asserted sign c*k > 0 consistent when it is determined
        if all(x >= 0 for x in c.coords):
            k = abs(k)
        elif all(x <= 0 for x in c.coords):
            k = -abs(k)
        tau = TauSpec.special(c, h, k)
    return make_spec(lams, tau=tau, basis_dim=d)


def random_character(spec, rng):
    return vec(*[Fraction(rng.randint(-2, 2)) for _ in range(spec.basis_dim)])


def random_poly(spec, rng):
    names = ["u"] + [f"b{j + 1}" for j in range(spec.basis_dim)]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(
            (name, rng.randint(1, 2)) for name in names if rng.random() < 0.4
        )
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(terms) + Poly.constant(rng.randint(-2, 2))


def random_form(spec, rng, max_terms=3, degree=None):
    """A random invariant form, optionally of one total degree."""
    all_gens = [(HOLO, i) for i in range(spec.n + 1)] + [
        (ANTI, i) for i in range(spec.n + 1)
    ]
    total = InvariantForm.zero(spec)
    for _ in range(rng.randint(1, max_terms)):
        if degree is None:
            size = rng.randint(0, len(all_gens))
        else:
            size = degree
        gens = tuple(sorted(rng.sample(all_gens, size)))
        term = InvariantForm.monomial(
            spec,
            gens,
            character=random_character(spec, rng),
            coeff=random_poly(spec, rng),
        )
        total = total + term
    return total


def tau_to_float(t, b_values):
    """tau(c, h, k) as a complex number, with ``b_values[j]`` the value of
    ``b(j+1)``: the float reference for ``Re(tau)/|tau|^2 == h/k``."""
    c = sum(float(coef) * val for coef, val in zip(t.c_ref.coords, b_values))
    scale = 2 * t.k * math.pi / (4 * math.pi ** 2 * t.h ** 2 + c * c)
    return complex(scale * 2 * t.h * math.pi, scale * c)


# ---------------------------------------------------------------------------
# the quadratic subset engine, the reference for the hash join (n <= 7)
# ---------------------------------------------------------------------------

FAMILY_OFFSETS = {
    Family.PLAIN: (0, 0),
    Family.PHI0: (1, 0),
    Family.PHIBAR0: (0, 1),
    Family.BOTH: (1, 1),
}


def oracle_subset_groups(s):
    """``{(size, character): (count, lexmin subset)}`` by summing every one
    of the 2^n subsets, in lexicographic order within each size."""
    groups = {}
    for size in range(s.n + 1):
        for subset in itertools.combinations(range(1, s.n + 1), size):
            total = RationalVector.zero(s.basis_dim)
            for i in subset:
                total = total + s.lambdas[i - 1]
            key = (size, total)
            if key in groups:
                count, rep = groups[key]
                groups[key] = (count + 1, rep)
            else:
                groups[key] = (1, subset)
    return groups


def oracle_pair_data(s):
    """``(counts, witnesses)`` of admissible pairs, testing every two subset
    groups against ``is_admissible``."""
    groups = oracle_subset_groups(s)
    admissible = {}
    counts, witnesses = {}, {}
    for (sa, ca), (cnt_a, rep_a) in groups.items():
        for (sb, cb), (cnt_b, rep_b) in groups.items():
            c = ca + cb
            if c not in admissible:
                admissible[c] = is_admissible(s, c)
            if not admissible[c]:
                continue
            counts[(sa, sb)] = counts.get((sa, sb), 0) + cnt_a * cnt_b
            key = (sa + sb, sb, rep_a, rep_b)
            if c not in witnesses or key < witnesses[c][0]:
                witnesses[c] = (key, rep_a, rep_b)
    return counts, witnesses


def oracle_betti(s):
    """Betti numbers from zero-sum pairs of every two subset groups."""
    groups = oracle_subset_groups(s)
    z = [0] * (2 * s.n + 1)
    for (sa, ca), (cnt_a, _) in groups.items():
        for (sb, cb), (cnt_b, _) in groups.items():
            if (ca + cb).is_zero():
                z[sa + sb] += cnt_a * cnt_b

    def z_at(j):
        return z[j] if 0 <= j < len(z) else 0

    return tuple(
        z_at(k) + 2 * z_at(k - 1) + z_at(k - 2) for k in range(2 * s.n + 3)
    )


def oracle_dolbeault_generators(s, p, q):
    """Generators of bidegree (p, q), testing every pair of index sets."""
    out = []
    for family in (Family.PLAIN, Family.PHI0, Family.PHIBAR0, Family.BOTH):
        dp, dq = FAMILY_OFFSETS[family]
        size_i, size_j = p - dp, q - dq
        if size_i < 0 or size_j < 0 or size_i > s.n or size_j > s.n:
            continue
        for I in itertools.combinations(range(1, s.n + 1), size_i):
            for J in itertools.combinations(range(1, s.n + 1), size_j):
                c = character_of(s, I, J)
                if is_admissible(s, c):
                    out.append(GeneratorDescriptor(family, I, J, c))
    return out


# ---------------------------------------------------------------------------
# the brute-force commutant search, the reference for the lattice search
# ---------------------------------------------------------------------------


def oracle_commutant(m, t, bound):
    """Every ``A`` with ``|entry| <= bound``, ``M^t A = A M`` and
    ``det A = +-1``, trying all ``(2 bound + 1)^(n^2)`` integer matrices in
    row-major lexicographic order."""
    n = m.nrows
    left = (m if t == 1 else m.inverse_unimodular()).entries
    right = m.entries
    idx = range(n)
    results = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=n * n):
        a = [flat[i * n : (i + 1) * n] for i in idx]
        if all(
            sum(left[i][j] * a[j][k] for j in idx)
            == sum(a[i][j] * right[j][k] for j in idx)
            for i in idx
            for k in idx
        ):
            candidate = IntMatrix(a)
            if candidate.det() in (1, -1):
                results.append(candidate)
    return results


# ---------------------------------------------------------------------------
# the dense rational CE oracle, the reference for the modular block oracle
# ---------------------------------------------------------------------------

DENSE_ORACLE_PRIMES = (
    113149, 190787, 194203, 205339, 250643, 256079, 268937, 275999,
    280187, 282617, 307261, 309797, 345271, 370091, 376729, 404197,
    409753, 432743, 450787, 459037, 495289, 516563, 534049, 542123,
    545863, 583903, 596741, 608207, 616367, 657581, 660941, 669611,
    686891, 693037, 737573, 748717, 774133, 783121, 792377, 796247,
    811277, 817087, 846113, 874847, 879539, 948749, 978347, 996257,
)


def rank_rational(rows, ncols):
    """Rank over the rationals of a matrix given as an iterable of rows."""
    work = [list(map(Fraction, row)) for row in rows]
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        work[rank] = [x / lead for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def poly_evaluate(p, assignment):
    """Evaluate a ``Poly`` at rational values; every variable present must
    be bound."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        value = coeff
        for name, e in mono:
            if name not in assignment:
                raise KeyError(f"no value supplied for variable {name}")
            value *= Fraction(assignment[name]) ** e
        total += value
    return total


def dense_ce_differential_matrices(s):
    """Chevalley-Eilenberg differentials with polynomial entries.

    Basis of degree one: ``e0, f0, e1, f1, .. , en, fn`` in that order, with
    ``d(e_i) = -lambda_i (e0 - q f0) ^ e_i`` and likewise for ``f_i``; the
    symbol ``q`` stands for ``Re(tau)/Im(tau)`` and stays symbolic.  Returns
    the list of matrices ``d_k`` as ``(rows, cols, {(row, col): Poly})``.
    """
    m = 2 * s.n + 2
    q = Poly.variable("q")

    # d(one-form g) as {two-form monomial: Poly}
    one_form_d = []
    for g in range(m):
        if g < 2:
            one_form_d.append({})
            continue
        lam = qvector_poly(s.lambdas[(g - 2) // 2])
        if lam.is_zero():
            one_form_d.append({})
            continue
        one_form_d.append({(0, g): -lam, (1, g): lam * q})

    matrices = []
    for k in range(m + 1):
        basis_k = list(itertools.combinations(range(m), k))
        basis_next = {
            mono: idx
            for idx, mono in enumerate(itertools.combinations(range(m), k + 1))
        }
        entries = {}
        for col, mono in enumerate(basis_k):
            for pos, g in enumerate(mono):
                pos_sign = -1 if pos % 2 else 1
                for pair, coeff in one_form_d[g].items():
                    rest = mono[:pos] + mono[pos + 1:]
                    merged = _wedge_monomials(pair, rest)
                    if merged is None:
                        continue
                    sign, new_mono = merged
                    row = basis_next[new_mono]
                    total = entries.get((row, col), Poly()) + (
                        pos_sign * sign
                    ) * coeff
                    if total.is_zero():
                        entries.pop((row, col), None)
                    else:
                        entries[(row, col)] = total
        matrices.append((len(basis_next), len(basis_k), entries))
    return matrices


def oracle_ce_betti_dense(s):
    """Betti numbers from dense ``Fraction`` ranks of the polynomial CE
    differentials, evaluated at random rational points built from large
    primes; the per-degree maximum rank across points is used, and at least
    three points must agree on the whole rank vector."""
    matrices = dense_ce_differential_matrices(s)
    m = 2 * s.n + 2
    names = ["q"] + [f"b{j + 1}" for j in range(s.basis_dim)]
    rng = random.Random(20260822 + 1000 * s.n + s.basis_dim)

    def rank_vector_at(assignment):
        ranks = []
        for rows, cols, entries in matrices:
            if rows == 0 or cols == 0 or not entries:
                ranks.append(0)
                continue
            dense = [[Fraction(0)] * cols for _ in range(rows)]
            for (r, c), poly in entries.items():
                dense[r][c] = poly_evaluate(poly, assignment)
            ranks.append(rank_rational(dense, cols))
        return tuple(ranks)

    vectors = []
    for _round in range(8):
        for _ in range(3):
            primes = rng.sample(DENSE_ORACLE_PRIMES, 2 * len(names))
            assignment = {
                name: Fraction(primes[2 * i], primes[2 * i + 1])
                for i, name in enumerate(names)
            }
            vectors.append(rank_vector_at(assignment))
        best = tuple(max(v[k] for v in vectors) for k in range(m + 1))
        if sum(1 for v in vectors if v == best) >= 3:
            dims = [math.comb(m, k) for k in range(m + 1)]
            return tuple(
                dims[k] - best[k] - (best[k - 1] if k > 0 else 0)
                for k in range(m + 1)
            )
    raise ArithmeticError(
        "rank oracle failed to stabilize; evaluation points kept disagreeing"
    )


# ---------------------------------------------------------------------------
# the form engine as it was before the canonical-form fast paths: every
# polynomial result goes back through the normalising ``Poly`` constructor,
# ``d`` is ``del + dbar`` in two passes and conjugation expands powers of
# ``1 - u`` by repeated products.  The reference for ``Poly`` arithmetic and
# for ``d``, ``del_``, ``dbar``, ``conjugate`` and ``wedge``.
# ---------------------------------------------------------------------------


def is_canonical(p):
    """Sorted monomials and nonzero Fraction coefficients: the form the
    trusted ``Poly`` constructor relies on."""
    return Poly(p.terms).terms == p.terms and all(
        type(c) is Fraction and c != 0 for c in p.terms.values()
    )


def oracle_poly_add(p, q):
    merged = dict(p.terms)
    for mono, coeff in q.terms.items():
        merged[mono] = merged.get(mono, Fraction(0)) + coeff
    return Poly(merged)


def oracle_poly_mul(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            merged = dict(m1)
            for name, e in m2:
                merged[name] = merged.get(name, 0) + e
            mono = tuple(sorted(merged.items()))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return Poly(out)


def _oracle_scale(p, k):
    return oracle_poly_mul(p, Poly({(): k}))


def oracle_poly_conjugate(p):
    """``p`` with ``u`` replaced by ``1 - u``."""
    one_minus_u = Poly({(): 1, (("u", 1),): -1})
    out = Poly()
    for mono, coeff in p.terms.items():
        power = Poly({(): 1})
        for _ in range(dict(mono).get("u", 0)):
            power = oracle_poly_mul(power, one_minus_u)
        rest = tuple(pair for pair in mono if pair[0] != "u")
        out = oracle_poly_add(out, oracle_poly_mul(power, Poly({rest: coeff})))
    return out


def _oracle_weight(spec, idx):
    coords = spec.lambdas[idx - 1].coords if idx else ()
    return Poly({((f"b{j + 1}", 1),): c for j, c in enumerate(coords)})


ORACLE_U = Poly({(("u", 1),): 1})
ORACLE_U_MINUS_ONE = Poly({(("u", 1),): 1, (): -1})


def _oracle_dbar_rule(spec, g):
    kind, idx = g
    lam_u = oracle_poly_mul(_oracle_weight(spec, idx), ORACLE_U)
    if lam_u.is_zero():
        return []
    if kind == HOLO:
        return [(lam_u, ((HOLO, idx), (ANTI, 0)))]
    return [(_oracle_scale(lam_u, -1), ((ANTI, 0), (ANTI, idx)))]


def _oracle_del_rule(spec, g):
    kind, idx = g
    lam_u1 = oracle_poly_mul(_oracle_weight(spec, idx), ORACLE_U_MINUS_ONE)
    if lam_u1.is_zero():
        return []
    return [(lam_u1, ((HOLO, 0), (kind, idx)))]


def _oracle_add_term(out, key, coeff):
    out[key] = oracle_poly_add(out.get(key, Poly()), coeff)


def _oracle_derivation(form, gen_rule, func_gen, func_factor):
    out = {}
    for (char, mono), coeff in form.terms.items():
        if not char.is_zero():
            merged = _wedge_monomials((func_gen,), mono)
            if merged is not None:
                sign, new_mono = merged
                c_poly = Poly({
                    ((f"b{j + 1}", 1),): x for j, x in enumerate(char.coords)
                })
                scale = oracle_poly_mul(func_factor, c_poly)
                _oracle_add_term(out, (char, new_mono),
                                 _oracle_scale(oracle_poly_mul(scale, coeff), sign))
        for pos, g in enumerate(mono):
            prefix, suffix = mono[:pos], mono[pos + 1:]
            pos_sign = -1 if pos % 2 else 1
            for piece_coeff, piece_mono in gen_rule(form.spec, g):
                first = _wedge_monomials(piece_mono, suffix)
                if first is None:
                    continue
                s1, tail = first
                second = _wedge_monomials(prefix, tail)
                if second is None:
                    continue
                s2, new_mono = second
                product = oracle_poly_mul(piece_coeff, coeff)
                _oracle_add_term(out, (char, new_mono),
                                 _oracle_scale(product, pos_sign * s1 * s2))
    return InvariantForm(form.spec, out)


def oracle_dbar(form):
    return _oracle_derivation(form, _oracle_dbar_rule, (ANTI, 0), ORACLE_U)


def oracle_del(form):
    return _oracle_derivation(
        form, _oracle_del_rule, (HOLO, 0), ORACLE_U_MINUS_ONE
    )


def oracle_d(form):
    out = dict(oracle_del(form).terms)
    for key, coeff in oracle_dbar(form).terms.items():
        _oracle_add_term(out, key, coeff)
    return InvariantForm(form.spec, out)


def oracle_conjugate(form):
    out = {}
    for (char, mono), coeff in form.terms.items():
        flipped = [(ANTI if kind == HOLO else HOLO, idx) for kind, idx in mono]
        inversions = sum(
            1 for a, b in itertools.combinations(flipped, 2) if a > b
        )
        _oracle_add_term(
            out,
            (-char, tuple(sorted(flipped))),
            _oracle_scale(oracle_poly_conjugate(coeff), (-1) ** inversions),
        )
    return InvariantForm(form.spec, out)


def oracle_wedge(x, y):
    out = {}
    for (c1, m1), p1 in x.terms.items():
        for (c2, m2), p2 in y.terms.items():
            merged = _wedge_monomials(m1, m2)
            if merged is None:
                continue
            sign, mono = merged
            _oracle_add_term(out, (c1 + c2, mono),
                             _oracle_scale(oracle_poly_mul(p1, p2), sign))
    return InvariantForm(x.spec, out)
