"""The benchmark's workloads: inputs, the timed op, and its checks.

Each workload repeats a fixed schedule of input shapes; the seed draws the
values inside each shape.  A run always covers whole rounds of the schedule,
so every run, whatever its seed, has the same mix of shapes.

* ``invariants``: one op is the full report a user asks for one spec.  The
  ``cohomology`` subset and character engine does most of the work, ``forms``
  a minority (inside ``pkahler_status``), ``construct`` and
  ``automorphisms`` none.
* ``lattice``: one op analyses a block-structured integer matrix and runs
  the automorphism tools on it; ``construct``, ``automorphisms`` and
  integer-matrix arithmetic carry it, ``cohomology`` has a small share.
* ``crosscheck``: one op equates the independent Betti routes and checks
  form-engine identities on small specs; the subset engine sits idle.
* ``lattice-defects``: the ``lattice`` op on the two matrix shapes whose
  eigen-analysis is known to be wrong.  Not a measured workload: every op
  fails until that defect is fixed.

Every op returns its raw results; :meth:`check` compares them with
:mod:`reference` afterwards, outside the timed region.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from nakamura import automorphisms, cli, cohomology, construct, forms, model, tau
from nakamura.automorphisms import GroupElement
from nakamura.construct import Exactness
from nakamura.forms import ANTI, HOLO, InvariantForm
from nakamura.model import TauSpec
from nakamura.scalars import Poly, RationalVector

import reference as ref


def _frac_list(v):
    return [str(x) for x in v]


def _special_triple(rng, c_ref):
    """``(h, k)`` with gcd drawn from 1..4 and ``k`` signed so the asserted
    ``c * k > 0`` agrees with ``c_ref`` whenever its signs decide it."""
    g = rng.choice((1, 2, 3, 4))
    while True:
        h0, k0 = rng.randint(-3, 3), rng.randint(1, 3)
        if math.gcd(h0, k0) == 1:
            break
    if all(x <= 0 for x in c_ref) or (
        not all(x >= 0 for x in c_ref) and rng.random() < 0.5
    ):
        k0 = -k0
    return g * h0, g * k0


def _spec_document(lams, tau_triple, matrix=None):
    doc = {
        "n": len(lams),
        "basis_dim": len(lams[0]),
        "lambdas": [_frac_list(lam) for lam in lams],
        "tau": {"type": "generic"},
    }
    if tau_triple is not None:
        c_ref, h, k = tau_triple
        doc["tau"] = {"type": "special", "c": _frac_list(c_ref), "h": h, "k": k}
    if matrix is not None:
        doc["lattice"] = {"M": [list(row) for row in matrix]}
    return doc


def _subset_enumerations():
    """How many times the subset engine has enumerated the ``2^n`` index
    subsets of a spec in this process: the misses of the cache in front of
    that enumeration, read through ``cache_info``.  A spec whose subsets are
    already cached costs no enumeration and adds nothing."""
    return cohomology._subset_groups.cache_info().misses


class Op:
    """One scheduled op: its index, shape label and generated inputs."""

    __slots__ = ("index", "shape", "data")

    def __init__(self, index, shape, data):
        self.index = index
        self.shape = shape
        self.data = data


class Workload:
    name = ""
    schedule = ()

    def __init__(self, seed):
        self.rng = random.Random(f"{self.name}:{seed}")
        self._index = 0

    def next_op(self):
        shape = self.schedule[self._index % len(self.schedule)]
        op = Op(self._index, shape, self.make(shape))
        self._index += 1
        return op

    def prepare(self, op):
        """Build library objects the op takes as given; runs untimed."""
        return None

    def document(self, op):
        """The spec document of the op's input, for the set-up timing."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class Invariants(Workload):
    """Distinct random valid specs on an n ladder from 5 to 9.

    ``narrow`` weights are multiples -1, 0, 1 of one direction, so few
    distinct characters occur and subset enumeration dominates; ``wide``
    weights are independent, so about 2^n characters occur and the
    quadratic join dominates.  Generic and Special tau come in equal shares.
    """

    name = "invariants"
    # (n, spread, basis_dim, tau).  The shapes form cost classes, so that
    # the median and the 90th percentile each fall in the middle of a class
    # of like ops rather than on a boundary between two: eight light n = 5
    # ops, then four n = 6-7 ops whose middle two (n = 6, basis_dim 3) hold
    # the median, four heavier n = 6-7 ops, three n = 8 ops holding the 90th
    # percentile, and one n = 9 op.  Wide specs stop at n = 6: a wide n = 7
    # report takes 0.4 to 1 s and a wide n = 9 one over 6 s.
    schedule = (
        (5, "narrow", 1, "generic"),
        (7, "narrow", 1, "generic"),
        (6, "wide", 2, "generic"),
        (5, "narrow", 1, "special"),
        (8, "narrow", 1, "generic"),
        (5, "narrow", 2, "generic"),
        (7, "narrow", 2, "special"),
        (6, "wide", 2, "special"),
        (5, "narrow", 2, "special"),
        (9, "narrow", 1, "generic"),
        (5, "wide", 1, "generic"),
        (6, "narrow", 3, "generic"),
        (7, "narrow", 3, "generic"),
        (5, "wide", 1, "special"),
        (8, "narrow", 1, "special"),
        (5, "narrow", 3, "generic"),
        (6, "narrow", 3, "special"),
        (7, "narrow", 3, "special"),
        (5, "narrow", 3, "special"),
        (8, "narrow", 2, "special"),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self._seen = set()

    def make(self, shape):
        n, spread, dim, kind = shape
        rng = self.rng
        while True:
            lams = self._weights(n, spread, dim)
            triple = None
            if kind == "special":
                if spread == "narrow":
                    base = next(lam for lam in lams if any(lam))
                    c_ref = tuple(x * rng.choice((1, 2, Fraction(1, 2))) for x in base)
                else:
                    picks = rng.sample(range(n), 2)
                    c_ref = tuple(lams[picks[0]][j] + lams[picks[1]][j] for j in range(dim))
                    if not any(c_ref):
                        continue
                h, k = _special_triple(rng, c_ref)
                triple = (c_ref, h, k)
            key = (tuple(lams), triple)
            if key not in self._seen:
                self._seen.add(key)
                return {"lams": lams, "tau": triple, "doc": _spec_document(lams, triple)}

    def _weights(self, n, spread, dim):
        """Narrow: coefficients +1 and -1 in equal numbers (one 0 when n is
        odd) along a random direction.  Wide: independent weights whose 2^n
        subsets all differ in (size, sum).  Either way the shape, not the
        seed, fixes how many characters occur, and with it the op's cost."""
        rng = self.rng
        if spread == "narrow":
            direction = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(dim)]
            coeffs = [1, -1] * (n // 2) + [0] * (n % 2)
            rng.shuffle(coeffs)
            return [tuple(c * x for x in direction) for c in coeffs]
        while True:
            den = rng.choice((1, 2, 3))
            lams = [
                tuple(Fraction(rng.randint(-9, 9), den) for _ in range(dim))
                for _ in range(n - 1)
            ]
            lams.append(tuple(-sum(lam[j] for lam in lams) for j in range(dim)))
            groups = {(0, (0,) * dim)}
            for lam in lams:
                groups |= {(a + 1, tuple(x + y for x, y in zip(v, lam))) for a, v in groups}
            if len(groups) == 2 ** n:
                return lams

    def document(self, op):
        return op.data["doc"]

    def run(self, op, prepared, tr):
        enumerations = _subset_enumerations()
        s = tr.call("cli.spec_from_document", cli.spec_from_document, op.data["doc"])
        n = s.n
        out = {"valid": tr.call("model.validate_spec", model.validate_spec, s).ok}
        table = tr.call("cohomology.hodge_table", cohomology.hodge_table, s)
        tr.call("cohomology.HodgeTable.check_symmetries", table.check_symmetries)
        out["hodge"] = table.entries
        out["betti"] = tr.call("cohomology.betti_numbers", cohomology.betti_numbers, s)
        out["frolicher"] = tr.call(
            "cohomology.frolicher_degenerates", cohomology.frolicher_degenerates, s
        )
        out["ddbar"] = tr.call("cohomology.ddbar_lemma", cohomology.ddbar_lemma, s)
        out["characters"] = tr.call(
            "cohomology.admissible_character_set", cohomology.admissible_character_set, s
        )
        out["deformation"] = tr.call(
            "cohomology.deformation_dimension", cohomology.deformation_dimension, s
        )
        out["albanese"] = tr.call("cohomology.albanese_verdict", cohomology.albanese_verdict, s)
        out["kodaira"] = tr.call("model.kodaira_dimension", model.kodaira_dimension, s)
        if s.tau.is_special():
            t = s.tau
            canon = tr.call("tau.canonical_triple", tau.canonical_triple, t.c_ref, t.h, t.k)
            out["canonical"] = canon
            out["same_fiber"] = tr.call(
                "tau.same_fiber", tau.same_fiber, t, TauSpec.special(*canon)
            )
        out["pkahler"] = [
            tr.call("cohomology.pkahler_status", cohomology.pkahler_status, s, p).status
            for p in range(1, n + 2)
        ]
        gens = tr.call(
            "cohomology.dolbeault_generators", cohomology.dolbeault_generators, s, 1, n
        )
        out["generators"] = gens
        tr.add("cohomology.subsets", (_subset_enumerations() - enumerations) * 2 ** n)
        tr.add("cohomology.dolbeault_generators.out", len(gens))
        return out

    def check(self, op, out):
        lams, triple = op.data["lams"], op.data["tau"]
        exp = ref.Invariants(lams, triple)
        n = exp.n
        bad = []

        def expect(label, got, want):
            if got != want:
                bad.append(f"{label}: got {got}, expected {want}")

        expect("validate_spec", out["valid"], True)
        expect("hodge_table", out["hodge"], exp.hodge)
        bad += exp.identity_violations(out["hodge"])
        expect("betti_numbers", out["betti"], exp.betti)
        frol = out["frolicher"]
        expect("frolicher_degenerates", frol.holds, exp.degenerates)
        if not frol.holds:
            I, J = frol.witness
            c = tuple(sum(lams[i - 1][j] for i in I + J) for j in range(len(lams[0])))
            expect("witness character", tuple(frol.witness_character.coords), c)
            expect("witness (|I|+|J|, |J|)", (len(I) + len(J), len(J)), exp.first_witness_key)
        expect("ddbar_lemma", out["ddbar"].holds, exp.degenerates)
        report = out["characters"]
        expect(
            "admissible_character_set",
            {tuple(cc.character.coords) for cc in report.classes},
            exp.characters,
        )
        expect(
            "character base",
            None if report.base is None else tuple(report.base.coords),
            exp.character_base,
        )
        for cc in report.classes:
            if cc.multiple is not None and tuple(
                cc.multiple * x for x in exp.character_base
            ) != tuple(cc.character.coords):
                bad.append(f"character class {cc} is not its multiple of the base")
        defo = out["deformation"]
        expect("deformation h^(1,n)", defo.h1n, exp.h1n)
        expect("deformation unobstructed", defo.unobstructed, exp.degenerates)
        if exp.degenerates:
            expect("deformation closed form", defo.closed_form_value, exp.deformation_closed_form)
            expect("deformation closed form = h^(1,n)", defo.h1n, exp.deformation_closed_form)
        expect("albanese h^(1,0)", out["albanese"].h10, exp.h10)
        expect("albanese verdict", out["albanese"].verdict.value,
               "yes" if exp.h10 == 1 else "unknown")
        expect("kodaira_dimension", out["kodaira"], 0)
        if triple is not None:
            c, h, k = out["canonical"]
            expect("canonical_triple", (tuple(c.coords), h, k), exp.canonical)
            expect("same_fiber", out["same_fiber"], True)
        names = {"P_KAHLER": "yes", "NOT_P_KAHLER": "no", "TORUS_ALL_P": "torus"}
        expect("pkahler_status", tuple(names[st.name] for st in out["pkahler"]), exp.pkahler)
        gens = out["generators"]
        expect("dolbeault_generators(1, n) count", len(gens), exp.hodge[1][n])
        expect(
            "dolbeault_generators(1, n) bidegrees",
            all(g.bidegree == (1, n) for g in gens),
            True,
        )
        expect("dolbeault_generators(1, n) distinct", len(set(gens)), len(gens))
        return bad


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

# Traces whose t^2 - 4 have distinct squarefree parts, so the units of the
# hyperbolic blocks lie in distinct real quadratic fields and satisfy no
# multiplicative relation among themselves.
TRACES = (3, 4, 5, 6, 8, 9, 10, 11)
# Totally real cubic units x^3 - a x^2 + b x - 1 with positive roots, in
# three distinct cubic fields (discriminants 49, 257 and 697).  The first
# two are the C and C3 of the known eigen-analysis defect.
CUBICS = ((6, 5), (7, 6), (8, 7))


class Lattice(Workload):
    """Block-diagonal matrices of known factors, conjugated by a random
    unimodular matrix; sizes 2 to 6.

    The two cubic-pair shapes, on which the eigen-analysis is known to give
    wrong answers, are not in this schedule but in :class:`KnownDefects`.
    """

    name = "lattice"
    # (blocks, commutant searches as (t, bound)); a block 1 has eigenvalue 1,
    # Q is hyperbolic and C cubic.  A primed block (Q') is of the same kind
    # as, and distinct from, the unprimed one.
    # Six ops under 10 ms, four around 20 ms holding the median, and six
    # heavier ones; the top two, n = 3 searches over 19683 states, hold the
    # 90th percentile and most of the time.
    schedule = (
        (("Q",), ((1, 1), (-1, 1))),
        (("Q", "C"), ()),
        (("C",), ((1, 1),)),
        (("1", "Q"), ()),
        (("Q",), ((1, 2), (-1, 2))),
        (("Q", "Q'", "Q''"), ()),
        (("Q", "Q"), ()),
        (("1", "Q", "C"), ()),
        (("Q",), ((1, 1), (-1, 1))),
        (("Q", "C"), ()),
        (("Q",), ((1, 3), (-1, 3))),
        (("1", "1", "Q"), ()),
        (("Q",), ((1, 2), (-1, 2))),
        (("C",), ((1, 1),)),
        (("Q", "Q'"), ()),
        (("Q", "Q'", "Q''"), ()),
    )

    def make(self, shape):
        rng = self.rng
        tokens, searches = shape
        quads = rng.sample(TRACES, 3)
        cubics = rng.sample(CUBICS, 2)
        blocks = []
        for token in tokens:
            which = len(token) - 1  # the number of primes
            if token[0] == "1":
                blocks.append(("one",))
            elif token[0] == "Q":
                blocks.append(("quad", quads[which]))
            else:
                blocks.append(("cubic",) + cubics[which])
        rng.shuffle(blocks)
        mats = []
        for blk in blocks:
            if blk[0] == "one":
                mats.append(((1,),))
            elif blk[0] == "quad":
                mats.append(ref.hyperbolic_block(blk[1]))
            else:
                mats.append(ref.cubic_block(blk[1], blk[2]))
        b = ref.block_diagonal(mats)
        n = len(b)
        u = ref.identity(n)
        for _ in range(n + 1):
            i, j = rng.sample(range(n), 2)
            e = [list(row) for row in ref.identity(n)]
            e[i][j] = rng.choice((-1, 1))
            u = ref.matmul(u, ref.mat(e))
        m = ref.matmul(ref.matmul(u, b), ref.inverse_unimodular(u))

        def element():
            return GroupElement(
                beta1=tuple(rng.randint(-2, 2) for _ in range(n)),
                beta2=tuple(rng.randint(-2, 2) for _ in range(n)),
                a1=rng.randint(-1, 2),
                a2=rng.randint(-2, 2),
            )

        g = rng.choice((1, 2, 3))
        return {
            "blocks": tuple(blocks),
            "M": m,
            "g": element(),
            "g2": element(),
            "hk": (g * rng.randint(-2, 2), g * rng.randint(1, 3)),
            "searches": searches,
        }

    def document(self, op):
        exp = ref.LatticeExpected(op.data["blocks"])
        return _spec_document(exp.lambdas, None, op.data["M"])

    def run(self, op, prepared, tr):
        data = op.data
        m = data["M"]
        out = {}
        report = tr.call(
            "construct.analyze_integer_matrix", construct.analyze_integer_matrix, m
        )
        out["report"] = report
        tr.add("construct.exact_ratio.base", 1)
        tr.add("construct.exact", report.exactness is Exactness.EXACT)
        spec = tr.call("construct.build_spec", construct.build_spec, m, TauSpec.generic())
        out["spec"] = spec
        enumerations = _subset_enumerations()
        out["betti"] = tr.call("cohomology.betti_numbers", cohomology.betti_numbers, spec)
        tr.add("cohomology.subsets", (_subset_enumerations() - enumerations) * 2 ** spec.n)
        c_ref = next(
            (lam for lam in report.lambda_vectors
             if not lam.is_zero() and (all(x >= 0 for x in lam) or all(x <= 0 for x in lam))),
            None,
        )
        if c_ref is None:
            return out
        h, k = data["hk"]
        if all(x <= 0 for x in c_ref):
            k = -k
        tau_sp = TauSpec.special(c_ref, h, k)
        special = tr.call("construct.build_spec", construct.build_spec, m, tau_sp)
        out["tau"] = (tuple(c_ref.coords), h, k)
        out["special"] = special
        out["same_fiber"] = tr.call(
            "tau.same_fiber", tau.same_fiber, tau_sp, TauSpec.special(c_ref * 2, 2 * h, 2 * k)
        )
        doc = tr.call("cli.document_from_spec", cli.document_from_spec, special)
        out["round_trip"] = tr.call("cli.spec_from_document", cli.spec_from_document, doc)
        if any(lam.is_zero() for lam in special.lambdas):
            return out
        out["coset"] = tr.call("automorphisms.h_coset_group", automorphisms.h_coset_group, spec)
        cand = tr.call(
            "automorphisms.deck_candidate", automorphisms.deck_candidate, special, data["g"]
        )
        out["verified"] = tr.call(
            "automorphisms.verify_candidate", automorphisms.verify_candidate, special, cand
        ).ok
        out["conjugate"] = tr.call(
            "automorphisms.deck_conjugate", automorphisms.deck_conjugate,
            special, cand, data["g2"],
        )
        out["modes"] = [
            tr.call("automorphisms.e_mode_space", automorphisms.e_mode_space, special, t, i)
            for t in (1, -1)
            for i in range(1, special.n + 1)
        ]
        found = []
        for t, bound in data["searches"]:
            hits = tr.call(
                "automorphisms.commutant_search", automorphisms.commutant_search, spec, t, bound
            )
            tr.add("automorphisms.commutant_search.states", (2 * bound + 1) ** (spec.n ** 2))
            tr.add("automorphisms.commutant_search.found", len(hits))
            found.append(hits)
        out["searches"] = found
        return out

    def check(self, op, out):
        data = op.data
        exp = ref.LatticeExpected(data["blocks"])
        m = data["M"]
        n = exp.n
        bad = []

        def expect(label, got, want):
            if got != want:
                bad.append(f"{label}: got {got}, expected {want}")

        report = out["report"]
        expect("char_poly", tuple(report.char_poly), exp.char_poly)
        expect("weight count", report.n, n)
        expect("weight dimension d", report.relation_basis_dim, exp.basis_dim)
        expect("exactness", report.exactness is Exactness.EXACT, exp.exact)
        expect("betti_numbers", out["betti"], exp.betti)
        if "tau" not in out:
            bad.append("no weight with sign-determined coordinates for a Special tau")
            return bad
        expect("same_fiber", out["same_fiber"], True)
        expect("document round trip", out["round_trip"], out["special"])
        if exp.has_unit_eigenvalue:
            return bad
        i_minus_m = ref.matsub(ref.identity(n), m)
        coset = out["coset"]
        expect("h_coset_group order", coset.order, exp.coset_order)
        expect("h_coset_group factors", coset.invariant_factors_x1, ref.invariant_factors(i_minus_m))
        expect("verify_candidate(deck)", out["verified"], True)
        g, g2 = data["g"], data["g2"]
        a_prime = ref.power(m, g.a1)
        shift = ref.matsub(ref.identity(n), ref.power(m, g2.a1))
        want = GroupElement(
            beta1=tuple(x + y for x, y in zip(ref.apply(a_prime, g2.beta1), ref.apply(shift, g.beta1))),
            beta2=tuple(x + y for x, y in zip(ref.apply(a_prime, g2.beta2), ref.apply(shift, g.beta2))),
            a1=g2.a1,
            a2=g2.a2,
        )
        expect("deck_conjugate", out["conjugate"], want)
        lams = [tuple(lam.coords) for lam in out["special"].lambdas]
        expect(
            "e_mode_space",
            out["modes"],
            [ref.e_mode(lam, out["tau"], t) for t in (1, -1) for lam in lams],
        )
        for (t, bound), hits in zip(data["searches"], out["searches"]):
            expect(
                f"commutant_search(t={t}, bound={bound})",
                [ref.mat(a.entries) for a in hits],
                ref.commutant(m, t, bound),
            )
        return bad


class KnownDefects(Lattice):
    """The lattice ops on which ``analyze_integer_matrix`` is known to give
    wrong weights: two distinct cubic blocks (``blockdiag(C, C3)``) and one
    cubic repeated (``blockdiag(C, C)``).  Every op of this workload fails
    until that defect is fixed; it is not one of the benchmark's measured
    workloads, but run by hand to show the defect, and its shapes go back
    into the ``lattice`` schedule once they pass."""

    name = "lattice-defects"
    schedule = ((("C", "C'"), ()), (("C", "C"), ()))


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


class Crosscheck(Workload):
    """Small specs (n 2 to 4) run through both Betti routes, plus a batch of
    random forms checked against the form-engine identities."""

    name = "crosscheck"
    # (n, basis_dim).  Twelve n = 2 ops hold the median, three n = 3, d = 2
    # ops the 90th percentile; the one n = 4 op takes over 2 s on its own.
    schedule = (
        (2, 1), (2, 2), (3, 1), (2, 1), (2, 2), (3, 2), (2, 1), (2, 2), (3, 1), (4, 1),
        (2, 1), (2, 2), (3, 2), (2, 1), (2, 2), (3, 1), (2, 1), (2, 2), (3, 2), (3, 1),
    )
    PAIRS = 3

    def make(self, shape):
        n, dim = shape
        rng = self.rng
        while True:
            lams = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(n - 1)]
            lams.append(tuple(-sum(lam[j] for lam in lams) for j in range(dim)))
            if all(any(lam) for lam in lams):
                break
        triple = None
        if rng.random() < 0.5:
            c_ref = tuple(Fraction(rng.randint(1, 2)) for _ in range(dim))
            triple = (c_ref, *_special_triple(rng, c_ref))
        forms_seed = rng.getrandbits(32)
        return {"lams": lams, "tau": triple, "doc": _spec_document(lams, triple),
                "forms_seed": forms_seed}

    def document(self, op):
        return op.data["doc"]

    def prepare(self, op):
        data = op.data
        s = cli.spec_from_document(data["doc"])
        rng = random.Random(data["forms_seed"])
        # fixed degrees and term counts keep an op's cost set by its shape
        return [(_random_form(s, rng, s.n + 1), _random_form(s, rng, 2))
                for _ in range(self.PAIRS)]

    def run(self, op, pairs, tr):
        enumerations = _subset_enumerations()
        s = tr.call("cli.spec_from_document", cli.spec_from_document, op.data["doc"])
        out = {
            "ce": tr.call("cohomology.ce_betti_oracle", cohomology.ce_betti_oracle, s),
            "betti": tr.call("cohomology.betti_numbers", cohomology.betti_numbers, s),
            "forms": [],
        }
        tr.add("cohomology.subsets", (_subset_enumerations() - enumerations) * 2 ** s.n)
        for x, y in pairs:
            r = {
                "dx": tr.call("forms.d", forms.d, x),
                "dy": tr.call("forms.d", forms.d, y),
                "xy": tr.call("forms.wedge", forms.wedge, x, y),
            }
            r["ddx"] = tr.call("forms.d", forms.d, r["dx"])
            r["dxy"] = tr.call("forms.d", forms.d, r["xy"])
            r["dx_y"] = tr.call("forms.wedge", forms.wedge, r["dx"], y)
            r["x_dy"] = tr.call("forms.wedge", forms.wedge, x, r["dy"])
            r["cx"] = tr.call("forms.conjugate", forms.conjugate, x)
            r["ccx"] = tr.call("forms.conjugate", forms.conjugate, r["cx"])
            r["delx"] = tr.call("forms.del_", forms.del_, x)
            r["dbarx"] = tr.call("forms.dbar", forms.dbar, x)
            tr.add("forms.terms_out", sum(len(f.terms) for f in r.values()))
            out["forms"].append((x, y, r))
        return out

    def check(self, op, out):
        want = ref.betti(op.data["lams"])
        bad = []
        if out["ce"] != want:
            bad.append(f"ce_betti_oracle: got {out['ce']}, expected {want}")
        if out["betti"] != want:
            bad.append(f"betti_numbers: got {out['betti']}, expected {want}")
        for x, y, r in out["forms"]:
            sign = -1 if x.degree() % 2 else 1
            if not r["ddx"].is_zero():
                bad.append("d(d(x)) != 0")
            if r["dxy"] != r["dx_y"] + r["x_dy"] * sign:
                bad.append("Leibniz rule fails for wedge")
            if r["ccx"] != x:
                bad.append("conjugate(conjugate(x)) != x")
            if r["dx"] != r["delx"] + r["dbarx"]:
                bad.append("d != del_ + dbar")
        return bad


def _random_form(s, rng, degree):
    """A nonzero form of one total degree: two terms, each with a random
    character and a two-monomial polynomial coefficient plus a constant."""
    gens = [(HOLO, i) for i in range(s.n + 1)] + [(ANTI, i) for i in range(s.n + 1)]
    names = ["u"] + [f"b{j + 1}" for j in range(s.basis_dim)]
    while True:
        total = InvariantForm.zero(s)
        for _ in range(2):
            terms = {}
            for _ in range(2):
                mono = tuple((nm, rng.randint(1, 2)) for nm in names if rng.random() < 0.4)
                terms[mono] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            coeff = Poly(terms) + Poly.constant(rng.randint(1, 3))
            char = RationalVector([Fraction(rng.randint(-2, 2)) for _ in range(s.basis_dim)])
            total = total + InvariantForm.monomial(
                s, tuple(sorted(rng.sample(gens, degree))), character=char, coeff=coeff
            )
        if not total.is_zero():
            return total


WORKLOADS = {w.name: w for w in (Invariants, Lattice, Crosscheck, KnownDefects)}
