"""Cohomological invariants, all decided by exact arithmetic.

Dolbeault cohomology of a split Nakamura manifold is carried by a finite
complex of invariant forms: for each pair of index sets ``I, J`` inside
``{1..n}`` there is a candidate generator with character
``c_IJ = sum(lambda_i, i in I) + sum(lambda_j, j in J)``, appearing in the
four shapes

* ``Plain``:    ``f_c * phi^I ^ phibar^J``
* ``Phi0``:     ``f_c * phi0 ^ phi^I ^ phibar^J``
* ``PhiBar0``:  ``f_c * phibar0 ^ phi^I ^ phibar^J``
* ``Both``:     ``f_c * phi0 ^ phibar0 ^ phi^I ^ phibar^J``

and the generator contributes exactly when its character is admissible for
the lattice parameter tau.  Admissibility is a rational question: the zero
character is always admissible; for a Generic tau nothing else is; for a
Special tau ``(c_ref, h, k)`` the character must be a rational multiple
``r * c_ref`` with ``r * gcd(h, k)`` an integer.

All the counts come from one subset engine: the 2^n index subsets are
grouped by (size, character) in a DP over the weights, on integer vectors
over a common denominator, and the groups are hash-joined on a key under
which two characters join exactly when their sum is admissible.

From the same admissibility data follow the Hodge table, the Froelicher
degeneration and del-delbar verdicts with explicit witnesses, deformation
and Albanese counts, and the p-Kaehler classification.  Betti numbers come
from a zero-weight count, and an independent Chevalley-Eilenberg rank
oracle recomputes them from scratch so the two routes can be compared.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import forms
from .forms import InvariantForm
from .model import ManifoldSpec, SpecError, require_valid
from .scalars import (
    Poly,
    RationalVector,
    qvec_proportionality,
)

DEFAULT_MAX_N = 16
MAX_N_ENV_VAR = "NAKAMURA_MAX_N"

IndexSet = Tuple[int, ...]
IntVector = Tuple[int, ...]  # a character times the spec's common denominator


def _enumeration_cap() -> int:
    raw = os.environ.get(MAX_N_ENV_VAR)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise SpecError(
                f"{MAX_N_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    return DEFAULT_MAX_N


def _check_enumeration_size(s: ManifoldSpec) -> None:
    cap = _enumeration_cap()
    if s.n > cap:
        raise SpecError(
            f"n = {s.n} exceeds the enumeration cap {cap}; "
            f"set {MAX_N_ENV_VAR} to raise it"
        )


def _normalize_index_set(s: ManifoldSpec, indices: Iterable[int]) -> IndexSet:
    out = tuple(sorted(int(i) for i in indices))
    if len(set(out)) != len(out):
        raise SpecError(f"repeated index in {out}")
    for i in out:
        if not 1 <= i <= s.n:
            raise SpecError(f"index {i} outside 1..{s.n}")
    return out


def character_of(s: ManifoldSpec, I: Iterable[int], J: Iterable[int]) -> RationalVector:
    """The character ``c_IJ``, the weight of the function ``f_IJ``."""
    require_valid(s)
    I = _normalize_index_set(s, I)
    J = _normalize_index_set(s, J)
    total = RationalVector.zero(s.basis_dim)
    for i in I:
        total = total + s.lambdas[i - 1]
    for j in J:
        total = total + s.lambdas[j - 1]
    return total


def is_admissible(s: ManifoldSpec, c: RationalVector) -> bool:
    """Does the character ``c`` survive the lattice-invariance conditions?

    Exact in all cases: zero always passes; under a Generic tau nothing else
    does; under ``Special(c_ref, h, k)`` the two trigonometric conditions
    collapse to ``c == r * c_ref`` with ``r * gcd(h, k)`` an integer.
    """
    require_valid(s)
    if c.dim != s.basis_dim:
        raise SpecError("character dimension differs from basis_dim")
    if c.is_zero():
        return True
    if s.tau.is_generic():
        return False
    r = qvec_proportionality(c, s.tau.c_ref)
    if r is None:
        return False
    g = math.gcd(s.tau.h, s.tau.k)
    return (r * g).denominator == 1


# ---------------------------------------------------------------------------
# generator bookkeeping
# ---------------------------------------------------------------------------


class Family(enum.Enum):
    """The four shapes of complex generators."""

    PLAIN = "plain"
    PHI0 = "phi0"
    PHIBAR0 = "phibar0"
    BOTH = "phi0^phibar0"


_FAMILY_ORDER = {
    Family.PLAIN: 0,
    Family.PHI0: 1,
    Family.PHIBAR0: 2,
    Family.BOTH: 3,
}

_FAMILY_OFFSETS = {
    Family.PLAIN: (0, 0),
    Family.PHI0: (1, 0),
    Family.PHIBAR0: (0, 1),
    Family.BOTH: (1, 1),
}


@dataclass(frozen=True)
class GeneratorDescriptor:
    """One admissible generator of the Dolbeault complex."""

    family: Family
    I: IndexSet
    J: IndexSet
    character: RationalVector

    @property
    def bidegree(self) -> Tuple[int, int]:
        dp, dq = _FAMILY_OFFSETS[self.family]
        return (len(self.I) + dp, len(self.J) + dq)

    def __str__(self) -> str:
        shape = {
            Family.PLAIN: "",
            Family.PHI0: "phi0 ",
            Family.PHIBAR0: "phibar0 ",
            Family.BOTH: "phi0^phibar0 ",
        }[self.family]
        return (
            f"{shape}I={set(self.I) or '{}'} J={set(self.J) or '{}'} "
            f"c={self.character}"
        )


def generator_form(s: ManifoldSpec, desc: GeneratorDescriptor) -> InvariantForm:
    """Realize a descriptor as an actual invariant form."""
    require_valid(s)
    body = forms.character_function(s, desc.character)
    for i in desc.I:
        body = body.wedge(forms.phi(s, i))
    for j in desc.J:
        body = body.wedge(forms.phibar(s, j))
    dp, dq = _FAMILY_OFFSETS[desc.family]
    if dq:
        body = forms.phibar(s, 0).wedge(body)
    if dp:
        body = forms.phi(s, 0).wedge(body)
    return body


def _integer_weights(s: ManifoldSpec) -> Tuple[int, Tuple[IntVector, ...]]:
    """``(den, weights)``: the weights as integer vectors over one common
    denominator, ``lambda_i == weights[i - 1] / den``."""
    den = math.lcm(*(x.denominator for lam in s.lambdas for x in lam.coords))
    return den, tuple(
        tuple(int(x * den) for x in lam.coords) for lam in s.lambdas
    )


def _character(den: int, v: IntVector) -> RationalVector:
    return RationalVector(Fraction(x, den) for x in v)


@lru_cache(maxsize=64)
def _subset_groups(s: ManifoldSpec):
    """Group the 2^n index subsets by (size, character sum).

    Returns ``(den, groups)`` with ``groups[(size, v)] = (count, lexmin)``:
    ``v`` is the character sum as an integer vector over the common
    denominator ``den`` of :func:`_integer_weights`, ``count`` the number of
    subsets in the group and ``lexmin`` the lexicographically least of them.
    Built by a DP that adds one weight at a time: adding weight ``i`` moves
    a copy of every group ``(size, v)`` to ``(size + 1, v + w_i)``, where
    the least new subset is ``rep + (i,)``, so a group that also keeps old
    subsets has the witness ``min(old_rep, rep + (i,))``.
    """
    den, weights = _integer_weights(s)
    groups: Dict[Tuple[int, IntVector], Tuple[int, IndexSet]] = {
        (0, (0,) * s.basis_dim): (1, ())
    }
    for i, w in enumerate(weights, start=1):
        grown = dict(groups)
        for (size, v), (count, rep) in groups.items():
            key = (size + 1, tuple(a + b for a, b in zip(v, w)))
            subset = rep + (i,)
            if key in grown:
                old_count, old_rep = grown[key]
                grown[key] = (old_count + count, min(old_rep, subset))
            else:
                grown[key] = (count, subset)
        groups = grown
    return den, groups


def _admissibility_keys(s: ManifoldSpec, den: int):
    """Hash-join keys for admissibility of integer character vectors.

    Returns ``(key, partner)`` with ``key(b) == partner(a)`` exactly when
    the character ``(a + b) / den`` is admissible.  Under Generic tau only
    zero is, so the key is the vector and the partner its negative.  Under
    ``Special(c_ref, h, k)`` write ``c_ref = rho / L`` with ``rho`` integer
    and pivot ``p`` its first nonzero coordinate, as in
    :func:`qvec_proportionality`.  The sum is a multiple ``r * c_ref`` exactly
    when the residues ``rho[p] * v - v[p] * rho`` of the two vectors cancel,
    and then ``r = L * (a[p] + b[p]) / (den * rho[p])``; ``r * gcd(h, k)`` is
    an integer exactly when the residues of ``gcd(h, k) * L * v[p]`` modulo
    ``|den * rho[p]|``, the fractional parts of ``gcd(h, k) * r``, cancel.
    """
    if s.tau.is_generic():
        return (lambda v: v), (lambda v: tuple(-x for x in v))
    c_ref = s.tau.c_ref
    lcm = math.lcm(*(x.denominator for x in c_ref.coords))
    rho = tuple(int(x * lcm) for x in c_ref.coords)
    pivot = next(j for j, x in enumerate(rho) if x != 0)
    scale = math.gcd(s.tau.h, s.tau.k) * lcm
    modulus = abs(den * rho[pivot])

    def residue(v: IntVector) -> IntVector:
        return tuple(rho[pivot] * x - v[pivot] * y for x, y in zip(v, rho))

    def key(v: IntVector):
        return residue(v), scale * v[pivot] % modulus

    def partner(v: IntVector):
        return (
            tuple(-x for x in residue(v)),
            -scale * v[pivot] % modulus,
        )

    return key, partner


@lru_cache(maxsize=64)
def _admissible_pair_data(s: ManifoldSpec):
    """Counts of admissible (I, J) pairs by sizes, plus witness data.

    Returns ``(counts, witnesses)`` where ``counts[(a, b)]`` is the number of
    admissible pairs with ``|I| = a, |J| = b`` (absent when there are none)
    and ``witnesses[char]`` is ``(order_key, I, J)`` for the earliest pair
    realizing each admissible character, in the order (total size, |J|, I,
    J).  A hash join of the subset groups on :func:`_admissibility_keys`:
    each group meets only the groups it forms an admissible pair with.
    """
    den, groups = _subset_groups(s)
    key, partner = _admissibility_keys(s, den)
    by_key: Dict[object, list] = {}
    for (size, v), (count, rep) in groups.items():
        by_key.setdefault(key(v), []).append((size, v, count, rep))

    counts: Dict[Tuple[int, int], int] = {}
    best: Dict[IntVector, Tuple[tuple, IndexSet, IndexSet]] = {}
    for (sa, va), (cnt_a, rep_a) in groups.items():
        for sb, vb, cnt_b, rep_b in by_key.get(partner(va), ()):
            counts[(sa, sb)] = counts.get((sa, sb), 0) + cnt_a * cnt_b
            c = tuple(x + y for x, y in zip(va, vb))
            order = (sa + sb, sb, rep_a, rep_b)
            if c not in best or order < best[c][0]:
                best[c] = (order, rep_a, rep_b)
    witnesses = {_character(den, c): found for c, found in best.items()}
    return counts, witnesses


def dolbeault_generators(
    s: ManifoldSpec, p: int, q: int
) -> List[GeneratorDescriptor]:
    """All admissible generators of bidegree (p, q), deterministically ordered.

    Family order Plain, Phi0, PhiBar0, Both; inside a family the index sets
    are lexicographic.  Each family joins the subsets of its two sizes on
    :func:`_admissibility_keys`, so no pair is tested one by one.
    """
    require_valid(s)
    _check_enumeration_size(s)
    if not (0 <= p <= s.n + 1 and 0 <= q <= s.n + 1):
        raise SpecError(f"bidegree ({p}, {q}) outside 0..{s.n + 1}")
    den, weights = _integer_weights(s)
    key, partner = _admissibility_keys(s, den)

    def subset_sums(size: int) -> Iterable[Tuple[IndexSet, IntVector]]:
        for subset in itertools.combinations(range(1, s.n + 1), size):
            total = [0] * s.basis_dim
            for i in subset:
                for j, x in enumerate(weights[i - 1]):
                    total[j] += x
            yield subset, tuple(total)

    characters: Dict[IntVector, RationalVector] = {}
    out: List[GeneratorDescriptor] = []
    for family in (Family.PLAIN, Family.PHI0, Family.PHIBAR0, Family.BOTH):
        dp, dq = _FAMILY_OFFSETS[family]
        size_i, size_j = p - dp, q - dq
        if size_i < 0 or size_j < 0 or size_i > s.n or size_j > s.n:
            continue
        by_key: Dict[object, list] = {}
        for J, vj in subset_sums(size_j):
            by_key.setdefault(key(vj), []).append((J, vj))
        for I, vi in subset_sums(size_i):
            for J, vj in by_key.get(partner(vi), ()):
                c = tuple(x + y for x, y in zip(vi, vj))
                if c not in characters:
                    characters[c] = _character(den, c)
                out.append(GeneratorDescriptor(family, I, J, characters[c]))
    return out


# ---------------------------------------------------------------------------
# Hodge numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HodgeTable:
    """Dolbeault dimensions ``h^{p,q}`` for ``0 <= p, q <= n+1``."""

    n: int
    entries: Tuple[Tuple[int, ...], ...]

    def entry(self, p: int, q: int) -> int:
        if not (0 <= p <= self.n + 1 and 0 <= q <= self.n + 1):
            raise SpecError(f"bidegree ({p}, {q}) outside 0..{self.n + 1}")
        return self.entries[p][q]

    def degree_sums(self) -> Tuple[int, ...]:
        """``sum of h^{p,q} over p+q = k`` for ``k = 0 .. 2n+2``."""
        top = self.n + 1
        return tuple(
            sum(
                self.entries[p][k - p]
                for p in range(max(0, k - top), min(top, k) + 1)
            )
            for k in range(2 * top + 1)
        )

    def check_symmetries(self) -> None:
        """Raise unless conjugation and Serre symmetry hold exactly."""
        top = self.n + 1
        for p in range(top + 1):
            for q in range(top + 1):
                if self.entries[p][q] != self.entries[q][p]:
                    raise AssertionError(
                        f"h^({p},{q}) != h^({q},{p}): conjugation symmetry broken"
                    )
                if self.entries[p][q] != self.entries[top - p][top - q]:
                    raise AssertionError(
                        f"h^({p},{q}) != h^({top - p},{top - q}): "
                        "Serre duality broken"
                    )

    def render(self) -> str:
        top = self.n + 1
        width = max(
            len(str(x)) for row in self.entries for x in row
        )
        width = max(width, len(str(top)))
        header = "p\\q " + " ".join(f"{q:>{width}}" for q in range(top + 1))
        lines = [header]
        for p in range(top + 1):
            lines.append(
                f"{p:>3} " + " ".join(
                    f"{self.entries[p][q]:>{width}}" for q in range(top + 1)
                )
            )
        return "\n".join(lines)


def hodge_table(s: ManifoldSpec) -> HodgeTable:
    """The full Dolbeault table from the admissible-pair counts.

    ``h^{p,q}`` adds the four shape contributions
    ``A(p,q) + A(p-1,q) + A(p,q-1) + A(p-1,q-1)`` where ``A(a,b)`` counts
    admissible pairs with ``|I| = a, |J| = b``.
    """
    require_valid(s)
    _check_enumeration_size(s)
    top = s.n + 1
    counts, _ = _admissible_pair_data(s)
    entries = tuple(
        tuple(
            counts.get((p, q), 0)
            + counts.get((p - 1, q), 0)
            + counts.get((p, q - 1), 0)
            + counts.get((p - 1, q - 1), 0)
            for q in range(top + 1)
        )
        for p in range(top + 1)
    )
    return HodgeTable(n=s.n, entries=entries)


# ---------------------------------------------------------------------------
# degeneration verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegenerationReport:
    """Verdict plus, when negative, the earliest nonzero admissible witness."""

    holds: bool
    witness: Optional[Tuple[IndexSet, IndexSet]] = None
    witness_character: Optional[RationalVector] = None

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        if self.holds:
            return "holds"
        I, J = self.witness
        return (
            f"fails: witness I={set(I) or '{}'} J={set(J) or '{}'} "
            f"with character {self.witness_character}"
        )


def _nonzero_admissible_witness(s: ManifoldSpec):
    _, witnesses = _admissible_pair_data(s)
    best = None
    for c, (key, I, J) in witnesses.items():
        if c.is_zero():
            continue
        if best is None or key < best[0]:
            best = (key, I, J, c)
    if best is None:
        return None
    return best[1], best[2], best[3]


def frolicher_degenerates(s: ManifoldSpec) -> DegenerationReport:
    """Does the Froelicher spectral sequence stop at the first page?

    Equivalent to every admissible character being zero.  A failure comes
    with the earliest (by total size, then |J|, then index sets) pair whose
    nonzero character is admissible.
    """
    require_valid(s)
    _check_enumeration_size(s)
    found = _nonzero_admissible_witness(s)
    if found is None:
        return DegenerationReport(holds=True)
    I, J, c = found
    return DegenerationReport(holds=False, witness=(I, J), witness_character=c)


def ddbar_lemma(s: ManifoldSpec) -> DegenerationReport:
    """The del-delbar lemma verdict; for these manifolds it coincides with
    first-page degeneration, and the same witness disproves both."""
    return frolicher_degenerates(s)


# ---------------------------------------------------------------------------
# Betti numbers, two independent ways
# ---------------------------------------------------------------------------


def betti_numbers(s: ManifoldSpec) -> Tuple[int, ...]:
    """``b_0 .. b_{2n+2}`` from the zero-weight count.

    ``Z(j)`` counts pairs of index subsets with total size ``j`` whose weight
    sum vanishes; then ``b_k = Z(k) + 2 Z(k-1) + Z(k-2)``, the two middle
    copies coming from the two extra flat directions.  The pairs come from
    joining each subset group with the groups of the opposite vector.
    """
    require_valid(s)
    _check_enumeration_size(s)
    _, groups = _subset_groups(s)
    by_vector: Dict[IntVector, List[Tuple[int, int]]] = {}
    for (size, v), (count, _) in groups.items():
        by_vector.setdefault(v, []).append((size, count))
    z = [0] * (2 * s.n + 1)
    for v, sized in by_vector.items():
        for sb, cnt_b in by_vector.get(tuple(-x for x in v), ()):
            for sa, cnt_a in sized:
                z[sa + sb] += cnt_a * cnt_b

    def z_at(j: int) -> int:
        return z[j] if 0 <= j < len(z) else 0

    return tuple(
        z_at(k) + 2 * z_at(k - 1) + z_at(k - 2) for k in range(2 * s.n + 3)
    )


_ORACLE_PRIME = (1 << 61) - 1


CE_MAX_N = 7  # the CE basis holds 2^(2n+2) monomials; n = 7 takes seconds


def _ce_weight_keys(weights: Sequence[IntVector]) -> List[IntVector]:
    """Torus weight of every CE basis monomial, indexed by its bitmask.

    Bit ``g`` of a mask stands for generator ``g``: ``e0 = 0``, ``f0 = 1``,
    ``e_i = 2i`` and ``f_i = 2i + 1``.  ``e_i`` and ``f_i`` both weigh
    ``weights[i - 1]``; ``e0`` and ``f0`` weigh nothing.  A DP over the
    masks adds the weight of a mask's lowest bit to the key of the mask
    without it.
    """
    keys = [(0,) * len(weights[0])] * (1 << (2 * len(weights) + 2))
    for mask in range(1, len(keys)):
        rest = mask & (mask - 1)
        g = (mask ^ rest).bit_length() - 1
        if g < 2:
            keys[mask] = keys[rest]
        else:
            keys[mask] = tuple(map(operator.add, keys[rest], weights[g // 2 - 1]))
    return keys


def _ce_weight_blocks(s: ManifoldSpec):
    """The Chevalley-Eilenberg differentials, split into torus-weight blocks.

    Basis of degree one: ``e0, f0, e1, f1, .. , en, fn`` in that order, with
    ``d(e_i) = -lambda_i (e0 - q f0) ^ e_i`` and likewise for ``f_i``; ``q``
    stands for ``Re(tau)/Im(tau)``.  The weights are scaled by their common
    denominator, which scales ``d`` and changes no rank.  A basis monomial
    is a bitmask (see :func:`_ce_weight_keys`) and lies in the block of its
    weight key.  By the Leibniz rule ``d`` sends a monomial ``x`` to
    multiples of ``e0 ^ x`` and ``f0 ^ x``; each of the two entries sums the
    terms of the weighted generators ``g`` of ``x``, signed ``(-1)^pos``
    (the place of ``g`` in ``x``) times the sign of merging the pair
    ``(e0, g)`` or ``(f0, g)`` into the rest of ``x``, both read off
    popcounts.  An entry linking two blocks raises ``ArithmeticError``, so
    the split is checked, not assumed.  Returns ``(k, key, rows, cols,
    entries)`` for every block of ``d_k`` with a nonzero entry; ``entries``
    lists ``(row, col, nu, with_q)`` for the entry ``nu . b``, times ``q``
    when ``with_q``.
    """
    _, weights = _integer_weights(s)
    keys = _ce_weight_keys(weights)
    sizes: Dict[Tuple[int, IntVector], int] = {}
    index = [0] * len(keys)
    for mask, key in enumerate(keys):
        block = (mask.bit_count(), key)
        index[mask] = sizes.get(block, 0)
        sizes[block] = index[mask] + 1

    weighted = [
        (1 << g, (1 << g) - 1, weights[g // 2 - 1])
        for g in range(2, 2 * s.n + 2)
        if any(weights[g // 2 - 1])
    ]
    entries: Dict[Tuple[int, IntVector], list] = {}
    for mask, key in enumerate(keys):
        terms = []
        for bit, below, lam in weighted:
            if mask & bit:
                rest = mask ^ bit
                # (-1)^pos for the place of g in x, times the sign of moving
                # g past the generators of the rest below it
                parity = (mask & below).bit_count() + (rest & below).bit_count()
                terms.append((rest, parity, lam))
        if not terms:
            continue
        for lead, scale in ((0, -1), (1, 1)):
            if mask >> lead & 1:
                continue
            row = mask | 1 << lead
            if keys[row] != key:
                raise ArithmeticError(
                    f"CE differential entry from monomial {mask:#b} to "
                    f"{row:#b} links weight blocks {key} and {keys[row]}"
                )
            # merging also moves the lead past the generators below it
            below_lead = (1 << lead) - 1
            nu = [0] * len(key)
            for rest, parity, lam in terms:
                parity += (rest & below_lead).bit_count()
                coeff = -scale if parity & 1 else scale
                for j, x in enumerate(lam):
                    nu[j] += coeff * x
            if any(nu):
                entries.setdefault((mask.bit_count(), key), []).append(
                    (index[row], index[mask], nu, lead == 1)
                )
    return [
        (k, key, sizes[(k + 1, key)], sizes[(k, key)], block)
        for (k, key), block in entries.items()
    ]


def _rank_mod_p(rows: List[List[int]], p: int) -> int:
    """Rank modulo the prime ``p`` by row reduction; ``rows`` is consumed.

    Eliminates without inverses: below a pivot ``a`` each row becomes
    ``a * row - f * pivot_row`` with ``f`` its entry in the pivot column.
    Scaling a row by ``a``, nonzero modulo ``p``, leaves the rank unchanged.
    """
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        a = lead[col]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a * x - f * y) % p for x, y in zip(rows[i], lead)]
        rank += 1
    return rank


def ce_betti_oracle(s: ManifoldSpec) -> Tuple[int, ...]:
    """Betti numbers recomputed from Chevalley-Eilenberg ranks.

    Independent of :func:`betti_numbers`: builds the full exterior-algebra
    differential from ``d(g) = -lambda_g (e0 - q f0) ^ g`` and the Leibniz
    rule, with the weights cleared of denominators, and splits it into
    blocks by torus weight (the sum of the weights of a monomial's
    generators).  The split is asserted: an entry linking two blocks raises
    ``ArithmeticError``, so no block structure is taken on trust and the
    zero-weight count is never used.  Each block is ranked on its own
    modulo the prime ``2**61 - 1`` at random integer values of ``q`` and the
    basis symbols, three points per round for up to eight rounds.  The
    per-degree maximum rank across points is used, and at least three
    points must agree on the whole rank vector.  Specs with ``n`` above
    ``CE_MAX_N`` raise ``SpecError`` before anything is built: the basis
    holds ``2^(2n+2)`` monomials.
    """
    require_valid(s)
    _check_enumeration_size(s)
    m = 2 * s.n + 2
    if s.n > CE_MAX_N:
        raise SpecError(
            f"n = {s.n} exceeds the CE oracle cap {CE_MAX_N}: its basis "
            f"would hold 2^{m} = {1 << m:,} monomials"
        )
    blocks = _ce_weight_blocks(s)
    p = _ORACLE_PRIME
    rng = random.Random(20260822 + 1000 * s.n + s.basis_dim)

    def rank_vector_at(q: int, b: Sequence[int]) -> Tuple[int, ...]:
        ranks = [0] * (m + 1)
        for k, _key, rows, cols, entries in blocks:
            dense = [[0] * cols for _ in range(rows)]
            for r, c, nu, with_q in entries:
                x = sum(map(operator.mul, nu, b))
                dense[r][c] = (x * q if with_q else x) % p
            ranks[k] += _rank_mod_p(dense, p)
        return tuple(ranks)

    vectors: List[Tuple[int, ...]] = []
    for _round in range(8):
        for _ in range(3):
            q = rng.randrange(1, p)
            b = [rng.randrange(1, p) for _ in range(s.basis_dim)]
            vectors.append(rank_vector_at(q, b))
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
# admissible character set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterClass:
    """One realizable admissible character with its earliest witness."""

    multiple: Optional[int]  # m with c = m * base, None under Generic tau
    character: RationalVector
    witness: Tuple[IndexSet, IndexSet]

    def __str__(self) -> str:
        I, J = self.witness
        head = f"c={self.character}"
        if self.multiple is not None:
            head += f" (m={self.multiple})"
        return f"{head} from I={set(I) or '{}'} J={set(J) or '{}'}"


@dataclass(frozen=True)
class CharacterSetReport:
    """The admissible characters that actually occur for this spec.

    Under a Special tau the admissible characters form the cyclic family
    ``m * c_ref / gcd(h, k)``; ``base`` is that generator and each class
    records its integer multiple.  Under Generic tau only zero occurs and
    ``base`` is None.
    """

    base: Optional[RationalVector]
    classes: Tuple[CharacterClass, ...]

    def __str__(self) -> str:
        head = (
            "admissible characters: cyclic family generated by "
            f"{self.base}" if self.base is not None
            else "admissible characters: only 0"
        )
        return "\n".join([head] + [f"  {c}" for c in self.classes])


def admissible_character_set(s: ManifoldSpec) -> CharacterSetReport:
    """All realizable admissible characters with witnesses and multiples."""
    require_valid(s)
    _check_enumeration_size(s)
    _, witnesses = _admissible_pair_data(s)
    base = None
    if s.tau.is_special():
        g = math.gcd(s.tau.h, s.tau.k)
        base = s.tau.c_ref / g

    classes = []
    for c, (key, I, J) in witnesses.items():
        multiple = None
        if base is not None:
            r = qvec_proportionality(c, base)
            assert r is not None and r.denominator == 1
            multiple = int(r)
        classes.append(CharacterClass(multiple, c, (I, J)))
    classes.sort(
        key=lambda cc: (
            (cc.multiple if cc.multiple is not None else 0),
            cc.character.coords,
        )
    )
    return CharacterSetReport(base=base, classes=tuple(classes))


# ---------------------------------------------------------------------------
# deformations, Albanese, p-Kaehler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformationReport:
    """Dimension count for deformations and the obstruction verdict."""

    h1n: int
    unobstructed: bool
    closed_form_value: Optional[int]

    def __str__(self) -> str:
        tail = "unobstructed" if self.unobstructed else "possibly obstructed"
        return f"h^(1,n) = {self.h1n}, {tail}"


def deformation_dimension(s: ManifoldSpec) -> DeformationReport:
    """``h^{1,n}`` together with the unobstructedness verdict.

    Deformations are unobstructed exactly when the del-delbar lemma holds;
    in that case the dimension also has the closed form
    ``1 + n + 2 #{lambda_i = 0} + 2 #{i < j : lambda_i = lambda_j}``, which
    is recomputed and cross-checked here.
    """
    require_valid(s)
    _check_enumeration_size(s)
    n = s.n
    counts, _ = _admissible_pair_data(s)
    h1n = (
        counts.get((1, n), 0)
        + counts.get((0, n), 0)
        + counts.get((1, n - 1), 0)
        + counts.get((0, n - 1), 0)
    )
    unobstructed = bool(ddbar_lemma(s))
    closed_form = None
    if unobstructed:
        zeros = sum(1 for lam in s.lambdas if lam.is_zero())
        equal_pairs = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if s.lambdas[i] == s.lambdas[j]
        )
        closed_form = 1 + n + 2 * zeros + 2 * equal_pairs
        if closed_form != h1n:
            raise AssertionError(
                f"closed-form deformation count {closed_form} disagrees "
                f"with h^(1,n) = {h1n}"
            )
    return DeformationReport(
        h1n=h1n, unobstructed=unobstructed, closed_form_value=closed_form
    )


class AlbaneseVerdict(enum.Enum):
    ISOMORPHISM = "yes"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class AlbaneseReport:
    h10: int
    verdict: AlbaneseVerdict

    def __str__(self) -> str:
        return f"h^(1,0) = {self.h10}, Albanese isomorphism: {self.verdict.value}"


def albanese_verdict(s: ManifoldSpec) -> AlbaneseReport:
    """``h^{1,0}`` and whether it certifies the Albanese map.

    ``h^{1,0} = 1 + #{i : lambda_i admissible}``; the value 1 certifies an
    isomorphism onto the Albanese torus, anything larger is left unknown.
    """
    require_valid(s)
    h10 = 1 + sum(1 for lam in s.lambdas if is_admissible(s, lam))
    verdict = (
        AlbaneseVerdict.ISOMORPHISM if h10 == 1 else AlbaneseVerdict.UNKNOWN
    )
    return AlbaneseReport(h10=h10, verdict=verdict)


class PKahlerStatus(enum.Enum):
    P_KAHLER = "p-Kaehler"
    NOT_P_KAHLER = "not p-Kaehler"
    TORUS_ALL_P = "torus: p-Kaehler for every p"


@dataclass(frozen=True)
class PKahlerReport:
    """Verdict for one value of p, with exact witness data.

    For a negative verdict ``witness`` is the transverse (p,0)-form ``theta``
    whose associated real (p,p)-form is exactly d-exact: the engine verifies
    ``d(primitive) == scalar * (theta ^ conj(theta))`` with ``scalar`` a
    nonzero constant, so after dividing by that constant (and the fixed unit
    ``i^(p^2) 2^(-p)``, which cannot change exactness) the transverse form is
    a boundary.  For a positive verdict ``witness`` is the closed transverse
    form used.
    """

    status: PKahlerStatus
    p: int
    witness: Optional[InvariantForm] = None
    primitive: Optional[InvariantForm] = None
    scalar: Optional[Poly] = None

    def __str__(self) -> str:
        return f"p={self.p}: {self.status.value}"


def pkahler_status(s: ManifoldSpec, p: int) -> PKahlerReport:
    """Classify the manifold's p-Kaehler property for ``1 <= p <= n+1``.

    A torus is p-Kaehler for every p.  Otherwise ``p <= n-1`` fails: a set
    ``I`` of ``n - p`` indices with nonvanishing weight sum yields
    ``theta = phi0 ^ phi^I`` transverse with d-exact real form, which forbids
    a p-Kaehler structure.  ``p = n`` succeeds through the balanced metric
    form and ``p = n+1`` through the volume form.  Both powers of the
    balanced form come from the closed form :func:`forms.balanced_power`,
    and their closedness is still checked through ``forms.d``.
    """
    require_valid(s)
    _check_enumeration_size(s)
    n = s.n
    if not 1 <= p <= n + 1:
        raise SpecError(f"p = {p} outside 1..{n + 1}")
    if s.is_torus():
        return PKahlerReport(status=PKahlerStatus.TORUS_ALL_P, p=p)
    if p == n + 1:
        volume = forms.balanced_power(s, n + 1)
        assert not volume.is_zero() and forms.d(volume).is_zero()
        return PKahlerReport(
            status=PKahlerStatus.P_KAHLER, p=p, witness=volume
        )
    if p == n:
        omega = forms.balanced_omega(s)
        top = forms.balanced_power(s, n)
        assert forms.d(top).is_zero()
        return PKahlerReport(status=PKahlerStatus.P_KAHLER, p=p, witness=omega)

    # p <= n-1: hunt the lexicographically first witness index set
    witness_I = next(
        I
        for I in itertools.combinations(range(1, n + 1), n - p)
        if not character_of(s, I, ()).is_zero()
    )
    theta = forms.phi(s, 0)
    for i in witness_I:
        theta = theta.wedge(forms.phi(s, i))
    theta_pair = theta.wedge(forms.conjugate(theta))

    primitive = forms.phi(s, 0)
    for i in witness_I:
        primitive = primitive.wedge(forms.phi(s, i)).wedge(forms.phibar(s, i))
    d_primitive = forms.d(primitive)

    scalar = _exactness_scalar(d_primitive, theta_pair)
    if scalar is None:
        raise AssertionError(
            "transversality witness failed its exactness verification"
        )
    return PKahlerReport(
        status=PKahlerStatus.NOT_P_KAHLER,
        p=p,
        witness=theta,
        primitive=primitive,
        scalar=scalar,
    )


def _exactness_scalar(
    derived: InvariantForm, target: InvariantForm
) -> Optional[Poly]:
    """The nonzero constant ``scalar`` with ``derived == scalar * target``.

    Both forms must be single monomial terms over the same wedge monomial and
    character, with the target coefficient a rational constant; the quotient
    is then an exact polynomial.  The scalar here is always a nonzero
    rational times ``u`` times a nonzero linear form in the basis symbols,
    and since ``u != 0`` and the basis symbols are independent positive
    reals, it denotes a nonzero complex constant.
    """
    if len(derived.terms) != 1 or len(target.terms) != 1:
        return None
    (d_key, d_coeff), = derived.terms.items()
    (t_key, t_coeff), = target.terms.items()
    if d_key != t_key:
        return None
    if not t_coeff.is_constant():
        return None
    ratio = t_coeff.constant_value()
    scalar = d_coeff * (Fraction(1) / ratio)
    if scalar.is_zero():
        return None
    # certify that the scalar denotes a nonzero number: it must be u times a
    # nonzero linear polynomial in the basis symbols alone
    stripped = {}
    for mono, coeff in scalar.terms.items():
        names = dict(mono)
        if names.get("u") != 1:
            return None
        rest = tuple(p for p in mono if p[0] != "u")
        if len(rest) != 1 or rest[0][1] != 1 or not rest[0][0].startswith("b"):
            return None
        stripped[rest] = coeff
    if not stripped:
        return None
    return scalar
