"""Independent expected answers for the benchmark's verdicts.

Nothing here imports ``nakamura``: weights are tuples of ``Fraction``,
matrices are tuples of integer rows, and every count is made afresh by
enumerating all ``2^n`` index subsets.  The benchmark compares the library's
verdicts against these answers outside every timed region.

The lattice answers come from the block structure the workload generator
chose, not from the matrix: a block with eigenvalue 1 has weight zero, each
distinct hyperbolic trace ``t`` contributes the pair ``+s, -s`` on its own
symbol, and each distinct totally real cubic unit contributes three weights
on two symbols that sum to zero (its norm relation).  Repeated blocks share
their symbols.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

Weights = Sequence[Sequence[Fraction]]
# ``None`` for a Generic tau, else the Special triple ``(c_ref, h, k)``.
Tau = Optional[Tuple[Tuple[Fraction, ...], int, int]]


# ---------------------------------------------------------------------------
# subset enumeration and admissibility
# ---------------------------------------------------------------------------


def _common_denominator(values) -> int:
    den = 1
    for v in values:
        den = den * v.denominator // math.gcd(den, v.denominator)
    return den


def _scaled(lams: Weights) -> Tuple[int, List[Tuple[int, ...]]]:
    den = _common_denominator(x for lam in lams for x in lam)
    return den, [tuple(int(x * den) for x in lam) for lam in lams]


def subset_sums(lams: Weights) -> Tuple[int, List[Counter]]:
    """All ``2^n`` subset sums, counted per subset size.

    Returns ``(den, by_size)`` with ``by_size[a][v]`` the number of subsets
    of size ``a`` whose weight sum is ``v / den``.
    """
    den, vecs = _scaled(lams)
    n = len(vecs)
    dim = len(vecs[0]) if vecs else 0
    by_size = [Counter() for _ in range(n + 1)]
    sums = [(0, (0,) * dim)]
    for vec in vecs:
        sums += [(a + 1, tuple(x + y for x, y in zip(s, vec))) for a, s in sums]
    for a, s in sums:
        by_size[a][s] += 1
    return den, by_size


class Admissibility:
    """The admissibility test of the paper for one tau.

    The zero character always descends; under Generic tau nothing else
    does; under ``Special(c_ref, h, k)`` a character descends exactly when
    it equals ``r * c_ref`` with ``r * gcd(h, k)`` an integer.
    """

    def __init__(self, tau: Tau, den: int):
        self.tau = tau
        self.den = den
        if tau is not None:
            c_ref, h, k = tau
            cden = _common_denominator(c_ref)
            self.c = tuple(int(x * cden) for x in c_ref)
            self.cden = cden
            self.g = math.gcd(h, k)
            self.j0 = next(j for j, x in enumerate(self.c) if x)

    def ratio(self, v: Tuple[int, ...]) -> Optional[Fraction]:
        """``r`` with ``v / den == r * c_ref``, or None when not parallel."""
        c, j0 = self.c, self.j0
        if any(v[j] * c[j0] != v[j0] * c[j] for j in range(len(v))):
            return None
        return Fraction(v[j0] * self.cden, c[j0] * self.den)

    def __call__(self, v: Tuple[int, ...]) -> bool:
        if not any(v):
            return True
        if self.tau is None:
            return False
        r = self.ratio(v)
        return r is not None and (r * self.g).denominator == 1


def _pair_data(lams: Weights, tau: Tau):
    """Admissible pair counts ``A[(a, b)]``, the zero-sum counts ``Z[j]``,
    the realised admissible characters, and the least ``(|I|+|J|, |J|)``
    over pairs with a nonzero admissible character."""
    den, by_size = subset_sums(lams)
    n = len(lams)
    adm = Admissibility(tau, den)
    counts: Dict[Tuple[int, int], int] = {}
    zero = [0] * (2 * n + 1)
    realised = set()
    first_nonzero = None
    for a in range(n + 1):
        for b in range(n + 1):
            total = 0
            for va, ca in by_size[a].items():
                if tau is None:
                    neg = tuple(-x for x in va)
                    cb = by_size[b].get(neg, 0)
                    if cb:
                        total += ca * cb
                        realised.add((0,) * len(va))
                    continue
                for vb, cb in by_size[b].items():
                    v = tuple(x + y for x, y in zip(va, vb))
                    if adm(v):
                        total += ca * cb
                        realised.add(v)
                        if any(v) and (
                            first_nonzero is None or (a + b, b) < first_nonzero
                        ):
                            first_nonzero = (a + b, b)
            counts[(a, b)] = total
            for va, ca in by_size[a].items():
                cb = by_size[b].get(tuple(-x for x in va), 0)
                zero[a + b] += ca * cb
    chars = {tuple(Fraction(x, den) for x in v) for v in realised}
    return counts, zero, chars, first_nonzero


def betti_from_zero_counts(zero: Sequence[int]) -> Tuple[int, ...]:
    def z(j):
        return zero[j] if 0 <= j < len(zero) else 0

    return tuple(z(k) + 2 * z(k - 1) + z(k - 2) for k in range(len(zero) + 2))


def betti(lams: Weights) -> Tuple[int, ...]:
    """``b_0 .. b_{2n+2}`` from an exact count of zero-sum pairs."""
    return betti_from_zero_counts(_pair_data(lams, None)[1])


# ---------------------------------------------------------------------------
# the invariants report
# ---------------------------------------------------------------------------


class Invariants:
    """Every expected verdict of one spec's full report."""

    def __init__(self, lams: Weights, tau: Tau):
        n = len(lams)
        self.n = n
        counts, zero, chars, first_nonzero = _pair_data(lams, tau)

        def A(a, b):
            return counts.get((a, b), 0)

        top = n + 1
        self.hodge = tuple(
            tuple(
                A(p, q) + A(p - 1, q) + A(p, q - 1) + A(p - 1, q - 1)
                for q in range(top + 1)
            )
            for p in range(top + 1)
        )
        self.betti = betti_from_zero_counts(zero)
        self.characters = chars
        self.degenerates = not any(any(c) for c in chars)
        self.first_witness_key = first_nonzero
        self.h1n = self.hodge[1][n]
        torus = all(not any(lam) for lam in lams)
        zeros = sum(1 for lam in lams if not any(lam))
        equal_pairs = sum(
            1 for i in range(n) for j in range(i + 1, n)
            if tuple(lams[i]) == tuple(lams[j])
        )
        self.deformation_closed_form = 1 + n + 2 * zeros + 2 * equal_pairs
        den, vecs = _scaled(lams)
        adm = Admissibility(tau, den)
        self.h10 = 1 + sum(1 for v in vecs if adm(v))
        self.pkahler = tuple(
            "torus" if torus else ("yes" if p >= n else "no")
            for p in range(1, n + 2)
        )
        if tau is None:
            self.character_base = None
            self.canonical = None
        else:
            c_ref, h, k = tau
            g = math.gcd(h, k)
            self.character_base = tuple(x / g for x in c_ref)
            self.canonical = (tuple(x / g for x in c_ref), h // g, k // g)

    def identity_violations(self, entries) -> List[str]:
        """The paper's identities, checked on a table the library produced:
        conjugation and Serre symmetry, and degree sums equal to the Betti
        numbers exactly when the spectral sequence degenerates."""
        top = self.n + 1
        out = []
        for p in range(top + 1):
            for q in range(top + 1):
                if entries[p][q] != entries[q][p]:
                    out.append(f"h^({p},{q}) != h^({q},{p})")
                if entries[p][q] != entries[top - p][top - q]:
                    out.append(f"Serre: h^({p},{q}) != h^({top - p},{top - q})")
        sums = tuple(
            sum(entries[p][k - p] for p in range(max(0, k - top), min(top, k) + 1))
            for k in range(2 * top + 1)
        )
        if (sums == self.betti) != self.degenerates:
            out.append(
                f"degree sums {sums} vs Betti {self.betti} disagree with "
                f"degeneration = {self.degenerates}"
            )
        return out


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

Matrix = Tuple[Tuple[int, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def matsub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def apply(a: Matrix, v: Sequence[int]) -> Tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det(a: Matrix) -> int:
    """Bareiss fraction-free elimination; exact for integer matrices."""
    m = [list(row) for row in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def inverse_unimodular(a: Matrix) -> Matrix:
    """Gauss-Jordan over the rationals; the result is integral for det ±1."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col])
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [x / lead for x in m[col]]
        for i in range(n):
            if i != col and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    out = []
    for row in m:
        tail = row[n:]
        if any(x.denominator != 1 for x in tail):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in tail))
    return tuple(out)


def power(a: Matrix, e: int) -> Matrix:
    base = a if e >= 0 else inverse_unimodular(a)
    out = identity(len(a))
    for _ in range(abs(e)):
        out = matmul(out, base)
    return out


def invariant_factors(a: Matrix) -> Tuple[int, ...]:
    """Smith invariant factors from determinantal divisors ``d_k / d_(k-1)``,
    ``d_k`` the gcd of all k x k minors; independent of any elimination."""
    n = len(a)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                g = math.gcd(g, det(tuple(tuple(a[i][j] for j in cols) for i in rows)))
                if g == 1:
                    break
            if g == 1:
                break
        divisors.append(g)
    return tuple(
        divisors[k] // divisors[k - 1] if divisors[k - 1] else 0
        for k in range(1, n + 1)
    )


def commutant(m: Matrix, t: int, bound: int) -> List[Matrix]:
    """Every ``A`` with entries in ``[-bound, bound]``, ``M^t A = A M`` and
    ``det A = ±1``, in row-major lexicographic order; brute force, streamed
    one first row at a time so that at most ``(2 bound + 1)^(n^2 - n)``
    candidates are held at once."""
    n = len(m)
    m_t = np.array(m if t == 1 else inverse_unimodular(m), dtype=np.int64)
    m_np = np.array(m, dtype=np.int64)
    values = range(-bound, bound + 1)
    tails = np.array(list(itertools.product(values, repeat=n * n - n)), dtype=np.int64)
    out = []
    for head in itertools.product(values, repeat=n):
        cands = np.concatenate(
            [np.broadcast_to(np.array(head, dtype=np.int64), (len(tails), n)), tails], axis=1
        ).reshape(-1, n, n)
        commuting = np.all(m_t @ cands == cands @ m_np, axis=(1, 2))
        for a in cands[commuting]:
            a = mat(a.tolist())
            if det(a) in (1, -1):
                out.append(a)
    return out


# ---------------------------------------------------------------------------
# lattice block structure
# ---------------------------------------------------------------------------


def hyperbolic_block(t: int) -> Matrix:
    """Companion matrix of ``x^2 - t x + 1``."""
    return ((0, -1), (1, t))


def cubic_block(a: int, b: int) -> Matrix:
    """Companion matrix of ``x^3 - a x^2 + b x - 1``."""
    return ((0, 0, 1), (1, 0, -b), (0, 1, a))


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return mat(out)


class LatticeExpected:
    """Expected analysis of ``M = U B U^-1`` for ``B`` block diagonal.

    ``blocks`` lists ``("one",)``, ``("quad", t)`` or ``("cubic", a, b)``.
    """

    def __init__(self, blocks: Sequence[tuple]):
        symbols: Dict[tuple, List[int]] = {}
        dim = 0
        for blk in blocks:
            if blk[0] != "one" and blk not in symbols:
                width = 1 if blk[0] == "quad" else 2
                symbols[blk] = list(range(dim, dim + width))
                dim += width
        lams: List[Tuple[Fraction, ...]] = []

        def unit(*pairs):
            v = [Fraction(0)] * dim
            for j, x in pairs:
                v[j] = Fraction(x)
            return tuple(v)

        char_poly = [1]
        det_i_minus = 1
        for blk in blocks:
            if blk[0] == "one":
                lams.append(unit())
                factor = [1, -1]
            elif blk[0] == "quad":
                (s,) = symbols[blk]
                lams += [unit((s, 1)), unit((s, -1))]
                factor = [1, -blk[1], 1]
            else:
                s1, s2 = symbols[blk]
                lams += [unit((s1, 1)), unit((s2, 1)), unit((s1, -1), (s2, -1))]
                factor = [1, -blk[1], blk[2], -1]
            det_i_minus *= sum(factor)  # p(1) = det(I - block)
            char_poly = _poly_mul(char_poly, factor)
        self.lambdas = lams
        self.n = len(lams)
        self.basis_dim = dim
        self.char_poly = tuple(char_poly)
        self.has_unit_eigenvalue = any(b[0] == "one" for b in blocks)
        self.exact = not any(b[0] == "cubic" for b in blocks)
        self.coset_order = det_i_minus ** 2
        self.betti = betti(lams)


def _poly_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def e_mode(lam: Sequence[Fraction], tau: Tau, t: int) -> Optional[Tuple[int, int]]:
    """The exponential mode ``(r h, r k)`` for ``t * lam = r * c_ref``."""
    if tau is None:
        return None
    c_ref, h, k = tau
    scaled = [t * x for x in lam]
    j0 = next(j for j, x in enumerate(c_ref) if x)
    r = scaled[j0] / c_ref[j0]
    if r == 0 or any(x != r * c for x, c in zip(scaled, c_ref)):
        return None
    mm, kk = r * h, r * k
    if mm.denominator != 1 or kk.denominator != 1:
        return None
    return (int(mm), int(kk))
