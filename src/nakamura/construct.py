"""Build manifold specs from unimodular integer matrices.

A matrix ``M`` in ``SL(n, Z)`` whose eigenvalues are positive reals
``mu_1, .., mu_n`` determines weight vectors ``lambda_i = log(mu_i)``.  This
module computes that data exactly whenever the characteristic polynomial
factors over the rationals into pieces of degree at most two, applies
user-certified multiplicative relations among the eigenvalues, and packages
the result as a :class:`~nakamura.model.ManifoldSpec` carrying the lattice
matrix.

Weight vectors are expressed over fresh positive basis symbols, one per
distinct quadratic factor (whose two roots are reciprocal, giving the pair
``+s, -s``) and one per eigenvalue, minus one, of any higher-degree residual
factor.  Certified relations are verified, exactly in a multi-quadratic
number field when they only involve eigenvalues of degree at most two, by a
floating-point check otherwise, and then imposed by quotienting the symbol
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from .model import LatticeSpec, ManifoldSpec, SpecError, TauSpec, require_valid
from .scalars import IntMatrix, RationalVector
from .tau import same_fiber

__all__ = [
    "Exactness",
    "FactorReport",
    "EigenReport",
    "analyze_integer_matrix",
    "build_spec",
    "specs_isomorphic",
]

# Relative tolerance for floating-point verification of certified relations.
CERTIFICATE_FLOAT_TOLERANCE = 1e-12

# Tolerance for accepting numerically computed roots as reals.
_ROOT_IMAG_TOLERANCE = 1e-6


class Exactness(Enum):
    """Whether every verdict derived from the analysis is exact.

    ``EXACT`` means the characteristic polynomial split into rational and
    quadratic factors, so weights and relations live in exact arithmetic.
    ``FLOAT_CERTIFIED`` means a factor of degree three or more remained;
    positivity of its roots and any relation touching them were checked in
    floating point only.
    """

    EXACT = "exact"
    FLOAT_CERTIFIED = "float_certified"


@dataclass(frozen=True)
class FactorReport:
    """One factor of the characteristic polynomial.

    ``coefficients`` are the monic integer coefficients, leading first.
    ``eigenvalue_indices`` are the 1-based positions, in
    ``EigenReport.lambda_vectors`` order, of every eigenvalue this factor
    contributes, multiplicity included.
    """

    coefficients: Tuple[int, ...]
    multiplicity: int
    eigenvalue_indices: Tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        terms = []
        deg = self.degree
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            power = deg - i
            if power == 0:
                terms.append(f"{'+' if a > 0 else '-'} {abs(a)}")
            else:
                x = "x" if power == 1 else f"x^{power}"
                coeff = "" if abs(a) == 1 else f"{abs(a)}*"
                terms.append(f"{'+' if a > 0 else '-'} {coeff}{x}")
        body = " ".join(terms).removeprefix("+ ")
        if self.multiplicity > 1:
            return f"({body})^{self.multiplicity}"
        return body


@dataclass(frozen=True)
class EigenReport:
    """Exact eigenvalue-exponent data for a unimodular integer matrix."""

    char_poly: Tuple[int, ...]
    factors: Tuple[FactorReport, ...]
    relation_basis_dim: int
    lambda_vectors: Tuple[RationalVector, ...]
    exactness: Exactness

    @property
    def n(self) -> int:
        return len(self.lambda_vectors)

    def __str__(self) -> str:
        lams = ", ".join(str(v) for v in self.lambda_vectors)
        facs = " * ".join(str(f) for f in self.factors)
        return (
            f"char poly {facs}; d={self.relation_basis_dim}; "
            f"lambda = {lams}; {self.exactness.value}"
        )


# ---------------------------------------------------------------------------
# Integer polynomial helpers.  Coefficient lists are leading-first.
# ---------------------------------------------------------------------------


def _poly_eval_int(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for a in coeffs:
        acc = acc * x + a
    return acc


def _poly_divmod_monic(
    coeffs: Sequence[int], divisor: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """Divide by a monic integer polynomial; exact integer arithmetic."""
    n = len(coeffs) - 1
    d = len(divisor) - 1
    if n < d:
        rem = list(coeffs)
        while rem and rem[0] == 0:
            rem.pop(0)
        return [], rem
    work = list(coeffs)
    for i in range(n - d + 1):
        q = work[i]
        if q:
            for j in range(1, d + 1):
                work[i + j] -= q * divisor[j]
    quotient = work[: n - d + 1]
    remainder = work[n - d + 1 :]
    while remainder and remainder[0] == 0:
        remainder.pop(0)
    return quotient, remainder


def _poly_derivative(coeffs: Sequence[int]) -> List[int]:
    n = len(coeffs) - 1
    if n <= 0:
        return [0]
    return [a * (n - i) for i, a in enumerate(coeffs[:-1])]


def _poly_gcd_monic(a: Sequence[int], b: Sequence[int]) -> List[Fraction]:
    """Monic gcd over the rationals of two integer polynomials."""
    fa: List[Fraction] = [Fraction(x) for x in a]
    fb: List[Fraction] = [Fraction(x) for x in b]
    while fb and any(fb):
        lead = fb[0]
        fbm = [c / lead for c in fb]
        rem = list(fa)
        n = len(rem) - 1
        d = len(fbm) - 1
        if n >= d:
            for i in range(n - d + 1):
                q = rem[i]
                if q:
                    for j in range(1, d + 1):
                        rem[i + j] -= q * fbm[j]
            rem = rem[n - d + 1 :]
        while rem and rem[0] == 0:
            rem.pop(0)
        fa, fb = fbm, rem
    return [c / fa[0] for c in fa]


def _squarefree_part(coeffs: Sequence[int]) -> List[int]:
    """The product of the distinct irreducible factors, monic integer."""
    g = _poly_gcd_monic(coeffs, _poly_derivative(coeffs))
    if len(g) == 1:
        return list(coeffs)
    num = [Fraction(c) for c in coeffs]
    quotient: List[Fraction] = []
    n = len(num) - 1
    d = len(g) - 1
    for i in range(n - d + 1):
        q = num[i]
        quotient.append(q)
        if q:
            for j in range(1, d + 1):
                num[i + j] -= q * g[j]
    assert all(c == 0 for c in num[n - d + 1 :]), "squarefree division not exact"
    out = []
    for c in quotient:
        assert c.denominator == 1, "squarefree part is not an integer polynomial"
        out.append(c.numerator)
    return out


def _matrix_annihilated_by(m: IntMatrix, coeffs: Sequence[int]) -> bool:
    """Does plugging ``m`` into the polynomial give the zero matrix?"""
    n = m.nrows
    ent = m.entries
    acc = [[0] * n for _ in range(n)]
    for a in coeffs:
        nxt = [
            [sum(acc[i][k] * ent[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        for i in range(n):
            nxt[i][i] += a
        acc = nxt
    return all(v == 0 for row in acc for v in row)


def _float_roots(coeffs: Sequence[int]) -> List[complex]:
    return list(np.roots([float(c) for c in coeffs]))


def _quadratic_trace_candidates(coeffs: Sequence[int]) -> List[int]:
    """Candidate traces t for divisors x^2 - t*x + 1, smallest first.

    A small exhaustive range is always tried; numerically estimated roots
    suggest the larger candidates.  Exact trial division decides, so a wrong
    guess costs nothing and a missed guess only defers a factor to the
    floating-point path.
    """
    candidates = set(range(3, 65))
    for r in _float_roots(coeffs):
        if abs(r.imag) < 1e-6 and r.real > 1e-9:
            t = r.real + 1.0 / r.real
            base = round(t)
            for shift in (-1, 0, 1):
                if base + shift >= 3:
                    candidates.add(base + shift)
    return sorted(candidates)


def _squarefree_kernel(value: int) -> Tuple[int, int]:
    """Write ``value = f^2 * d`` with ``d`` squarefree; returns ``(f, d)``."""
    assert value > 0
    f = 1
    d = value
    p = 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            f *= p
        p += 1
    return f, d


# ---------------------------------------------------------------------------
# Arithmetic in a multi-quadratic field Q(sqrt(d_1), .., sqrt(d_k)).
# Elements are maps from subsets of radical indices to rational coefficients.
# ---------------------------------------------------------------------------

_FieldElement = Dict[FrozenSet[int], Fraction]


def _field_one() -> _FieldElement:
    return {frozenset(): Fraction(1)}


def _field_mul(
    x: _FieldElement, y: _FieldElement, radicands: Sequence[int]
) -> _FieldElement:
    out: _FieldElement = {}
    for sx, cx in x.items():
        for sy, cy in y.items():
            coeff = cx * cy
            for i in sx & sy:
                coeff *= radicands[i]
            key = sx ^ sy
            total = out.get(key, Fraction(0)) + coeff
            if total:
                out[key] = total
            elif key in out:
                del out[key]
    return out


def _field_pow(
    x: _FieldElement, exponent: int, radicands: Sequence[int]
) -> _FieldElement:
    result = _field_one()
    base = dict(x)
    e = exponent
    while e:
        if e & 1:
            result = _field_mul(result, base, radicands)
        base = _field_mul(base, base, radicands)
        e >>= 1
    return result


def _field_is_one(x: _FieldElement) -> bool:
    return x == _field_one()


# ---------------------------------------------------------------------------
# Eigenvalue bookkeeping.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Eigenvalue:
    """One eigenvalue position: provisional weight plus value data.

    ``exact`` and ``exact_inverse`` are multi-quadratic field elements when
    the eigenvalue comes from a factor of degree at most two, else ``None``.
    ``approx`` is a floating-point value of ``log(mu)``.
    """

    provisional: Tuple[Fraction, ...]
    exact: _FieldElement | None
    exact_inverse: _FieldElement | None
    approx: float


def _coerce_matrix(m) -> IntMatrix:
    if isinstance(m, IntMatrix):
        matrix = m
    else:
        matrix = IntMatrix(m)
    if not matrix.is_square():
        raise SpecError("matrix must be square")
    return matrix


def _unit(dim: int, index: int, scale: int = 1) -> Tuple[Fraction, ...]:
    return tuple(
        Fraction(scale) if j == index else Fraction(0) for j in range(dim)
    )


def analyze_integer_matrix(
    m, certified_relations: Iterable[Sequence[int]] = ()
) -> EigenReport:
    """Factor the characteristic polynomial and derive weight vectors.

    ``m`` is a square integer matrix (an :class:`IntMatrix` or an
    array-of-arrays) with determinant one and positive real eigenvalues.
    Rational eigenvalues must equal ``1`` (weight zero); each distinct
    quadratic factor ``x^2 - t*x + 1`` with ``t >= 3`` contributes the
    reciprocal pair ``+s, -s`` on a fresh symbol ``s``; any residual of
    degree three or more is handled through floating-point roots, with one
    fresh symbol per root except the last, whose weight balances the factor
    to sum zero.

    ``certified_relations`` lists integer vectors ``v`` asserting
    ``prod mu_i ** v[i] == 1`` in ``lambda_vectors`` order.  Each is verified
    (exactly when it only touches eigenvalues of degree at most two) and then
    imposed on the symbol space.

    Raises :class:`SpecError` if the determinant is not one, an eigenvalue is
    not a positive real, the matrix is not diagonalizable, or a certified
    relation fails verification.
    """
    matrix = _coerce_matrix(m)
    n = matrix.nrows
    det = matrix.det()
    if det != 1:
        raise SpecError(f"matrix determinant is {det}, expected 1")

    char = tuple(int(c) for c in matrix.char_poly())

    work = list(char)
    zero_count = 0
    while _poly_eval_int(work, 1) == 0:
        work, rem = _poly_divmod_monic(work, [1, -1])
        assert not rem
        zero_count += 1
    if _poly_eval_int(work, -1) == 0:
        raise SpecError(
            "eigenvalue -1 detected; all eigenvalues must be positive reals"
        )

    quad_traces: List[Tuple[int, int]] = []
    for t in _quadratic_trace_candidates(char):
        mult = 0
        while len(work) >= 3:
            quotient, rem = _poly_divmod_monic(work, [1, -t, 1])
            if rem or not quotient:
                break
            work = quotient
            mult += 1
        if mult:
            quad_traces.append((t, mult))

    if len(work) == 3 and work[2] == 1 and -work[1] >= 3:
        # A hyperbolic quadratic the candidate scan somehow missed.
        quad_traces.append((-work[1], 1))
        work = [1]

    residual = work
    residual_degree = len(residual) - 1
    residual_roots: List[float] = []
    if residual_degree == 0:
        assert residual == [1]
    elif residual_degree == 2:
        t = -residual[1]
        e = residual[2]
        if e == 1 and t * t < 4:
            raise SpecError(
                f"quadratic factor x^2 - {t}*x + 1 has non-real eigenvalues"
            )
        raise SpecError(
            f"quadratic factor x^2 - {t}*x + {e} has a non-positive eigenvalue"
        )
    elif residual_degree >= 3:
        roots = _float_roots(residual)
        for r in roots:
            scale = max(1.0, abs(r))
            if abs(r.imag) > _ROOT_IMAG_TOLERANCE * scale:
                raise SpecError(
                    "residual factor of degree "
                    f"{residual_degree} has non-real eigenvalues"
                )
            if r.real <= 0.0:
                raise SpecError(
                    "residual factor of degree "
                    f"{residual_degree} has a non-positive eigenvalue"
                )
        residual_roots = sorted((r.real for r in roots), reverse=True)
    else:
        raise AssertionError("degree-1 residual after extracting rational roots")

    squarefree = _squarefree_part(char)
    if len(squarefree) < len(char) and not _matrix_annihilated_by(
        matrix, squarefree
    ):
        raise SpecError(
            "matrix is not diagonalizable: a repeated eigenvalue has a "
            "nontrivial block"
        )

    symbol_count = len(quad_traces) + max(0, residual_degree - 1)
    radicands: List[int] = []
    radicand_index: Dict[int, int] = {}

    eigenvalues: List[_Eigenvalue] = []
    factors: List[FactorReport] = []

    if zero_count:
        start = len(eigenvalues) + 1
        for _ in range(zero_count):
            eigenvalues.append(
                _Eigenvalue(
                    provisional=(Fraction(0),) * symbol_count,
                    exact=_field_one(),
                    exact_inverse=_field_one(),
                    approx=0.0,
                )
            )
        factors.append(
            FactorReport(
                coefficients=(1, -1),
                multiplicity=zero_count,
                eigenvalue_indices=tuple(range(start, start + zero_count)),
            )
        )

    for symbol, (t, mult) in enumerate(quad_traces):
        f, d = _squarefree_kernel(t * t - 4)
        if d not in radicand_index:
            radicand_index[d] = len(radicands)
            radicands.append(d)
        j = radicand_index[d]
        plus: _FieldElement = {
            frozenset(): Fraction(t, 2),
            frozenset((j,)): Fraction(f, 2),
        }
        minus: _FieldElement = {
            frozenset(): Fraction(t, 2),
            frozenset((j,)): Fraction(-f, 2),
        }
        lam = math.log((t + math.sqrt(t * t - 4)) / 2.0)
        start = len(eigenvalues) + 1
        for _ in range(mult):
            eigenvalues.append(
                _Eigenvalue(
                    provisional=_unit(symbol_count, symbol),
                    exact=plus,
                    exact_inverse=minus,
                    approx=lam,
                )
            )
            eigenvalues.append(
                _Eigenvalue(
                    provisional=_unit(symbol_count, symbol, -1),
                    exact=minus,
                    exact_inverse=plus,
                    approx=-lam,
                )
            )
        factors.append(
            FactorReport(
                coefficients=(1, -t, 1),
                multiplicity=mult,
                eigenvalue_indices=tuple(range(start, start + 2 * mult)),
            )
        )

    if residual_degree >= 3:
        base = len(quad_traces)
        start = len(eigenvalues) + 1
        for i, root in enumerate(residual_roots):
            if i < residual_degree - 1:
                provisional = _unit(symbol_count, base + i)
            else:
                provisional = tuple(
                    Fraction(-1) if base <= j < base + residual_degree - 1
                    else Fraction(0)
                    for j in range(symbol_count)
                )
            eigenvalues.append(
                _Eigenvalue(
                    provisional=provisional,
                    exact=None,
                    exact_inverse=None,
                    approx=math.log(root),
                )
            )
        factors.append(
            FactorReport(
                coefficients=tuple(residual),
                multiplicity=1,
                eigenvalue_indices=tuple(
                    range(start, start + residual_degree)
                ),
            )
        )

    assert len(eigenvalues) == n

    relation_rows: List[List[Fraction]] = []
    for vec in certified_relations:
        vec = tuple(vec)
        if len(vec) != n:
            raise SpecError(
                f"certified relation {vec} has length {len(vec)}, expected {n}"
            )
        for v in vec:
            if isinstance(v, bool) or not isinstance(v, int):
                raise SpecError(
                    f"certified relation entries must be integers, got {v!r}"
                )
        _verify_relation(vec, eigenvalues, radicands)
        row = [Fraction(0)] * symbol_count
        for v, ev in zip(vec, eigenvalues):
            if v:
                for j in range(symbol_count):
                    row[j] += v * ev.provisional[j]
        if any(row):
            relation_rows.append(row)

    substitution = _quotient_substitution(relation_rows, symbol_count)
    d = len(substitution[0]) if symbol_count else 0

    lambda_vectors = []
    for ev in eigenvalues:
        coords = [Fraction(0)] * d
        for j, coeff in enumerate(ev.provisional):
            if coeff:
                for f_idx in range(d):
                    coords[f_idx] += coeff * substitution[j][f_idx]
        lambda_vectors.append(RationalVector(coords))

    total = RationalVector.zero(d)
    for lam in lambda_vectors:
        total = total + lam
    assert total.is_zero(), "weights do not sum to zero"

    exactness = (
        Exactness.EXACT if residual_degree == 0 else Exactness.FLOAT_CERTIFIED
    )
    return EigenReport(
        char_poly=char,
        factors=tuple(factors),
        relation_basis_dim=d,
        lambda_vectors=tuple(lambda_vectors),
        exactness=exactness,
    )


def _verify_relation(
    vec: Tuple[int, ...],
    eigenvalues: Sequence[_Eigenvalue],
    radicands: Sequence[int],
) -> None:
    """Check ``prod mu_i ** vec[i] == 1``, exactly where possible."""
    touches_float = any(
        v and ev.exact is None for v, ev in zip(vec, eigenvalues)
    )
    if not touches_float:
        acc = _field_one()
        for v, ev in zip(vec, eigenvalues):
            if v == 0:
                continue
            base = ev.exact if v > 0 else ev.exact_inverse
            assert base is not None
            acc = _field_mul(acc, _field_pow(base, abs(v), radicands), radicands)
        if not _field_is_one(acc):
            raise SpecError(
                f"certified relation {vec} fails exact verification"
            )
        return
    total = 0.0
    magnitude = 0.0
    for v, ev in zip(vec, eigenvalues):
        term = v * ev.approx
        total += term
        magnitude += abs(term)
    if abs(total) > CERTIFICATE_FLOAT_TOLERANCE * max(1.0, magnitude):
        raise SpecError(
            f"certified relation {vec} fails the floating-point check"
        )


def _quotient_substitution(
    relation_rows: Sequence[Sequence[Fraction]], symbol_count: int
) -> List[List[Fraction]]:
    """Substitution from provisional symbols onto the quotient basis.

    Row-reduces the relation rows with pivots chosen rightmost-first, so the
    earliest symbols survive as the free basis.  Returns a matrix whose row
    ``j`` expresses provisional symbol ``j`` in the free coordinates.
    """
    pivots: Dict[int, List[Fraction]] = {}
    for raw in relation_rows:
        row = list(raw)
        for col, prow in pivots.items():
            factor = row[col]
            if factor:
                for j in range(symbol_count):
                    row[j] -= factor * prow[j]
        pivot_col = None
        for j in range(symbol_count - 1, -1, -1):
            if row[j]:
                pivot_col = j
                break
        if pivot_col is None:
            continue
        lead = row[pivot_col]
        row = [c / lead for c in row]
        for prow in pivots.values():
            factor = prow[pivot_col]
            if factor:
                for j in range(symbol_count):
                    prow[j] -= factor * row[j]
        pivots[pivot_col] = row

    free_cols = [j for j in range(symbol_count) if j not in pivots]
    index_of = {col: i for i, col in enumerate(free_cols)}
    d = len(free_cols)
    substitution: List[List[Fraction]] = []
    for j in range(symbol_count):
        if j in index_of:
            row = [Fraction(0)] * d
            row[index_of[j]] = Fraction(1)
        else:
            prow = pivots[j]
            row = [Fraction(0)] * d
            for col, i in index_of.items():
                row[i] = -prow[col]
        substitution.append(row)
    return substitution


def build_spec(
    m, tau: TauSpec, certified_relations: Iterable[Sequence[int]] = ()
) -> ManifoldSpec:
    """Analyze the matrix and assemble a validated manifold spec.

    The spec's weights and basis dimension come from
    :func:`analyze_integer_matrix`; the matrix and the relations are stored
    as the spec's lattice data.
    """
    relations = tuple(tuple(v) for v in certified_relations)
    report = analyze_integer_matrix(m, relations)
    lattice = LatticeSpec(
        matrix=_coerce_matrix(m), certified_relations=relations
    )
    spec = ManifoldSpec(
        lambdas=report.lambda_vectors,
        basis_dim=report.relation_basis_dim,
        tau=tau,
        lattice=lattice,
    )
    require_valid(spec)
    return spec


def specs_isomorphic(s1: ManifoldSpec, s2: ManifoldSpec) -> bool:
    """Do two lattice-built specs present the same manifold?

    True when the lattice matrices agree entrywise and the tau parameters
    agree: two Generic parameters always match, a Generic never matches a
    Special, and two Special parameters match when their triples lie on the
    same rational ray.  Conjugating the matrix or re-scaling a Special
    triple never changes the manifold, and this predicate recognizes the
    re-scaling; it makes no attempt to detect conjugate matrices.
    """
    if s1.lattice is None or s2.lattice is None:
        raise SpecError("both specs must carry lattice data")
    if s1.lattice.matrix != s2.lattice.matrix:
        return False
    if s1.tau.is_generic() and s2.tau.is_generic():
        return True
    if s1.tau.is_generic() != s2.tau.is_generic():
        return False
    return same_fiber(s1.tau, s2.tau)
