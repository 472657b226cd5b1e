"""Exact scalar arithmetic: rationals, rational vectors, sparse polynomials,
integer matrices and Smith normal form.

Every verdict produced by this package reduces to arithmetic in this module,
and everything here is exact: rationals are ``fractions.Fraction``, integers
are Python's arbitrary-precision ``int``, and the only "numbers" that are not
rational are carried symbolically.

Two symbol families appear in polynomial coefficients:

* ``b1 .. bd``: declared positive real numbers, linearly independent over the
  rationals.  A :class:`RationalVector` is a coordinate vector over these
  symbols, so it stands for the real number ``sum(v[j] * b(j+1))``.
* ``u``: the constant ``tau / (tau - conj(tau))`` attached to a point ``tau``
  of the upper half plane.  Complex conjugation fixes every ``b`` symbol and
  sends ``u`` to ``1 - u``, which is how :func:`poly_conjugate` acts.  ``u``
  never equals ``0`` or ``1`` (both would force ``tau`` to be real), a fact
  admissibility and exactness checks rely on.

The extra symbol ``q`` is used by the Betti-number oracle for the real ratio
``Re(tau)/Im(tau)``; it is just another polynomial variable here.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[Rational, int]


def as_rational(value: RationalLike) -> Rational:
    """Coerce ``value`` (int, Fraction or ``"p/q"`` string) to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


class RationalVector:
    """An immutable vector of rationals over the declared basis symbols.

    The vector ``(c1, .., cd)`` stands for the real number
    ``c1*b1 + .. + cd*bd`` with ``b1 .. bd`` positive reals that are linearly
    independent over the rationals.  In particular the vector is zero exactly
    when the real number it denotes is zero, which is what makes equality and
    proportionality tests on these vectors exact statements about reals.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[RationalLike]):
        object.__setattr__(self, "coords", tuple(as_rational(c) for c in coords))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RationalVector is immutable")

    @classmethod
    def zero(cls, dim: int) -> "RationalVector":
        return cls([0] * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_dim(self, other: "RationalVector") -> None:
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} versus {other.dim}"
            )

    def __add__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "RationalVector") -> "RationalVector":
        self._check_dim(other)
        return RationalVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "RationalVector":
        return RationalVector(-c for c in self.coords)

    def scale(self, r: RationalLike) -> "RationalVector":
        r = as_rational(r)
        return RationalVector(r * c for c in self.coords)

    __mul__ = scale
    __rmul__ = scale

    def __truediv__(self, r: RationalLike) -> "RationalVector":
        r = as_rational(r)
        if r == 0:
            raise ZeroDivisionError("division of a RationalVector by zero")
        return self.scale(Fraction(1) / r)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalVector) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, j: int) -> Rational:
        return self.coords[j]

    def __repr__(self) -> str:
        return f"RationalVector(({', '.join(str(c) for c in self.coords)}))"

    def __str__(self) -> str:
        if self.dim == 0:
            return "()"
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def qvec_proportionality(
    a: RationalVector, b: RationalVector
) -> Optional[Rational]:
    """Return the rational ``r`` with ``a == r * b``, or ``None``.

    ``b`` must be nonzero; a zero ``a`` yields ``r == 0``.  Raises on a
    dimension mismatch or a zero ``b``, since "proportional to zero" is not a
    well-posed question.
    """
    a._check_dim(b)
    if b.is_zero():
        raise ValueError("proportionality against the zero vector")
    pivot = next(j for j, c in enumerate(b.coords) if c != 0)
    r = a.coords[pivot] / b.coords[pivot]
    if a == b.scale(r):
        return r
    return None


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

Monomial = tuple  # tuple[tuple[str, int], ...] sorted by _var_key


def _var_key(name: str):
    # display and storage order: u, then q, then b1, b2, .. in numeric order
    if name == "u":
        return (0, 0, name)
    if name == "q":
        return (1, 0, name)
    if name.startswith("b") and name[1:].isdigit():
        return (2, int(name[1:]), name)
    return (3, 0, name)


def _mono_sort_key(mono: Monomial):
    degree = sum(e for _, e in mono)
    return (-degree, tuple((_var_key(n), -e) for n, e in mono))


@functools.lru_cache(maxsize=256)
def _mono_product(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two canonical monomials, itself canonical."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged: dict[str, int] = dict(m1)
    for name, e in m2:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items(), key=lambda p: _var_key(p[0])))


def _nonzero(terms: dict) -> dict:
    return {mono: c for mono, c in terms.items() if c}


class Poly:
    """A sparse polynomial over the rationals in named commuting variables.

    Monomials are stored as sorted tuples of ``(variable, exponent)`` pairs
    mapping to nonzero Fraction coefficients.  Instances are immutable and
    hashable, and all arithmetic returns new objects.

    ``terms`` is always in canonical form: each monomial lists its variables
    once, in the order ``u``, ``q``, ``b1``, ``b2``, .. with positive
    exponents, and each coefficient is a nonzero ``Fraction``.  The public
    constructor brings any mapping to that form.  Arithmetic on canonical
    operands keeps it by construction, so ``+``, ``-``, ``*`` and
    :func:`poly_conjugate` hand their result dicts to :meth:`_canonical`,
    which trusts them and neither re-sorts nor re-checks.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, RationalLike] | None = None):
        clean: dict[Monomial, Rational] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = as_rational(coeff)
                if coeff == 0:
                    continue
                mono = tuple(sorted(
                    ((n, e) for n, e in mono if e != 0),
                    key=lambda p: _var_key(p[0]),
                ))
                prev = clean.get(mono)
                if prev is not None:
                    coeff += prev
                clean[mono] = coeff
            clean = _nonzero(clean)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _canonical(cls, terms: dict[Monomial, Rational]) -> "Poly":
        """Wrap a dict already in canonical form, without copying it."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, value: RationalLike) -> "Poly":
        value = as_rational(value)
        return cls._canonical({(): value} if value else {})

    @classmethod
    def variable(cls, name: str) -> "Poly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def coerce(cls, value: "Poly" | RationalLike) -> "Poly":
        if isinstance(value, Poly):
            return value
        return cls.constant(value)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono == () for mono in self.terms)

    def constant_value(self) -> Rational:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant polynomial")
        return self.terms.get((), Fraction(0))

    def __add__(self, other: "Poly" | RationalLike) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        other = Poly.coerce(other)
        merged = dict(self.terms)
        for mono, coeff in other.terms.items():
            prev = merged.get(mono)
            merged[mono] = coeff if prev is None else prev + coeff
        return Poly._canonical(_nonzero(merged))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._canonical({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly" | RationalLike) -> "Poly":
        if not isinstance(other, (Poly, int, Fraction)):
            return NotImplemented
        return self + (-Poly.coerce(other))

    def __rsub__(self, other: RationalLike) -> "Poly":
        return Poly.coerce(other) - self

    def __mul__(self, other: "Poly" | RationalLike) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly._canonical({})
            if other == 1:
                return self
            if other == -1:
                return -self
            return Poly._canonical(
                {m: c * other for m, c in self.terms.items()}
            )
        if not isinstance(other, Poly):
            return NotImplemented
        out: dict[Monomial, Rational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_product(m1, m2)
                prev = out.get(mono)
                out[mono] = c1 * c2 if prev is None else prev + c1 * c2
        return Poly._canonical(_nonzero(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial powers are not defined here")
        result = Poly.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, key=_mono_sort_key):
            coeff = self.terms[mono]
            factors = [
                name if e == 1 else f"{name}^{e}" for name, e in mono
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


U = Poly.variable("u")


def qvector_poly(v: RationalVector) -> Poly:
    """The linear polynomial ``sum v[j] * b(j+1)`` denoted by the vector."""
    return Poly._canonical(
        {((f"b{j + 1}", 1),): c for j, c in enumerate(v.coords) if c != 0}
    )


def poly_sum(polys: Sequence[Poly]) -> Poly:
    """The sum of ``polys``, merged into one dict."""
    if len(polys) == 1:
        return polys[0]
    out: dict[Monomial, Rational] = {}
    for p in polys:
        for mono, coeff in p.terms.items():
            prev = out.get(mono)
            out[mono] = coeff if prev is None else prev + coeff
    return Poly._canonical(_nonzero(out))


@functools.lru_cache(maxsize=256)
def _conjugate_monomial(mono: Monomial) -> tuple:
    """``conj(mono)`` as ``((monomial, integer coefficient), ..)``: the
    binomial expansion of ``(1 - u)^e * rest`` for ``mono = u^e * rest``
    (``u`` sorts first in a canonical monomial)."""
    if not mono or mono[0][0] != "u":
        return ((mono, 1),)
    e, rest = mono[0][1], mono[1:]
    return tuple(
        ((("u", k),) + rest if k else rest, (-1) ** k * math.comb(e, k))
        for k in range(e + 1)
    )


def poly_conjugate(p: Poly) -> Poly:
    """Complex conjugation on coefficients: ``u`` goes to ``1 - u``.

    Every ``b`` symbol is a real number and stays fixed; the involution
    property ``poly_conjugate(poly_conjugate(p)) == p`` holds exactly.
    """
    out: dict[Monomial, Rational] = {}
    for mono, coeff in p.terms.items():
        for image, binom in _conjugate_monomial(mono):
            term = coeff if binom == 1 else coeff * binom
            prev = out.get(image)
            out[image] = term if prev is None else prev + term
    return Poly._canonical(_nonzero(out))


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------


class IntMatrix:
    """An immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ("entries",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        entries = []
        for row in rows:
            cleaned = []
            for x in row:
                if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
                    raise TypeError(f"matrix entry {x!r} is not an integer")
                if isinstance(x, Fraction):
                    if x.denominator != 1:
                        raise TypeError(f"matrix entry {x} is not an integer")
                    x = x.numerator
                cleaned.append(x)
            entries.append(tuple(cleaned))
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty matrix")
        width = len(entries[0])
        if width == 0 or any(len(row) != width for row in entries):
            raise ValueError("rows must be nonempty and of equal length")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij: tuple) -> int:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([-x for x in row] for row in self.entries)

    def _check_same_shape(self, other: "IntMatrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        cols = list(zip(*other.entries))
        return IntMatrix(
            [sum(a * b for a, b in zip(row, col)) for col in cols]
            for row in self.entries
        )

    __mul__ = __matmul__

    def apply(self, vector: Sequence) -> tuple:
        """Matrix times column vector; entries may be Fractions."""
        if len(vector) != self.ncols:
            raise ValueError("vector length differs from column count")
        return tuple(
            sum(a * x for a, x in zip(row, vector)) for row in self.entries
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.entries))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse, defined only when ``det`` is ``1`` or ``-1``."""
        d = self.det()
        if d not in (1, -1):
            raise ValueError("matrix is not unimodular, no integer inverse")
        n = self.nrows
        aug = [
            [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(self.entries)
        ]
        for col in range(n):
            pivot = next(i for i in range(col, n) if aug[i][col] != 0)
            aug[col], aug[pivot] = aug[pivot], aug[col]
            scale = aug[col][col]
            aug[col] = [x / scale for x in aug[col]]
            for i in range(n):
                if i != col and aug[i][col] != 0:
                    factor = aug[i][col]
                    aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
        inv = [[x for x in row[n:]] for row in aug]
        assert all(x.denominator == 1 for row in inv for x in row)
        return IntMatrix([[int(x) for x in row] for row in inv])

    def __pow__(self, exponent: int) -> "IntMatrix":
        if not self.is_square():
            raise ValueError("powers of a non-square matrix")
        base = self if exponent >= 0 else self.inverse_unimodular()
        e = abs(exponent)
        result = IntMatrix.identity(self.nrows)
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def trace(self) -> int:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum(self.entries[i][i] for i in range(self.nrows))

    def char_poly(self) -> list:
        """Coefficients ``[1, a1, .., an]`` of ``det(x*I - M)``, leading first.

        Faddeev-LeVerrier recurrence; all divisions are exact.
        """
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.nrows
        coeffs = [Fraction(1)]
        b = IntMatrix.identity(n)
        for k in range(1, n + 1):
            b = self @ b
            ak = Fraction(-b.trace(), k)
            assert ak.denominator == 1, "recurrence left a non-integer trace"
            coeffs.append(ak)
            if k < n:
                shift = IntMatrix(
                    [
                        [
                            b.entries[i][j] + (ak if i == j else 0)
                            for j in range(n)
                        ]
                        for i in range(n)
                    ]
                )
                b = shift
        assert all(c.denominator == 1 for c in coeffs)
        return [int(c) for c in coeffs]

    def __str__(self) -> str:
        return "[" + "; ".join(
            " ".join(str(x) for x in row) for row in self.entries
        ) + "]"

    def __repr__(self) -> str:
        return f"IntMatrix({[list(row) for row in self.entries]})"


def smith_normal_form(m: IntMatrix) -> tuple:
    """Smith normal form with transforms: returns ``(u, d, v)``.

    ``u`` and ``v`` are unimodular and ``u @ m @ v == d`` with ``d`` diagonal,
    nonnegative, and each diagonal entry dividing the next.  Works for any
    square integer matrix, including singular ones (zero factors come last).
    """
    if not m.is_square():
        raise ValueError("Smith normal form implemented for square matrices")
    n = m.nrows
    a = [list(row) for row in m.entries]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    for t in range(n):
        while True:
            pivots = [
                (abs(a[i][j]), i, j)
                for i in range(t, n)
                for j in range(t, n)
                if a[i][j] != 0
            ]
            if not pivots:
                break
            _, pi, pj = min(pivots)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            # pivot clean; force the divisibility chain
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # fold the offending row into row t
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    return IntMatrix(u), IntMatrix(a), IntMatrix(v)
