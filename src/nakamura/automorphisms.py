"""Automorphism lifts of lattice-built manifolds.

A biholomorphism of the quotient lifts to the universal cover as
``F(z, w) = (A z + E(w) + h, t w + sigma)`` with ``t`` either ``1`` or
``-1``.  In the coordinates fixed by the lattice matrix ``M`` the linear
part becomes an integer matrix ``A'`` that intertwines ``M`` and ``M^t``,
the translation part ``h = x1 + tau * x2`` must satisfy
``(I - M) x1, (I - M) x2`` integral, and each exponential summand of ``E``
exists only for the matching mode parameters ``(m, k)`` of the tau
parameter.  This module verifies candidate lifts, conjugates lattice
elements by them, enumerates bounded intertwiners on the lattice of
solutions of the intertwining condition, classifies the translation part
modulo the lattice, and solves for the exponential modes.

Everything here requires a valid spec with lattice data and entirely
nonzero weight vectors; other specs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import ManifoldSpec, SpecError, require_valid
from .scalars import IntMatrix, RationalVector, qvec_proportionality, smith_normal_form

__all__ = [
    "GroupElement",
    "EMode",
    "AutCandidate",
    "CandidateCheck",
    "CosetGroup",
    "verify_candidate",
    "deck_candidate",
    "deck_conjugate",
    "h_coset_group",
    "commutant_search",
    "e_mode_space",
    "compose_candidates",
    "invert_candidate",
]

DEFAULT_SEARCH_BOUND = 3
DEFAULT_SEARCH_STATES = 2_000_000


def _int_vector(values: Iterable[int], label: str) -> Tuple[int, ...]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            if isinstance(v, Fraction) and v.denominator == 1:
                v = v.numerator
            else:
                raise SpecError(f"{label} must be an integer vector, got {v!r}")
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class GroupElement:
    """A lattice element: translation part ``beta``, twist part ``alpha``.

    ``beta1`` and ``beta2`` are the integer coordinate vectors of the
    translation ``beta = beta1 + tau * beta2`` in the lattice frame; the
    twist ``alpha = a1 + a2 * tau`` acts on the fiber through the power
    ``M ** a1``.
    """

    beta1: Tuple[int, ...]
    beta2: Tuple[int, ...]
    a1: int
    a2: int

    def __post_init__(self):
        object.__setattr__(self, "beta1", _int_vector(self.beta1, "beta1"))
        object.__setattr__(self, "beta2", _int_vector(self.beta2, "beta2"))
        if len(self.beta1) != len(self.beta2):
            raise SpecError("beta1 and beta2 must have equal length")
        for a in (self.a1, self.a2):
            if isinstance(a, bool) or not isinstance(a, int):
                raise SpecError(f"twist coordinate {a!r} must be an integer")

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(beta1=(0,) * n, beta2=(0,) * n, a1=0, a2=0)

    @property
    def n(self) -> int:
        return len(self.beta1)

    def __str__(self) -> str:
        return (
            f"(beta = {list(self.beta1)} + tau*{list(self.beta2)}, "
            f"alpha = {self.a1} + {self.a2}*tau)"
        )


@dataclass(frozen=True)
class EMode:
    """Parameters of one exponential summand of the map's ``E`` part.

    ``i`` is the 1-based weight index it attaches to; the summand exists
    exactly when ``(t * lambda_i, m, k)`` lies on the rational ray of the
    spec's tau triple.
    """

    i: int
    m: int
    k: int

    def __post_init__(self):
        for name in ("i", "m", "k"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise SpecError(f"e_mode field {name} must be an integer")
        if self.k == 0:
            raise SpecError("e_mode k must be nonzero")

    def __str__(self) -> str:
        return f"(i={self.i}, m={self.m}, k={self.k})"


@dataclass(frozen=True)
class AutCandidate:
    """A candidate automorphism lift in lattice coordinates.

    ``t`` flips the fiber coordinate; ``a_prime`` is the integer linear
    part; ``x1 + tau * x2`` is the translation; ``sigma`` is carried
    verbatim (no condition constrains it); ``e_modes`` declares the
    exponential summands.
    """

    t: int
    a_prime: IntMatrix
    x1: RationalVector
    x2: RationalVector
    sigma: object = None
    e_modes: Tuple[EMode, ...] = ()

    def __post_init__(self):
        if not isinstance(self.a_prime, IntMatrix):
            object.__setattr__(self, "a_prime", IntMatrix(self.a_prime))
        if not self.a_prime.is_square():
            raise SpecError("a_prime must be square")
        if not isinstance(self.x1, RationalVector):
            object.__setattr__(self, "x1", RationalVector(self.x1))
        if not isinstance(self.x2, RationalVector):
            object.__setattr__(self, "x2", RationalVector(self.x2))
        object.__setattr__(self, "e_modes", tuple(self.e_modes))
        n = self.a_prime.nrows
        if self.x1.dim != n or self.x2.dim != n:
            raise SpecError("x1 and x2 must match the matrix size")

    @property
    def n(self) -> int:
        return self.a_prime.nrows

    def __str__(self) -> str:
        modes = ", ".join(str(m) for m in self.e_modes) or "none"
        return (
            f"t={self.t}, A'={self.a_prime!r}, "
            f"x1={self.x1}, x2={self.x2}, e_modes: {modes}"
        )


@dataclass(frozen=True)
class CandidateCheck:
    """Outcome of :func:`verify_candidate`: Ok, or the list of violations."""

    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "Ok"
        return "; ".join(self.violations)


@dataclass(frozen=True)
class CosetGroup:
    """The translation parts modulo the lattice, as a finite group.

    Both coordinate parts contribute the same invariant factors, those of
    ``I - M``; the order is their product squared.
    """

    invariant_factors_x1: Tuple[int, ...]
    invariant_factors_x2: Tuple[int, ...]
    order: int

    def __str__(self) -> str:
        f1 = ",".join(str(d) for d in self.invariant_factors_x1)
        f2 = ",".join(str(d) for d in self.invariant_factors_x2)
        return f"order {self.order}, factors ({f1})x({f2})"


def _require_automorphism_context(s: ManifoldSpec) -> IntMatrix:
    """The lattice matrix, after the spec is validated and the standing
    hypotheses are checked."""
    require_valid(s)
    if s.lattice is None:
        raise SpecError("automorphism analysis needs lattice data on the spec")
    for pos, lam in enumerate(s.lambdas, start=1):
        if lam.is_zero():
            raise SpecError(
                "automorphism analysis requires every weight vector to be "
                f"nonzero; weight {pos} is zero"
            )
    return s.lattice.matrix


def _vector_is_integral(values: Sequence[Fraction]) -> bool:
    return all(Fraction(v).denominator == 1 for v in values)


def verify_candidate(s: ManifoldSpec, c: AutCandidate) -> CandidateCheck:
    """Check every condition an automorphism lift must satisfy.

    Returns a :class:`CandidateCheck` that is truthy when all of these
    hold: ``t`` is ``1`` or ``-1``; ``M^t A' = A' M``; ``det A'`` is
    ``1`` or ``-1``; ``(I - M) x1`` and ``(I - M) x2`` are integral; and
    every declared exponential mode matches the canonical mode for its
    index.  Raises :class:`SpecError` when the spec fails validation,
    lacks lattice data or has a zero weight, or on shape mismatches.
    """
    m = _require_automorphism_context(s)
    n = m.nrows
    if c.n != n:
        raise SpecError(
            f"candidate size {c.n} does not match the lattice size {n}"
        )
    violations: List[str] = []

    t_valid = c.t in (1, -1)
    if not t_valid:
        violations.append(f"t must be 1 or -1, got {c.t}")

    if t_valid:
        m_t = m if c.t == 1 else m.inverse_unimodular()
        if m_t @ c.a_prime != c.a_prime @ m:
            violations.append(
                "linear part does not intertwine the lattice matrix: "
                "M^t * A' != A' * M"
            )

    det = c.a_prime.det()
    if det not in (1, -1):
        violations.append(f"det A' = {det}, so A' does not preserve the lattice")

    i_minus_m = IntMatrix.identity(n) - m
    for label, x in (("x1", c.x1), ("x2", c.x2)):
        image = i_minus_m.apply(x)
        if not _vector_is_integral(image):
            violations.append(
                f"(I - M) * {label} = [{', '.join(str(v) for v in image)}] "
                "is not integral"
            )

    if t_valid:
        for mode in c.e_modes:
            if not (1 <= mode.i <= s.n):
                violations.append(
                    f"e_mode index {mode.i} is out of range 1..{s.n}"
                )
                continue
            canonical = e_mode_space(s, c.t, mode.i)
            if canonical is None:
                violations.append(
                    f"e_mode {mode} declared, but no exponential mode exists "
                    f"for weight {mode.i} at t={c.t}"
                )
            elif canonical != (mode.m, mode.k):
                violations.append(
                    f"e_mode {mode} does not match the canonical mode "
                    f"(m={canonical[0]}, k={canonical[1]})"
                )

    return CandidateCheck(tuple(violations))


def deck_candidate(s: ManifoldSpec, g: GroupElement) -> AutCandidate:
    """The lift induced by conjugation with the lattice element ``g``.

    Left multiplication by ``g`` acts on the cover as the linear part
    ``M ** a1`` with translation ``beta``, fixing the fiber direction.
    """
    m = _require_automorphism_context(s)
    if g.n != m.nrows:
        raise SpecError(
            f"group element size {g.n} does not match the lattice size {m.nrows}"
        )
    return AutCandidate(
        t=1,
        a_prime=m**g.a1,
        x1=RationalVector(g.beta1),
        x2=RationalVector(g.beta2),
    )


def deck_conjugate(
    s: ManifoldSpec, c: AutCandidate, g: GroupElement
) -> GroupElement:
    """Conjugate the lattice element ``g`` by the verified candidate ``c``.

    Returns the lattice element with twist ``(t*a1, t*a2)`` and
    translation ``A' beta_i + (I - M^(t*a1)) x_i``; integrality of the
    output is a theorem given the verified translation condition, and is
    still checked.
    """
    check = verify_candidate(s, c)
    if not check:
        raise SpecError(f"candidate fails verification: {check}")
    m = s.lattice.matrix
    n = m.nrows
    if g.n != n:
        raise SpecError(
            f"group element size {g.n} does not match the lattice size {n}"
        )
    power = m ** (c.t * g.a1)
    i_minus_power = IntMatrix.identity(n) - power
    new_betas = []
    for beta, x in ((g.beta1, c.x1), (g.beta2, c.x2)):
        linear = c.a_prime.apply(beta)
        shift = i_minus_power.apply(x)
        total = [Fraction(a) + Fraction(b) for a, b in zip(linear, shift)]
        if not _vector_is_integral(total):
            raise SpecError(
                f"conjugation produced a non-integral translation {total}"
            )
        new_betas.append(tuple(int(v) for v in total))
    return GroupElement(
        beta1=new_betas[0],
        beta2=new_betas[1],
        a1=c.t * g.a1,
        a2=c.t * g.a2,
    )


def h_coset_group(s: ManifoldSpec) -> CosetGroup:
    """Classify admissible translation parts modulo the lattice.

    The translations allowed by the integrality condition form the group
    ``(Z^n / (I - M) Z^n)`` in each of the two coordinate parts; the
    invariant factors come from the Smith normal form of ``I - M`` and the
    order is the squared absolute determinant.
    """
    m = _require_automorphism_context(s)
    n = m.nrows
    i_minus_m = IntMatrix.identity(n) - m
    det = i_minus_m.det()
    if det == 0:
        raise SpecError(
            "I - M is singular, so translation classes are not finite; "
            "this happens exactly when some eigenvalue equals 1"
        )
    _, diag, _ = smith_normal_form(i_minus_m)
    factors = tuple(diag.entries[i][i] for i in range(n))
    order = 1
    for d in factors:
        order *= d
    order = order * order
    assert order == det * det, "invariant factors disagree with the determinant"
    return CosetGroup(
        invariant_factors_x1=factors,
        invariant_factors_x2=factors,
        order=order,
    )


def _row_echelon(rows: List[List[int]]) -> List[Tuple[int, List[int]]]:
    """Row echelon form with positive pivots, by unimodular row operations.

    Returns ``(pivot column, row)`` pairs with strictly increasing pivot
    columns; each row is zero before its pivot.  The rows span the same
    lattice as the input rows.
    """
    out = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        live = [r for r in rows if r[col] != 0]
        if not live:
            continue
        rows = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head, rest = live[0], []
            for r in live[1:]:
                q = r[col] // head[col]
                r = [x - q * y for x, y in zip(r, head)]
                (rest if r[col] != 0 else rows).append(r)
            live = [head] + rest
        head = live[0]
        out.append((col, head if head[col] > 0 else [-x for x in head]))
    return out


def _commutant_lattice(
    m: IntMatrix, m_t: IntMatrix
) -> List[Tuple[int, List[int]]]:
    """The integer solutions of ``M^t A = A M`` with ``A`` flattened
    row-major, as an echelon basis (see :func:`_row_echelon`).

    The columns of ``V`` at the zero diagonal entries of the Smith normal
    form ``U C V = D`` of the n^2 x n^2 coefficient matrix ``C`` span the
    kernel of ``C`` over the integers, not only over the rationals.
    """
    n = m.nrows
    coeffs = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for k in range(n):
            row = coeffs[i * n + k]
            for j in range(n):
                row[j * n + k] += m_t.entries[i][j]
                row[i * n + j] -= m.entries[j][k]
    _, diag, v = smith_normal_form(IntMatrix(coeffs))
    return _row_echelon(
        [
            [v.entries[r][c] for r in range(n * n)]
            for c in range(n * n)
            if diag.entries[c][c] == 0
        ]
    )


def commutant_search(
    s: ManifoldSpec,
    t: int,
    bound: int = DEFAULT_SEARCH_BOUND,
    max_states: int = DEFAULT_SEARCH_STATES,
) -> List[IntMatrix]:
    """All unimodular intertwiners with entries bounded by ``bound``.

    Returns every integer matrix ``A'`` with ``|entry| <= bound``,
    ``M^t A' = A' M`` and determinant ``1`` or ``-1``, in lexicographic
    order (row-major, each entry ascending).  The solutions of the linear
    condition form a lattice; its basis in row echelon form with positive
    pivots comes from the Smith normal form of the coefficient matrix.
    A backtracking search steps each basis coefficient in ascending order
    over the range that keeps its pivot entry within the bound, and prunes
    as soon as an entry fixed by the coefficients chosen so far leaves it,
    so the work is about ``(2*bound + 1) ** rank``; ascending pivots give
    the lexicographic order directly.  The cap counts those lattice points:
    ``(2*bound + 1) ** rank``, with ``rank`` the rank of the solution
    lattice, must not exceed ``max_states``.
    """
    m = _require_automorphism_context(s)
    if isinstance(t, bool) or not isinstance(t, int) or t not in (1, -1):
        raise SpecError(f"t must be 1 or -1, got {t}")
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise SpecError(f"bound must be an integer, got {bound!r}")
    if bound < 0:
        raise SpecError("bound must be nonnegative")
    n = m.nrows
    m_t = m if t == 1 else m.inverse_unimodular()
    basis = _commutant_lattice(m, m_t)
    states = (2 * bound + 1) ** len(basis)
    if states > max_states:
        raise SpecError(
            f"search space of {states} lattice points exceeds the cap "
            f"{max_states}; lower the bound or raise max_states"
        )
    # entries from a pivot up to the next pivot depend only on the
    # coefficients of the rows down to that pivot's row
    ends = [col for col, _ in basis[1:]] + [n * n]
    results: List[IntMatrix] = []

    def descend(level: int, x: List[int]) -> None:
        if level == len(basis):
            candidate = IntMatrix([x[i * n : (i + 1) * n] for i in range(n)])
            if candidate.det() in (1, -1):
                assert m_t @ candidate == candidate @ m
                results.append(candidate)
            return
        col, row = basis[level]
        pivot = row[col]
        low = -((bound + x[col]) // pivot)
        high = (bound - x[col]) // pivot
        for c in range(low, high + 1):
            y = [a + c * b for a, b in zip(x, row)]
            if all(-bound <= v <= bound for v in y[col + 1 : ends[level]]):
                descend(level + 1, y)

    descend(0, [0] * (n * n))
    return results


def e_mode_space(s: ManifoldSpec, t: int, i: int) -> Optional[Tuple[int, int]]:
    """The unique exponential mode ``(m, k)`` for weight ``i``, if any.

    Under a Generic tau no mode exists.  Under ``Special(c_ref, h, k)``
    the mode exists exactly when ``t * lambda_i`` is a rational multiple
    ``r`` of ``c_ref`` with ``r * h`` and ``r * k`` integers; it is then
    ``(r * h, r * k)``.
    """
    if t not in (1, -1):
        raise SpecError(f"t must be 1 or -1, got {t}")
    if not (1 <= i <= s.n):
        raise SpecError(f"weight index {i} out of range 1..{s.n}")
    lam = s.lambdas[i - 1]
    if lam.is_zero():
        raise SpecError(
            f"weight {i} is zero; exponential modes require a nonzero weight"
        )
    if s.tau.is_generic():
        return None
    scaled = t * lam
    r = qvec_proportionality(scaled, s.tau.c_ref)
    if r is None or r == 0:
        return None
    mm = r * s.tau.h
    kk = r * s.tau.k
    if mm.denominator != 1 or kk.denominator != 1:
        return None
    assert kk != 0, "k scales by a nonzero rational"
    return (int(mm), int(kk))


def _require_affine(c: AutCandidate, op: str) -> None:
    if c.e_modes:
        raise SpecError(
            f"{op} is defined on the affine subgroup only; "
            "candidates with exponential modes do not compose symbolically"
        )


def compose_candidates(c1: AutCandidate, c2: AutCandidate) -> AutCandidate:
    """The candidate of the composite map, first ``c2`` then ``c1``.

    Both inputs must be verified and free of exponential modes.  The fiber
    signs multiply, the linear parts multiply, and the translation picks
    up the image of the inner translation: ``x = A1' x2 + x1``.
    """
    _require_affine(c1, "compose_candidates")
    _require_affine(c2, "compose_candidates")
    if c1.n != c2.n:
        raise SpecError("candidates must have matching sizes")
    x1 = RationalVector(
        [
            Fraction(a) + Fraction(b)
            for a, b in zip(c1.a_prime.apply(c2.x1), c1.x1)
        ]
    )
    x2 = RationalVector(
        [
            Fraction(a) + Fraction(b)
            for a, b in zip(c1.a_prime.apply(c2.x2), c1.x2)
        ]
    )
    return AutCandidate(
        t=c1.t * c2.t,
        a_prime=c1.a_prime @ c2.a_prime,
        x1=x1,
        x2=x2,
    )


def invert_candidate(c: AutCandidate) -> AutCandidate:
    """The candidate of the inverse map.

    Requires a verified, mode-free candidate with unimodular linear part;
    returns ``(t, A'^-1, -A'^-1 x)``.
    """
    _require_affine(c, "invert_candidate")
    if c.a_prime.det() not in (1, -1):
        raise SpecError("linear part is not unimodular, so no inverse exists")
    inverse = c.a_prime.inverse_unimodular()
    x1 = RationalVector([-Fraction(v) for v in inverse.apply(c.x1)])
    x2 = RationalVector([-Fraction(v) for v in inverse.apply(c.x2)])
    return AutCandidate(t=c.t, a_prime=inverse, x1=x1, x2=x2)
