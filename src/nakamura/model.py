"""Manifold descriptions and their validation.

A split Nakamura manifold is described here by an exact, finite amount of
data:

* ``lambdas``: the tuple of weights ``lambda_1 .. lambda_n`` of the
  semisimple action on ``C^n``, each a :class:`~nakamura.scalars.RationalVector`
  over declared basis symbols ``b1 .. bd`` (positive reals, linearly
  independent over the rationals).  Unimodularity of the solvable group forces
  ``sum(lambdas) == 0``, which validation enforces.
* ``tau``: the lattice parameter in the upper half plane, described either as
  ``Generic`` (``Re(tau)/|tau|^2`` declared irrational) or as ``Special``
  with an integer triple ``(c_ref, h, k)`` in the parametrization handled by
  :mod:`nakamura.tau`.
* optionally ``lattice``: an integer matrix presentation of the lattice in
  ``C^n`` coordinates, produced or checked by :mod:`nakamura.construct`.

No floating point enters any of these checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .scalars import IntMatrix, RationalVector


class SpecError(ValueError):
    """A spec violates a documented precondition."""


class TauKind(enum.Enum):
    GENERIC = "generic"
    SPECIAL = "special"


@dataclass(frozen=True)
class TauSpec:
    """Which lattice parameter tau the manifold uses.

    ``GENERIC`` declares that ``Re(tau)/|tau|^2`` is irrational; it carries no
    further data and makes only the zero character admissible.  ``SPECIAL``
    carries an integer triple ``(c_ref, h, k)`` with ``c_ref`` a nonzero
    rational vector over the basis symbols, ``k != 0``, and the standing sign
    assertion ``c * k > 0`` for the real number ``c`` that ``c_ref`` denotes.
    The sign cannot be computed from a general vector, so it is recorded as the
    ``sign_ck_positive`` assertion and cross-checked whenever the coordinate
    signs of ``c_ref`` do determine it.
    """

    kind: TauKind
    c_ref: Optional[RationalVector] = None
    h: Optional[int] = None
    k: Optional[int] = None
    sign_ck_positive: bool = True

    @classmethod
    def generic(cls) -> "TauSpec":
        return cls(kind=TauKind.GENERIC)

    @classmethod
    def special(
        cls,
        c_ref: RationalVector,
        h: int,
        k: int,
        sign_ck_positive: bool = True,
    ) -> "TauSpec":
        return cls(
            kind=TauKind.SPECIAL,
            c_ref=c_ref,
            h=int(h),
            k=int(k),
            sign_ck_positive=sign_ck_positive,
        )

    def is_generic(self) -> bool:
        return self.kind is TauKind.GENERIC

    def is_special(self) -> bool:
        return self.kind is TauKind.SPECIAL

    def __str__(self) -> str:
        if self.is_generic():
            return "Generic"
        return f"Special(c={self.c_ref}, h={self.h}, k={self.k})"


@dataclass(frozen=True)
class LatticeSpec:
    """An integer matrix presentation of the lattice action on C^n.

    ``matrix`` is the conjugated action of the generator ``1`` of the extra
    lattice direction, an element of ``SL(n, Z)`` with positive real
    eigenvalues.  ``certified_relations`` lists integer vectors ``v`` claiming
    the multiplicative relations ``prod mu_i ** v[i] == 1`` among its
    eigenvalues, in the eigenvalue order reported by
    :func:`nakamura.construct.analyze_integer_matrix`.
    """

    matrix: IntMatrix
    certified_relations: Tuple[Tuple[int, ...], ...] = ()

    def __post_init__(self):
        if not self.matrix.is_square():
            raise SpecError("lattice matrix must be square")
        object.__setattr__(
            self,
            "certified_relations",
            tuple(tuple(int(x) for x in v) for v in self.certified_relations),
        )


@dataclass(frozen=True)
class ManifoldSpec:
    """Complete description of one split Nakamura manifold."""

    lambdas: Tuple[RationalVector, ...]
    basis_dim: int
    tau: TauSpec
    lattice: Optional[LatticeSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(self.lambdas))

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def is_torus(self) -> bool:
        return all(lam.is_zero() for lam in self.lambdas)

    def __str__(self) -> str:
        lam = ", ".join(str(v) for v in self.lambdas)
        return f"ManifoldSpec(n={self.n}, lambdas=({lam}), tau={self.tau})"


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_spec`: fatal violations plus warnings."""

    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "valid"
        lines = ["valid" if self.ok else "invalid"]
        lines += [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def validate_spec(s: ManifoldSpec) -> ValidationReport:
    """Check a spec against every structural constraint.

    Accepts exactly when the weights sum to zero coordinatewise, all declared
    dimensions agree, the lattice matrix (if any) is n x n, and the tau
    description is well formed.  Unused basis symbols are reported as
    warnings, not violations, so a torus written with explicit zero vectors
    still validates.
    """
    report = ValidationReport()
    if s.n < 1:
        report.violations.append("spec must have at least one weight")
    if s.basis_dim < 0:
        report.violations.append("basis_dim must be nonnegative")
    for i, lam in enumerate(s.lambdas, start=1):
        if lam.dim != s.basis_dim:
            report.violations.append(
                f"lambda_{i} has dimension {lam.dim}, expected {s.basis_dim}"
            )
    if all(lam.dim == s.basis_dim for lam in s.lambdas) and s.n >= 1:
        total = RationalVector.zero(s.basis_dim)
        for lam in s.lambdas:
            total = total + lam
        if not total.is_zero():
            report.violations.append(
                "weights must sum to zero (the unimodularity constraint), "
                f"got {total}"
            )
        for j in range(s.basis_dim):
            if all(lam[j] == 0 for lam in s.lambdas):
                report.warnings.append(
                    f"basis symbol b{j + 1} appears in no weight"
                )
    if s.lattice is not None and s.lattice.matrix.nrows != s.n:
        size = s.lattice.matrix.nrows
        report.violations.append(
            f"lattice matrix is {size}x{size}, expected {s.n}x{s.n}"
        )
    _validate_tau(s.tau, s.basis_dim, report)
    return report


def _validate_tau(t: TauSpec, basis_dim: int, report: ValidationReport) -> None:
    if t.is_generic():
        if t.c_ref is not None or t.h is not None or t.k is not None:
            report.violations.append("generic tau must not carry triple data")
        return
    if t.c_ref is None or t.h is None or t.k is None:
        report.violations.append("special tau requires the full (c, h, k) triple")
        return
    if t.c_ref.dim != basis_dim:
        report.violations.append(
            f"tau reference vector has dimension {t.c_ref.dim}, "
            f"expected {basis_dim}"
        )
    if t.c_ref.is_zero():
        report.violations.append("special tau requires a nonzero c")
    if t.k == 0:
        report.violations.append("special tau requires k != 0")
    if not t.sign_ck_positive:
        report.violations.append(
            "special tau lies in the domain c*k > 0; the sign assertion "
            "must be made"
        )
    elif not t.c_ref.is_zero() and t.k != 0:
        # when every coordinate of c_ref shares a sign, the sign of the real
        # number c is determined and the assertion can be cross-checked
        if all(c >= 0 for c in t.c_ref.coords) and t.k < 0:
            report.violations.append(
                "c > 0 follows from the coordinates of c but k < 0, "
                "contradicting the asserted c*k > 0"
            )
        if all(c <= 0 for c in t.c_ref.coords) and t.k > 0:
            report.violations.append(
                "c < 0 follows from the coordinates of c but k > 0, "
                "contradicting the asserted c*k > 0"
            )


def require_valid(s: ManifoldSpec) -> None:
    """Raise :class:`SpecError` when ``validate_spec`` rejects ``s``."""
    report = validate_spec(s)
    if not report.ok:
        raise SpecError("; ".join(report.violations))


class KernelKind(enum.Enum):
    """Shape of the kernel of the twisting action ``w -> rho(w)``."""

    ALL_OF_C = "all of C"
    TAU_LINE = "the real line through tau"


def rho_kernel(s: ManifoldSpec) -> KernelKind:
    """Kernel of the semisimple action on C^n.

    ``rho(w)`` is diagonal with entries ``exp(lambda_i * D(w))`` where ``D``
    is the first coordinate with respect to the real basis ``{1, tau}``.  All
    weights zero kills the twist entirely; otherwise the kernel is exactly the
    line where ``D`` vanishes, which is the real span of ``tau``.
    """
    require_valid(s)
    if s.is_torus():
        return KernelKind.ALL_OF_C
    return KernelKind.TAU_LINE


def kodaira_dimension(s: ManifoldSpec) -> int:
    """Always 0: the canonical-section form is exactly closed.

    The holomorphic top form ``psi`` built in :mod:`nakamura.forms` trivializes
    the canonical bundle; this recomputes ``d(psi)`` through the forms engine
    and insists on exact vanishing before answering.
    """
    require_valid(s)
    from . import forms

    psi = forms.canonical_psi(s)
    if not forms.d(psi).is_zero():
        raise AssertionError(
            "canonical-section form failed to close; weights do not sum to zero?"
        )
    return 0
