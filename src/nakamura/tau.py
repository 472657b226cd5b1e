"""Exact arithmetic on the special lattice parameters tau(c, h, k).

A triple ``(c, h, k)`` with ``c`` a nonzero real (given as a rational vector
over the basis symbols), ``h, k`` integers, ``k != 0`` and ``c * k > 0``
determines the upper half plane point

    tau(c, h, k) = (2*k*pi / (4*pi^2*h^2 + c^2)) * (2*h*pi + i*c).

Two triples give the same tau exactly when they are proportional over the
rationals, so fibers of the parametrization are lines of triples and every
fiber has a unique canonical representative with ``gcd(h, k) == 1``.  The
ratio ``Re(tau) / |tau|^2`` equals ``h / k`` exactly; a Generic tau instead
declares that ratio irrational and carries no triple.

All the verdicts here are rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .model import SpecError, TauSpec
from .scalars import RationalVector, qvec_proportionality

Triple = Tuple[RationalVector, int, int]


def _check_triple(c: RationalVector, h: int, k: int) -> None:
    if c.is_zero():
        raise SpecError("triple requires a nonzero c")
    if k == 0:
        raise SpecError("triple requires k != 0")
    if not isinstance(h, int) or not isinstance(k, int):
        raise SpecError("h and k must be integers")


def tau_from_triple(
    c: RationalVector, h: int, k: int, sign_ck_positive: bool = True
) -> TauSpec:
    """Build the Special tau spec for the triple ``(c, h, k)``.

    The ``c * k > 0`` assertion is recorded on the spec; when the coordinate
    signs of ``c`` determine the sign of the real number it denotes, the
    assertion is cross-checked immediately.
    """
    _check_triple(c, h, k)
    if not sign_ck_positive:
        raise SpecError("the domain of the parametrization requires c*k > 0")
    if all(x >= 0 for x in c.coords) and k < 0:
        raise SpecError("c > 0 but k < 0 contradicts the asserted c*k > 0")
    if all(x <= 0 for x in c.coords) and k > 0:
        raise SpecError("c < 0 but k > 0 contradicts the asserted c*k > 0")
    return TauSpec.special(c, h, k, sign_ck_positive=True)


def canonical_triple(c: RationalVector, h: int, k: int) -> Triple:
    """The fiber representative with coprime ``(h, k)``.

    Divides the whole triple by ``gcd(h, k)`` (which is ``|k|`` when ``h`` is
    zero).  Idempotent, and every triple in a fiber maps to the same result.
    """
    _check_triple(c, h, k)
    d = math.gcd(h, k)
    return (c / d, h // d, k // d)


def same_fiber(t1: TauSpec, t2: TauSpec) -> bool:
    """Do two Special tau specs describe the same upper half plane point?

    True exactly when the triples are rationally proportional; the scaling
    factor cancels out of tau(c, h, k).  Raises on Generic input, which names
    no point to compare.
    """
    for t in (t1, t2):
        if not t.is_special():
            raise SpecError("same_fiber compares Special tau specs only")
    r = qvec_proportionality(t1.c_ref, t2.c_ref)
    if r is None or r == 0:
        return False
    return Fraction(t1.h) == r * t2.h and Fraction(t1.k) == r * t2.k


@dataclass(frozen=True)
class RatioReport:
    """The exact value of ``Re(tau) / |tau|^2``, when it is rational."""

    rational_value: Optional[Fraction]

    @property
    def is_rational(self) -> bool:
        return self.rational_value is not None

    def __str__(self) -> str:
        if self.is_rational:
            return f"Re(tau)/|tau|^2 = {self.rational_value}"
        return "Re(tau)/|tau|^2 declared irrational"


def tau_ratio_invariants(t: TauSpec) -> RatioReport:
    """``Re(tau)/|tau|^2`` as an exact rational for Special tau.

    For a Generic tau the ratio is declared irrational and no value exists.
    """
    if t.is_generic():
        return RatioReport(rational_value=None)
    _check_triple(t.c_ref, t.h, t.k)
    return RatioReport(rational_value=Fraction(t.h, t.k))
