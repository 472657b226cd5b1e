from fractions import Fraction

import pytest

from nakamura.model import (
    KernelKind,
    ManifoldSpec,
    SpecError,
    TauSpec,
    kodaira_dimension,
    rho_kernel,
    validate_spec,
)
from nakamura.scalars import RationalVector


def vec(*coords):
    return RationalVector(coords)


def generic_spec(*lambdas, basis_dim=None):
    lams = tuple(vec(*l) if isinstance(l, tuple) else l for l in lambdas)
    dim = basis_dim if basis_dim is not None else (lams[0].dim if lams else 0)
    return ManifoldSpec(lambdas=lams, basis_dim=dim, tau=TauSpec.generic())


def test_validate_accepts_balanced_weights():
    s = generic_spec((1,), (-1,))
    report = validate_spec(s)
    assert report.ok
    assert report.warnings == []


def test_validate_rejects_unbalanced_weights():
    s = generic_spec((1,), (1,))
    report = validate_spec(s)
    assert not report.ok
    assert any("sum to zero" in v for v in report.violations)


def test_validate_rejects_dimension_mismatch():
    s = ManifoldSpec(
        lambdas=(vec(1, 0), vec(-1)),
        basis_dim=2,
        tau=TauSpec.generic(),
    )
    report = validate_spec(s)
    assert not report.ok


def test_validate_torus_with_explicit_zero_vectors():
    s = generic_spec((0,), (0,))
    report = validate_spec(s)
    assert report.ok
    assert any("b1" in w for w in report.warnings)


def test_validate_special_tau():
    good = ManifoldSpec(
        lambdas=(vec(1), vec(-1)),
        basis_dim=1,
        tau=TauSpec.special(vec(1), 0, 1),
    )
    assert validate_spec(good).ok

    zero_k = ManifoldSpec(
        lambdas=(vec(1), vec(-1)),
        basis_dim=1,
        tau=TauSpec.special(vec(1), 1, 0),
    )
    report = validate_spec(zero_k)
    assert not report.ok
    assert any("k != 0" in v for v in report.violations)

    zero_c = ManifoldSpec(
        lambdas=(vec(1), vec(-1)),
        basis_dim=1,
        tau=TauSpec.special(vec(0), 1, 1),
    )
    assert not validate_spec(zero_c).ok


def test_validate_special_tau_sign_consistency():
    bad = ManifoldSpec(
        lambdas=(vec(1), vec(-1)),
        basis_dim=1,
        tau=TauSpec.special(vec(1), 0, -1),
    )
    report = validate_spec(bad)
    assert not report.ok
    assert any("c*k" in v for v in report.violations)

    # mixed-sign coordinates leave the sign undetermined, assertion trusted
    undetermined = ManifoldSpec(
        lambdas=(vec(1, 0), vec(0, 1), vec(-1, -1)),
        basis_dim=2,
        tau=TauSpec.special(vec(1, -1), 0, 1),
    )
    assert validate_spec(undetermined).ok


def test_validate_random_specs_iff_weights_balance():
    import random

    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        d = rng.randint(1, 2)
        lams = [
            vec(*[Fraction(rng.randint(-3, 3)) for _ in range(d)])
            for _ in range(n)
        ]
        s = ManifoldSpec(lambdas=tuple(lams), basis_dim=d, tau=TauSpec.generic())
        total = RationalVector.zero(d)
        for lam in lams:
            total = total + lam
        assert validate_spec(s).ok == total.is_zero()


def test_rho_kernel():
    assert rho_kernel(generic_spec((1,), (-1,))) is KernelKind.TAU_LINE
    assert rho_kernel(generic_spec((0,), (0,))) is KernelKind.ALL_OF_C


def test_rho_kernel_rejects_invalid():
    with pytest.raises(SpecError):
        rho_kernel(generic_spec((1,), (1,)))


def test_kodaira_dimension_zero():
    assert kodaira_dimension(generic_spec((1,), (-1,))) == 0
    assert kodaira_dimension(generic_spec((0,), (0,))) == 0
