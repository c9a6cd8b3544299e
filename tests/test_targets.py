import math

import pytest

from hsvt import targets
from hsvt.errors import CapError, DomainError, InvalidInputError


def test_eval_identity():
    f = targets.identity(0.1, 0.9)
    assert f(0.5) == 0.5


def test_eval_sine():
    f = targets.sine(0.1, 0.9)
    assert f(0.5) == pytest.approx(math.sin(0.5))


def test_eval_scaled_power():
    f = targets.scaled_power(2, 0.9, 0.1, 0.9)
    assert f(0.5) == pytest.approx(0.225)


def test_domain_error_outside():
    f = targets.identity(0.2, 0.8)
    with pytest.raises(DomainError):
        f(0.95)


def test_cap_violation_rejected():
    # c / sqrt(1 - sigma^2) exceeds 1 near sigma_hi for large c
    with pytest.raises(CapError):
        targets.inverse_sqrt_complement(0.9, 0.1, 0.9)


def test_bad_domain_rejected():
    with pytest.raises(InvalidInputError):
        targets.identity(0.9, 0.1)
    with pytest.raises(InvalidInputError):
        targets.identity(0.0, 0.5)


@pytest.mark.parametrize("args, named", [
    (("scaled-power",), "'power'"),
    (("scaled-power", 0.1, 0.9, 0.99, 2.0), "'coeff'"),
    (("inverse-sqrt-complement", 0.1, 0.5), "'coeff'"),
])
def test_missing_kind_parameter_rejected(args, named):
    with pytest.raises(InvalidInputError, match=named):
        targets.TargetFunction(*args)


def test_x_interval_and_gap():
    f = targets.identity(0.1, 0.9)
    x_lo, x_hi = f.x_interval()
    assert x_lo == pytest.approx(math.cos(0.9))
    assert x_hi == pytest.approx(math.cos(0.1))
    assert f.x_gap() == pytest.approx(min(1 - x_hi, 1 + x_lo))


def test_degree_for_accuracy_formula():
    c = targets.ARCCOS_FAMILY_CONSTANT
    est = targets.degree_for_accuracy(0.5, c * math.exp(-1.0))
    assert est.k == 1
    assert est.predicted_eps <= c * math.exp(-1.0) + 1e-12


def test_degree_for_accuracy_log_linear():
    k1 = targets.degree_for_accuracy(0.1, 1e-3).k
    k2 = targets.degree_for_accuracy(0.1, 1e-6).k
    # doubling log(1/eps) roughly doubles k (offset by the prefactor)
    assert k2 / k1 == pytest.approx(2.0, rel=0.15)


def test_degree_estimate_monotone_in_k():
    rate = math.sqrt(2 * 0.1)
    eps = [targets.ARCCOS_FAMILY_CONSTANT * math.exp(-rate * k) for k in (5, 10, 20)]
    ks = [targets.degree_for_accuracy(0.1, e).k for e in eps]
    assert ks == sorted(ks)


def test_degree_for_accuracy_rejects_bad_args():
    with pytest.raises(InvalidInputError):
        targets.degree_for_accuracy(0.0, 1e-3)
    with pytest.raises(InvalidInputError):
        targets.degree_for_accuracy(0.1, 2.0)


@pytest.mark.parametrize("cap", [math.nan, math.inf, -math.inf])
def test_non_finite_cap_rejected(cap):
    with pytest.raises(InvalidInputError, match="cap must be finite"):
        targets.identity(0.2, 0.8, cap=cap)


def test_domain_slack_is_one_constant():
    f = targets.identity(0.2, 0.8)
    inside = 0.8 + 0.5 * targets.DOMAIN_SLACK
    outside = 0.8 + 2 * targets.DOMAIN_SLACK
    assert f(inside) == inside
    assert list(f.in_domain([0.2 - 0.5 * targets.DOMAIN_SLACK, inside, outside])) == \
        [True, True, False]
    with pytest.raises(DomainError):
        f(outside)
