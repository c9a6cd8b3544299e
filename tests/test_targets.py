import math

import numpy as np
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


def test_custom_samples_interpolates():
    xs = np.linspace(0.2, 0.8, 30)
    f = targets.custom_samples(list(zip(xs, np.sin(xs))), 0.2, 0.8)
    grid = np.linspace(0.2, 0.8, 100)
    assert np.max(np.abs(f(grid) - np.sin(grid))) < 1e-8


def test_x_interval_and_gap():
    f = targets.identity(0.1, 0.9)
    x_lo, x_hi = f.x_interval()
    assert x_lo == pytest.approx(math.cos(0.9))
    assert x_hi == pytest.approx(math.cos(0.1))
    assert f.x_gap() == pytest.approx(min(1 - x_hi, 1 + x_lo))
    assert f.sigma_gaps() == (0.1, pytest.approx(0.1))


def test_chebyshev_fit_basis_element():
    e = targets.chebyshev_fit(lambda x: 2 * np.asarray(x) ** 2 - 1, 4)
    want = np.zeros(5)
    want[2] = 1.0
    assert np.max(np.abs(e.coeffs - want)) < 1e-12
    assert e.parity == "even"


def test_chebyshev_fit_constant():
    e = targets.chebyshev_fit(lambda x: 0.3 * np.ones_like(np.asarray(x, float)), 3)
    assert e.coeffs[0] == pytest.approx(0.3)
    assert np.max(np.abs(e.coeffs[1:])) < 1e-14


def test_chebyshev_fit_reproduces_nodes():
    g = lambda x: np.exp(np.asarray(x)) * np.cos(3 * np.asarray(x))
    k = 17
    e = targets.chebyshev_fit(g, k)
    nodes = np.cos(np.pi * (2 * np.arange(k + 1) + 1) / (2 * (k + 1)))
    assert np.max(np.abs(e.evaluate(nodes) - g(nodes))) < 1e-12


def test_induced_g_identity_shape():
    f = targets.identity(0.1, 0.9)
    g = f.induced_g()
    x_lo, x_hi = f.x_interval()
    mid, half = 0.5 * (x_lo + x_hi), 0.5 * (x_hi - x_lo)
    u = np.linspace(-1, 1, 50)
    x = mid + half * u
    want = np.arccos(x) / np.sqrt(1 - x ** 2)
    assert np.max(np.abs(g(u) - want)) < 1e-13


def test_fit_residual_decays_geometrically():
    # a function with a pole just outside [-1, 1] decays slowly enough to
    # observe the geometric rate before hitting the round-off floor
    g = lambda x: 1.0 / (1.05 - np.asarray(x))
    res = [targets.chebyshev_fit(g, k).residual for k in (5, 10, 15, 20)]
    assert all(r2 < 0.5 * r1 for r1, r2 in zip(res, res[1:]))


def test_fit_shipped_family_reaches_floor():
    f = targets.identity(0.1, 0.9)
    assert targets.fit_target_expansion(f, 12).residual < 1e-12


def test_fit_residual_degrades_toward_edges():
    k = 12
    mid = targets.fit_target_expansion(targets.identity(0.3, 0.7), k).residual
    low = targets.fit_target_expansion(targets.identity(0.02, 0.7), k).residual
    high = targets.fit_target_expansion(targets.identity(0.3, 0.98), k).residual
    assert low > mid
    assert high > mid


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
