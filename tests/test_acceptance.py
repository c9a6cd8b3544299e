"""End-to-end acceptance checks for the full pipeline.

These are intentionally heavier than the unit tests: they exercise the
compiled-schedule path on wide domains, statistical noise scaling, and the
documented accuracy contracts of every application entry point.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from hsvt import applications, cli, compiler, io, linalg, protocol, targets
from hsvt.compiler import SolverOptions
from hsvt.errors import SingularInversionError

from conftest import random_contraction, random_state, reduced_full_gap, row_norm_defect


def random_schedule(rng, k, variable_t=False):
    phis = rng.uniform(-np.pi, np.pi, k)
    times = rng.uniform(0.3, 2.0, k) if variable_t else None
    return compiler.schedule_from_arrays(phis, times)


# 1. wide-domain identity pipeline: twenty instances within budget ----------

def test_inverse_encoding_twenty_instances_within_budget():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    for i in range(20):
        dim = int(rng.integers(2, 9))
        a = random_contraction(rng, dim, lo=0.1, hi=0.9)
        _, result, _ = applications.inverse_block_encode(a, 1e-3)
        assert result.achieved_eps <= 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"


# 2. target unitaries are anti-Hermitian unitaries with eigenvalues +-i -----

def test_target_unitary_structure():
    rng = np.random.default_rng(11)
    fams = [targets.identity(0.1, 0.9), targets.sine(0.1, 0.9),
            targets.scaled_power(2, 0.9, 0.1, 0.9)]
    shapes = [(2, 2), (3, 3), (2, 5), (4, 2), (6, 6)]
    for i in range(20):
        a = random_contraction(rng, *shapes[i % len(shapes)])
        t = protocol.build_target_unitary(a, fams[i % len(fams)])
        u = t.matrix
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) <= 1e-10
        assert np.linalg.norm(u + u.conj().T, 2) <= 1e-10
        eigs = np.linalg.eigvals(t.matrix)
        assert np.max(np.abs(eigs.real)) <= 1e-8
        assert np.max(np.abs(np.abs(eigs.imag) - 1.0)) <= 1e-8


# 3. synthesis residual decays exponentially at the truncation-law rate -----

def test_degree_sweep_exponential_decay():
    f = targets.identity(float(np.arccos(0.9)), 0.95)
    delta = f.x_gap()
    assert delta == pytest.approx(0.1, abs=1e-12)
    ks = list(range(8, 41, 4))
    rows = compiler.degree_sweep(f, ks, opts=SolverOptions(seed=0))
    residuals = np.array([r for _, r, _ in rows])
    assert np.all(np.diff(residuals) < 0), residuals
    slope = -np.polyfit(ks, np.log(residuals), 1)[0]
    rate = math.sqrt(2 * delta)
    assert 0.5 * rate <= slope <= 3.0 * rate, (slope, rate)


# 4. minimal degree grows affinely in log(1/eps) ----------------------------

def test_minimal_degree_affine_in_log_accuracy():
    f = targets.identity(0.6, 0.9)
    rows = compiler.degree_sweep(f, list(range(4, 29, 4)),
                                 opts=SolverOptions(seed=0))
    epss = [1e-2, 1e-3, 1e-4]
    ks = []
    for eps in epss:
        ks.append(next(k for k, res, _ in rows if res <= eps))
    assert ks == sorted(ks) and ks[0] < ks[-1]
    logs = np.log(1.0 / np.array(epss))
    r = np.corrcoef(logs, ks)[0, 1]
    assert r >= 0.95, (ks, r)


# 5. control-noise response is linear in eta --------------------------------

def test_noise_response_linear():
    rng = np.random.default_rng(23)
    a = random_contraction(rng, 3)
    schedule = random_schedule(rng, 20)
    eta = 2e-3
    table = protocol.noise_sweep(a, schedule, [eta, 2 * eta], trials=200,
                                 seed=0)
    mean1, mean2 = table[0]["mean_distance"], table[1]["mean_distance"]
    assert 1.8 <= mean2 / mean1 <= 2.2
    assert mean1 <= 5 * 20 * eta


# 6. success probabilities are exact, and backends agree --------------------

def test_success_probability_exact_and_backends_agree():
    rng = np.random.default_rng(31)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        a = random_contraction(rng, dim)
        psi = random_state(rng, dim)
        res = applications.apply_matrix(a, psi)
        direct = a @ psi
        want = float(np.real(np.vdot(direct, direct)))
        assert abs(res.success_prob - want) <= 1e-10
    eps = 1e-3
    for _ in range(3):
        a = random_contraction(rng, 3, lo=0.45, hi=0.75)
        psi = random_state(rng, 3)
        exact = applications.apply_matrix(a, psi)
        prot = applications.apply_matrix(a, psi, backend="protocol", eps=eps,
                                         domain=(0.4, 0.8))
        assert abs(prot.success_prob - exact.success_prob) <= eps


# 7. the power cascade is an isometry with the documented block content -----

def test_power_cascade_contract():
    rng = np.random.default_rng(41)
    for n in (1, 4, 10):
        dim = int(rng.integers(2, 5))
        a = random_contraction(rng, dim)
        psi = random_state(rng, dim)
        state, final_prob = applications.power_cascade(a, psi, n)
        assert abs(state.total_norm_sq() - 1.0) <= 1e-10
        last = np.linalg.matrix_power(a, n) @ psi
        assert np.linalg.norm(state.block(n) - last) <= 1e-9
        assert abs(final_prob - float(np.real(np.vdot(last, last)))) <= 1e-10
    # geometric suppression for a strict contraction, none at sigma = 1
    _, p_contr = applications.power_cascade(0.6 * np.eye(2), [1.0, 0.0], 8)
    _, p_unit = applications.power_cascade(np.eye(2), [1.0, 0.0], 8)
    assert p_contr == pytest.approx(0.6 ** 16, abs=1e-12)
    assert p_unit == pytest.approx(1.0, abs=1e-12)


# 8. forward-Euler cascade converges at first order -------------------------

def test_ode_first_order_convergence():
    rng = np.random.default_rng(53)
    horizon = 1.0
    for _ in range(10):
        dim = int(rng.integers(2, 4))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = g - g.conj().T - 2.0 * np.eye(dim)      # strictly dissipative
        psi = random_state(rng, dim)
        exact = sla.expm(b * horizon) @ psi
        errs = []
        for steps in (64, 128):
            prob = applications.OdeProblem(b=b, dt=horizon / steps,
                                           steps=steps, psi0=psi)
            _, final = applications.ode_solve(prob)
            errs.append(np.linalg.norm(final - exact))
        assert 1.8 <= errs[0] / errs[1] <= 2.2, errs
    prob = applications.OdeProblem(b=[[-1.0]], dt=0.01, steps=100, psi0=[1.0])
    _, final = applications.ode_solve(prob)
    assert abs(final[0]) == pytest.approx(0.99 ** 100, abs=1e-12)
    assert abs(abs(final[0]) - math.exp(-1.0)) <= 2e-3


# 9. history states match the direct construction ---------------------------

def test_history_state_contract():
    rng = np.random.default_rng(61)
    cases = [random_contraction(rng, 3, lo=0.2, hi=0.8),
             np.diag([0.3, 1.0 - 2e-6]),              # kappa_tilde ~ 500
             random_contraction(rng, 2, lo=0.5, hi=0.999)]
    for a in cases:
        a = np.asarray(a, dtype=complex)
        dim = a.shape[0]
        psi = random_state(rng, dim)
        n = 4
        res = applications.history_state(a, psi, n)
        s = np.linalg.eigvalsh(linalg.sqrt_psd(np.eye(dim) - a.conj().T @ a))
        kappa = s[-1] / s[0]
        assert kappa <= 1e4
        assert abs(res.kappa_tilde - kappa) <= 1e-8 * kappa
        want = np.concatenate(
            [np.linalg.matrix_power(a, k) @ psi for k in range(n + 1)])
        want = want / np.linalg.norm(want)
        assert np.linalg.norm(res.history - want) <= 1e-9
    with pytest.raises(SingularInversionError):
        applications.history_state(np.eye(2), [1.0, 0.0], 2)


# 10. reduced model equals the full simulator on every subspace -------------

def test_reduced_model_consistency_hundred_cases():
    rng = np.random.default_rng(71)
    for i in range(100):
        k = int(rng.integers(1, 9))
        schedule = random_schedule(rng, k, variable_t=bool(i % 2))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        a = random_contraction(rng, cols, rows, lo=0.05, hi=0.95)
        res = protocol.simulate_protocol(a, schedule)
        assert reduced_full_gap(res, schedule) <= 1e-10


# 11. corner polynomials satisfy the unitarity constraint -------------------

def test_pq_constraint_hundred_schedules():
    rng = np.random.default_rng(83)
    grid = np.linspace(0.0, 1.0, 50)
    for i in range(100):
        k = int(rng.integers(1, 11))
        schedule = random_schedule(rng, k, variable_t=bool(i % 2))
        assert row_norm_defect(compiler.reduced_product(schedule, grid)) <= 1e-10


# 12. artifacts are byte-reproducible ---------------------------------------

def test_artifacts_reproducible(tmp_path):
    schedules, reports = [], []
    for tag in ("x", "y"):
        sched = tmp_path / f"s-{tag}.txt"
        rep = tmp_path / "rep.json"
        code = cli.main([
            "synthesize", "--kind", "identity", "--sigma-lo", "0.4",
            "--sigma-hi", "0.8", "--k", "6", "--eps", "0.05", "--variable-t",
            "--seed", "2", "--schedule-out", str(sched),
            "--report-out", str(rep)])
        assert code == 0
        schedules.append(sched.read_bytes())
        d = json.loads(rep.read_text())
        d.pop("timing")
        d["config"].pop("schedule_out")
        reports.append(json.dumps(d, sort_keys=True))
    assert schedules[0] == schedules[1]
    assert reports[0] == reports[1]
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5, 0.6]))
    sim_reports = []
    for tag in ("x", "y"):
        rep = tmp_path / "sim.json"
        code = cli.main([
            "simulate", "--matrix", str(m), "--schedule",
            str(tmp_path / "s-x.txt"), "--kind", "identity",
            "--sigma-lo", "0.4", "--sigma-hi", "0.8", "--eps", "0.05",
            "--report-out", str(rep)])
        assert code == 0
        d = json.loads(rep.read_text())
        d.pop("timing")
        sim_reports.append(json.dumps(d, sort_keys=True))
    assert sim_reports[0] == sim_reports[1]
