import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hsvt import applications, compiler, embedding, linalg, protocol, targets
from hsvt.compiler import PhaseSchedule, SolverOptions
from hsvt.errors import (ConvergenceError, GeneratorError, InvalidInputError,
                         NormalizationError, PreconditionError,
                         SingularInversionError, ZeroProbabilitySignal)

from conftest import count_calls, random_contraction, random_state, same_floats


# -- apply_matrix ------------------------------------------------------------

def test_apply_identity_is_certain(rng):
    psi = random_state(rng, 3)
    res = applications.apply_matrix(np.eye(3), psi)
    assert res.success_prob == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(res.state - psi) < 1e-10
    assert res.amplification == 1


def test_apply_matches_direct_product(rng):
    a = random_contraction(rng, 4)
    psi = random_state(rng, 4)
    res = applications.apply_matrix(a, psi)
    direct = a @ psi
    p = float(np.real(np.vdot(direct, direct)))
    assert res.success_prob == pytest.approx(p, abs=1e-12)
    assert np.linalg.norm(res.state - direct / np.linalg.norm(direct)) < 1e-10


def test_apply_annihilated_state_raises():
    a = np.diag([0.5, 0.0])
    with pytest.raises(ZeroProbabilitySignal):
        applications.apply_matrix(a, [0.0, 1.0])


def test_apply_rejects_unnormalized(rng):
    with pytest.raises(InvalidInputError):
        applications.apply_matrix(np.eye(2), [1.0, 1.0])


def test_apply_protocol_backend_agrees(rng):
    a = random_contraction(rng, 3, lo=0.45, hi=0.75)
    psi = random_state(rng, 3)
    exact = applications.apply_matrix(a, psi)
    prot = applications.apply_matrix(a, psi, backend="protocol", eps=1e-3,
                                     domain=(0.4, 0.8))
    assert abs(prot.success_prob - exact.success_prob) < 1e-2
    assert np.linalg.norm(prot.state - exact.state) < 1e-2


def test_amplification_rounds():
    assert applications.amplification_rounds(1.0) == 1
    assert applications.amplification_rounds(0.01) == int(np.ceil(np.pi / 0.4))
    with pytest.raises(ZeroProbabilitySignal):
        applications.amplification_rounds(0.0)


# -- power cascade -----------------------------------------------------------

def test_cascade_scalar_block_norms():
    a = 0.6 * np.eye(1)
    state, final_prob = applications.power_cascade(a, [1.0], 3)
    assert final_prob == pytest.approx(0.6 ** 6, abs=1e-12)
    for k in range(3):
        want = (1 - 0.36) * 0.36 ** k
        got = float(np.real(np.vdot(state.block(k), state.block(k))))
        assert got == pytest.approx(want, abs=1e-12)
    assert state.total_norm_sq() == pytest.approx(1.0, abs=1e-12)


# n around powers of two: the cascade's carried powers double per pass
@pytest.mark.parametrize("d", (1, 3))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 7, 8, 9, 64, 65))
def test_cascade_blocks_carry_powers(rng, n, d):
    a = random_contraction(rng, d)
    psi = random_state(rng, d)
    state, final_prob = applications.power_cascade(a, psi, n)
    s = linalg.sqrt_psd(np.eye(d) - a.conj().T @ a)
    for k in range(n):
        want = s @ np.linalg.matrix_power(a, k) @ psi
        assert np.linalg.norm(state.block(k) - want) < 1e-10
    last = np.linalg.matrix_power(a, n) @ psi
    assert np.linalg.norm(state.block(n) - last) < 1e-10
    assert final_prob == pytest.approx(float(np.real(np.vdot(last, last))),
                                       abs=1e-12)


@pytest.mark.parametrize("n", (5, 65))
def test_cascade_is_isometry(rng, n):
    a = random_contraction(rng, 2)
    psi = random_state(rng, 2)
    state, _ = applications.power_cascade(a, psi, n)
    assert state.total_norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_cascade_single_step_reduces_to_apply(rng):
    a = random_contraction(rng, 3)
    psi = random_state(rng, 3)
    state, final_prob = applications.power_cascade(a, psi, 1)
    res = applications.apply_matrix(a, psi)
    assert final_prob == pytest.approx(res.success_prob, abs=1e-12)
    carried = state.block(1)
    assert np.linalg.norm(carried / np.linalg.norm(carried) - res.state) < 1e-10


def counting(monkeypatch, module, name):
    """Wrap module.name so each call is counted; returns the list of calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_protocol_cascade_simulates_once(rng, monkeypatch):
    a = random_contraction(rng, 2, lo=0.45, hi=0.75)
    psi = random_state(rng, 2)
    calls = counting(monkeypatch, protocol, "_protocol_pairs")
    state, _ = applications.power_cascade(a, psi, 50, backend="protocol",
                                          domain=(0.4, 0.8))
    assert len(calls) == 1
    want = np.linalg.matrix_power(a, 50) @ psi
    assert np.linalg.norm(state.block(50) - want) < 50 * 1e-3


def test_cascade_rejects_rectangular(rng):
    with pytest.raises(InvalidInputError):
        applications.power_cascade(random_contraction(rng, 3, 2), [1, 0, 0], 2)


# -- ODE ---------------------------------------------------------------------

def test_ode_zero_generator(rng):
    psi = random_state(rng, 2)
    prob = applications.OdeProblem(b=np.zeros((2, 2)), dt=0.1, steps=3,
                                   psi0=psi)
    _, final = applications.ode_solve(prob)
    assert np.linalg.norm(final - psi) < 1e-12


def test_ode_scalar_decay_exact():
    prob = applications.OdeProblem(b=[[-1.0]], dt=0.01, steps=100, psi0=[1.0])
    _, final = applications.ode_solve(prob)
    assert abs(final[0]) == pytest.approx(0.99 ** 100, abs=1e-12)
    assert abs(abs(final[0]) - np.exp(-1.0)) < 2e-3


def test_ode_rejects_expanding_generator():
    with pytest.raises(GeneratorError) as exc:
        applications.ode_solve(
            applications.OdeProblem(b=[[0.5]], dt=0.1, steps=2, psi0=[1.0]))
    assert exc.value.worst_eig == pytest.approx(1.0)


def test_ode_matches_euler_iteration(rng):
    b = rng.normal(size=(3, 3)); b = b - b.T - 2.0 * np.eye(3)
    psi = random_state(rng, 3)
    prob = applications.OdeProblem(b=b, dt=0.05, steps=8, psi0=psi)
    _, final = applications.ode_solve(prob)
    want = np.linalg.matrix_power(np.eye(3) + 0.05 * b, 8) @ psi
    assert np.linalg.norm(final - want) < 1e-10


def count_decompositions(monkeypatch):
    """Count the SVDs numpy takes, a spectral norm's included."""
    calls = count_calls(monkeypatch, np.linalg, ("svd",))
    norm = np.linalg.norm

    def counted_norm(x, ord=None, *args, **kwargs):
        calls["svd"] += np.ndim(x) == 2 and ord in (2, -2)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return calls


def test_exact_ode_and_history_decompose_a_once(rng, monkeypatch):
    b = rng.normal(size=(3, 3)); b = b - b.T - 2.0 * np.eye(3)
    a = random_contraction(rng, 3, lo=0.3, hi=0.7)
    psi = random_state(rng, 3)
    calls = count_decompositions(monkeypatch)
    applications.ode_solve(applications.OdeProblem(b=b, dt=0.01, steps=10, psi0=psi))
    assert calls == {"svd": 1}
    applications.history_state(a, psi, 3)
    assert calls == {"svd": 2}


def test_exact_history_reads_s_off_the_svd(rng, monkeypatch):
    a = random_contraction(rng, 3, lo=0.3, hi=0.7)
    psi = random_state(rng, 3)
    calls = count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "inv"))
    applications.history_state(a, psi, 3)
    assert calls == {"eigh": 0, "eigvalsh": 0, "inv": 0}


def test_protocol_history_takes_one_svd(rng, monkeypatch):
    a = random_contraction(rng, 2, lo=0.4, hi=0.6)
    psi = random_state(rng, 2)
    applications.history_state(a, psi, 2, backend="protocol", eps=1e-2)
    calls = count_calls(monkeypatch, linalg, ("svd",))
    applications.history_state(a, psi, 2, backend="protocol", eps=1e-2)
    assert calls == {"svd": 1}


def test_ode_builds_one_unitary(rng, monkeypatch):
    b = rng.normal(size=(3, 3)); b = b - b.T - 2.0 * np.eye(3)
    psi = random_state(rng, 3)
    calls = counting(monkeypatch, protocol, "_pair_unitary")
    applications.ode_solve(applications.OdeProblem(b=b, dt=0.01, steps=100, psi0=psi))
    assert len(calls) == 1


def conservative_ode(rate):
    """Ten steps of a rotation generator at dt 0.01: I + B dt has
    sigma_max = sqrt(1 + (0.01 rate)^2), just above 1."""
    return applications.OdeProblem(b=[[0.0, rate], [-rate, 0.0]], dt=0.01,
                                   steps=10, psi0=[1.0, 0.0])


def test_exact_ode_admits_sigma_max_within_the_embedding_slack():
    prob = conservative_ode(1e-3)          # sigma_max - 1 = 5e-11
    _, final = applications.ode_solve(prob)
    want = np.linalg.matrix_power(prob.euler_matrix(), prob.steps) @ prob.psi0
    assert np.linalg.norm(final - want) <= prob.steps * embedding.SIGMA_MAX_SLACK
    res = applications.apply_matrix(np.diag([1.0 + 5e-11, 0.5]), [1.0, 0.0])
    assert res.success_prob == pytest.approx(1.0, abs=1e-9)


def test_ode_refuses_sigma_max_beyond_the_slack_to_twelve_digits():
    # sigma_max - 1 = 2e-10, which six digits print as "1 > 1"
    with pytest.raises(GeneratorError, match=r"value 1\.0000000002 > 1;"):
        applications.ode_solve(conservative_ode(2e-3))


# -- history state -----------------------------------------------------------

def test_history_scalar_geometric():
    res = applications.history_state(0.6 * np.eye(1), [1.0], 2)
    want = np.array([1.0, 0.6, 0.36])
    want = want / np.linalg.norm(want)
    assert np.linalg.norm(np.abs(res.history) - want) < 1e-10


def test_history_matches_direct_sum(rng):
    a = random_contraction(rng, 3, lo=0.3, hi=0.7)
    psi = random_state(rng, 3)
    n = 4
    res = applications.history_state(a, psi, n)
    want = np.concatenate(
        [np.linalg.matrix_power(a, k) @ psi for k in range(n + 1)])
    want = want / np.linalg.norm(want)
    # global phase of the scaling constant is real positive, so compare direct
    assert np.linalg.norm(res.history - want) < 1e-9


def test_history_kappa_and_probability(rng):
    a = random_contraction(rng, 2, lo=0.3, hi=0.7)
    psi = random_state(rng, 2)
    res = applications.history_state(a, psi, 3)
    s = np.linalg.eigvalsh(
        linalg.sqrt_psd(np.eye(2) - a.conj().T @ a))
    assert res.kappa_tilde == pytest.approx(s[-1] / s[0], abs=1e-8)
    assert 0.0 < res.success_prob <= 1.0 + 1e-12


def test_history_rejects_unit_singular_value():
    with pytest.raises(SingularInversionError):
        applications.history_state(np.eye(2), [1.0, 0.0], 2)


def test_history_refuses_an_overflowing_state_before_any_warning(monkeypatch):
    calls = count_calls(monkeypatch, linalg, ("svd",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="squared norm overflows"):
            applications.history_state(0.5 * np.eye(2), [1e200, 0], 2)
    assert calls == {"svd": 0}


def test_history_protocol_backend_agrees(rng):
    a = random_contraction(rng, 2, lo=0.4, hi=0.6)
    psi = random_state(rng, 2)
    exact = applications.history_state(a, psi, 2)
    prot = applications.history_state(a, psi, 2, backend="protocol", eps=1e-3)
    assert np.linalg.norm(prot.history - exact.history) < 1e-2
    assert prot.kappa_tilde == pytest.approx(exact.kappa_tilde, abs=1e-10)


def test_history_protocol_error_scales_with_eps(rng):
    # Each compiled block is within eps of its target on the domain.  Block k
    # of the cascade passes through k + 1 of them and then the inversion, so
    # it is off by at most (k + 2) eps, and the last block by n eps; the
    # normalization at most doubles the error over the raw norm sqrt(p).
    a = random_contraction(rng, 2, lo=0.4, hi=0.6)
    psi = random_state(rng, 2)
    n, eps = 2, 1e-2
    exact = applications.history_state(a, psi, n)
    prot = applications.history_state(a, psi, n, backend="protocol", eps=eps)
    raw = eps * np.sqrt(sum((k + 2) ** 2 for k in range(n)) + n ** 2)
    assert np.linalg.norm(prot.history - exact.history) <= (
        2 * raw / np.sqrt(prot.success_prob))


def test_history_protocol_cascade_runs_on_the_default_domain():
    # sigma = 0.05 is inside sqrt(I - Ad A)'s inversion domain but outside
    # the cascade's compiled one
    with pytest.raises(PreconditionError):
        applications.history_state(np.diag([0.05, 0.5]), [1.0, 0.0], 2,
                                   backend="protocol")


_PSI = np.array([1.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda backend: applications.apply_matrix(np.diag([0.5, 0.6]), _PSI, backend=backend),
    lambda backend: applications.power_cascade(np.diag([0.5, 0.6]), _PSI, 2,
                                               backend=backend),
    lambda backend: applications.ode_solve(
        applications.OdeProblem(b=-np.eye(2), dt=0.1, steps=2, psi0=_PSI), backend=backend),
    lambda backend: applications.history_state(np.diag([0.5, 0.6]), _PSI, 2,
                                               backend=backend),
], ids=["apply_matrix", "power_cascade", "ode_solve", "history_state"])
def test_unknown_backend_raises_invalid_input(call):
    with pytest.raises(InvalidInputError, match="unknown backend 'gpu'"):
        call("gpu")


# -- inverse block encoding pipeline -----------------------------------------

def test_inverse_block_encode_scalar():
    sch, result, target = applications.inverse_block_encode(
        [[0.5]], 1e-2, domain=(0.4, 0.8))
    u = result.unitary
    assert abs(u[1, 0] - 0.5j) <= 1e-2
    assert abs(u[0, 0] - 1j * np.sqrt(0.75)) <= 1e-2
    assert result.achieved_eps <= 1e-2
    assert sch.degree >= 1


def test_inverse_block_encode_rejects_rectangular(rng):
    with pytest.raises(PreconditionError):
        applications.inverse_block_encode(random_contraction(rng, 3, 2), 1e-2)


def test_inverse_block_encode_rejects_out_of_domain():
    with pytest.raises(PreconditionError):
        applications.inverse_block_encode(np.diag([0.5, 0.95]), 1e-2,
                                          domain=(0.4, 0.8))
    with pytest.raises(PreconditionError):
        applications.inverse_block_encode(np.zeros((2, 2)), 1e-2)


def test_inverse_block_encode_and_verify_share_one_domain_slack():
    # 5e-10 above the domain: inside the slack for the encode and for verify
    a = np.diag([0.8 + 5e-10, 0.5])
    _, result, target = applications.inverse_block_encode(a, 1e-2, domain=(0.4, 0.8))
    record = protocol.verify(result, target, 1e-2)
    assert [row["in_domain"] for row in record["per_subspace"]] == [True, True]


# -- compiled_schedule -------------------------------------------------------

def test_compiled_schedule_memo_keys_on_all_options():
    f = targets.identity(0.4, 0.8)
    default = applications.compiled_schedule(f, 0.05)
    other = SolverOptions(variable_t=True, metric="corner", max_nfev=10)
    assert applications.compiled_schedule(f, 0.05, other) is not default
    same = SolverOptions(target_eps=0.05, variable_t=True)
    assert applications.compiled_schedule(f, 0.05, same) is default


def test_compiled_schedule_does_not_memoize_failure(monkeypatch):
    report = SimpleNamespace(converged=False, max_residual=1.0)
    schedule = PhaseSchedule(steps=())
    monkeypatch.setattr(applications.compiler, "synthesize_to_accuracy",
                        lambda *args, **kwargs: (schedule, report))
    f = targets.identity(0.3, 0.6)
    with pytest.raises(ConvergenceError):
        applications.compiled_schedule(f, 0.07)
    report.converged = True
    assert applications.compiled_schedule(f, 0.07) is schedule


# -- one decomposition of A per call -----------------------------------------

DOMAIN = (0.4, 0.8)
ONE_SVD_CALLS = {
    # the target's two sqrt_psd calls each take one hermitian_eig
    "inverse_block_encode": (
        lambda a, psi: applications.inverse_block_encode(a, 1e-2, domain=DOMAIN), 2),
    "power_cascade": (
        lambda a, psi: applications.power_cascade(a, psi, 3, backend="protocol",
                                                  eps=1e-2, domain=DOMAIN), 0),
    "apply_matrix": (
        lambda a, psi: applications.apply_matrix(a, psi, backend="protocol",
                                                 eps=1e-2, domain=DOMAIN), 0),
    "noise_sweep": (
        lambda a, psi: protocol.noise_sweep(
            a, applications.compiled_schedule(targets.identity(*DOMAIN), 1e-2),
            [1e-3, 2e-3], 3), 0),
}


@pytest.mark.parametrize("name", sorted(ONE_SVD_CALLS))
def test_application_call_decomposes_a_once(rng, monkeypatch, name):
    call, eigs = ONE_SVD_CALLS[name]
    a = random_contraction(rng, 3, lo=0.45, hi=0.75)
    psi = random_state(rng, 3)
    call(a, psi)                # compiles the schedule outside the count
    calls = count_calls(monkeypatch, linalg, ("svd", "hermitian_eig"))
    call(a, psi)
    assert calls == {"svd": 1, "hermitian_eig": eigs}


@pytest.mark.parametrize("d", range(1, 17))
def test_inverse_block_encode_equals_a_standalone_simulation(rng, d):
    a = random_contraction(rng, d, lo=0.45, hi=0.75)
    schedule, result, target = applications.inverse_block_encode(a, 1e-2,
                                                                  domain=DOMAIN)
    want_target = protocol.build_target_unitary(a, targets.identity(*DOMAIN))
    want = protocol.simulate_protocol(a, schedule, target=want_target)
    assert same_floats(result.unitary, want.unitary)
    assert same_floats(target.matrix, want_target.matrix)
    assert result.achieved_eps == want.achieved_eps


def test_domain_refusal_comes_before_the_normalization_check():
    a = np.diag([0.5, 1.5])
    with pytest.raises(PreconditionError):
        applications.inverse_block_encode(a, 1e-2)
    with pytest.raises(PreconditionError):
        applications.power_cascade(a, [1.0, 0.0], 2, backend="protocol")
    with pytest.raises(NormalizationError):
        applications.power_cascade(a, [1.0, 0.0], 2)


# -- the exact backend against the closed form -------------------------------

def rank_two(rng):
    u, s, vh = np.linalg.svd(random_contraction(rng, 4))
    return (u[:, :2] * s[:2]) @ vh[:2]


# name -> (A from rng, whether A is wide); the upper blocks of a wide A differ
# on the n - m right directions outside its pairs, where the exact backend
# carries the identity and the closed form i
ORACLE_BLOCKS = {
    "4x4": (lambda rng: random_contraction(rng, 4), False),
    "3x5": (lambda rng: random_contraction(rng, 5, 3), True),
    "5x2": (lambda rng: random_contraction(rng, 2, 5), False),
    "rank-2 4x4": (rank_two, False),
    "1x1": (lambda rng: random_contraction(rng, 1), False),
    "zero 3x3": (lambda rng: np.zeros((3, 3)), False),
    "zero 2x3": (lambda rng: np.zeros((2, 3)), True),
}


@pytest.mark.parametrize("name", sorted(ORACLE_BLOCKS))
def test_exact_blocks_equal_the_closed_form(rng, name):
    make, wide = ORACLE_BLOCKS[name]
    a = make(rng)
    n = a.shape[1]
    upper, lower = applications._left_blocks(a, "exact", 1e-3, DOMAIN)
    target = protocol.build_target_unitary(a, targets.identity(0.1, 0.9))
    want = -1j * target.matrix[:, :n]
    want_upper, want_lower = want[:n], want[n:]
    assert np.max(np.abs(lower - want_lower)) < 1e-14
    if not wide:
        assert np.max(np.abs(upper - want_upper)) < 1e-14


EXACT_CALLS = {
    "apply_matrix": lambda a, psi: applications.apply_matrix(a, psi),
    "power_cascade": lambda a, psi: applications.power_cascade(a, psi, 3),
    # I + B dt = A
    "ode_solve": lambda a, psi: applications.ode_solve(applications.OdeProblem(
        b=(a - np.eye(len(a))) / 0.1, dt=0.1, steps=3, psi0=psi)),
    "history_state": lambda a, psi: applications.history_state(a, psi, 3),
}


@pytest.mark.parametrize("name", sorted(EXACT_CALLS))
def test_exact_backend_takes_no_eigendecomposition(rng, monkeypatch, name):
    a = random_contraction(rng, 3, lo=0.3, hi=0.7)
    psi = random_state(rng, 3)
    calls = count_calls(monkeypatch, np.linalg, ("eigh",))
    EXACT_CALLS[name](a, psi)
    assert calls == {"eigh": 0}


# -- fixed costs of a call ---------------------------------------------------

@pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(0, np.nan),
                                 complex(np.inf, 0), complex(0, -np.inf)],
                         ids=["nan-re", "nan-im", "inf-re", "-inf-im"])
@pytest.mark.parametrize("call", ["encode", "cascade"])
def test_applications_refuse_a_non_finite_part_of_an_entry(bad, call):
    a = np.array([[0.5, 0.0], [0.0, bad]])
    with pytest.raises(InvalidInputError, match="A contains non-finite entries"):
        if call == "encode":
            applications.inverse_block_encode(a, 1e-3, domain=DOMAIN)
        else:
            applications.power_cascade(a, _PSI, 3, backend="protocol", domain=DOMAIN)


@pytest.mark.parametrize("backend", ["exact", "protocol"])
@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_cascade_blocks_are_one_array_of_rows(rng, backend, n):
    d = 3
    a = random_contraction(rng, d, lo=0.45, hi=0.75)
    state, p = applications.power_cascade(a, random_state(rng, d), n, backend=backend,
                                          domain=DOMAIN)
    assert isinstance(state.blocks, np.ndarray) and state.blocks.shape == (n + 1, d)
    for j in range(n + 1):
        assert same_floats(state.blocks[j], state.block(j))
    per_block = sum(float(np.real(np.vdot(b, b))) for b in state.blocks)
    assert abs(state.total_norm_sq() - per_block) <= 1e-15
    assert p == float(np.real(np.vdot(state.block(n), state.block(n))))


def test_encodes_on_one_domain_build_one_target(rng, monkeypatch):
    applications._domain_target.cache_clear()
    real = targets.TargetFunction.__post_init__
    built = []

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(targets.TargetFunction, "__post_init__", counted)
    for _ in range(2):
        a = random_contraction(rng, 2, lo=0.45, hi=0.75)
        applications.inverse_block_encode(a, 1e-3, domain=DOMAIN)
    assert len(built) == 1


@pytest.mark.parametrize("opts", [None, SolverOptions(variable_t=True, seed=0)],
                         ids=["default", "given"])
def test_compiled_schedule_hit_builds_no_options(monkeypatch, opts):
    f = targets.identity(*DOMAIN)
    first = applications.compiled_schedule(f, 1e-3, opts)
    calls = count_calls(monkeypatch, SolverOptions, ("__post_init__",))
    assert applications.compiled_schedule(f, 1e-3, opts) is first
    assert calls == {"__post_init__": 0}


def test_compiled_schedule_keys_a_new_eps(monkeypatch):
    # an eps other than the options' own still builds the options it keys on
    seen = []
    monkeypatch.setattr(applications, "_compile_memoized",
                        lambda f, opts: seen.append(opts))
    applications.compiled_schedule(targets.identity(*DOMAIN), 2e-3)
    assert seen == [SolverOptions(variable_t=True, target_eps=2e-3)]


@pytest.mark.parametrize("domain", [(0.9, 0.1), (0.0, 0.5), (0.2, 1.0)])
def test_an_invalid_domain_raises_on_every_call(rng, domain):
    a = random_contraction(rng, 2, lo=0.45, hi=0.75)
    for _ in range(2):
        with pytest.raises(InvalidInputError, match="domain must satisfy"):
            applications.inverse_block_encode(a, 1e-3, domain=domain)
        with pytest.raises(InvalidInputError, match="domain must satisfy"):
            applications.power_cascade(a, _PSI, 2, backend="protocol", domain=domain)


@pytest.mark.parametrize("dt", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_ode_refuses_a_bool_dt(dt):
    with pytest.raises(InvalidInputError, match="dt must be a number, got"):
        applications.OdeProblem(-np.eye(2), dt, 1, [1, 0])


# -- the left block column ---------------------------------------------------

# name -> A from rng; the protocol backend needs every sigma inside DOMAIN,
# which a rank-deficient A's zero singular values are not
COLUMN_BLOCKS = {
    "4x4": lambda rng: random_contraction(rng, 4, lo=0.45, hi=0.75),
    "3x5": lambda rng: random_contraction(rng, 5, 3, lo=0.45, hi=0.75),
    "rank-2 4x4": rank_two,
}


def column_pairs(h, backend):
    """The pairs each backend hands the assembly for the embedding h."""
    if backend == "exact":
        return compiler.reduced_target(np.minimum(h.svd.singulars, 1.0))
    schedule = applications.compiled_schedule(targets.identity(*DOMAIN), 1e-3)
    return protocol._protocol_pairs(h, schedule)


@pytest.mark.parametrize("backend", ["exact", "protocol"])
@pytest.mark.parametrize("name", sorted(COLUMN_BLOCKS))
def test_left_column_is_the_full_assembly_sliced(rng, name, backend):
    h = embedding.embed(COLUMN_BLOCKS[name](rng))
    pairs = column_pairs(h, backend)
    full = protocol._pair_unitary(h, *pairs)
    column = protocol._pair_unitary(h, *pairs, left_only=True)
    assert same_floats(column, full[:, :h.n])


def sliced_full_assembly(monkeypatch):
    """Make every assembly build the full unitary and hand the applications
    its first n columns: the reference for the left column."""
    real = protocol._pair_unitary
    monkeypatch.setattr(protocol, "_pair_unitary",
                        lambda h, pa, pb, left_only=False: real(h, pa, pb)[:, :h.n])


def column_outputs(name, a, psi, backend):
    """Every array and float an application returns on A and psi."""
    kw = dict(backend=backend, eps=1e-3, domain=DOMAIN)
    if name == "apply_matrix":
        r = applications.apply_matrix(a, psi, **kw)
        return [r.state, r.success_prob, r.amplification]
    if name == "power_cascade":
        state, p = applications.power_cascade(a, psi, 5, **kw)
        return [state.blocks, p]
    if name == "ode_solve":         # I + B dt = A
        problem = applications.OdeProblem(b=(a - np.eye(len(a))) / 0.1, dt=0.1,
                                          steps=5, psi0=psi)
        state, final = applications.ode_solve(problem, **kw)
        return [state.blocks, final]
    r = applications.history_state(a, psi, 3, eps=1e-2, backend=backend)
    return [r.history, r.success_prob, r.kappa_tilde, r.amplification]


# (A, application, backend): only apply_matrix takes a rectangular A, and
# the protocol backend refuses the rank-deficient A
COLUMN_CASES = [(name, call, backend)
                for name in sorted(COLUMN_BLOCKS)
                for call in ("apply_matrix", "power_cascade", "ode_solve", "history_state")
                for backend in ("exact", "protocol")
                if (name != "3x5" or call == "apply_matrix")
                and (backend == "exact" or not name.startswith("rank"))]


@pytest.mark.parametrize("name, call, backend", COLUMN_CASES,
                         ids=["-".join(case) for case in COLUMN_CASES])
def test_applications_equal_the_sliced_full_assembly(rng, monkeypatch, name, call,
                                                     backend):
    a = COLUMN_BLOCKS[name](rng)
    if call == "history_state":     # sigma_max well below 1
        a = 0.8 * a
    psi = random_state(rng, a.shape[1])
    got = column_outputs(call, a, psi, backend)
    sliced_full_assembly(monkeypatch)
    want = column_outputs(call, a, psi, backend)
    for x, y in zip(got, want):
        assert same_floats(np.asarray(x), np.asarray(y))
