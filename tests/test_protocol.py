import numpy as np
import pytest
import scipy.linalg as sla

from hsvt import applications, compiler, embedding, linalg, protocol, targets
from hsvt.compiler import PhaseSchedule
from hsvt.errors import CapError, InvalidInputError

from conftest import (conjugated_generator, count_calls, noise_sweep_oracle,
                      random_contraction, reduced_full_gap)


def make_schedule(rng, k, variable_t=False):
    phis = rng.uniform(-np.pi, np.pi, k)
    times = rng.uniform(0.3, 2.0, k) if variable_t else None
    return compiler.schedule_from_arrays(phis, times)


# -- target unitary ----------------------------------------------------------

def test_target_scalar_half():
    t = protocol.build_target_unitary([[0.5]], targets.identity(0.1, 0.9))
    want = 1j * np.array([[np.sqrt(0.75), 0.5], [0.5, -np.sqrt(0.75)]])
    assert np.linalg.norm(t.matrix - want, 2) < 1e-14


def test_target_unitary_and_antihermitian(rng):
    for shape in ((3, 3), (2, 4), (4, 2)):
        a = random_contraction(rng, *shape)
        t = protocol.build_target_unitary(a, targets.identity(0.1, 0.9))
        u = t.matrix
        assert np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) < 1e-12
        assert np.linalg.norm(u + u.conj().T, 2) < 1e-12
        eigs = np.linalg.eigvals(t.matrix)
        assert np.max(np.abs(np.abs(eigs.imag) - 1)) < 1e-10
        assert np.max(np.abs(eigs.real)) < 1e-10


def test_target_lower_block_is_f_of_a(rng):
    a = random_contraction(rng, 3, 2)
    f = targets.scaled_power(2, 0.9, 0.1, 0.9)
    t = protocol.build_target_unitary(a, f)
    res = linalg.svd(np.asarray(a, dtype=complex))
    want = (res.left_vectors * f.eval_analytic(res.singulars)) \
        @ res.right_vectors.conj().T
    n = a.shape[1]
    assert np.linalg.norm(t.matrix[n:, :n] - 1j * want, 2) < 1e-12


def test_target_cap_violation():
    with pytest.raises(CapError):
        protocol.build_target_unitary([[0.5]],
                                      targets.scaled_power(-1, 0.9, 0.3, 0.8))


def test_target_basis_covariance(rng):
    # U_f(V_L A V_R^dag) = diag(V_R, V_L) U_f(A) diag(V_R, V_L)^dag
    a = random_contraction(rng, 3, 2)           # 2 x 3
    f = targets.sine(0.1, 0.9)
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    w = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    t1 = protocol.build_target_unitary(w @ a @ q.conj().T, f).matrix
    d = sla.block_diag(q, w)
    t2 = d @ protocol.build_target_unitary(a, f).matrix @ d.conj().T
    assert np.linalg.norm(t1 - t2, 2) < 1e-10


# -- protocol simulation -----------------------------------------------------

def test_single_step_matches_exponential(rng):
    a = random_contraction(rng, 2, 3)
    sch = compiler.schedule_from_arrays([0.7], [1.3])
    res = protocol.simulate_protocol(a, sch)
    h = embedding.embed(a)
    g = conjugated_generator(h, 0.7)
    want = sla.expm(-1.3j * g)
    assert np.linalg.norm(res.unitary - want, 2) < 1e-12


def test_empty_schedule_is_identity(rng):
    a = random_contraction(rng, 3)
    res = protocol.simulate_protocol(a, PhaseSchedule(steps=()))
    assert np.linalg.norm(res.unitary - np.eye(6), 2) < 1e-14


def test_protocol_unitary(rng):
    a = random_contraction(rng, 3, 2)
    sch = make_schedule(rng, 6, variable_t=True)
    u = protocol.simulate_protocol(a, sch).unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(5), 2) < 1e-12


def test_zero_noise_is_bitwise_noiseless(rng):
    a = random_contraction(rng, 2)
    sch = make_schedule(rng, 5)
    clean = protocol.simulate_protocol(a, sch)
    noisy = protocol.simulate_protocol(
        a, sch, noise=protocol.ControlNoiseModel(0.0, seed=7))
    assert np.array_equal(clean.unitary, noisy.unitary)


def test_same_seed_same_noise(rng):
    a = random_contraction(rng, 2)
    sch = make_schedule(rng, 5)
    nm = protocol.ControlNoiseModel(1e-3, seed=42)
    u1 = protocol.simulate_protocol(a, sch, noise=nm).unitary
    u2 = protocol.simulate_protocol(a, sch, noise=nm).unitary
    assert np.array_equal(u1, u2)


def test_noise_model_rejects_negative_eta():
    with pytest.raises(InvalidInputError):
        protocol.ControlNoiseModel(-0.1)


@pytest.mark.parametrize("eta", [np.inf, np.nan])
def test_noise_model_rejects_non_finite_eta(eta):
    with pytest.raises(InvalidInputError, match="finite"):
        protocol.ControlNoiseModel(eta)


@pytest.mark.parametrize("eta", [np.inf, np.nan])
def test_noise_sweep_rejects_non_finite_eta(rng, eta):
    a = random_contraction(rng, 2)
    with pytest.raises(InvalidInputError, match="finite"):
        protocol.noise_sweep(a, make_schedule(rng, 3), [1e-3, eta], trials=2)


# -- verification and consistency --------------------------------------------

def test_achieved_eps_per_pair_equals_the_operator_distance(rng):
    # the largest gap measured on such cases (20 seeds) is 1.8e-15
    u, _, vh = np.linalg.svd(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rank_deficient = (u * [0.8, 0.4, 0.0, 0.0]) @ vh
    for a in (random_contraction(rng, 4), random_contraction(rng, 3, 5),
              random_contraction(rng, 5, 2), rank_deficient, [[0.6]]):
        for f in (targets.identity(0.1, 0.9), targets.inverse_sqrt_complement(0.3)):
            for k in (1, 7, 16):
                sch = make_schedule(rng, k, variable_t=True)
                target = protocol.build_target_unitary(a, f)
                res = protocol.simulate_protocol(a, sch, target=target)
                want = linalg.op_distance(res.unitary, target.matrix)
                assert abs(res.achieved_eps - want) <= 1e-14


def test_achieved_eps_refuses_a_target_of_another_a(rng):
    a, other = random_contraction(rng, 3), random_contraction(rng, 3)
    sch = make_schedule(rng, 4)
    f = targets.identity(0.1, 0.9)
    for b in (other, other[:2]):
        with pytest.raises(InvalidInputError):
            protocol.simulate_protocol(a, sch, target=protocol.build_target_unitary(b, f))
    # the same A embedded apart is the same target
    res = protocol.simulate_protocol(a, sch, target=protocol.build_target_unitary(a.copy(), f))
    assert res.achieved_eps is not None


def test_verify_refuses_a_target_of_another_a(rng):
    a = random_contraction(rng, 3)
    result = protocol.simulate_protocol(a, make_schedule(rng, 4))
    f = targets.identity(0.1, 0.9)
    for b in (random_contraction(rng, 3), a[:2]):
        with pytest.raises(InvalidInputError):
            protocol.verify(result, protocol.build_target_unitary(b, f), 1e-3)
    # the same A embedded apart is the same target
    record = protocol.verify(result, protocol.build_target_unitary(a.copy(), f), 1e-3)
    assert len(record["per_subspace"]) == 3


def test_verify_perfect_match(rng):
    a = random_contraction(rng, 2)
    t = protocol.build_target_unitary(a, targets.identity(0.1, 0.9))
    fake = protocol.ProtocolResult(unitary=t.matrix.copy(), embedding=t.embedding)
    rec = protocol.verify(fake, t, 1e-3)
    assert rec["passed"]
    assert rec["op_distance"] < 1e-14
    assert all(s["residual"] < 1e-12 for s in rec["per_subspace"])
    assert all(s["in_domain"] for s in rec["per_subspace"])


def test_verify_detects_perturbation(rng):
    a = random_contraction(rng, 2)
    t = protocol.build_target_unitary(a, targets.identity(0.1, 0.9))
    u = t.matrix.copy()
    u[0, 0] += 1e-2
    fake = protocol.ProtocolResult(unitary=u, embedding=t.embedding)
    rec = protocol.verify(fake, t, 1e-3)
    assert not rec["passed"]
    assert rec["op_distance"] >= 1e-2


def test_verify_flags_out_of_domain_sigma():
    a = np.diag([0.5, 0.95])
    t = protocol.build_target_unitary(a, targets.identity(0.3, 0.8))
    fake = protocol.ProtocolResult(unitary=t.matrix, embedding=t.embedding)
    rec = protocol.verify(fake, t, 1e-3)
    flags = {round(s["sigma"], 6): s["in_domain"] for s in rec["per_subspace"]}
    assert flags[0.5] and not flags[0.95]


def test_reduced_matches_full_restriction(rng):
    # the 2x2 compiler model must agree with the full simulator on every
    # invariant subspace, for square and rectangular blocks alike
    for shape in ((3, 3), (2, 4)):
        a = random_contraction(rng, *shape)
        sch = make_schedule(rng, 7, variable_t=True)
        res = protocol.simulate_protocol(a, sch)
        assert reduced_full_gap(res, sch) < 1e-12


VERIFY_INPUTS = {
    "square": lambda rng: random_contraction(rng, 3),
    "wide": lambda rng: random_contraction(rng, 5, 3),          # 3 x 5
    "tall": lambda rng: random_contraction(rng, 2, 5),          # 5 x 2
    "rank-deficient": lambda rng: random_contraction(rng, 4) @ np.diag(
        [1.0, 1.0, 0.0, 0.0]),
    "scalar": lambda rng: np.array([[0.5]]),
    "zero": lambda rng: np.zeros((2, 3)),
}


@pytest.mark.parametrize("name", sorted(VERIFY_INPUTS))
def test_verify_pairs_equal_a_per_pair_loop(rng, name):
    a = VERIFY_INPUTS[name](rng)
    sch = make_schedule(rng, 6, variable_t=True)
    target = protocol.build_target_unitary(a, targets.identity(0.1, 0.9))
    result = protocol.simulate_protocol(a, sch)
    res = linalg.svd(a)
    m, n = a.shape
    want = []
    for j, sigma in enumerate(res.singulars):
        basis = np.zeros((n + m, 2), dtype=complex)
        basis[:n, 0] = res.right_vectors[:, j]
        basis[n:, 1] = res.left_vectors[:, j]
        diff = basis.conj().T @ (result.unitary - target.matrix) @ basis
        want.append({"sigma": float(sigma),
                     "residual": float(np.linalg.norm(diff, 2)),
                     "in_domain": bool(0.1 - targets.DOMAIN_SLACK <= sigma
                                       <= 0.9 + targets.DOMAIN_SLACK)})
    assert protocol.verify(result, target, 1e-3)["per_subspace"] == want


def test_verify_and_gap_take_no_decomposition_of_a(rng, monkeypatch):
    runs = []
    for shape in ((3, 3), (2, 4)):
        a = random_contraction(rng, *shape)
        sch = make_schedule(rng, 5, True)
        runs.append((protocol.simulate_protocol(a, sch),
                     protocol.build_target_unitary(a, targets.identity(0.1, 0.9)), sch))
    calls = count_calls(monkeypatch, linalg, ("svd",))
    for result, target, sch in runs:
        protocol.verify(result, target, 1e-3)
        reduced_full_gap(result, sch)
    assert calls == {"svd": 0}


def test_simulate_takes_one_svd_and_no_eigendecomposition(rng, monkeypatch):
    calls = count_calls(monkeypatch, linalg, ("svd", "hermitian_eig"))
    for shape in ((3, 3), (2, 4)):
        sch = make_schedule(rng, 7, variable_t=True)
        protocol.simulate_protocol(random_contraction(rng, *shape), sch,
                                   noise=protocol.ControlNoiseModel(1e-3))
    assert calls == {"svd": 2, "hermitian_eig": 0}


def test_noise_sweep_zero_eta_row(rng):
    a = random_contraction(rng, 2)
    sch = make_schedule(rng, 4)
    table = protocol.noise_sweep(a, sch, [0.0, 1e-3], trials=5)
    assert table[0]["mean_distance"] == 0.0
    assert table[1]["mean_distance"] > 0.0
    assert table[1]["trials"] == 5


def test_noise_sweep_deterministic(rng):
    a = random_contraction(rng, 2)
    sch = make_schedule(rng, 4)
    t1 = protocol.noise_sweep(a, sch, [1e-3], trials=3, seed=5)
    t2 = protocol.noise_sweep(a, sch, [1e-3], trials=3, seed=5)
    assert t1 == t2


def test_noise_sweep_matches_full_space_oracle(rng):
    u, _, vh = np.linalg.svd(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rank_deficient = (u * [0.7, 0.3, 0.0]) @ vh
    etas = [0.0, 1e-3, 0.1]
    for a in (random_contraction(rng, 3), random_contraction(rng, 4, 2),
              random_contraction(rng, 2, 4), rank_deficient, [[0.6]]):
        sch = make_schedule(rng, 6, variable_t=True)
        table = protocol.noise_sweep(a, sch, etas, trials=5, seed=2)
        assert table[0]["mean_distance"] == 0.0 and table[0]["max_distance"] == 0.0
        for row, (mean, worst) in zip(table, noise_sweep_oracle(a, sch, etas, 5, seed=2)):
            assert row["mean_distance"] == pytest.approx(mean, abs=1e-12)
            assert row["max_distance"] == pytest.approx(worst, abs=1e-12)


@pytest.mark.parametrize("opts", [compiler.SolverOptions(target_eps=1e-3), None],
                         ids=["fixed-t", "variable-t"])
@pytest.mark.parametrize("sigma", [0.45, 0.75])
def test_noise_sweep_mean_matches_the_first_order_gain(opts, sigma):
    # To first order in eta a run with times t_k (1 + eta z_k) moves by
    # eta sum_k z_k t_k dU/dt_k.  At singular value sigma, dU/dt_k =
    # -i sigma U n_k.s, where n_k.s is step k's generator conjugated by the
    # steps before it: a unit vector n_k in the Pauli basis.  So
    # ||U' - U||_2 = eta sigma |v|, v = sum_k z_k t_k n_k, a Gaussian
    # vector in R^3 of covariance C = sum_k t_k^2 n_k n_k^T, trace ||t||^2.
    # E|v| / ||t|| = E sqrt(sum_i l_i g_i^2) (l_i the eigenvalues of
    # C / ||t||^2, g_i iid N(0, 1)) is concave in l on the simplex: it lies
    # between its value at a vertex, E|g| = sqrt(2/pi) = 0.798, and at the
    # centre, E|g|_3 / sqrt 3 = sqrt(8/(3 pi)) = 0.921.  |v| / ||t|| has a
    # standard deviation of at most 0.61, so 4000 trials leave a standard
    # error under 0.01 on the mean: the band is that range widened by four
    # standard errors, [0.76, 0.96], and rounded out to 0.97.
    schedule = applications.compiled_schedule(targets.identity(0.4, 0.8), 1e-3, opts)
    eta = 1e-5
    row = protocol.noise_sweep([[sigma]], schedule, [eta], trials=4000, seed=7)[0]
    gain = sigma * np.linalg.norm(schedule.times())
    assert 0.76 <= row["mean_distance"] / (eta * gain) <= 0.97


def loop_noise_sweep(a, schedule, etas, trials, seed=0):
    """noise_sweep's table with one noise model, and so one generator, per
    (eta, trial) pair: the reference for the shared draws."""
    sigmas = embedding.embed(a).svd.singulars
    phis, times = schedule.phis(), schedule.times()
    a0, b0 = protocol._reduced_corners(sigmas, phis, times)
    table = []
    for eta in etas:
        factors = np.stack([protocol.ControlNoiseModel(eta, seed + i).time_factors(len(phis))
                            for i in range(trials)])
        an, bn = protocol._reduced_corners(sigmas, phis, times * factors)
        dists = np.sqrt(np.abs(an - a0) ** 2 + np.abs(bn - b0) ** 2).max(axis=1)
        table.append({"eta": float(eta), "mean_distance": float(np.mean(dists)),
                      "max_distance": float(np.max(dists)), "trials": trials})
    return table


@pytest.mark.parametrize("trials", [1, 5])
def test_noise_sweep_equals_the_per_trial_loop(rng, trials):
    u, _, vh = np.linalg.svd(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rank_deficient = (u * [0.7, 0.3, 0.0]) @ vh
    etas = [0.0, 1e-3, 1e-3, 0.1]
    for a in (random_contraction(rng, 3), random_contraction(rng, 3, 5),
              random_contraction(rng, 5, 2), rank_deficient, [[0.6]]):
        sch = make_schedule(rng, 6, variable_t=True)
        table = protocol.noise_sweep(a, sch, etas, trials=trials, seed=4)
        assert table == loop_noise_sweep(a, sch, etas, trials, seed=4)
        assert table[1] == table[2]


@pytest.mark.parametrize("k", [1, 16, 37])
def test_one_run_tree_and_noise_batch_chain_agree(rng, k):
    # a single run multiplies its steps as a tree, the noise batch as a chain
    sch = make_schedule(rng, k, variable_t=True)
    sigmas = rng.uniform(0.0, 1.0, 9)
    u = compiler.reduced_product(sch, sigmas)
    a, b = protocol._reduced_corners(sigmas, sch.phis(), sch.times())
    assert np.max(np.abs(u[:, 0, 0] - a[0])) < 1e-14
    assert np.max(np.abs(u[:, 0, 1] - b[0])) < 1e-14


def test_noise_sweep_builds_one_generator_per_trial(rng, monkeypatch):
    a = random_contraction(rng, 3)
    sch = make_schedule(rng, 5)
    calls = count_calls(monkeypatch, np.random, ("default_rng",))
    assert len(protocol.noise_sweep(a, sch, [1e-3, 2e-3, 4e-3], trials=4)) == 3
    assert calls == {"default_rng": 4}
    assert protocol.noise_sweep(a, sch, [], trials=4) == []
    assert calls == {"default_rng": 4}
    with pytest.raises(InvalidInputError):
        protocol.noise_sweep(a, sch, [1e-3, -1.0], trials=4)
    assert calls == {"default_rng": 4}


# seed runs across the word boundaries of SeedSequence's entropy: 2^32,
# 2^64 and 2^128, and seeds of one and ten words side by side
SEED_RUNS = {
    "small": range(0, 40),
    "2^32": range(2**32 - 20, 2**32 + 20),
    "2^64": range(2**64 - 20, 2**64 + 20),
    "2^128": range(2**128 - 20, 2**128 + 20),
    "0-and-2^300": [0, 2**300, 5, 2**300 + 1],
}


@pytest.mark.parametrize("seeds", SEED_RUNS.values(), ids=SEED_RUNS.keys())
def test_standard_normals_equal_one_default_rng_per_seed(seeds):
    for count in (0, 1, 9):
        want = np.stack([np.random.default_rng(s).standard_normal(count) for s in seeds])
        got = protocol._standard_normals(seeds, count)
        assert got.shape == want.shape and np.array_equal(got, want)


def test_noise_sweep_table_is_pinned():
    # exact floats of this sweep, whose seeds cross 2^64: a change that moves
    # the noise law's draws or the distances on purpose updates these
    a = [[0.5, 0.2], [0.1, 0.6]]
    schedule = compiler.schedule_from_arrays([0.3, -1.1, 2.0, 0.7], [0.9, 1.3, 0.4, 2.2])
    table = protocol.noise_sweep(a, schedule, [0.0, 1e-3, 0.05], 6, seed=2**64 - 3)
    assert table == [
        {"eta": 0.0, "mean_distance": 0.0, "max_distance": 0.0, "trials": 6},
        {"eta": 0.001, "mean_distance": 0.0013030337511098164,
         "max_distance": 0.0018324284498420864, "trials": 6},
        {"eta": 0.05, "mean_distance": 0.06489266913889578,
         "max_distance": 0.09154415049265634, "trials": 6},
    ]


def test_noise_rejects_negative_seed(rng):
    with pytest.raises(InvalidInputError):
        protocol.ControlNoiseModel(1e-3, seed=-1)
    with pytest.raises(InvalidInputError):
        protocol.noise_sweep(random_contraction(rng, 2), make_schedule(rng, 2),
                             [1e-3], trials=2, seed=-1)


ZERO_SIZE_ENTRIES = {
    "embed": embedding.embed,
    "build_target_unitary":
        lambda a: protocol.build_target_unitary(a, targets.identity(0.1, 0.9)),
    "simulate_protocol":
        lambda a: protocol.simulate_protocol(a, PhaseSchedule(steps=())),
    "noise_sweep":
        lambda a: protocol.noise_sweep(a, PhaseSchedule(steps=()), [1e-3], 2),
}


@pytest.mark.parametrize("shape", [(0, 0), (0, 2), (2, 0)])
@pytest.mark.parametrize("entry", sorted(ZERO_SIZE_ENTRIES))
def test_zero_size_block_is_refused(entry, shape):
    with pytest.raises(InvalidInputError, match="at least one row and one column"):
        ZERO_SIZE_ENTRIES[entry](np.zeros(shape))


def test_embedding_passed_on_is_not_decomposed_again(rng, monkeypatch):
    a = random_contraction(rng, 3, 2)
    f = targets.identity(0.1, 0.9)
    sch = make_schedule(rng, 5, variable_t=True)
    calls = count_calls(monkeypatch, linalg, ("svd",))
    h = embedding.embed(a)
    assert embedding.embed(h) is h
    target = protocol.build_target_unitary(h, f)
    protocol.simulate_protocol(h, sch, target=target)
    protocol.noise_sweep(h, sch, [1e-3], 2)
    assert calls == {"svd": 1}


# -- the target's kept pairs -------------------------------------------------

def _rank_deficient(rng):
    u, _, vh = np.linalg.svd(random_contraction(rng, 3))
    return (u * [0.7, 0.3, 0.0]) @ vh


@pytest.mark.parametrize("shape", ["square", "3x5", "5x2", "rank-deficient"])
def test_achieved_eps_from_the_kept_pairs_is_bit_for_bit(rng, shape):
    a = {"square": lambda: random_contraction(rng, 4),
         "3x5": lambda: random_contraction(rng, 5, 3),
         "5x2": lambda: random_contraction(rng, 2, 5),
         "rank-deficient": lambda: _rank_deficient(rng)}[shape]()
    f = targets.identity(0.1, 0.9)
    h = embedding.embed(a)
    sch = make_schedule(rng, 7, variable_t=True)
    target = protocol.build_target_unitary(h, f)
    ta, tb = compiler.reduced_target(protocol._f_at(f, h.svd.singulars))
    assert np.array_equal(target.pairs[0], ta) and np.array_equal(target.pairs[1], tb)
    # the distance as read before the target kept its pairs
    pa, pb = compiler._step_pairs(sch.phis(), sch.times(), h.svd.singulars)
    want = float(np.max(np.sqrt(np.abs(pa - ta) ** 2 + np.abs(pb - tb) ** 2)))
    if h.n + h.m > 2 * len(pa):
        want = max(want, np.sqrt(2.0))
    assert protocol.simulate_protocol(h, sch, target=target).achieved_eps == want
    # the same A embedded apart reads the same pairs
    assert protocol.simulate_protocol(np.array(a), sch, target=target).achieved_eps == want


# -- bools are not numbers ---------------------------------------------------

@pytest.mark.parametrize("eta", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_noise_model_refuses_a_bool_eta(eta):
    with pytest.raises(InvalidInputError, match="eta must be a number, got"):
        protocol.ControlNoiseModel(eta)


@pytest.mark.parametrize("eta", [True, np.False_], ids=["True", "np.False_"])
def test_noise_sweep_refuses_a_bool_eta(eta):
    schedule = compiler.schedule_from_arrays([0.3, -0.3])
    with pytest.raises(InvalidInputError, match="eta must be a number, got"):
        protocol.noise_sweep([[0.5]], schedule, [1e-3, eta], trials=2)


@pytest.mark.parametrize("etas", [1e-3, None, "0.1", np.array(1e-3), np.array([[1e-3]])],
                         ids=["float", "None", "str", "0-d array", "2-d array"])
def test_noise_sweep_refuses_etas_that_are_no_sequence_before_any_draw(rng, monkeypatch,
                                                                       etas):
    a, sch = random_contraction(rng, 2), make_schedule(rng, 3)
    calls = count_calls(monkeypatch, np.random, ("default_rng",))
    with pytest.raises(InvalidInputError, match="etas must be a sequence of numbers"):
        protocol.noise_sweep(a, sch, etas, trials=2)
    assert calls == {"default_rng": 0}


def test_noise_sweep_takes_any_sequence_of_etas(rng):
    a, sch = random_contraction(rng, 2), make_schedule(rng, 3)
    want = protocol.noise_sweep(a, sch, [1e-3, 2e-3], trials=3)
    for etas in [(1e-3, 2e-3), np.array([1e-3, 2e-3])]:
        assert protocol.noise_sweep(a, sch, etas, trials=3) == want
