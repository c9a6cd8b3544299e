import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hsvt
from hsvt import applications, compiler, targets
from hsvt.compiler import PhaseSchedule, PhaseStep, SolverOptions
from hsvt.errors import InvalidInputError, ParseError

from conftest import (count_calls, dense_residual, dense_target, einsum_residual_jacobian,
                      metric_diff, node_norms, pair_chain_residual_jacobian,
                      row_norm_defect, same_floats, sequential_step_product)


def make_schedule(rng, k, variable_t=False):
    phis = rng.uniform(-np.pi, np.pi, k)
    times = rng.uniform(0.3, 2.0, k) if variable_t else None
    return compiler.schedule_from_arrays(phis, times)


# -- steps and serialization -------------------------------------------------

def test_phase_step_wraps_phase():
    assert PhaseStep(phi=3 * np.pi, t=1.0).phi == pytest.approx(np.pi)
    assert PhaseStep(phi=-np.pi, t=1.0).phi == pytest.approx(np.pi)


def test_phase_step_rejects_nonpositive_time():
    with pytest.raises(InvalidInputError):
        PhaseStep(phi=0.0, t=0.0)


@pytest.mark.parametrize("phis, times", [([math.nan], None), ([math.inf], None),
                                         ([0.1], [math.inf]), ([0.1], [math.nan]),
                                         ([-math.inf], [1.0])])
def test_schedule_refuses_non_finite_steps(phis, times):
    with pytest.raises(InvalidInputError, match="finite"):
        compiler.schedule_from_arrays(phis, times)


def test_schedule_text_roundtrip(rng):
    sch = make_schedule(rng, 7, variable_t=True)
    back = PhaseSchedule.from_text(sch.to_text())
    assert back.degree == 7
    assert np.array_equal(back.phis(), sch.phis())
    assert np.array_equal(back.times(), sch.times())
    assert back.to_text() == sch.to_text()


def test_schedule_parse_errors():
    with pytest.raises(ParseError, match="header"):
        PhaseSchedule.from_text("1.0,1.0\n")
    with pytest.raises(ParseError, match="k="):
        PhaseSchedule.from_text("# hsvt-schedule v1 k=2 convention=c\n0.1,1\n")
    with pytest.raises(ParseError, match="bad number"):
        PhaseSchedule.from_text("# hsvt-schedule v1 k=1 convention=c\nx,1\n")
    with pytest.raises(ParseError, match="positive"):
        PhaseSchedule.from_text("# hsvt-schedule v1 k=1 convention=c\n0.1,-1\n")


@pytest.mark.parametrize("text", [
    "# hsvt-schedule v1 k=abc\n0.1,1\n",
    "# hsvt-schedule v1 k=1\ninf,1\n",
    "# hsvt-schedule v1 k=1\nnan,1\n",
    "# hsvt-schedule v1 k=1\n0.1,inf\n",
])
def test_schedule_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        PhaseSchedule.from_text(text)


def test_empty_schedule_roundtrip():
    sch = PhaseSchedule(steps=())
    assert PhaseSchedule.from_text(sch.to_text()).degree == 0


# -- reduced model -----------------------------------------------------------

def test_reduced_model_empty_schedule():
    u = compiler.reduced_model(PhaseSchedule(steps=()), 0.5)
    assert np.array_equal(u, np.eye(2))


def test_reduced_model_single_step_closed_form():
    sch = compiler.schedule_from_arrays([0.0])
    u = compiler.reduced_model(sch, 0.5)
    c, s = math.cos(0.5), math.sin(0.5)
    want = np.array([[c, -1j * s], [-1j * s, c]])
    assert np.linalg.norm(u - want, 2) < 1e-14


def test_reduced_model_identity_at_sigma_zero(rng):
    sch = make_schedule(rng, 6, variable_t=True)
    u = compiler.reduced_model(sch, 0.0)
    assert np.linalg.norm(u - np.eye(2), 2) < 1e-14


def test_reduced_model_unitary_and_unimodular(rng):
    sch = make_schedule(rng, 5)
    u = compiler.reduced_model(sch, 0.7)
    assert np.linalg.norm(u.conj().T @ u - np.eye(2), 2) < 1e-12
    assert abs(abs(np.linalg.det(u)) - 1) < 1e-12


def test_corner_parity_polynomial_structure(rng):
    # With all t = 1 the upper-left corner is a degree-k polynomial in
    # x = cos(sigma) with parity k mod 2, and the upper-right corner is
    # -i sin(sigma) times a degree-(k-1) polynomial of the opposite parity.
    for k in (3, 4, 6):
        sch = compiler.schedule_from_arrays(rng.uniform(-np.pi, np.pi, k))
        nodes = np.cos(np.pi * (2 * np.arange(k + 2) + 1) / (2 * (k + 2)))
        u = compiler.reduced_product(sch, np.arccos(nodes))
        cp = np.polynomial.chebyshev.chebfit(nodes, u[:, 0, 0], k + 1)
        assert abs(cp[k + 1]) < 1e-8
        assert np.max(np.abs(cp[1 - (k % 2)::2])) < 1e-8
        q = u[:, 0, 1] / (-1j * np.sin(np.arccos(nodes)))
        cq = np.polynomial.chebyshev.chebfit(nodes, q, k + 1)
        assert np.max(np.abs(cq[k:])) < 1e-8
        assert np.max(np.abs(cq[k % 2::2])) < 1e-8


@pytest.mark.parametrize("variable_t", [False, True], ids=["fixed-t", "variable-t"])
@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 7, 8, 16, 36, 37, 64, 65])
def test_step_product_matches_the_sequential_chain(rng, k, n, variable_t):
    # the tree's levels, its odd carries and the empty product against one
    # dense 2x2 product per step
    sch = make_schedule(rng, k, variable_t)
    sigmas = rng.uniform(0.0, 1.0, n)
    got = compiler.reduced_product(sch, sigmas)
    want = sequential_step_product(sch.phis(), sch.times(), sigmas)
    assert got.shape == (n, 2, 2)
    assert np.max(np.abs(got - want)) < 1e-14


# -- pq constraint and cost --------------------------------------------------

def test_pq_constraint_empty_and_single(rng):
    assert row_norm_defect(compiler.reduced_product(PhaseSchedule(steps=()), [0.3])) == 0.0
    one = compiler.schedule_from_arrays([1.1], [0.6])
    assert row_norm_defect(compiler.reduced_product(one, np.linspace(0, 1, 20))) < 1e-12


def test_pq_constraint_random(rng):
    sch = make_schedule(rng, 5, variable_t=True)
    grid = np.linspace(0.0, 1.0, 50)
    assert row_norm_defect(compiler.reduced_product(sch, grid)) < 1e-10


def test_schedule_cost():
    assert compiler.schedule_cost(PhaseSchedule(steps=())) == (0.0, 0)
    sch = compiler.schedule_from_arrays(np.zeros(4))
    assert compiler.schedule_cost(sch) == (4.0, 4)


# -- synthesis ---------------------------------------------------------------

def test_synthesize_sine_single_step_corner():
    f = targets.sine(0.3, 0.8)
    opts = SolverOptions(metric="corner", target_eps=1e-10)
    sch, rep = compiler.synthesize_schedule(f, 1, grid_size=8, opts=opts)
    assert rep.converged
    assert rep.max_residual < 1e-10
    assert sch.steps[0].phi == pytest.approx(np.pi)
    assert sch.steps[0].t == pytest.approx(1.0, abs=1e-6)


def test_synthesize_identity_converges():
    f = targets.identity(float(np.arccos(0.9)), 0.95)
    opts = SolverOptions(target_eps=5e-3, seed=0)
    sch, rep = compiler.synthesize_schedule(f, 24, opts=opts)
    assert rep.converged
    assert rep.max_residual <= 5e-3
    # residual reproduced on an independent denser grid
    dense = dense_residual(sch, f, 10 * 24)
    assert dense <= 2 * max(rep.max_residual, 1e-12)


def test_synthesize_random_starts_rescue_a_missed_warm_start():
    # the warm start misses eps here (2.2e-2 without the random starts)
    f = targets.identity(0.4, 0.8)
    opts = SolverOptions(seed=2, variable_t=True, target_eps=1e-2)
    _, rep = compiler.synthesize_schedule(f, 6, opts=opts)
    assert rep.converged


def test_explicit_low_degree_compile_with_infinite_eps():
    # no warm start below k = 6, so the fallback starts are solved for every eps
    f = targets.identity(0.4, 0.8)
    sch, rep = compiler.synthesize_schedule(f, 2, opts=SolverOptions(target_eps=math.inf))
    assert sch.degree == 2
    assert rep.converged


def test_synthesize_report_consistency():
    f = targets.identity(0.3, 0.8)
    _, rep = compiler.synthesize_schedule(f, 8, opts=SolverOptions(seed=3))
    assert rep.max_residual == pytest.approx(np.max(rep.residual_per_node))
    assert len(rep.grid) == len(rep.residual_per_node)


def test_synthesize_deterministic_given_seed():
    f = targets.identity(0.3, 0.8)
    opts = SolverOptions(target_eps=1e-3, seed=11)
    s1, _ = compiler.synthesize_schedule(f, 10, opts=opts)
    s2, _ = compiler.synthesize_schedule(f, 10, opts=opts)
    assert s1.to_text() == s2.to_text()


def test_synthesize_rejects_bad_args():
    f = targets.identity(0.3, 0.8)
    with pytest.raises(InvalidInputError):
        compiler.synthesize_schedule(f, 0)
    with pytest.raises(InvalidInputError):
        compiler.synthesize_schedule(f, 4, grid_size=7)


def test_counts_accept_numpy_integers():
    f = targets.identity(0.3, 0.8)
    opts = SolverOptions(max_nfev=np.int64(20))
    assert type(opts.max_nfev) is int
    sch, rep = compiler.synthesize_schedule(f, np.int64(2), grid_size=np.int32(5), opts=opts)
    assert sch.degree == 2 and len(rep.grid) == 5


def test_synthesize_to_accuracy_stops_early():
    f = targets.identity(0.35, 0.8)
    opts = SolverOptions(target_eps=1e-2, variable_t=True, seed=0)
    sch, rep = compiler.synthesize_to_accuracy(f, 1e-2, opts=opts)
    assert rep.converged
    assert sch.degree < 40


def test_variable_t_synthesis_wide_domain():
    f = targets.identity(0.2, 0.85)
    opts = SolverOptions(target_eps=1e-2, variable_t=True, seed=0)
    sch, rep = compiler.synthesize_to_accuracy(f, 1e-2, opts=opts)
    assert rep.converged
    assert np.all(sch.times() > 0)


def test_variable_t_compile_stops_at_the_accuracy_contract():
    # the apps compile: the final trf solve ends once its max residual meets
    # MARGIN * eps, long before the max_nfev cap
    f = targets.identity(0.4, 0.8)
    sch, rep = compiler.synthesize_to_accuracy(
        f, 1e-3, opts=SolverOptions(variable_t=True))
    assert sch.degree == 16
    assert rep.max_residual <= compiler.MARGIN * 1e-3
    assert dense_residual(sch, f, 2001) <= 1e-3
    assert rep.stop_reason == "eps"
    assert rep.iterations < 1200
    assert rep.to_dict()["stop_reason"] == "eps"


def test_fixed_t_adaptive_compile_stops_at_the_accuracy_contract():
    # the compile-ft compile: fixed-t solves stop at MARGIN * eps too, so the
    # polish no longer runs to its max_nfev cap
    f = targets.identity(0.4, 0.8)
    sch, rep = compiler.synthesize_to_accuracy(f, 1e-3, opts=SolverOptions())
    assert sch.degree == 32
    assert rep.stop_reason == "eps"
    assert rep.iterations < 2976
    assert rep.max_residual <= compiler.MARGIN * 1e-3
    assert dense_residual(sch, f, 2001) <= 1e-3


def test_fixed_t_compile_repeats_across_processes(tmp_path):
    # a fixed-t `hsvt synthesize` in two fresh processes writes the same bytes
    src = os.path.dirname(os.path.dirname(hsvt.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    texts = []
    for i in range(2):
        out = tmp_path / f"s{i}.txt"
        subprocess.run([sys.executable, "-m", "hsvt.cli", "synthesize",
                        "--sigma-lo", "0.4", "--sigma-hi", "0.8", "--eps", "1e-2",
                        "--schedule-out", str(out),
                        "--report-out", str(tmp_path / f"r{i}.json")],
                       env=env, check=True)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_compile_repeats_across_blas_thread_counts():
    # inverse_block_encode's default compile, in fresh processes at one and
    # two OpenBLAS threads, gives the same schedule bytes
    src = os.path.dirname(os.path.dirname(hsvt.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    prog = ("from hsvt import compiler, targets\n"
            "s, _ = compiler.synthesize_to_accuracy(targets.identity(0.1, 0.9), 1e-3,"
            " compiler.SolverOptions(variable_t=True))\n"
            "print(s.to_text(), end='')\n")
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        texts.append(subprocess.run([sys.executable, "-c", prog], env=env, check=True,
                                    capture_output=True, text=True).stdout)
    assert texts[0].startswith("# hsvt-schedule v1 k=")
    assert texts[0] == texts[1]
    # the pinned bytes: a change that moves the schedules on purpose updates this
    assert hashlib.sha256(texts[0].encode()).hexdigest().startswith("8fadc826e22c94ce")


@pytest.mark.parametrize("opts, pinned", [
    (SolverOptions(target_eps=1e-3), "efaa863aa443586e"),     # hsvt synthesize's
    (None, "0dfb69fda78a7a6b"),                               # compiled_schedule's
], ids=["fixed-t", "variable-t"])
def test_identity_04_08_schedules_are_pinned(opts, pinned):
    # the two other compiles the benchmark times, fixed-t and variable-t
    # identity(0.4, 0.8) at 1e-3: a change that moves the schedules on
    # purpose updates these
    schedule = applications.compiled_schedule(targets.identity(0.4, 0.8), 1e-3, opts)
    text = schedule.to_text().encode()
    assert hashlib.sha256(text).hexdigest().startswith(pinned)


def test_fixed_t_compile_runs_past_the_accuracy_contract():
    # an explicit degree asks for the best schedule there: its solves run to
    # tolerance or the cap, not to eps
    f = targets.identity(0.3, 0.8)
    _, rep = compiler.synthesize_schedule(f, 8, opts=SolverOptions(seed=3))
    assert rep.stop_reason in ("tolerance", "cap")


def test_variable_t_compile_runs_past_the_accuracy_contract():
    f = targets.identity(0.5, 0.8)
    opts = SolverOptions(seed=3, variable_t=True, target_eps=1e-2)
    _, rep = compiler.synthesize_schedule(f, 8, opts=opts)
    assert rep.stop_reason in ("tolerance", "cap")


def test_warm_start_within_margin_is_not_solved():
    # a single step with phase pi realises sin(sigma) in the corner exactly
    sigmas = compiler.chebyshev_grid(0.3, 0.8, 8)
    target = compiler.reduced_target(np.sin(sigmas))
    opts = SolverOptions(metric="corner", target_eps=1e-6, variable_t=True)
    x0 = np.array([np.pi, 1.0])
    mx, x, nfev, reason = compiler._solve_fixed_degree(1, sigmas, target, opts,
                                                       [x0], 100)
    assert mx <= compiler.MARGIN * 1e-6
    assert np.array_equal(x, x0)
    assert (nfev, reason) == (1, "eps")


def record_solves(monkeypatch):
    """Wrap _solve_fixed_degree; each call appends (inits, max_nfev, result)."""
    real = compiler._solve_fixed_degree
    solves = []

    def recorded(k, sigmas, target, opts, inits, max_nfev, fold=None):
        search = real(k, sigmas, target, opts, inits, max_nfev, fold)
        solves.append((inits, max_nfev, search))
        return search

    monkeypatch.setattr(compiler, "_solve_fixed_degree", recorded)
    return solves


def test_fixed_t_stage_keeps_solving_while_its_cost_falls(monkeypatch):
    # k = 20 from zero phases at 20 evaluations a solve: each solve that ends
    # at the cap still descending is solved again from its end point, until
    # the stage has spent its 50 evaluations
    solves = record_solves(monkeypatch)
    opts = SolverOptions(target_eps=1e-3, max_nfev=50)
    mx, y, nfev, reason = compiler._stage_solve(20, targets.identity(0.4, 0.8), opts,
                                                [np.zeros(10)], 20)
    assert [cap for _, cap, _ in solves] == [20, 20, 10]
    assert nfev == sum(search[2] for *_, search in solves) == opts.max_nfev
    for (*_, before), (inits, *_) in zip(solves, solves[1:]):
        assert before[3] == "cap" and compiler._descending(before.costs)
        assert np.array_equal(inits[0], before[1])
    assert reason == "cap"
    assert mx == solves[-1][2][0] < solves[1][2][0] < solves[0][2][0]
    assert np.array_equal(y, solves[-1][2][1])


def test_variable_t_stage_is_solved_once(monkeypatch):
    # the same stage in variable-t also ends at the cap still descending
    solves = record_solves(monkeypatch)
    opts = SolverOptions(target_eps=1e-3, max_nfev=50, variable_t=True)
    start = np.concatenate([np.zeros(10), np.ones(10)])
    *_, nfev, reason = compiler._stage_solve(20, targets.identity(0.4, 0.8), opts,
                                             [start], 20)
    ((_, _, search),) = solves
    assert (nfev, reason) == (20, "cap")
    assert compiler._descending(search.costs)


def test_capped_stage_that_stopped_descending_is_not_solved_again(monkeypatch):
    solves = record_solves(monkeypatch)
    opts = SolverOptions(target_eps=1e-3, max_nfev=100)
    *_, nfev, reason = compiler._stage_solve(12, targets.identity(0.4, 0.8), opts,
                                             [np.zeros(6)], 30)
    ((_, _, search),) = solves
    assert (nfev, reason) == (30, "cap")
    assert not compiler._descending(search.costs)


def test_stage_re_solve_that_does_not_improve_ends_the_stage(monkeypatch):
    # both solves end at the cap still descending; the second's max node
    # residual is worse, so the stage stops and keeps the first
    falling = list(np.linspace(2.0, 1.0, 16))
    searches = iter([compiler._Search(0.5, np.zeros(2), 10, "cap", falling),
                     compiler._Search(0.6, np.ones(2), 10, "cap", falling)])
    monkeypatch.setattr(compiler, "_solve_fixed_degree",
                        lambda *args, fold=None: next(searches))
    mx, y, nfev, reason = compiler._stage_solve(4, targets.identity(0.4, 0.8),
                                                SolverOptions(), [np.zeros(2)], 10)
    assert (mx, nfev, reason) == (0.5, 20, "cap")
    assert np.array_equal(y, np.zeros(2))


@pytest.mark.parametrize("seed", [0, 1])
def test_fixed_t_identity_04_08_compiles_to_degree_32(seed):
    # the k = 32 stage ends at its cap still descending; it is solved on
    # rather than grown to k = 36 (seed 0) or 40 (seed 1)
    sch, rep = compiler.synthesize_to_accuracy(targets.identity(0.4, 0.8), 1e-3,
                                               opts=SolverOptions(seed=seed))
    assert (sch.degree, rep.stop_reason) == (32, "eps")


def test_wrap_phase_keeps_a_hand_written_phase():
    text = "# hsvt-schedule v1 k=1\n0.1,1\n"
    schedule = PhaseSchedule.from_text(text)
    assert schedule.steps[0].phi == 0.1
    assert PhaseSchedule.from_text(schedule.to_text()) == schedule
    assert PhaseStep(-0.2, 1).phi == -0.2
    assert PhaseStep(-np.pi, 1).phi == np.pi
    assert PhaseStep(3 * np.pi / 2, 1).phi == pytest.approx(-np.pi / 2)


@pytest.mark.parametrize("metric", ["full", "corner"])
def test_max_node_residual_from_stacked_residual(rng, metric):
    sch = make_schedule(rng, 6, variable_t=True)
    sigmas = compiler.chebyshev_grid(0.2, 0.9, 24)
    target = compiler.reduced_target(0.5 * sigmas)
    x = np.concatenate([sch.phis(), sch.times()])
    res = compiler._residual_jacobian(x, sigmas, target, True, metric)[0]
    u = sequential_step_product(sch.phis(), sch.times(), sigmas)
    expected = np.max(node_norms(metric_diff(u, dense_target(0.5 * sigmas), metric)))
    assert compiler._max_node_residual(res, metric) == pytest.approx(expected,
                                                                     rel=1e-12)


@pytest.mark.parametrize("variable_t", [False, True], ids=["fixed-t", "variable-t"])
@pytest.mark.parametrize("metric", ["full", "corner"])
def test_residuals_match_the_dense_spectral_norm(rng, metric, variable_t):
    # the node residuals read off the pair rows against the dense difference
    # of the sequential product and the dense target
    sch = make_schedule(rng, 9, variable_t)
    sigmas = compiler.chebyshev_grid(0.1, 0.9, 36)
    fv = 0.8 * sigmas
    u = sequential_step_product(sch.phis(), sch.times(), sigmas)
    want = node_norms(metric_diff(u, dense_target(fv), metric))
    target = compiler.reduced_target(fv)
    np.testing.assert_allclose(compiler._residuals(sch, sigmas, target, metric), want,
                               rtol=1e-14, atol=0)
    x = np.concatenate([sch.phis(), sch.times()]) if variable_t else sch.phis()
    opts = SolverOptions(variable_t=variable_t, metric=metric)
    _, rep = compiler._report(x, sigmas, target, opts, 0, "tolerance")
    np.testing.assert_allclose(rep.residual_per_node, want, rtol=1e-14, atol=0)
    assert rep.max_residual == np.max(rep.residual_per_node)


def test_degree_sweep_of_no_degrees_is_empty():
    assert compiler.degree_sweep(targets.identity(0.4, 0.8), []) == []


def test_degree_sweep_retries_only_a_grown_degree(monkeypatch):
    # the 8 after a 12 does not grow the degree, so it is solved as in a
    # sweep of its own: no jittered re-solves chasing the residual at 12.
    # The continuation to 12 passes through 8, so no stage is solved twice.
    f = targets.identity(0.4, 0.8)
    real = compiler._solve_fixed_degree
    unfolded = []

    def recorded(*args, fold=None):
        if fold is None:
            unfolded.append(args[0])
        return real(*args, fold=fold)

    monkeypatch.setattr(compiler, "_solve_fixed_degree", recorded)
    calls = count_calls(monkeypatch, compiler, ("_stage_solve",))

    def sweep(ks):
        stages, solves = calls["_stage_solve"], len(unfolded)
        rows = compiler.degree_sweep(f, ks)
        return rows, calls["_stage_solve"] - stages, len(unfolded) - solves

    rows_12, stages_12, solves_12 = sweep([12])
    rows_8, _, solves_8 = sweep([8])
    alone = rows_12 + rows_8
    rows, stages, solves = sweep([12, 8])
    assert solves == solves_12 + solves_8
    assert stages == stages_12
    assert [(k, r, s.to_text()) for k, r, s in rows] == \
        [(k, r, s.to_text()) for k, r, s in alone]


def test_degree_sweep_re_solves_a_grown_degree_that_does_not_improve(monkeypatch):
    # k = 5 solved alone does worse than k = 4, so the sweep re-solves it
    # from two jittered starts, and the better of the two solves is kept
    f = targets.identity(0.3, 0.8)
    r5_alone = compiler.degree_sweep(f, [5], SolverOptions(seed=0))[0][1]
    real = compiler._solve_fixed_degree
    unfolded = []

    def recorded(k, sigmas, target, opts, inits, max_nfev, fold=None):
        if fold is None:
            unfolded.append((k, len(inits), max_nfev))
        return real(k, sigmas, target, opts, inits, max_nfev, fold)

    monkeypatch.setattr(compiler, "_solve_fixed_degree", recorded)
    (_, r4, _), (_, r5, _) = compiler.degree_sweep(f, [4, 5], SolverOptions(seed=0))
    assert unfolded == [(4, 1, 700), (5, 1, 700), (5, 2, 1200)]
    assert r5 < r4 < r5_alone
    assert r4 == pytest.approx(1.056668, abs=1e-6)


def test_degree_sweep_decreasing():
    f = targets.identity(0.35, 0.8)
    rows = compiler.degree_sweep(f, [4, 8, 12, 16], opts=SolverOptions(seed=0))
    residuals = [r for _, r, _ in rows]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


# -- symmetric fold ----------------------------------------------------------

@pytest.mark.parametrize("variable_t", [False, True])
@pytest.mark.parametrize("k", [7, 8])
def test_sym_fold_maps_to_symmetric_schedules(rng, k, variable_t):
    fold = compiler._sym_fold(k, variable_t)
    y = rng.uniform(0.3, 2.0, fold.shape[1])
    x = fold @ y
    phis = x[:k]
    assert np.array_equal(phis, -phis[::-1])
    if k % 2:
        assert phis[k // 2] == 0.0
    if variable_t:
        times = x[k:]
        assert np.array_equal(times, times[::-1])
        assert np.all(times > 0.0)


@pytest.mark.parametrize("variable_t", [False, True])
@pytest.mark.parametrize("k", [7, 8])
def test_folded_jacobian_matches_finite_difference(rng, k, variable_t):
    fold = compiler._sym_fold(k, variable_t)
    sigmas = compiler.chebyshev_grid(0.3, 0.8, 2 * k)
    target = compiler.reduced_target(0.9 * sigmas)
    args = (sigmas, target, variable_t, "full")
    y = rng.uniform(0.3, 2.0, fold.shape[1])
    jac = compiler._CachedObjective(*args, fold=fold).jacobian(y)
    assert jac.flags.f_contiguous
    h = 1e-6
    fd = np.empty_like(jac)
    for i in range(len(y)):
        dy = np.zeros_like(y)
        dy[i] = h
        up = compiler._residual_jacobian(fold @ (y + dy), *args)[0]
        down = compiler._residual_jacobian(fold @ (y - dy), *args)[0]
        fd[:, i] = (up - down) / (2 * h)
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("variable_t", [False, True])
@pytest.mark.parametrize("k", [7, 8])
def test_continuation_growth_preserves_the_product(rng, k, variable_t):
    sigmas = compiler.chebyshev_grid(0.1, 0.9, 16)

    def product(x, degree):
        times = x[degree:] if variable_t else None
        return compiler.reduced_product(
            compiler.schedule_from_arrays(x[:degree], times), sigmas)

    fold = compiler._sym_fold(k, variable_t)
    y = rng.uniform(0.3, 2.0, fold.shape[1])
    y[:k // 2] = rng.uniform(-np.pi, np.pi, k // 2)
    x = fold @ y
    y2, k2 = compiler._sym_grow(y, k, 2, variable_t)
    assert k2 == k + 4
    grown = [(compiler._sym_fold(k2, variable_t) @ y2, k2)]
    if not variable_t:
        grown.append((compiler._cancel_pairs(x, 2), k + 4))
    for x2, degree in grown:
        assert len(x2) == (2 * degree if variable_t else degree)
        np.testing.assert_allclose(product(x2, degree), product(x, k), rtol=0, atol=1e-12)


# -- objective against the einsum oracle -------------------------------------

@pytest.mark.parametrize("folded", [False, True])
@pytest.mark.parametrize("variable_t", [False, True])
@pytest.mark.parametrize("metric", ["full", "corner"])
@pytest.mark.parametrize("start", ["random", "zero-phase"])
def test_objective_equals_einsum_form_exactly(rng, start, metric, variable_t,
                                              folded):
    # The pair rows have their own layout and round-off, so the objective
    # equals the dense einsum form in what the solver reads of it: the cost,
    # J^T r, J^T J and the max node residual, each to 1e-13 of its scale
    # (|r|^2, |J| |r| and |J|^2, with J unfolded: a fold can cancel J S to
    # round-off, as at the zero-phase corner starts).
    k = 9
    fold = compiler._sym_fold(k, variable_t) if folded else None
    n = fold.shape[1] if folded else (2 * k if variable_t else k)
    n_phi = k // 2 if folded else k
    if start == "zero-phase":
        # the start _continuation and the fallback solve first: phases 0,
        # unit times, where products have exact zeros to sign
        y = np.concatenate([np.zeros(n_phi), np.ones(n - n_phi)])
    else:
        y = np.concatenate([rng.uniform(-np.pi, np.pi, n_phi),
                            rng.uniform(0.3, 2.0, n - n_phi)])
    sigmas = compiler.chebyshev_grid(0.1, 0.9, 4 * k)
    target = compiler.reduced_target(0.8 * sigmas)
    obj = compiler._CachedObjective(sigmas, target, variable_t, metric, fold)
    x = y if fold is None else fold @ y
    res, jac = einsum_residual_jacobian(x, sigmas, dense_target(0.8 * sigmas),
                                        variable_t, metric)
    r, j = np.linalg.norm(res), np.linalg.norm(jac)
    if fold is not None:
        jac = (fold.T @ jac.T).T
    n_res = len(res) // 2
    diff = res[:n_res] + 1j * res[n_res:]
    if metric == "full":
        diff = diff.reshape(-1, 2, 2)
    got_res, got = obj.residual(y), obj.jacobian(y)
    for got_q, want_q, scale in ((got_res @ got_res, res @ res, r * r),
                                 (got.T @ got_res, jac.T @ res, j * r),
                                 (got.T @ got, jac.T @ jac, j * j)):
        assert np.max(np.abs(got_q - want_q)) <= 1e-13 * scale
    assert compiler._max_node_residual(got_res, metric) == pytest.approx(
        np.max(node_norms(diff)), rel=1e-13)
    assert got.flags.f_contiguous


@pytest.mark.parametrize("folded", [False, True])
@pytest.mark.parametrize("variable_t", [False, True])
@pytest.mark.parametrize("metric", ["full", "corner"])
@pytest.mark.parametrize("start", ["random", "zero-phase"])
@pytest.mark.parametrize("k", [1, 2, 3, 9, 37])
def test_objective_equals_pair_chain_form_exactly(rng, k, start, metric, variable_t,
                                                  folded):
    # The chains in _chain's rows and the fixed-t trig taken once compute
    # the floats of one _pair_product per step, signed zeros included: a
    # zero-phase start's Jacobian has exact zeros, and the solver's steps
    # from it change with their signs.  The Jacobian keeps Fortran order.
    fold = compiler._sym_fold(k, variable_t) if folded else None
    n = fold.shape[1] if folded else (2 * k if variable_t else k)
    n_phi = k // 2 if folded else k
    if start == "zero-phase":
        y = np.concatenate([np.zeros(n_phi), np.ones(n - n_phi)])
    else:
        y = np.concatenate([rng.uniform(-np.pi, np.pi, n_phi),
                            rng.uniform(0.3, 2.0, n - n_phi)])
    x = y if fold is None else fold @ y
    sigmas = compiler.chebyshev_grid(0.1, 0.9, 4 * k)
    target = compiler.reduced_target(0.8 * sigmas)
    res, jacobian = compiler._residual_jacobian(x, sigmas, target, variable_t, metric)
    want_res, want_jac = pair_chain_residual_jacobian(x, sigmas, target, variable_t,
                                                      metric)
    jac = jacobian()
    assert same_floats(res, want_res)
    assert same_floats(jac, want_jac)
    assert jac.flags.f_contiguous


@pytest.mark.parametrize("variable_t", [False, True])
@pytest.mark.parametrize("metric", ["full", "corner"])
def test_stacked_residual_components_within_row_scale_of_node_residual(
        rng, metric, variable_t):
    # the early-stop screen in _solve_fixed_degree skips the node norms when
    # one component exceeds this bound times the stop
    bound = math.sqrt(2.0) if metric == "full" else 1.0
    k = 12
    sigmas = compiler.chebyshev_grid(0.1, 0.9, 4 * k)
    target = compiler.reduced_target(0.8 * sigmas)
    for _ in range(20):
        x = rng.uniform(-np.pi, np.pi, k)
        if variable_t:
            x = np.concatenate([x, rng.uniform(0.3, 2.0, k)])
        res = compiler._residual_jacobian(x, sigmas, target, variable_t, metric)[0]
        assert np.max(np.abs(res)) <= (
            bound * compiler._max_node_residual(res, metric) * (1 + 1e-12))


def test_jacobian_built_only_when_the_solver_asks(monkeypatch):
    real_objective = compiler._residual_jacobian
    real_solver = compiler.least_squares
    points, jacobians, sols = [], [], []

    def counted_objective(params, *args):
        points.append(params.tobytes())
        res, jacobian = real_objective(params, *args)

        def counted_jacobian():
            jacobians.append(params.tobytes())
            return jacobian()
        return res, counted_jacobian

    def recorded_solver(*args, **kwargs):
        sols.append(real_solver(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(compiler, "_residual_jacobian", counted_objective)
    monkeypatch.setattr(compiler, "least_squares", recorded_solver)
    sigmas, target = compiler._grid(targets.identity(0.4, 0.8), 24)
    opts = SolverOptions(target_eps=0.0, variable_t=True)
    x0 = np.concatenate([np.zeros(6), np.ones(6)])
    compiler._solve_fixed_degree(6, sigmas, target, opts, [x0], 200)
    (sol,) = sols
    assert len(jacobians) == sol.njev < sol.nfev
    assert len(points) == len(set(points)) == sol.nfev
    assert len(set(jacobians)) == len(jacobians)


# -- noise gain and option refusals -------------------------------------------

@pytest.mark.parametrize("opts", [SolverOptions(variable_t=True), SolverOptions(target_eps=1e-3)],
                         ids=["apps", "compile-ft"])
def test_report_carries_the_schedules_noise_gain(opts):
    f = targets.identity(0.4, 0.8)
    schedule, rep = compiler.synthesize_to_accuracy(f, 1e-3, opts)
    # the report's schedule is the one the memo serves: nothing moved
    assert schedule == applications.compiled_schedule(f, 1e-3, opts)
    assert rep.noise_gain == f.sigma_hi * np.linalg.norm(schedule.times())
    assert rep.to_dict()["noise_gain"] == rep.noise_gain


def test_fixed_degree_report_carries_the_noise_gain():
    f = targets.identity(0.3, 0.7)
    schedule, rep = compiler.synthesize_schedule(f, 3)
    assert rep.noise_gain == f.sigma_hi * np.linalg.norm(schedule.times())


@pytest.mark.parametrize("eps", [True, False, np.True_], ids=["True", "False", "np.True_"])
def test_solver_options_refuse_a_bool_target_eps(eps):
    with pytest.raises(InvalidInputError, match="target_eps must be a number, got"):
        SolverOptions(target_eps=eps)
