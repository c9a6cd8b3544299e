"""One benchmark process: set up one workload, time its compile and the
application stream on the compiled schedule, and check every output.

Started by run.py with the BLAS thread count pinned and hsvt's sources on
PYTHONPATH.  Prints one JSON object on its last stdout line.  With
``--probe`` it stops after set-up and reports only the moment set-up ended.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import time
import traceback

import numpy as np
import scipy

import hsvt
from hsvt import applications, compiler, protocol, targets

import calibration
import reference
from spans import Tracer, layer_metrics, layer_self_times

EPS = 1e-3
APPS_SIGMAS = (0.45, 0.75)      # singular values of the stream's matrices, inside every domain
APPS_DIMS = range(2, 17)
ENCODES_PER_DIM = 8
CASCADE_N = 50
ODE_STEPS = 100
ODE_DT = 0.01
NOISE_DIM = 16
NOISE_ETAS = (1e-3, 2e-3, 4e-3)
NOISE_TRIALS = 200
HELD_OUT_POINTS = 2001
EXPM_CHECKS = 3
OWN_SAMPLES = 5         # a call holding this many kernel samples is scaled by them


def blas_facts() -> dict:
    """OpenBLAS build and thread count of the libraries numpy and scipy load."""
    facts = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    facts[pkg.__name__] = {"openblas": config().decode(),
                                           "threads": threads()}
                    break
    return facts


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_facts(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(clock, call):
    """(result, seconds) of call(), less the time the host clock took inside it."""
    spent = clock.spent if clock is not None else 0.0
    t0 = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - t0
    return result, elapsed - (clock.spent - spent if clock is not None else 0.0)


# ---------------------------------------------------------------------------
# set-up and compile
# ---------------------------------------------------------------------------

def check_schedule(schedule, lo, hi, rng) -> list:
    """Independent checks of a compiled identity schedule; returns failures."""
    phis, times = schedule.phis(), schedule.times()
    problems = []
    grid = np.linspace(lo, hi, HELD_OUT_POINTS)
    held_out = reference.reduced_identity_residual(phis, times, grid)
    if not held_out <= EPS:
        problems.append(f"held-out 2x2 residual {held_out:.3e} > {EPS:g}")
    for _ in range(EXPM_CHECKS):
        a = reference.random_contraction(rng, int(rng.integers(2, 5)), lo, hi)
        dist = np.linalg.norm(reference.full_space_unitary(a, phis, times)
                              - reference.identity_target(a), 2)
        if not dist <= EPS:
            problems.append(f"full-space expm distance {dist:.3e} > {EPS:g}")
    return problems


# Each workload compiles one schedule, then runs the application stream on
# the same domain and solver options, so every call of the stream finds that
# schedule in compiled_schedule's memo.
DOMAINS = {"compile-vt": (0.1, 0.9), "compile-ft": (0.4, 0.8), "apps": (0.4, 0.8)}


def workload_setup(workload):
    """Set-up of a workload: its target and the solver options of its compile.

    compile-vt and apps use compiled_schedule's defaults (variable-t, seed 0);
    (0.1, 0.9) is the domain inverse_block_encode compiles by default.
    compile-ft uses the fixed-t options of `hsvt synthesize`.
    """
    f = targets.identity(*DOMAINS[workload])
    opts = compiler.SolverOptions(target_eps=EPS) if workload == "compile-ft" else None
    return f, opts


def run_compile(f, opts, rng, out, clock):
    """The timed compile; returns the schedule, or None if the compile raised."""
    out["attempted"] += 1
    first_sample = len(clock.samples) if clock is not None else 0
    try:
        schedule, elapsed = timed(clock, lambda: applications.compiled_schedule(f, EPS, opts))
    except Exception:
        out["failed"] += 1
        traceback.print_exc()
        return None
    out["unscaled"]["compile_s"] = elapsed
    out["values"]["compile_s"] = elapsed / (clock.slowdown(first_sample)
                                            if clock is not None else 1.0)
    out["values"]["schedule_steps"] = schedule.degree
    out["values"]["evolution_time"] = float(np.sum(schedule.times()))
    out["problems"] += check_schedule(schedule, f.sigma_lo, f.sigma_hi, rng)
    return schedule


# ---------------------------------------------------------------------------
# application stream
# ---------------------------------------------------------------------------

def check_close(problems, what, got, want, tol):
    err = float(np.linalg.norm(got - want, 2))
    if not err <= tol:
        problems.append(f"{what}: error {err:.3e} > {tol:.3e}")


def apps_round(f, opts, schedule, seed, index, times, problems, clock):
    """One round on f's domain: each dimension once per operation, then a noise sweep.

    Every round runs the same operations on fresh seeded inputs, so runs of
    any length and seed attempt the same mix.  Appends each call's
    (seconds, slowdown) to times[(operation, dimension)]; returns
    (attempted, raised).  The noise sweep (about a second) lets the kernel
    run inside it and is scaled by the samples it holds; the other calls
    hold the kernel back and are scaled by their round's samples
    (slowdown None).
    """
    rng = np.random.default_rng([seed, index])
    domain = (f.sigma_lo, f.sigma_hi)
    attempted = failed = 0

    def attempt(kind, d, call, check):
        nonlocal attempted, failed
        attempted += 1
        first_sample = len(clock.samples) if clock is not None else 0
        hold = clock is not None and kind != "noise"
        try:
            with clock.deferred() if hold else contextlib.nullcontext():
                result, elapsed = timed(clock, call)
        except Exception:
            failed += 1
            traceback.print_exc()
            return
        own = None
        if clock is not None and len(clock.samples) - first_sample >= OWN_SAMPLES:
            own = clock.slowdown(first_sample)
        times.setdefault((kind, d), []).append((elapsed, own))
        check(result)

    for d in rng.permutation(np.array(APPS_DIMS)):
        d = int(d)
        for _ in range(ENCODES_PER_DIM):
            a = reference.random_contraction(rng, d, *APPS_SIGMAS)
            attempt("encode", d,
                    lambda: applications.inverse_block_encode(a, EPS, domain=domain,
                                                             opts=opts),
                    lambda r: check_close(problems, "encode block", -1j * r[1].unitary[d:, :d],
                                          a, EPS))
        a = reference.random_contraction(rng, d, *APPS_SIGMAS)
        psi = reference.unit_state(rng, d)

        def check_cascade(r, a=a, psi=psi):
            state, _ = r
            check_close(problems, "cascade last block", state.block(CASCADE_N),
                        np.linalg.matrix_power(a, CASCADE_N) @ psi, CASCADE_N * EPS)
            if not abs(state.total_norm_sq() - 1.0) <= 1e-9:
                problems.append(f"cascade norm {state.total_norm_sq():.12f} != 1")

        attempt("cascade", d,
                lambda: applications.power_cascade(a, psi, CASCADE_N, backend="protocol",
                                                   domain=domain, opts=opts),
                check_cascade)
        b = reference.random_dissipative(rng, d)
        psi0 = reference.unit_state(rng, d)
        want = np.linalg.matrix_power(np.eye(d) + ODE_DT * b, ODE_STEPS) @ psi0
        problem = applications.OdeProblem(b=b, dt=ODE_DT, steps=ODE_STEPS, psi0=psi0)
        attempt("ode", d, lambda: applications.ode_solve(problem, backend="exact"),
                lambda r: check_close(problems, "ode", r[1], want, 1e-8))

    a = reference.random_contraction(rng, NOISE_DIM, *APPS_SIGMAS)
    noise_seed = int(rng.integers(2**31))

    def check_noise(table):
        means = [row["mean_distance"] for row in table]
        for lo, hi in zip(means, means[1:]):
            if not 1.8 <= hi / lo <= 2.2:
                problems.append(f"noise mean ratio {hi / lo:.4f} outside [1.8, 2.2]")

    attempt("noise", NOISE_DIM,
            lambda: protocol.noise_sweep(a, schedule, NOISE_ETAS, NOISE_TRIALS,
                                         seed=noise_seed),
            check_noise)
    return attempted, failed


def stream_metrics(times) -> dict:
    """End-to-end metrics of the stream from times[(operation, dimension)]."""
    out = {}
    lat = [t for (kind, _), ts in times.items() if kind == "encode" for t in ts]
    if lat:
        out["encode_ms"] = 1e3 * float(np.median(lat))
    # A rate is one round's work over the sum, across dimensions, of each
    # dimension's median time: the median damps a shared host's second-scale jitter.
    for kind, work, metric in (("cascade", CASCADE_N, "cascade_steps_per_s"),
                               ("ode", ODE_STEPS, "ode_steps_per_s"),
                               ("noise", len(NOISE_ETAS) * NOISE_TRIALS, "noise_trials_per_s")):
        medians = [np.median(ts) for (k, _), ts in times.items() if k == kind]
        if medians:
            out[metric] = work * len(medians) / float(np.sum(medians))
    return out


def run_apps(f, opts, schedule, seed, seconds, out, clock):
    """Whole rounds while another round, as long as the last one, still
    ends within ``seconds``; at least one."""
    unscaled, scaled = {}, {}
    tails, tails_unscaled = [], []
    start = time.perf_counter()
    last = 0.0
    while out["rounds"] == 0 or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        gc.collect()
        first_sample = len(clock.samples) if clock is not None else 0
        times = {}
        attempted, failed = apps_round(f, opts, schedule, seed, out["rounds"], times,
                                       out["problems"], clock)
        slowdown = clock.slowdown(first_sample) if clock is not None else 1.0
        for key, ts in times.items():
            unscaled.setdefault(key, []).extend(t for t, _ in ts)
            scaled.setdefault(key, []).extend(t / (own or slowdown) for t, own in ts)
        # the round's highest encode percentile with ten samples beyond it
        enc = sorted(t for (kind, _), ts in times.items() if kind == "encode" for t, _ in ts)
        tails_unscaled.append(enc[-11])
        tails.append(enc[-11] / slowdown)
        out["attempted"] += attempted
        out["failed"] += failed
        out["rounds"] += 1
        last = time.perf_counter() - round_start
    out["encode_samples"] = sum(len(ts) for (kind, _), ts in scaled.items() if kind == "encode")
    out["unscaled"].update(stream_metrics(unscaled))
    out["values"].update(stream_metrics(scaled))
    # A tail over the whole run is set by the run's slowest round; the
    # median over rounds of each round's tail is not.
    out["unscaled"]["encode_tail_ms"] = 1e3 * float(np.median(tails_unscaled))
    out["values"]["encode_tail_ms"] = 1e3 * float(np.median(tails))


# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("compile-vt", "compile-ft", "apps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.instrument(hsvt)
    # Traced runs report unscaled layer times: a kernel run from a signal
    # would land inside whichever span was open.
    clock = calibration.HostClock() if tracer is None else None
    out = {"values": {}, "unscaled": {}, "problems": [], "attempted": 0, "failed": 0,
           "rounds": 0}
    first_stream = 0
    with clock if clock is not None else contextlib.nullcontext():
        f, opts = workload_setup(args.workload)
        out["setup_end"] = time.monotonic()
        out["setup_kernel_s"] = clock.spent if clock is not None else 0.0
        out["setup_slowdown"] = calibration.slowdown_now(clock) if clock is not None else 1.0
        if not args.probe:
            schedule = run_compile(f, opts, np.random.default_rng(args.seed), out, clock)
            first_stream = len(tracer.spans) if tracer is not None else 0
            if schedule is not None:
                run_apps(f, opts, schedule, args.seed, args.seconds, out, clock)
    out["values"]["peak_rss_mb"] = peak_rss_mb()
    if clock is not None and clock.samples:
        out["slowdown"] = clock.slowdown()
    out["env"] = environment()

    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans, first_stream, out["rounds"],
                                      len(NOISE_ETAS) * NOISE_TRIALS)
        out["layer_self_s"] = layer_self_times(tracer.spans)
        out["not_wrapped"] = tracer.missing
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
