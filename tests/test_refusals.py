"""Refusals of the library's entry points: each bad input raises its own
error class with its own message."""

import re

import numpy as np
import pytest

from hsvt import applications, compiler, embedding, io, linalg, protocol, targets
from hsvt.compiler import SolverOptions
from hsvt.errors import (CapError, InvalidInputError, ParseError,
                         ZeroProbabilitySignal)

HALF = 0.5 * np.eye(2)
SCHEDULE = compiler.schedule_from_arrays([0.3, -0.3])


def _verify(eps):
    """verify on a run of SCHEDULE against the identity's target, on HALF."""
    h = embedding.embed(HALF)
    target = protocol.build_target_unitary(h, targets.identity(0.3, 0.8))
    return protocol.verify(protocol.simulate_protocol(h, SCHEDULE), target, eps)


def _write(path, text):
    path.write_text(text)
    return path


REFUSALS = {
    "apply-empty-state": (lambda tmp: applications.apply_matrix(HALF, []),
                          InvalidInputError, "state must be a nonempty finite vector"),
    "apply-state-dim": (lambda tmp: applications.apply_matrix(HALF, [1, 0, 0]),
                        InvalidInputError, "state dimension 3 does not match A columns 2"),
    "amplification-nan": (lambda tmp: applications.amplification_rounds(np.nan),
                          InvalidInputError, "p must be finite, got nan"),
    "compiled-schedule-eps-bool": (lambda tmp: applications.compiled_schedule(
                                       targets.identity(0.3, 0.8), True),
                                   InvalidInputError, "eps must be a number, got True"),
    "encode-eps-bool": (lambda tmp: applications.inverse_block_encode(HALF, True),
                        InvalidInputError, "eps must be a number, got True"),
    "verify-eps-bool": (lambda tmp: _verify(True),
                        InvalidInputError, "eps must be a number, got True"),
    "verify-eps-nan": (lambda tmp: _verify(np.nan),
                       InvalidInputError, "eps must be >= 0 and finite, got nan"),
    "phase-step-bool": (lambda tmp: compiler.PhaseStep(True, 1.0),
                        InvalidInputError, "phi must be a number, got True"),
    "cap-bool": (lambda tmp: targets.identity(0.2, 0.8, cap=True),
                 InvalidInputError, "cap must be a number, got True"),
    "cascade-n-0": (lambda tmp: applications.power_cascade(HALF, [1, 0], 0),
                    InvalidInputError, "n must be >= 1"),
    "cascade-n-fractional": (lambda tmp: applications.power_cascade(HALF, [1, 0], 2.5),
                             InvalidInputError, "n must be an integer, got 2.5"),
    "cascade-n-bool": (lambda tmp: applications.power_cascade(HALF, [1, 0], True),
                       InvalidInputError, "n must be an integer, got True"),
    "cascade-state-dim": (lambda tmp: applications.power_cascade(HALF, [1, 0, 0], 1),
                          InvalidInputError, "state dimension does not match A"),
    "ode-dt-0": (lambda tmp: applications.OdeProblem(-np.eye(2), 0.0, 1, [1, 0]),
                 InvalidInputError, "dt must be positive"),
    "ode-dt-inf": (lambda tmp: applications.OdeProblem(-np.eye(2), np.inf, 2, [1, 0]),
                   InvalidInputError, "dt must be positive and finite, got inf"),
    "ode-steps-0": (lambda tmp: applications.OdeProblem(-np.eye(2), 0.1, 0, [1, 0]),
                    InvalidInputError, "steps must be >= 1"),
    "ode-steps-fractional": (lambda tmp: applications.ode_solve(
                                 applications.OdeProblem(-np.eye(2), 0.1, 2.5, [1, 0])),
                             InvalidInputError, "steps must be an integer, got 2.5"),
    "ode-b-2x3": (lambda tmp: applications.OdeProblem(np.zeros((2, 3)), 0.1, 1, [1, 0]),
                  InvalidInputError, "B must be square"),
    "ode-psi0-dim": (lambda tmp: applications.OdeProblem(-np.eye(2), 0.1, 1, [1, 0, 0]),
                     InvalidInputError, "psi0 dimension does not match B"),
    "history-a-2x3": (lambda tmp: applications.history_state(np.zeros((2, 3)), [1, 0, 0], 1),
                      InvalidInputError, "history state needs a square matrix"),
    "history-n-0": (lambda tmp: applications.history_state(HALF, [1, 0], 0),
                    InvalidInputError, "n must be >= 1"),
    "history-n-fractional": (lambda tmp: applications.history_state(HALF, [1, 0], 2.5),
                             InvalidInputError, "n must be an integer, got 2.5"),
    "history-state-dim": (lambda tmp: applications.history_state(HALF, [1, 0, 0], 1),
                          InvalidInputError, "state dimension does not match A"),
    "history-zero-state": (lambda tmp: applications.history_state(HALF, [0, 0], 1),
                           ZeroProbabilitySignal, "history state has zero weight"),
    # the squared norm 1e-400 underflows to 0
    "history-underflowing-state": (lambda tmp: applications.history_state(
                                       HALF, [1e-200, 0], 1),
                                   ZeroProbabilitySignal, "history state has zero weight"),
    "history-overflowing-state": (lambda tmp: applications.history_state(
                                      HALF, [1e200, 0], 2),
                                  InvalidInputError,
                                  "history state's squared norm overflows"),
    "target-above-1": (lambda tmp: protocol.build_target_unitary(
                           np.diag([0.99]), targets.inverse_sqrt_complement(0.3, 0.1, 0.9)),
                       CapError, "|f(sigma)| reaches 2.12664 > 1; no unitary completion exists"),
    # a cap above 1 admits the target; its values above 1 on the synthesis
    # grid are refused when the grid's reduced target is built
    "synthesis-above-1": (lambda tmp: compiler.synthesize_schedule(
                              targets.scaled_power(1, 2, 0.05, 0.95, cap=3), 2),
                          CapError, "|f| reaches 1.88271 > 1"),
    "reduced-model-negative-sigma": (lambda tmp: compiler.reduced_model(SCHEDULE, -0.1),
                                     InvalidInputError, "sigma must be >= 0"),
    "reduced-model-nan-sigma": (lambda tmp: compiler.reduced_model(SCHEDULE, np.nan),
                                InvalidInputError, "sigma must be >= 0 and finite, got nan"),
    "reduced-model-inf-sigma": (lambda tmp: compiler.reduced_model(SCHEDULE, np.inf),
                                InvalidInputError, "sigma must be >= 0 and finite, got inf"),
    "reduced-product-bad-sigmas": (lambda tmp: compiler.reduced_product(
                                       SCHEDULE, [np.nan, -0.5]),
                                   InvalidInputError, "sigma must be >= 0 and finite, got nan"),
    "chebyshev-grid-n-fractional": (lambda tmp: compiler.chebyshev_grid(0.4, 0.8, 2.5),
                                    InvalidInputError, "n must be an integer, got 2.5"),
    "chebyshev-grid-n-0": (lambda tmp: compiler.chebyshev_grid(0.4, 0.8, 0),
                           InvalidInputError, "n must be >= 1, got 0"),
    "synthesis-k-0": (lambda tmp: compiler.synthesize_schedule(targets.identity(0.3, 0.8), 0),
                      InvalidInputError, "degree k must be >= 1, got 0"),
    "synthesis-k-fractional": (lambda tmp: compiler.synthesize_schedule(
                                   targets.identity(0.3, 0.8), 1.5),
                               InvalidInputError, "degree k must be an integer, got 1.5"),
    "synthesis-k-bool": (lambda tmp: compiler.synthesize_schedule(
                             targets.identity(0.3, 0.8), True),
                         InvalidInputError, "degree k must be an integer, got True"),
    "synthesis-grid-fractional": (lambda tmp: compiler.synthesize_schedule(
                                      targets.identity(0.3, 0.8), 1, grid_size=2.5),
                                  InvalidInputError, "grid_size must be an integer, got 2.5"),
    "synthesis-grid-below-2k": (lambda tmp: compiler.synthesize_schedule(
                                    targets.identity(0.3, 0.8), 4, grid_size=7),
                                InvalidInputError, "grid_size must be >= 8, got 7"),
    "degree-sweep-variable-t": (lambda tmp: compiler.degree_sweep(
                                    targets.identity(0.3, 0.8), [4],
                                    SolverOptions(variable_t=True)),
                                InvalidInputError, "degree_sweep runs in fixed-t mode"),
    "degree-sweep-k-fractional": (lambda tmp: compiler.degree_sweep(
                                      targets.identity(0.3, 0.8), [2.5]),
                                  InvalidInputError, "degree must be an integer, got 2.5"),
    "degree-sweep-k-0": (lambda tmp: compiler.degree_sweep(targets.identity(0.3, 0.8), [4, 0]),
                         InvalidInputError, "degree must be >= 1, got 0"),
    "noise-sweep-trials-0": (lambda tmp: protocol.noise_sweep(HALF, SCHEDULE, [0.1], 0),
                             InvalidInputError, "trials must be >= 1"),
    "noise-sweep-trials-fractional": (lambda tmp: protocol.noise_sweep(
                                          HALF, SCHEDULE, [0.1], 2.5),
                                      InvalidInputError, "trials must be an integer, got 2.5"),
    "noise-sweep-seed-fractional": (lambda tmp: protocol.noise_sweep(
                                        HALF, SCHEDULE, [0.1], 2, seed=2.5),
                                    InvalidInputError, "seed must be an integer, got 2.5"),
    "noise-sweep-etas-number": (lambda tmp: protocol.noise_sweep(HALF, SCHEDULE, 1e-3, 2),
                                InvalidInputError,
                                "etas must be a sequence of numbers, got 0.001"),
    "noise-sweep-etas-none": (lambda tmp: protocol.noise_sweep(HALF, SCHEDULE, None, 2),
                              InvalidInputError,
                              "etas must be a sequence of numbers, got None"),
    "noise-sweep-etas-string": (lambda tmp: protocol.noise_sweep(HALF, SCHEDULE, "0.1", 2),
                                InvalidInputError,
                                "etas must be a sequence of numbers, got '0.1'"),
    "noise-sweep-etas-set": (lambda tmp: protocol.noise_sweep(HALF, SCHEDULE, {0.1}, 2),
                             InvalidInputError,
                             "etas must be a sequence of numbers, got {0.1}"),
    "noise-model-count-negative": (lambda tmp: protocol.ControlNoiseModel(0.1).time_factors(-1),
                                   InvalidInputError, "count must be >= 0, got -1"),
    "noise-model-count-fractional": (lambda tmp: protocol.ControlNoiseModel(0.1).time_factors(
                                         2.5),
                                     InvalidInputError, "count must be an integer, got 2.5"),
    "noise-model-count-bool": (lambda tmp: protocol.ControlNoiseModel(0.1).time_factors(True),
                               InvalidInputError, "count must be an integer, got True"),
    "noise-model-seed-fractional": (lambda tmp: protocol.ControlNoiseModel(0.1, seed=2.5),
                                    InvalidInputError, "seed must be an integer, got 2.5"),
    "solver-options-seed-fractional": (lambda tmp: SolverOptions(seed=2.5),
                                       InvalidInputError,
                                       "seed must be an integer, got 2.5"),
    "solver-options-max-nfev-fractional": (lambda tmp: SolverOptions(max_nfev=2.5),
                                           InvalidInputError,
                                           "max_nfev must be an integer, got 2.5"),
    "solver-options-max-nfev-0": (lambda tmp: SolverOptions(max_nfev=0),
                                  InvalidInputError, "max_nfev must be >= 1, got 0"),
    "solver-options-metric": (lambda tmp: SolverOptions(metric="cubic"),
                              InvalidInputError,
                              "metric must be 'full' or 'corner', got 'cubic'"),
    "degree-delta-string": (lambda tmp: targets.degree_for_accuracy("0.5", 0.1),
                            InvalidInputError, "delta must be a number, got '0.5'"),
    "degree-eps-none": (lambda tmp: targets.degree_for_accuracy(0.5, None),
                        InvalidInputError, "eps must be a number, got None"),
    "degree-eps-bool": (lambda tmp: targets.degree_for_accuracy(0.5, True),
                        InvalidInputError, "eps must be a number, got True"),
    "degree-delta-0": (lambda tmp: targets.degree_for_accuracy(0.0, 0.1),
                       InvalidInputError, "delta must lie in (0, 1), got 0.0"),
    "degree-eps-nan": (lambda tmp: targets.degree_for_accuracy(0.5, np.nan),
                       InvalidInputError, "eps must be finite, got nan"),
    "unknown-kind": (lambda tmp: targets.TargetFunction("cubic"),
                     InvalidInputError, "unknown target kind 'cubic'"),
    "target-power-bool": (lambda tmp: targets.scaled_power(True, 0.5, 0.2, 0.8),
                          InvalidInputError, "power must be a number, got True"),
    "target-coeff-bool": (lambda tmp: targets.inverse_sqrt_complement(np.True_, 0.2, 0.8),
                          InvalidInputError, "coeff must be a number, got np.True_"),
    "target-sigma-lo-bool": (lambda tmp: targets.identity(True, 0.8),
                             InvalidInputError, "sigma_lo must be a number, got True"),
    "target-sigma-hi-nan": (lambda tmp: targets.sine(0.2, np.nan),
                            InvalidInputError, "sigma_hi must be finite, got nan"),
    "target-coeff-nan": (lambda tmp: targets.scaled_power(1, np.nan, 0.2, 0.8),
                         InvalidInputError, "coeff must be finite, got nan"),
    "target-sigma-hi-above-1": (lambda tmp: targets.identity(0.2, 1.5),
                                InvalidInputError,
                                "domain must satisfy 0 < sigma_lo < sigma_hi < 1, "
                                "got [0.2, 1.5]"),
    "infinite-coeff": (lambda tmp: targets.scaled_power(-1, np.inf, 0.1, 0.9),
                       InvalidInputError, "target function is not finite on its domain"),
    "matrix-ndim-3": (lambda tmp: linalg.as_complex_matrix(np.zeros((2, 2, 2))),
                      InvalidInputError, "matrix must be 2-dimensional, got ndim=3"),
    "matrix-ndim-1": (lambda tmp: linalg.svd(np.array([0.5, 0.1])),
                      InvalidInputError, "A must be 2-dimensional, got ndim=1"),
    "svd-nan": (lambda tmp: linalg.svd([[np.nan]]),
                InvalidInputError, "A contains non-finite entries"),
    "read-entry-out-of-range": (lambda tmp: io.read_matrix(_write(
                                    tmp / "m.json",
                                    '{"rows": 1, "cols": 1, "entries": [[1' + "0" * 400
                                    + ', 0]]}')),
                                ParseError, "entry 0 is out of range"),
    "read-top-level-list": (lambda tmp: io.read_matrix(_write(tmp / "m.json", "[1, 2]")),
                            ParseError, "top-level JSON value must be an object"),
    "read-nested-too-deep": (lambda tmp: io.read_matrix(_write(tmp / "m.json", "[" * 200000)),
                             ParseError, "invalid JSON: maximum recursion depth exceeded"),
    "read-int-too-long": (lambda tmp: io.read_matrix(_write(tmp / "m.json", "1" * 5000)),
                          ParseError, "invalid JSON: Exceeds the limit (4300 digits)"),
    "schedule-version-v12": (lambda tmp: compiler.PhaseSchedule.from_text(
                                 "# hsvt-schedule v12 k=1\n0.1,1\n"),
                             ParseError, "missing 'hsvt-schedule v1' header at line 1"),
    "schedule-version-v1x": (lambda tmp: compiler.PhaseSchedule.from_text(
                                 "# hsvt-schedule v1x k=1\n0.1,1\n"),
                             ParseError, "missing 'hsvt-schedule v1' header at line 1"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_class_and_message(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)) as exc:
        call(tmp_path)
    assert type(exc.value) is error
