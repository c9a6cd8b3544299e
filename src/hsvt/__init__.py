"""Singular-value transformations of block Hamiltonians by alternating
evolution, with schedule synthesis, simulation of the protocol one singular
pair at a time on the synthesis' own 2x2 kernel, and the application suite
built on inverse block encoding."""

from . import applications, compiler, embedding, errors, io, linalg, protocol, targets
from .applications import (apply_matrix, history_state, inverse_block_encode,
                           ode_solve, power_cascade, OdeProblem)
from .compiler import (PhaseSchedule, PhaseStep, SolverOptions,
                       reduced_model, schedule_cost, synthesize_schedule,
                       synthesize_to_accuracy)
from .embedding import embed
from .protocol import (ControlNoiseModel, build_target_unitary, noise_sweep,
                       simulate_protocol, verify)
from .targets import TargetFunction, degree_for_accuracy

__version__ = "0.1.0"

__all__ = [
    "applications", "compiler", "embedding", "errors", "io", "linalg",
    "protocol", "targets",
    "apply_matrix", "history_state", "inverse_block_encode", "ode_solve",
    "power_cascade", "OdeProblem",
    "PhaseSchedule", "PhaseStep", "SolverOptions", "reduced_model",
    "schedule_cost", "synthesize_schedule", "synthesize_to_accuracy",
    "embed",
    "ControlNoiseModel", "build_target_unitary", "noise_sweep",
    "simulate_protocol", "verify",
    "TargetFunction", "degree_for_accuracy",
    "__version__",
]
