"""Command-line interface: synthesize, simulate, sweep, apply, ode, history.

Every flag can also come from a JSON config file (--config); explicit flags
override file values, and unknown config keys are rejected.  The randomness
of synthesize, simulate (--eta) and sweep flows from their --seed value; the
protocol-backend compile of apply, ode and history always uses seed 0, as
applications.compiled_schedule does.  Every command but sweep writes a JSON
report.  Exit statuses: 0 success, 2 invalid config (an output path that
cannot be written, a NaN or infinite float and a negative eps included),
3 parse error, 4 precondition violation, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import applications, compiler, embedding, io, protocol, targets
from .compiler import SolverOptions
from .errors import (ConfigError, ConvergenceError, HsvtError,
                     InvalidInputError, ParseError, PreconditionError)

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_NON_CONVERGENCE = 5


def _load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _number(cast, minimum=None):
    """argparse type casting a number or a numeric string by int or float;
    config-file values are cast by it too.  Refuses bools, fractional ints,
    NaN and +-inf, and values below minimum: a report must stay valid JSON."""
    def parse(value):
        if isinstance(value, bool) or (cast is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(f"expected {cast.__name__}, got {value!r}")
        number = cast(value)
        if cast is float and not math.isfinite(number):
            raise ValueError(f"expected a finite float, got {value!r}")
        if minimum is not None and number < minimum:
            raise ValueError(f"expected {cast.__name__} >= {minimum}, got {value!r}")
        return number
    parse.__name__ = cast.__name__      # argparse names the type in its errors
    return parse


_INT, _FLOAT = _number(int), _number(float)


def _number_list(cast):
    """argparse type for a comma-separated list; a config file may give a JSON list."""
    def parse(raw):
        if isinstance(raw, str):
            raw = [tok for tok in raw.split(",") if tok.strip()]
        elif not isinstance(raw, list):
            raise TypeError(f"expected a list or a comma-separated string, got {raw!r}")
        return [cast(v) for v in raw]
    parse.__name__ = f"{cast.__name__} list"
    return parse


# Every flag by dest, with its add_argument keywords; the flag string is
# "--" + dest.replace("_", "-").  _merge_config casts and checks config-file
# values by the same keywords.
_FLAGS = {
    "eps": {"type": _number(float, minimum=0.0)},
    "report_out": {},
    "kind": {"choices": targets.KINDS},
    "sigma_lo": {"type": _FLOAT},
    "sigma_hi": {"type": _FLOAT},
    "cap": {"type": _FLOAT},
    "power": {"type": _FLOAT},
    "coeff": {"type": _FLOAT},
    "seed": {"type": _INT},
    "k": {"type": _INT},
    "grid_size": {"type": _INT},
    "max_nfev": {"type": _INT},
    "metric": {"choices": ["full", "corner"]},
    "variable_t": {"action": "store_const", "const": True},
    "schedule_out": {},
    "matrix": {},
    "schedule": {},
    "eta": {"type": _FLOAT},
    "mode": {"choices": ["degree", "noise"]},
    "ks": {"type": _number_list(_INT)},
    "etas": {"type": _number_list(_FLOAT)},
    "trials": {"type": _INT},
    "csv_out": {},
    "state": {},
    "backend": {"choices": ["exact", "protocol"]},
    "state_out": {},
    "generator": {},
    "dt": {"type": _FLOAT},
    "steps": {"type": _INT},
    "n": {"type": _INT},
}
_REPORT = ("eps", "report_out")     # flags of the commands that write a report
_TARGET = ("kind", "sigma_lo", "sigma_hi", "cap", "power", "coeff")


def _cast_config_value(spec: dict, value):
    """A config-file value as its flag would parse it from the command line."""
    if "type" in spec:
        return spec["type"](value)
    want = bool if "const" in spec else str     # --variable-t takes true/false
    if not isinstance(value, want):
        raise TypeError(f"expected {want.__name__}, got {value!r}")
    return value


def _merge_config(args: argparse.Namespace) -> dict:
    """File values first, command-line overrides second.

    Each file value is cast by the type of the command's flag of that name
    and checked against the flag's choices.
    """
    flags = {name: _FLAGS[name] for name in _COMMANDS[args.command][2]}
    merged = {}
    if args.config:
        cfg = _load_config(args.config)
        for key, value in cfg.items():
            norm = key.replace("-", "_")
            if norm not in flags:
                raise ConfigError(f"unknown config key {key!r}")
            spec = flags[norm]
            try:
                value = _cast_config_value(spec, value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for config key {key!r}: {exc}") from exc
            if "choices" in spec and value not in spec["choices"]:
                raise ConfigError(f"config key {key!r} must be one of "
                                  f"{', '.join(spec['choices'])}, got {value!r}")
            merged[norm] = value
    for key in flags:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    return merged


def _require(cfg: dict, what: str, *keys) -> None:
    for key in keys:
        if key not in cfg:
            raise ConfigError(f"{what} needs '{key}'")


def _given(cfg: dict, *keys) -> dict:
    """The keys of cfg that were set, so the library's defaults fill the rest."""
    return {key: cfg[key] for key in keys if key in cfg}


def _target_from_config(cfg: dict) -> targets.TargetFunction:
    return targets.TargetFunction(cfg.get("kind", "identity"), **_given(
        cfg, "sigma_lo", "sigma_hi", "cap", "power", "coeff"))


# config key -> SolverOptions field; absent keys keep the field's default
_SOLVER_KEYS = {"eps": "target_eps", "seed": "seed", "variable_t": "variable_t",
                "metric": "metric", "max_nfev": "max_nfev"}


def _solver_options(cfg: dict) -> SolverOptions:
    fields = {}
    for key, field in _SOLVER_KEYS.items():
        if key in cfg:
            fields[field] = cfg[key]
            try:
                SolverOptions(**{field: cfg[key]})    # each check reads one field
            except InvalidInputError as exc:
                raise ConfigError(f"bad value for config key {key!r}: {exc}") from exc
    return SolverOptions(**fields)


def _base_report(cfg: dict, t0: float) -> dict:
    from . import __version__
    return {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "version": __version__,
        "seed": cfg.get("seed", 0),
        "timing": {"elapsed_s": round(time.time() - t0, 3)},
    }


def _emit(path, text: str) -> None:
    """Write text to the file at path, or to stdout when no path is set."""
    if path:
        io.write_text(path, text)
    else:
        sys.stdout.write(text)


# Each command returns (exit status, report fields); main adds the common
# fields and emits the report.  A command that reports nothing returns None.

def cmd_synthesize(cfg: dict):
    f = _target_from_config(cfg)
    opts = _solver_options(cfg)
    if "k" in cfg:
        schedule, rep = compiler.synthesize_schedule(
            f, cfg["k"], opts=opts, **_given(cfg, "grid_size"))
    else:
        schedule, rep = compiler.synthesize_to_accuracy(f, opts.target_eps, opts=opts)
    if cfg.get("schedule_out"):
        io.write_schedule(cfg["schedule_out"], schedule)
    status = EXIT_OK if rep.converged else EXIT_NON_CONVERGENCE
    return status, {"synthesis": rep.to_dict(), "k": schedule.degree,
                    "total_time": compiler.schedule_cost(schedule)[0]}


def cmd_simulate(cfg: dict):
    _require(cfg, "simulate", "matrix", "schedule")
    a = io.read_matrix(cfg["matrix"])
    schedule = io.read_schedule(cfg["schedule"])
    f = _target_from_config(cfg)
    noise = protocol.ControlNoiseModel(cfg.get("eta", 0.0), **_given(cfg, "seed"))
    h = embedding.embed(a)
    target = protocol.build_target_unitary(h, f)
    result = protocol.simulate_protocol(h, schedule, noise=noise)
    return EXIT_OK, {"verification": protocol.verify(result, target, cfg.get("eps", 1e-3))}


def cmd_sweep(cfg: dict):
    rows = []
    if cfg.get("mode", "degree") == "degree":
        f = _target_from_config(cfg)
        for k, residual, schedule in compiler.degree_sweep(
                f, cfg.get("ks", []), opts=_solver_options(cfg)):
            total_t, steps = compiler.schedule_cost(schedule)
            rows.append([k, f"{residual:.12e}", f"{total_t:.12e}", steps])
        header = ["k", "max_residual", "total_time", "steps"]
    else:       # "noise"; argparse and _merge_config reject any other mode
        _require(cfg, "noise sweep", "matrix", "schedule")
        a = io.read_matrix(cfg["matrix"])
        schedule = io.read_schedule(cfg["schedule"])
        table = protocol.noise_sweep(a, schedule, cfg.get("etas", []),
                                     cfg.get("trials", 100), **_given(cfg, "seed"))
        total_t, steps = compiler.schedule_cost(schedule)
        for row in table:
            rows.append([row["eta"], f"{row['mean_distance']:.12e}",
                         f"{total_t:.12e}", steps])
        header = ["eta", "mean_distance", "total_time", "steps"]
    _emit(cfg.get("csv_out"), io.csv_text(header, rows))
    return EXIT_OK, None


def cmd_apply(cfg: dict):
    _require(cfg, "apply", "matrix", "state")
    a = io.read_matrix(cfg["matrix"])
    psi = io.read_state(cfg["state"])
    result = applications.apply_matrix(a, psi, **_given(cfg, "backend", "eps"))
    if cfg.get("state_out"):
        io.write_state(cfg["state_out"], result.state)
    return EXIT_OK, {"success_prob": result.success_prob,
                     "amplification": result.amplification}


def cmd_ode(cfg: dict):
    _require(cfg, "ode", "generator", "state")
    b = io.read_matrix(cfg["generator"])
    psi0 = io.read_state(cfg["state"])
    problem = applications.OdeProblem(
        b=b, dt=cfg.get("dt", 0.01), steps=cfg.get("steps", 100), psi0=psi0)
    cascade, final = applications.ode_solve(problem, **_given(cfg, "backend", "eps"))
    if cfg.get("state_out"):
        io.write_state(cfg["state_out"], final)
    return EXIT_OK, {"final_norm": float(np.linalg.norm(final)),
                     "final_prob": float(np.real(np.vdot(final, final))),
                     "total_norm_sq": cascade.total_norm_sq()}


def cmd_history(cfg: dict):
    _require(cfg, "history", "matrix", "state")
    a = io.read_matrix(cfg["matrix"])
    psi = io.read_state(cfg["state"])
    result = applications.history_state(a, psi, n=cfg.get("n", 4),
                                        **_given(cfg, "eps", "backend"))
    if cfg.get("state_out"):
        io.write_state(cfg["state_out"], result.history)
    return EXIT_OK, {"success_prob": result.success_prob,
                     "kappa_tilde": result.kappa_tilde,
                     "amplification": result.amplification}


# command -> (function, help, flags in --help order); every command also
# takes --config
_COMMANDS = {
    "synthesize": (cmd_synthesize, "compile a phase schedule",
                   _REPORT + _TARGET + ("seed", "k", "grid_size", "max_nfev",
                                        "metric", "variable_t", "schedule_out")),
    "simulate": (cmd_simulate, "run a schedule against a matrix",
                 _REPORT + _TARGET + ("seed", "matrix", "schedule", "eta")),
    "sweep": (cmd_sweep, "degree or noise sweep to CSV",
              _TARGET + ("seed", "mode", "ks", "etas", "trials", "matrix",
                         "schedule", "max_nfev", "csv_out")),
    "apply": (cmd_apply, "apply A to a state",
              _REPORT + ("matrix", "state", "backend", "state_out")),
    "ode": (cmd_ode, "forward-Euler evolution cascade",
            _REPORT + ("generator", "state", "dt", "steps", "backend", "state_out")),
    "history": (cmd_history, "history state via inversion",
                _REPORT + ("matrix", "state", "n", "backend", "state_out")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsvt",
        description="Phase-schedule synthesis and simulation for "
                    "singular-value transformations of block Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for flag in flags:
            sp.add_argument("--" + flag.replace("_", "-"), **_FLAGS[flag])
    return parser


# first match wins; reads map their OSErrors to ParseError or ConfigError, so
# an OSError that gets here comes from writing an output file
EXIT_CODES = ((ConfigError, EXIT_INVALID_CONFIG), (ParseError, EXIT_PARSE),
              (ConvergenceError, EXIT_NON_CONVERGENCE),
              (PreconditionError, EXIT_PRECONDITION),
              (InvalidInputError, EXIT_INVALID_CONFIG),
              (OSError, EXIT_INVALID_CONFIG), (HsvtError, EXIT_PRECONDITION))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors, which matches invalid-config
        return int(exc.code) if exc.code else EXIT_OK
    try:
        cfg = _merge_config(args)
        t0 = time.time()
        status, fields = _COMMANDS[args.command][0](cfg)
        if fields is not None:
            _emit(cfg.get("report_out"),
                  io.report_text({**_base_report(cfg, t0), **fields}))
        return status
    except (HsvtError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
