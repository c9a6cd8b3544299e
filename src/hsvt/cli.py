"""Command-line interface: synthesize, simulate, sweep, apply, ode, history.

Every flag can also come from a JSON config file (--config); explicit flags
override file values, and unknown config keys are rejected.  All randomness
flows from the single --seed value.  Exit statuses: 0 success, 2 invalid
config, 3 parse error, 4 precondition violation, 5 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import applications, compiler, io, protocol, targets
from .compiler import PhaseSchedule, SolverOptions
from .errors import (ConfigError, ConvergenceError, HsvtError,
                     InvalidInputError, ParseError, PreconditionError)

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_NON_CONVERGENCE = 5


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _merge_config(args: argparse.Namespace, parser_keys: set) -> dict:
    """File values first, command-line overrides second."""
    merged = {}
    if args.config:
        cfg = _load_config(args.config)
        for key, value in cfg.items():
            norm = key.replace("-", "_")
            if norm not in parser_keys:
                raise ConfigError(f"unknown config key {key!r}")
            merged[norm] = value
    for key in parser_keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _target_from_config(cfg: dict) -> targets.TargetFunction:
    kind = cfg.get("kind", "identity")
    lo = float(cfg.get("sigma_lo", targets.DEFAULT_SIGMA_LO))
    hi = float(cfg.get("sigma_hi", targets.DEFAULT_SIGMA_HI))
    cap = float(cfg.get("cap", targets.DEFAULT_CAP))
    if kind == "identity":
        return targets.identity(lo, hi, cap)
    if kind == "sine":
        return targets.sine(lo, hi, cap)
    if kind == "scaled-power":
        if "power" not in cfg or "coeff" not in cfg:
            raise ConfigError("scaled-power needs 'power' and 'coeff'")
        return targets.scaled_power(cfg["power"], cfg["coeff"], lo, hi, cap)
    if kind == "inverse-sqrt-complement":
        if "coeff" not in cfg:
            raise ConfigError("inverse-sqrt-complement needs 'coeff'")
        return targets.inverse_sqrt_complement(cfg["coeff"], lo, hi, cap)
    raise ConfigError(f"unknown target kind {kind!r}")


# config key -> (SolverOptions field, type); absent keys keep the field's default
_SOLVER_KEYS = {
    "eps": ("target_eps", float),
    "seed": ("seed", int),
    "restarts": ("restarts", int),
    "variable_t": ("variable_t", bool),
    "metric": ("metric", str),
    "max_nfev": ("max_nfev", int),
}


def _solver_options(cfg: dict) -> SolverOptions:
    fields = {}
    for key, (field, cast) in _SOLVER_KEYS.items():
        if key in cfg:
            try:
                fields[field] = cast(cfg[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for config key {key!r}: {exc}") from exc
    return SolverOptions(**fields)


def _base_report(cfg: dict, t0: float) -> dict:
    from . import __version__
    return {
        "config": {k: cfg[k] for k in sorted(cfg)},
        "version": __version__,
        "seed": int(cfg.get("seed", 0)),
        "timing": {"elapsed_s": round(time.time() - t0, 3)},
    }


def cmd_synthesize(cfg: dict) -> int:
    t0 = time.time()
    f = _target_from_config(cfg)
    opts = _solver_options(cfg)
    grid_size = cfg.get("grid_size")
    if cfg.get("k") is not None:
        k = int(cfg["k"])
        schedule, rep = compiler.synthesize_schedule(
            f, k, grid_size=int(grid_size) if grid_size else None, opts=opts)
    else:
        eps = opts.target_eps
        schedule, rep = compiler.synthesize_to_accuracy(
            f, eps, k_max=applications._degree_budget(f, eps), opts=opts)
    report = _base_report(cfg, t0)
    report["synthesis"] = rep.to_dict()
    report["k"] = schedule.degree
    report["total_time"] = compiler.schedule_cost(schedule)[0]
    if cfg.get("schedule_out"):
        io._atomic_write_text(cfg["schedule_out"], schedule.to_text())
    if cfg.get("report_out"):
        io.write_report(cfg["report_out"], report)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK if rep.converged else EXIT_NON_CONVERGENCE


def cmd_simulate(cfg: dict) -> int:
    t0 = time.time()
    for key in ("matrix", "schedule"):
        if key not in cfg:
            raise ConfigError(f"simulate needs '{key}'")
    a = io.read_matrix(cfg["matrix"])
    with open(cfg["schedule"]) as fh:
        schedule = PhaseSchedule.from_text(fh.read(), path=cfg["schedule"])
    f = _target_from_config(cfg)
    eps = float(cfg.get("eps", 1e-3))
    noise = None
    if cfg.get("eta"):
        noise = protocol.ControlNoiseModel(float(cfg["eta"]),
                                           int(cfg.get("seed", 0)))
    target = protocol.build_target_unitary(a, f)
    result = protocol.simulate_protocol(a, schedule, noise=noise, target=target)
    record = protocol.verify(result, target, eps)
    report = _base_report(cfg, t0)
    report["verification"] = record
    if cfg.get("report_out"):
        io.write_report(cfg["report_out"], report)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


def _parse_values(raw) -> list:
    if isinstance(raw, (list, tuple)):
        return [float(v) for v in raw]
    if not str(raw).strip():
        return []
    return [float(tok) for tok in str(raw).split(",") if tok.strip()]


def cmd_sweep(cfg: dict) -> int:
    t0 = time.time()
    mode = cfg.get("mode", "degree")
    out = cfg.get("csv_out")
    if mode == "degree":
        ks = [int(v) for v in _parse_values(cfg.get("ks", ""))]
        f = _target_from_config(cfg)
        opts = _solver_options(cfg)
        rows = []
        if ks:
            for k, residual, schedule in compiler.degree_sweep(f, ks, opts=opts):
                total_t, steps = compiler.schedule_cost(schedule)
                rows.append([k, f"{residual:.12e}", f"{total_t:.12e}", steps])
        header = ["k", "max_residual", "total_time", "steps"]
    elif mode == "noise":
        for key in ("matrix", "schedule"):
            if key not in cfg:
                raise ConfigError(f"noise sweep needs '{key}'")
        a = io.read_matrix(cfg["matrix"])
        with open(cfg["schedule"]) as fh:
            schedule = PhaseSchedule.from_text(fh.read(), path=cfg["schedule"])
        etas = _parse_values(cfg.get("etas", ""))
        trials = int(cfg.get("trials", 100))
        rows = []
        if etas:
            table = protocol.noise_sweep(a, schedule, etas, trials,
                                         seed=int(cfg.get("seed", 0)))
            total_t, steps = compiler.schedule_cost(schedule)
            for row in table:
                rows.append([row["eta"], f"{row['mean_distance']:.12e}",
                             f"{total_t:.12e}", steps])
        header = ["eta", "mean_distance", "total_time", "steps"]
    else:
        raise ConfigError(f"unknown sweep mode {mode!r}")
    if out:
        io.write_csv(out, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(c) for c in row))
    return EXIT_OK


def cmd_apply(cfg: dict) -> int:
    t0 = time.time()
    for key in ("matrix", "state"):
        if key not in cfg:
            raise ConfigError(f"apply needs '{key}'")
    a = io.read_matrix(cfg["matrix"])
    psi = io.read_state(cfg["state"])
    result = applications.apply_matrix(
        a, psi, backend=cfg.get("backend", "exact"),
        eps=float(cfg.get("eps", 1e-3)))
    report = _base_report(cfg, t0)
    report["success_prob"] = result.success_prob
    report["amplification"] = result.amplification
    if cfg.get("state_out"):
        io.write_state(cfg["state_out"], result.state)
    if cfg.get("report_out"):
        io.write_report(cfg["report_out"], report)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


def cmd_ode(cfg: dict) -> int:
    t0 = time.time()
    for key in ("generator", "state"):
        if key not in cfg:
            raise ConfigError(f"ode needs '{key}'")
    b = io.read_matrix(cfg["generator"])
    psi0 = io.read_state(cfg["state"])
    problem = applications.OdeProblem(
        b=b, dt=float(cfg.get("dt", 0.01)), steps=int(cfg.get("steps", 100)),
        psi0=psi0)
    cascade, final = applications.ode_solve(
        problem, backend=cfg.get("backend", "exact"),
        eps=float(cfg.get("eps", 1e-3)))
    report = _base_report(cfg, t0)
    report["final_norm"] = float(np.linalg.norm(final))
    report["final_prob"] = float(np.real(np.vdot(final, final)))
    report["total_norm_sq"] = cascade.total_norm_sq()
    if cfg.get("state_out"):
        io.write_state(cfg["state_out"], final)
    if cfg.get("report_out"):
        io.write_report(cfg["report_out"], report)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


def cmd_history(cfg: dict) -> int:
    t0 = time.time()
    for key in ("matrix", "state"):
        if key not in cfg:
            raise ConfigError(f"history needs '{key}'")
    a = io.read_matrix(cfg["matrix"])
    psi = io.read_state(cfg["state"])
    result = applications.history_state(
        a, psi, n=int(cfg.get("n", 4)), eps=float(cfg.get("eps", 1e-3)),
        backend=cfg.get("backend", "exact"))
    report = _base_report(cfg, t0)
    report["success_prob"] = result.success_prob
    report["kappa_tilde"] = result.kappa_tilde
    report["amplification"] = result.amplification
    if cfg.get("state_out"):
        io.write_state(cfg["state_out"], result.history)
    if cfg.get("report_out"):
        io.write_report(cfg["report_out"], report)
    else:
        json.dump(report, sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


_COMMANDS = {
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "apply": cmd_apply,
    "ode": cmd_ode,
    "history": cmd_history,
}


def _add_common(sp):
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--report-out", dest="report_out")


def _add_target_flags(sp):
    # sampled targets need data that no flag or config key carries
    sp.add_argument("--kind",
                    choices=[k for k in targets.KINDS if k != "custom-samples"])
    sp.add_argument("--sigma-lo", dest="sigma_lo", type=float)
    sp.add_argument("--sigma-hi", dest="sigma_hi", type=float)
    sp.add_argument("--cap", type=float)
    sp.add_argument("--power", type=float)
    sp.add_argument("--coeff", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsvt",
        description="Phase-schedule synthesis and simulation for "
                    "singular-value transformations of block Hamiltonians.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synthesize", help="compile a phase schedule")
    _add_common(sp)
    _add_target_flags(sp)
    sp.add_argument("--k", type=int)
    sp.add_argument("--grid-size", dest="grid_size", type=int)
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--max-nfev", dest="max_nfev", type=int)
    sp.add_argument("--metric", choices=["full", "corner"])
    sp.add_argument("--variable-t", dest="variable_t", action="store_const",
                    const=True)
    sp.add_argument("--schedule-out", dest="schedule_out")

    sp = sub.add_parser("simulate", help="run a schedule against a matrix")
    _add_common(sp)
    _add_target_flags(sp)
    sp.add_argument("--matrix")
    sp.add_argument("--schedule")
    sp.add_argument("--eta", type=float)

    sp = sub.add_parser("sweep", help="degree or noise sweep to CSV")
    _add_common(sp)
    _add_target_flags(sp)
    sp.add_argument("--mode", choices=["degree", "noise"])
    sp.add_argument("--ks")
    sp.add_argument("--etas")
    sp.add_argument("--trials", type=int)
    sp.add_argument("--matrix")
    sp.add_argument("--schedule")
    sp.add_argument("--restarts", type=int)
    sp.add_argument("--max-nfev", dest="max_nfev", type=int)
    sp.add_argument("--csv-out", dest="csv_out")

    sp = sub.add_parser("apply", help="apply A to a state")
    _add_common(sp)
    sp.add_argument("--matrix")
    sp.add_argument("--state")
    sp.add_argument("--backend", choices=["exact", "protocol"])
    sp.add_argument("--state-out", dest="state_out")

    sp = sub.add_parser("ode", help="forward-Euler evolution cascade")
    _add_common(sp)
    sp.add_argument("--generator")
    sp.add_argument("--state")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--backend", choices=["exact", "protocol"])
    sp.add_argument("--state-out", dest="state_out")

    sp = sub.add_parser("history", help="history state via inversion")
    _add_common(sp)
    sp.add_argument("--matrix")
    sp.add_argument("--state")
    sp.add_argument("--n", type=int)
    sp.add_argument("--backend", choices=["exact", "protocol"])
    sp.add_argument("--state-out", dest="state_out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors, which matches invalid-config
        return int(exc.code) if exc.code else EXIT_OK
    keys = {k for k in vars(args) if k not in ("command", "config")}
    try:
        cfg = _merge_config(args, keys)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_CONVERGENCE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except HsvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
