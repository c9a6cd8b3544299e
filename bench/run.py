#!/usr/bin/env python3
"""Benchmark of hsvt: three schedule compiles, each followed by a stream of
applications on the compiled schedule.

One run:

    python3 bench/run.py --workload apps --seed 1 --seconds 14 --trace 0

prints every metric by name and unit, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  --trace 0
gives the end-to-end metrics, --trace 1 the per-layer ones from a traced
run.  Repeat mode runs each workload on several seeds and prints each
metric's median and quartiles:

    python3 bench/run.py --workload all --repeat 10 --seed 100 --seconds 14 --trace 0

Every timed sample runs in a fresh worker process (worker.py) with
OpenBLAS pinned to one thread, because the compiled schedule and its
compile time both change with the BLAS thread count.  Timed metrics are
scaled by the host speed that calibration.py measures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
BLAS_THREADS = 1
SETUP_SAMPLES = 5           # set-up is timed in this many fresh processes
RUN_DEADLINE_S = 170.0

WORKLOADS = ("compile-vt", "compile-ft", "apps")
# Metrics that must repeat exactly across runs and seeds.
EXACT = {"schedule_steps", "evolution_time", "compiler.objective_evals",
         "compiler.solves", "compiler.capped_solves", "compiler.stages",
         "compiler.polish_nfev", "compiler.jacobian_use_ratio",
         "linalg.svd_calls", "linalg.eigh_calls", "linalg.sqrt_psd_calls",
         "protocol.simulate_calls", "embedding.embed_calls",
         "applications.schedule_cache_misses", "applications.schedule_cache_hits"}


class BenchError(Exception):
    pass


def load_spec() -> dict:
    """BENCHMARK.json's metrics by name, and under "end_to_end" and
    "per_layer" the names each kind of run reports, in order."""
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hsvt" / "__init__.py").is_file() or not path.is_file():
        raise BenchError(f"{ROOT} holds no hsvt sources (src/hsvt) or no BENCHMARK.json")
    spec = json.loads(path.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for kind in ("end_to_end", "per_layer"):
        metrics[kind] = [m["name"] for m in spec[kind]]
    return metrics


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"     # every run compiles hsvt alike
    env["PYTHONHASHSEED"] = "0"              # and lays out its dicts alike
    return env


def run_worker(args, deadline, extra=()) -> tuple[dict, float]:
    """Run worker.py once; returns its report and its set-up time in seconds."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before the worker started")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {RUN_DEADLINE_S:.0f} s run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["setup_end"] - spawned


def run_once(args) -> dict:
    """One benchmark run of args.workload; returns the full record."""
    spec = load_spec()
    deadline = time.monotonic() + RUN_DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report, _ = run_worker(args, deadline,
                               ("--trace-out", str(RESULTS / f"spans-{stem}.json")))
        values = report["layers"]
        expected = spec["per_layer"]
    else:
        samples = [run_worker(args, deadline, ("--probe",))
                   for _ in range(SETUP_SAMPLES - 1)]
        samples.append(run_worker(args, deadline))
        report = samples[-1][0]
        values = report["values"]
        # most of a set-up passes before the worker's clock starts, so each
        # is scaled by kernel calls made right after it, in the same process
        unscaled = [wall - r["setup_kernel_s"] for r, wall in samples]
        report["setup_samples"] = [u / r["setup_slowdown"] for u, (r, _) in zip(unscaled, samples)]
        report["unscaled"]["setup_s"] = statistics.median(unscaled)
        values["setup_s"] = statistics.median(report["setup_samples"])
        expected = spec["end_to_end"]
    metrics = {k: {"value": values[k], "unit": spec[k]["unit"]}
               for k in expected if k in values}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": report["env"], "rounds": report["rounds"],
        "missing": [k for k in expected if k not in values],
        "problems": report["problems"], "worker": report,
        "result": {"correct": not report["problems"], "attempted": report["attempted"],
                   "failed": report["failed"], "metrics": metrics},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def print_record(record) -> None:
    env = record["env"]
    blas = "; ".join(f"{k}: {v['openblas']} threads={v['threads']}"
                     for k, v in env["blas"].items())
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"rounds={record['rounds']}")
    print(f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas=[{blas}]")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:38s} {m['value']:.6g} {m['unit']}")
    worker = record["worker"]
    if record["trace"]:
        shares = worker["layer_self_s"]
        total = sum(shares.values()) or 1.0
        print("# traced self time by layer: " + ", ".join(
            f"{k} {v:.3f} s ({100 * v / total:.1f}%)" for k, v in sorted(shares.items())))
        print("# traced run, end to end (for the tracing overhead only): " +
              ", ".join(f"{k} {v:.6g}" for k, v in sorted(worker["values"].items())))
        if worker["not_wrapped"]:
            print(f"# not wrapped (no longer in hsvt): {', '.join(worker['not_wrapped'])}")
    else:
        print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in worker['setup_samples'])}")
        print(f"# host slowdown {worker.get('slowdown', float('nan')):.4f}; unscaled: " +
              ", ".join(f"{k} {v:.6g}" for k, v in sorted(worker["unscaled"].items())))
    if "encode_samples" in worker:
        print(f"# encode latency samples: {worker['encode_samples']}")
    if record["missing"]:
        print(f"# missing: {', '.join(record['missing'])}")
    for problem in record["problems"]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# attempted={record['result']['attempted']} failed={record['result']['failed']}")


def repeat(args) -> int:
    """Run each workload on args.repeat seeds and summarise the spread."""
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for workload in names:
        records = []
        for i in range(args.repeat):
            run_args = argparse.Namespace(**{**vars(args), "workload": workload,
                                             "seed": args.seed + i})
            records.append(run_once(run_args))
            print_record(records[-1])
        print(f"## {workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        failed_share = {r["result"]["failed"] / r["result"]["attempted"] for r in records}
        print(f"##   failed share per run: {sorted(failed_share)}")
        if len(failed_share) > 1:
            status = 1
        if not all(r["result"]["correct"] for r in records):
            print("##   INCORRECT OUTPUT in some run")
            status = 1
        summary = {}
        for name in spec["per_layer" if args.trace else "end_to_end"]:
            vals = [r["result"]["metrics"][name]["value"] for r in records
                    if name in r["result"]["metrics"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = spec[name].get("bound")
            note = ""
            if name in EXACT and len(set(vals)) > 1:
                note = "  NOT EXACT"
                status = 1
            elif bound is not None:
                note = f"  bound {bound:g}" + ("  spread above bound/3" if spread > bound / 3 else "")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": vals}
            print(f"##   {name:36s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {100 * spread:.2f}% {spec[name]['unit']}{note}")
        (RESULTS / f"repeat-{workload}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=1))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload on this many consecutive seeds")
    args = parser.parse_args()
    try:
        if args.repeat:
            return repeat(args)
        if args.workload == "all":
            parser.error("--workload all needs --repeat")
        record = run_once(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
