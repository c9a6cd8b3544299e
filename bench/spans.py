"""Spans around calls into hsvt's layers, recorded from outside the package.

``instrument`` replaces module attributes with timing wrappers, in every
hsvt module that holds a reference to them, so calls between modules are
seen too.  Spans (name, start, end, parent, info) stay in memory until the
run ends; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("compiler", "protocol", "applications", "linalg", "embedding", "targets")

# The compiler's work happens below its public entry points, so these private
# names are wrapped as well; scipy's least_squares is wrapped as bound in compiler.
PRIVATE = {
    "compiler": ("least_squares", "_residual_jacobian", "_stage_solve",
                 "_solve_fixed_degree"),
}


def _solver_info(sol):
    return {"nfev": int(sol.nfev), "njev": int(sol.njev or 0), "status": int(sol.status)}


ANNOTATE = {"compiler.least_squares": _solver_info}

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if annotate is not None:
                span[INFO] = annotate(result)
            return result

        return traced

    def instrument(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            names = [n for n, v in vars(module).items()
                     if inspect.isfunction(v) and not n.startswith("_")
                     and v.__module__ == module.__name__]
            for name in names + list(PRIVATE.get(layer, ())):
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        prefix = package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def dump(self) -> dict:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start", "end", "parent", "info"],
            "spans": [[index[s[NAME]], s[START], s[END], s[PARENT], s[INFO]]
                      for s in self.spans],
        }


def _child_time(spans):
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return child


def layer_self_times(spans) -> dict:
    """Seconds each layer spent in its own code, excluding traced callees."""
    child = _child_time(spans)
    out = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME].split(".", 1)[0]] += s[END] - s[START] - child[i]
    return dict(out)


def layer_metrics(spans, first_timed: int, rounds: int, trials_per_sweep: int) -> dict:
    """Per-layer metrics from the spans of one run.

    Compiler metrics and cache misses cover the whole run (each workload
    compiles once).  Application-layer metrics cover the spans of the
    stream, from ``first_timed`` on, and are given per round.
    """
    child = _child_time(spans)
    seen = Counter(s[NAME] for s in spans)
    out = {}

    def dur(s):
        return s[END] - s[START]

    evals = [s for s in spans if s[NAME] == "compiler._residual_jacobian"]
    solve_ids = [i for i, s in enumerate(spans) if s[NAME] == "compiler.least_squares"]
    solves = [spans[i] for i in solve_ids]
    if evals:
        out["compiler.objective_evals"] = len(evals)
        out["compiler.objective_s"] = sum(map(dur, evals))
    if solves:
        out["compiler.solves"] = len(solves)
        out["compiler.capped_solves"] = sum(1 for s in solves if s[INFO]["status"] == 0)
        # the objective is least_squares' only traced callee
        out["compiler.solver_overhead_s"] = sum(dur(spans[i]) - child[i] for i in solve_ids)
        if evals:
            out["compiler.jacobian_use_ratio"] = sum(s[INFO]["njev"] for s in solves) / len(evals)
    stages = [s for s in spans if s[NAME] == "compiler._stage_solve"]
    if stages:
        out["compiler.stages"] = len(stages)
        out["compiler.stage_s"] = sum(map(dur, stages))
    polish = [i for i, s in enumerate(spans) if s[NAME] == "compiler._solve_fixed_degree"]
    if polish:
        last = polish[-1]
        out["compiler.polish_s"] = dur(spans[last])
        if solves:
            out["compiler.polish_nfev"] = sum(s[INFO]["nfev"] for s in solves
                                              if s[PARENT] == last)

    lookups = [i for i, s in enumerate(spans) if s[NAME] == "applications.compiled_schedule"]
    if lookups:
        reached = {s[PARENT] for s in spans if s[NAME].startswith("compiler.")}
        out["applications.schedule_cache_misses"] = sum(1 for i in lookups if i in reached)

    timed = spans[first_timed:]
    if rounds < 1 or not timed:
        return out
    if lookups:
        hits = sum(1 for i in lookups if i >= first_timed and i not in reached)
        out["applications.schedule_cache_hits"] = hits / rounds
    counts = Counter(s[NAME] for s in timed)
    for metric, name in (("protocol.simulate_calls", "protocol.simulate_protocol"),
                         ("linalg.svd_calls", "linalg.svd"),
                         ("linalg.eigh_calls", "linalg.hermitian_eig"),
                         ("linalg.sqrt_psd_calls", "linalg.sqrt_psd"),
                         ("embedding.embed_calls", "embedding.embed")):
        if seen[name]:
            out[metric] = counts[name] / rounds
    for metric, name in (("protocol.simulate_ms", "protocol.simulate_protocol"),
                         ("protocol.target_ms", "protocol.build_target_unitary")):
        calls = [dur(s) for s in timed if s[NAME] == name]
        if calls:
            out[metric] = 1e3 * sum(calls) / len(calls)
    sweeps = [dur(s) for s in timed if s[NAME] == "protocol.noise_sweep"]
    if sweeps:
        out["protocol.noise_trial_ms"] = 1e3 * sum(sweeps) / (len(sweeps) * trials_per_sweep)
    if any(s[NAME].startswith("linalg.") for s in timed):
        out["linalg.self_s"] = sum(dur(s) - child[first_timed + i]
                                   for i, s in enumerate(timed)
                                   if s[NAME].startswith("linalg.")) / rounds
    return out
