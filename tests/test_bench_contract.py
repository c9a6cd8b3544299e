"""The names bench/spans.py wraps must exist in hsvt and be called.

The benchmark's tracer wraps hsvt functions by name, and emits a per-layer
metric only when the name it reads was wrapped and called, so a renamed or
uncalled function silently drops metrics from a traced run.  The tracer
patches hsvt in place, so the check runs in its own process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hsvt

BENCH = Path(__file__).resolve().parents[1] / "bench"

SCRIPT = """
import json

import numpy as np

import hsvt
from hsvt import compiler, protocol, targets
from spans import Tracer

tracer = Tracer()
tracer.instrument(hsvt)
f = targets.identity(0.4, 0.8)
schedule, _ = compiler.synthesize_schedule(f, 6)
a = np.diag([0.5, 0.7])
protocol.simulate_protocol(a, schedule)
protocol.build_target_unitary(a, f)
protocol.noise_sweep(a, schedule, [0.01], 1)
print(json.dumps({"missing": tracer.missing,
                  "called": sorted({s[0] for s in tracer.spans})}))
"""

LAYER_NAMES = ("compiler._residual_jacobian", "compiler.least_squares",
               "compiler._stage_solve", "compiler._solve_fixed_degree",
               "linalg.svd", "linalg.hermitian_eig", "linalg.sqrt_psd",
               "embedding.embed")


def test_bench_tracer_wraps_and_sees_every_layer_name():
    src = os.path.dirname(os.path.dirname(hsvt.__file__))
    path = [src, str(BENCH), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["missing"] == []
    assert set(LAYER_NAMES) <= set(result["called"])


STREAM_SCRIPT = """
import json

import numpy as np

import hsvt
from hsvt import applications, protocol, targets
from spans import Tracer

tracer = Tracer()
tracer.instrument(hsvt)
domain = (0.4, 0.8)
a = np.diag([0.5, 0.7])
applications.inverse_block_encode(a, 1e-3, domain=domain)
applications.power_cascade(a, np.array([0.6, 0.8]), 5, backend="protocol", domain=domain)
problem = applications.OdeProblem(b=-np.eye(2), dt=0.01, steps=5, psi0=np.array([1.0, 0.0]))
applications.ode_solve(problem, backend="exact")
schedule = applications.compiled_schedule(targets.identity(*domain), 1e-3)
protocol.noise_sweep(a, schedule, [1e-3, 2e-3], 2)
print(json.dumps({"missing": tracer.missing,
                  "called": sorted({s[0] for s in tracer.spans})}))
"""

# the names the stream's per-layer metrics read (bench/spans.py, layer_metrics)
STREAM_NAMES = ("protocol.simulate_protocol", "protocol.build_target_unitary",
                "protocol.noise_sweep", "linalg.svd", "linalg.hermitian_eig", "linalg.sqrt_psd",
                "embedding.embed", "applications.compiled_schedule")


def test_bench_tracer_sees_every_name_the_application_stream_reads():
    # one encode, one protocol cascade, one exact ODE and one noise sweep,
    # as the bench's application stream runs them
    src = os.path.dirname(os.path.dirname(hsvt.__file__))
    path = [src, str(BENCH), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", STREAM_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["missing"] == []
    assert set(STREAM_NAMES) <= set(result["called"])
