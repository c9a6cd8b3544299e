"""Property tests: hostile input only ever raises the documented errors."""

import contextlib
import json
import os
from io import StringIO

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import hsvt  # noqa: E402
from hsvt import cli, compiler, io, linalg, protocol  # noqa: E402
from hsvt.compiler import PhaseSchedule, SolverOptions  # noqa: E402
from hsvt.errors import ConfigError, InvalidInputError, ParseError  # noqa: E402

from conftest import (full_space_unitary, noise_sweep_oracle, reduced_full_gap,  # noqa: E402
                      row_norm_defect)

HEADER = "# hsvt-schedule v1 "
_number = st.one_of(st.floats(), st.integers().map(str), st.text(max_size=8))
_row = st.tuples(_number, _number).map(lambda p: f"{p[0]},{p[1]}")
schedule_texts = st.one_of(
    st.text(),
    st.builds(lambda body: HEADER + body, st.text()),
    st.builds(lambda k, rows: HEADER + f"k={k}\n" + "\n".join(rows),
              st.one_of(st.integers(-2, 4).map(str), st.text(max_size=4)),
              st.lists(st.one_of(_row, st.text(max_size=12)), max_size=4)),
)


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=4))
def test_every_constructed_schedule_reads_back(tmp_path_factory, steps):
    try:
        schedule = compiler.schedule_from_arrays([p for p, _ in steps],
                                                 [t for _, t in steps])
    except InvalidInputError:
        return
    path = tmp_path_factory.getbasetemp() / "roundtrip.sched"
    io.write_schedule(path, schedule)
    assert io.read_schedule(path).to_text() == schedule.to_text()


@settings(max_examples=300, deadline=None, database=None)
@given(st.floats(min_value=-np.pi, max_value=np.pi, exclude_min=True))
@example(np.pi)
@example(-0.0)
def test_phase_in_the_wrap_interval_is_kept_exactly(phi):
    schedule = compiler.schedule_from_arrays([phi])
    assert schedule.steps[0].phi == phi
    text = schedule.to_text()
    assert PhaseSchedule.from_text(text).to_text() == text


@settings(max_examples=300, deadline=None, database=None)
@given(schedule_texts)
def test_schedule_from_text_raises_only_parse_error(text):
    try:
        schedule = PhaseSchedule.from_text(text)
    except ParseError:
        return
    assert schedule.degree == len(schedule.steps)


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(max_size=8))
json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)
_sizes = st.one_of(st.integers(-1, 3), json_values)
matrix_dicts = st.one_of(
    st.dictionaries(st.sampled_from(["rows", "cols", "entries", "x"]), json_values),
    st.fixed_dictionaries({
        "rows": _sizes, "cols": _sizes,
        "entries": st.one_of(json_values,
                             st.lists(st.one_of(st.lists(_scalars, max_size=3),
                                                json_values), max_size=9)),
    }),
)


@settings(max_examples=300, deadline=None, database=None)
@given(matrix_dicts)
def test_matrix_from_dict_raises_only_parse_error(d):
    try:
        m = io.matrix_from_dict(d)
    except ParseError:
        return
    assert m.shape == (d["rows"], d["cols"])


_PARSER = cli.build_parser()


@settings(max_examples=300, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(sorted(cli._SOLVER_KEYS)), json_values))
def test_solver_options_raise_only_config_error(tmp_path_factory, cfg):
    # the config goes through the same merge as `hsvt synthesize --config`
    path = tmp_path_factory.getbasetemp() / "solver-config.json"
    path.write_text(json.dumps(cfg))
    args = _PARSER.parse_args(["synthesize", "--config", str(path)])
    try:
        opts = cli._solver_options(cli._merge_config(args))
    except ConfigError:
        return
    assert isinstance(opts, SolverOptions)
    assert type(opts.target_eps) is float and type(opts.variable_t) is bool
    assert all(type(v) is int for v in (opts.seed, opts.max_nfev))
    assert opts.metric in ("full", "corner")


@st.composite
def contractions(draw):
    """m x n matrices, 1 <= m, n <= 5, with singular values drawn from [0, 1]."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    s = draw(st.lists(st.floats(0.0, 1.0), min_size=min(m, n), max_size=min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    return (u * s) @ vh


schedules = st.integers(0, 8).flatmap(lambda k: st.builds(
    compiler.schedule_from_arrays,
    st.lists(st.floats(-np.pi, np.pi), min_size=k, max_size=k),
    st.lists(st.floats(0.0, compiler.T_MAX, exclude_min=True), min_size=k, max_size=k)))


@settings(max_examples=40, deadline=None, database=None)
@given(contractions(), schedules)
def test_protocol_matches_reduced_model_on_random_inputs(a, schedule):
    result = protocol.simulate_protocol(a, schedule)
    u = result.unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2) <= 1e-10
    assert reduced_full_gap(result, schedule) <= 1e-10
    assert row_norm_defect(compiler.reduced_product(schedule, linalg.svd(a).singulars)) <= 1e-10
    (row,) = protocol.noise_sweep(a, schedule, [0.1], trials=2)
    ((mean, worst),) = noise_sweep_oracle(a, schedule, [0.1], 2)
    assert abs(row["mean_distance"] - mean) <= 1e-12
    assert abs(row["max_distance"] - worst) <= 1e-12


@st.composite
def panel_blocks(draw):
    """Square, 3x5 and 5x2 blocks of every rank, zero included, with singular
    values drawn from [0, 1]."""
    m, n = draw(st.sampled_from([(1, 1), (3, 3), (4, 4), (3, 5), (5, 2)]))
    rank = draw(st.integers(0, min(m, n)))
    s = draw(st.lists(st.floats(0.0, 1.0), min_size=rank, max_size=rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    return (u[:, :rank] * s) @ vh[:rank]


@settings(max_examples=60, deadline=None, database=None)
@given(panel_blocks(), schedules, st.sampled_from([0.0, 1e-3]), st.integers(0, 2**32 - 1))
@example(np.zeros((3, 5)), PhaseSchedule(steps=()), 1e-3, 0)
@example(np.diag([0.7, 0.0]), compiler.schedule_from_arrays([0.3, -1.2], [2.0, 0.5]), 0.0, 0)
def test_simulate_matches_full_space_oracle(a, schedule, eta, seed):
    noise = protocol.ControlNoiseModel(eta, seed)
    u = protocol.simulate_protocol(a, schedule, noise=noise).unitary
    times = schedule.times() * noise.time_factors(schedule.degree)
    assert np.linalg.norm(u - full_space_unitary(a, schedule.phis(), times), 2) <= 1e-12


@st.composite
def svd_inputs(draw):
    """Complex, real, rank-deficient, zero, one-entry and integer matrices."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    kind = draw(st.sampled_from(["complex", "real", "deficient", "zero", "entry", "integer"]))
    if kind == "real":
        return a.real.copy()
    if kind == "deficient":
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        return (u * np.where(np.arange(s.size) % 2, 0.0, s)) @ vh
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "entry":
        out = np.zeros((m, n), dtype=complex)
        out[rng.integers(m), rng.integers(n)] = a[0, 0]
        return out
    if kind == "integer":
        return np.round(2 * a)
    return a


@settings(max_examples=300, deadline=None, database=None)
@given(svd_inputs())
def test_svd_factors_rebuild_a_with_orthonormal_columns(a):
    res = linalg.svd(a)
    s, left, right = res.singulars, res.left_vectors, res.right_vectors
    rebuilt = (left * s) @ right.conj().T
    assert np.linalg.norm(rebuilt - a, 2) <= 1e-12 * max(1.0, np.linalg.norm(a, 2))
    assert np.all(s >= 0.0) and np.all(np.diff(s) <= 0.0)
    for q in (left, right):
        assert np.linalg.norm(q.conj().T @ q - np.eye(s.size), 2) <= 1e-12


@st.composite
def near_hermitian(draw):
    """Hermitian matrices of any scale plus a non-Hermitian part near the tolerance."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    scale = 10.0 ** draw(st.floats(-3, 3))
    skew = 10.0 ** draw(st.floats(-2, 2)) * linalg.HERMITICITY_TOL * max(1.0, scale)
    return scale * (g + g.conj().T) / 2 + skew * e / np.linalg.norm(e, 2)


@settings(max_examples=300, deadline=None, database=None)
@given(near_hermitian())
def test_is_hermitian_never_looser_than_spectral_test(m):
    tol = linalg.HERMITICITY_TOL
    if linalg.is_hermitian(m):
        assert np.linalg.norm(m - m.conj().T, 2) <= tol * max(1.0, np.linalg.norm(m, 2))


def test_public_names_resolve():
    for name in hsvt.__all__:
        assert getattr(hsvt, name) is not None, name


# -- the whole CLI -----------------------------------------------------------

_COMMAND_FLAGS = {
    cmd: {a.dest: a.option_strings[0] for a in sp._actions if a.dest != "help"}
    for action in _PARSER._actions if isinstance(action, cli.argparse._SubParsersAction)
    for cmd, sp in action.choices.items()
}
_BAD_INPUTS = ["hostile.json", "latin1.json", "deep.json", "longint.json", "missing.json", "dir"]
_INPUTS = {"matrix": ["m1.json", "m2.json", "big.json"], "generator": ["g1.json", "m2.json"],
           "state": ["v1.json", "v2.json"], "schedule": ["s.txt", "hostile.txt"]}
_OUTPUTS = ["out/a", "nodir/a", "dir"]
_junk = st.sampled_from(["", "x", "-", "1,x", "nan", "-inf", "1e400"])
_float = st.one_of(st.sampled_from(["0.5", "0.3", "0.8", "1e-3", "0"]),
                   st.floats().map(repr), _junk)


def _ints(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), _junk)


def _list(elements):
    return st.lists(elements, max_size=3).map(",".join)


# Values for every flag dest.  Whatever sets the amount of work is bounded
# (k <= 2, ks <= 3, trials <= 2, few steps), and no value picks the protocol
# backend, which would compile a schedule.
_FLAG_VALUES = {
    "k": _ints(-2, 2), "ks": st.one_of(_list(st.integers(-1, 3).map(str)), _junk),
    "trials": _ints(-1, 2), "steps": _ints(-1, 5), "n": _ints(-1, 3),
    "max_nfev": _ints(-1, 50), "grid_size": _ints(-1, 12),
    "seed": _ints(-2, 2**63),
    "etas": st.one_of(_list(st.floats().map(repr)), _junk),
    **{name: _float for name in ("eps", "sigma_lo", "sigma_hi", "cap", "power",
                                 "coeff", "eta", "dt")},
    "kind": st.sampled_from(list(hsvt.targets.KINDS) + ["bogus"]),
    "mode": st.sampled_from(["degree", "noise", "bogus"]),
    "backend": st.sampled_from(["exact", "bogus"]),
    "metric": st.sampled_from(["full", "corner", "bogus"]),
    "variable_t": st.just(None),
    **{name: st.sampled_from(good + _BAD_INPUTS) for name, good in _INPUTS.items()},
    **{name: st.sampled_from(_OUTPUTS)
       for name in ("report_out", "schedule_out", "csv_out", "state_out")},
    "config": st.sampled_from(["config.json", "hostile.json", "latin1.json", "deep.json",
                               "longint.json", "missing.json", "dir"]),
}
_config_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                         st.lists(st.one_of(st.none(), st.text(max_size=2)), max_size=2))


@st.composite
def cli_runs(draw):
    """(argv, config object, hostile matrix dict, hostile schedule text)."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=5))
    required = [dest for dest in _INPUTS if dest in flags and dest not in chosen]
    if draw(st.sampled_from([True, True, True, False])):
        chosen += required
    if command == "synthesize" and "k" not in chosen:
        chosen.append("k")          # without --k synthesize runs an adaptive compile
    argv = [command]
    for dest in chosen:
        value = draw(_FLAG_VALUES[dest])
        argv.append(flags[dest] if value is None else f"{flags[dest]}={value}")
    keys = st.sampled_from(sorted(set(flags) - {"config", "k"}) + ["bogus"])
    config = draw(st.one_of(
        st.dictionaries(keys, st.nothing(), max_size=0),
        st.lists(keys, unique=True, max_size=4).flatmap(lambda ks: st.fixed_dictionaries(
            {key: st.one_of(_FLAG_VALUES.get(key, _config_junk), _config_junk)
             for key in ks})),
        json_values))
    return argv, config, draw(matrix_dicts), draw(schedule_texts)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    io.write_matrix(root / "m1.json", np.diag([0.5]))
    io.write_matrix(root / "m2.json", np.array([[0.5, 0.1], [0.0, 0.6]]))
    io.write_matrix(root / "big.json", np.array([[2.0]]))
    io.write_matrix(root / "g1.json", np.array([[-1.0]]))
    io.write_state(root / "v1.json", np.array([1.0]))
    io.write_state(root / "v2.json", np.array([1.0, 1.0]) / np.sqrt(2))
    (root / "s.txt").write_text("# hsvt-schedule v1 k=2\n0.3,1\n-0.3,1\n")
    (root / "latin1.json").write_bytes(b'{"caf\xe9": 1}\n')
    (root / "deep.json").write_text("[" * 200000)
    (root / "longint.json").write_text("1" * 5000)
    (root / "dir").mkdir()
    (root / "out").mkdir()
    return root


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


@settings(max_examples=150, deadline=None, database=None)
@given(run=cli_runs())
def test_cli_exits_with_a_documented_status(cli_files, run):
    argv, config, matrix, schedule_text = run
    (cli_files / "config.json").write_text(json.dumps(config))
    (cli_files / "hostile.json").write_text(json.dumps(matrix))
    (cli_files / "hostile.txt").write_text(schedule_text)
    cwd = os.getcwd()
    os.chdir(cli_files)         # the drawn paths are relative to it
    out = StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(StringIO()):
            status = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert status in (0, 2, 3, 4, 5), (argv, config)
    if status == 0 and argv[0] != "sweep" and out.getvalue():
        # a report is strict JSON: no NaN or Infinity
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
