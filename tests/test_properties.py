"""Property tests: hostile input only ever raises the documented errors."""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import hsvt  # noqa: E402
from hsvt import cli, compiler, io, linalg, protocol  # noqa: E402
from hsvt.compiler import PhaseSchedule, SolverOptions  # noqa: E402
from hsvt.errors import ConfigError, ParseError  # noqa: E402

from conftest import noise_sweep_oracle  # noqa: E402

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
        opts = cli._solver_options(cli._merge_config(_PARSER, args))
    except ConfigError:
        return
    assert isinstance(opts, SolverOptions)
    assert type(opts.target_eps) is float and type(opts.variable_t) is bool
    assert all(type(v) is int for v in (opts.seed, opts.restarts, opts.max_nfev))
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
    assert protocol.reduced_full_gap(result) <= 1e-10
    assert compiler.verify_pq_constraint(schedule, linalg.svd(a).singulars) <= 1e-10
    (row,) = protocol.noise_sweep(a, schedule, [0.1], trials=2)
    ((mean, worst),) = noise_sweep_oracle(a, schedule, [0.1], 2)
    assert abs(row["mean_distance"] - mean) <= 1e-12
    assert abs(row["max_distance"] - worst) <= 1e-12


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
