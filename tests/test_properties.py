"""Property tests: hostile input only ever raises the documented errors."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hsvt import cli, io  # noqa: E402
from hsvt.compiler import PhaseSchedule, SolverOptions  # noqa: E402
from hsvt.errors import ConfigError, ParseError  # noqa: E402

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


@settings(max_examples=300, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(sorted(cli._SOLVER_KEYS)), json_values))
def test_solver_options_raise_only_config_error(cfg):
    try:
        opts = cli._solver_options(cfg)
    except ConfigError:
        return
    assert isinstance(opts, SolverOptions)
