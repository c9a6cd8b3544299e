"""Property tests: hostile input only ever raises the documented errors."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hsvt.compiler import PhaseSchedule  # noqa: E402
from hsvt.errors import ParseError  # noqa: E402

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
