"""Matrix, state, schedule, report, and CSV file I/O.

Matrices and states use a JSON object {"rows": r, "cols": c,
"entries": [[re, im], ...]} in row-major order; states are r x 1 matrices.
Schedules use PhaseSchedule's text format.  Floats are serialized with
Python's shortest round-trip repr, so read/write round-trips are exact.
Files are read as UTF-8; one that cannot be read or decoded raises
ParseError.  All writes are atomic (write to a temp file in the same
directory, then rename) and leave the mode that open(path, "w") would.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile

import numpy as np

from .compiler import PhaseSchedule
from .errors import ParseError


def _open_mode(path) -> int:
    """The mode open(path, "w") leaves: that of the file it replaces, or
    0o666 less the umask for a new file."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    mode = _open_mode(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hsvt-tmp-")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def matrix_to_dict(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.reshape(-1)],
    }


def _is_number(v, kinds=(int, float)) -> bool:
    """A JSON number of the given kinds; JSON's true and false are not."""
    return isinstance(v, kinds) and not isinstance(v, bool)


def matrix_from_dict(d: dict, path=None) -> np.ndarray:
    for key in ("rows", "cols", "entries"):
        if key not in d:
            raise ParseError(f"missing key {key!r}", path=path, field=key)
    rows, cols = d["rows"], d["cols"]
    if not (_is_number(rows, int) and _is_number(cols, int) and rows > 0 and cols > 0):
        raise ParseError("rows/cols must be positive integers", path=path, field="rows")
    entries = d["entries"]
    if not isinstance(entries, (list, tuple)):
        raise ParseError("entries must be a list of [re, im] pairs", path=path,
                         field="entries")
    if len(entries) != rows * cols:
        raise ParseError(
            f"expected {rows * cols} entries, got {len(entries)}",
            path=path, field="entries",
        )
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(map(_is_number, pair))):
            raise ParseError(f"entry {i} is not a [re, im] pair of numbers",
                             path=path, field="entries")
        try:
            flat[i] = complex(float(pair[0]), float(pair[1]))
        except OverflowError as exc:
            raise ParseError(f"entry {i} is out of range", path=path,
                             field="entries") from exc
    if not np.all(np.isfinite(flat.real)) or not np.all(np.isfinite(flat.imag)):
        raise ParseError("non-finite entry", path=path, field="entries")
    return flat.reshape(rows, cols)


def write_matrix(path, m: np.ndarray) -> None:
    write_text(path, json.dumps(matrix_to_dict(m), indent=1) + "\n")


def read_matrix(path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}", path=path) from exc
    if not isinstance(d, dict):
        raise ParseError("top-level JSON value must be an object", path=path)
    return matrix_from_dict(d, path=path)


def write_schedule(path, schedule: PhaseSchedule) -> None:
    write_text(path, schedule.to_text())


def read_schedule(path) -> PhaseSchedule:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read file: {exc}", path=path) from exc
    return PhaseSchedule.from_text(text, path=path)


def write_state(path, psi: np.ndarray) -> None:
    write_matrix(path, np.asarray(psi, dtype=complex).reshape(-1, 1))


def read_state(path) -> np.ndarray:
    m = read_matrix(path)
    if m.shape[1] != 1:
        raise ParseError(f"state must be a column (cols=1), got cols={m.shape[1]}",
                         path=path, field="cols")
    return m.reshape(-1)


def report_text(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def csv_text(header: list[str], rows: list[list]) -> str:
    """One comma-separated line per row, header first; no cell holds a comma."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])
