"""Dense complex linear-algebra kernel.

All routines operate on numpy complex arrays and are pure functions.  The
tolerances below are the package-wide constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPSDError

HERMITICITY_TOL = 1e-10
PSD_EIG_FLOOR = -1e-8


def as_complex_matrix(a, name="matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    # one pass: a complex entry is finite only when both of its parts are
    if not np.isfinite(m).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def as_count(value, name: str, least: int = 1) -> int:
    """Validate a step or trial count (least 1) or a seed (least 0): a whole
    number >= least (numpy integers included; bools and floats, even
    integral ones, are refused)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value}")
    return int(value)


def as_real(value, name: str, least=None, strict=False) -> float:
    """A finite real (numpy's too, bools refused), >= least, or > if strict."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if least is None:
        ok, want = math.isfinite(x), "finite"
    else:
        ok = (least < x if strict else least <= x) and x < math.inf
        want = ("positive" if strict and least == 0
                else f"{'>' if strict else '>='} {least}") + " and finite"
    if not ok:
        raise InvalidInputError(f"{name} must be {want}, got {x}")
    return x


def is_hermitian(m: np.ndarray) -> bool:
    # ||.||_F >= ||.||_2 and max|m_ij| <= ||m||_2: no SVD, and never looser
    # than ||m - m^dag||_2 <= HERMITICITY_TOL * max(1, ||m||_2)
    return bool(np.linalg.norm(m - m.conj().T)
                <= HERMITICITY_TOL * np.max(np.abs(m), initial=1.0))


@dataclass(frozen=True)
class SvdResult:
    """SVD A = sum_j sigma_j |l_j><r_j| as numpy returns it: each pair's phase
    is LAPACK's, and callers read a pair only through products such as
    |l_j><r_j| that a common phase cancels."""

    singulars: np.ndarray       # descending, >= 0
    left_vectors: np.ndarray    # columns |l_j>
    right_vectors: np.ndarray   # columns |r_j>


def svd(a) -> SvdResult:
    """Economy SVD of a validated A."""
    u, s, vh = np.linalg.svd(as_complex_matrix(a, "A"), full_matrices=False)
    return SvdResult(singulars=s, left_vectors=u, right_vectors=vh.conj().T)


def hermitian_eig(h, name="H") -> tuple[np.ndarray, np.ndarray]:
    """(ascending eigenvalues, orthonormal eigenvector columns) of a Hermitian H."""
    m = as_complex_matrix(h, name)
    if not is_hermitian(m):
        raise InvalidInputError("matrix is not Hermitian")
    return np.linalg.eigh(m)


def sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [PSD_EIG_FLOOR, 0) are clamped to 0."""
    w, v = hermitian_eig(m, "M")
    if np.any(w < PSD_EIG_FLOOR):
        raise NotPSDError(f"eigenvalue {w.min():.6g} below PSD floor {PSD_EIG_FLOOR:g}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def op_distance(u, v) -> float:
    """Spectral-norm distance ||U - V||_2."""
    a = as_complex_matrix(u, "U")
    b = as_complex_matrix(v, "V")
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, 2))
