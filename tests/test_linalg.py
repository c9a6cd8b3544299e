import re

import numpy as np
import pytest

from hsvt import linalg
from hsvt.errors import InvalidInputError, NotPSDError

from conftest import random_contraction


def test_svd_reconstructs(rng):
    a = random_contraction(rng, 4, 6)
    res = linalg.svd(a)
    got = res.left_vectors @ np.diag(res.singulars) @ res.right_vectors.conj().T
    assert np.linalg.norm(got - a) < 1e-12
    assert np.all(np.diff(res.singulars) <= 0)


def test_svd_deterministic(rng):
    a = random_contraction(rng, 5)
    r1 = linalg.svd(a)
    r2 = linalg.svd(a.copy())
    assert np.array_equal(r1.right_vectors, r2.right_vectors)


def test_hermitian_eig_rejects_nonhermitian(rng):
    with pytest.raises(InvalidInputError):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sqrt_psd_squares_back(rng):
    a = random_contraction(rng, 4)
    m = np.eye(4) - a.conj().T @ a
    s = linalg.sqrt_psd(m)
    assert np.linalg.norm(s @ s - m, 2) < 1e-12
    assert linalg.is_hermitian(s)


def test_sqrt_psd_clamps_roundoff_negatives():
    m = np.diag([1.0, -5e-11])
    s = linalg.sqrt_psd(m)
    assert s[1, 1] == 0.0


def test_sqrt_psd_rejects_negative():
    with pytest.raises(NotPSDError):
        linalg.sqrt_psd(np.diag([1.0, -1e-3]))


NON_FINITE = [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0),
              complex(0, -np.inf)]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan-re", "nan-im", "inf-re", "-inf-im"])
@pytest.mark.parametrize("call", ["as_complex_matrix", "svd"])
def test_a_non_finite_part_of_an_entry_is_refused(bad, call):
    # the one finite pass over the complex array sees either part
    a = np.array([[0.5, 0.0], [0.0, bad]])
    with pytest.raises(InvalidInputError, match="A contains non-finite entries"):
        getattr(linalg, call)(a) if call == "svd" else linalg.as_complex_matrix(a, "A")


@pytest.mark.parametrize("value, kwargs", [
    (0.25, {}), (np.float64(0.25), {}), (np.float32(0.25), {"least": 0}),
    (np.int64(2), {"least": 0, "strict": True}), (0, {"least": 0}), (-3, {})])
def test_as_real_returns_a_python_float(value, kwargs):
    x = linalg.as_real(value, "x", **kwargs)
    assert type(x) is float and x == value


@pytest.mark.parametrize("value, kwargs, message", [
    (True, {}, "x must be a number, got True"),
    (np.False_, {"least": 0}, "x must be a number, got "),     # repr varies by numpy
    ("0.5", {}, "x must be a number, got '0.5'"),
    (1j, {}, "x must be a number, got 1j"),
    (np.nan, {}, "x must be finite, got nan"),
    (-np.inf, {}, "x must be finite, got -inf"),
    (np.inf, {"least": 0}, "x must be >= 0 and finite, got inf"),
    (-1e-300, {"least": 0}, "x must be >= 0 and finite, got -1e-300"),
    (0.0, {"least": 0, "strict": True}, "x must be positive and finite, got 0.0"),
    (1, {"least": 1, "strict": True}, "x must be > 1 and finite, got 1.0"),
])
def test_as_real_refuses(value, kwargs, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        linalg.as_real(value, "x", **kwargs)
