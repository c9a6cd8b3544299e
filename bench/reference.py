"""Reference computations written apart from hsvt, used to check its outputs.

Nothing here imports hsvt: every formula is taken from the definitions in
the package README, so a fault in the package cannot cancel against the
same fault in its own check.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def reduced_step_product(phis, times, sigmas) -> np.ndarray:
    """(N, 2, 2) schedule products in the subspace of singular value sigma.

    There H acts as sigma X, so G_phi acts as sigma (cos phi X - sin phi Y),
    which squares to sigma^2 I; its exponential is therefore
    cos(sigma t) I - i sin(sigma t) (cos phi X - sin phi Y).  The first step
    acts first, so it stands rightmost in the product.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    u = np.broadcast_to(np.eye(2, dtype=complex), (sigmas.size, 2, 2)).copy()
    for phi, t in zip(phis, times):
        axis = np.cos(phi) * PAULI_X - np.sin(phi) * PAULI_Y
        angle = sigmas * t
        step = (np.cos(angle)[:, None, None] * np.eye(2)
                - 1j * np.sin(angle)[:, None, None] * axis)
        u = step @ u
    return u


def reduced_identity_residual(phis, times, sigmas) -> float:
    """Max spectral distance to i [[g, f], [f, -g]], f = sigma, g = sqrt(1 - f^2)."""
    sigmas = np.asarray(sigmas, dtype=float)
    g = np.sqrt(1.0 - sigmas**2)
    target = 1j * (g[:, None, None] * PAULI_Z + sigmas[:, None, None] * PAULI_X)
    u = reduced_step_product(phis, times, sigmas)
    return float(np.max(np.linalg.norm(u - target, 2, axis=(1, 2))))


def haar_unitary(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_contraction(rng, d: int, lo: float, hi: float) -> np.ndarray:
    """Square d x d matrix with Haar singular vectors and singular values in [lo, hi]."""
    s = rng.uniform(lo, hi, d)
    return (haar_unitary(rng, d) * s) @ haar_unitary(rng, d).conj().T


def random_dissipative(rng, d: int) -> np.ndarray:
    """B = i H - D with H Hermitian, ||H|| <= 1, and D = 0.5 I + M M^dag.

    B + B^dag = -2 D <= -I, so ||I + B dt|| <= 1 for every dt <= 1.
    """
    m = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (2.0 * d)
    h = m + m.conj().T
    h /= max(1.0, float(np.linalg.norm(h, 2)))
    k = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / (2.0 * d)
    return 1j * h - (0.5 * np.eye(d) + k @ k.conj().T)


def unit_state(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def full_space_unitary(a, phis, times) -> np.ndarray:
    """prod_k expm(-i G_{phi_k} t_k), G_phi = e^{i phi Z/2} H e^{-i phi Z/2}, by scipy expm."""
    m, n = a.shape
    h = np.zeros((n + m, n + m), dtype=complex)
    h[n:, :n] = a
    h[:n, n:] = a.conj().T
    z = np.diag(np.concatenate([np.ones(n), -np.ones(m)])).astype(complex)
    u = np.eye(n + m, dtype=complex)
    for phi, t in zip(phis, times):
        rot = expm(0.5j * phi * z)
        g = rot @ h @ rot.conj().T
        u = expm(-1j * t * g) @ u
    return u


def identity_target(a) -> np.ndarray:
    """i [[sqrt(I - A^dag A), A^dag], [A, -sqrt(I - A A^dag)]] for square A."""
    left, s, right_h = np.linalg.svd(a)
    c = np.sqrt(1.0 - s**2)
    upper = (right_h.conj().T * c) @ right_h
    lower = (left * c) @ left.conj().T
    return 1j * np.block([[upper, a.conj().T], [a, -lower]])
