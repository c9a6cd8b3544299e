import numpy as np
import pytest

from hsvt import embedding, linalg, protocol


def random_contraction(rng, n, m=None, lo=0.1, hi=0.9):
    """n x n (or m x n) matrix with singular values drawn from [lo, hi]."""
    m = n if m is None else m
    g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    s = rng.uniform(lo, hi, min(m, n))
    return u @ np.diag(s) @ vh


def conjugated_generator(h, phi):
    """G_phi = exp(i phi Z/2) H exp(-i phi Z/2) for a block Hamiltonian h.

    Multiplies the upper-right block by e^{i phi} and the lower-left block by
    e^{-i phi}; the spectrum is unchanged.
    """
    n, m = h.n, h.m
    g = np.zeros((n + m, n + m), dtype=complex)
    g[:n, n:] = np.exp(1j * phi) * h.a_block.conj().T
    g[n:, :n] = np.exp(-1j * phi) * h.a_block
    return g


def noise_sweep_oracle(a, schedule, etas, trials, seed=0):
    """(mean, max) per eta of full-space distances ||U - U0||_2, as noise_sweep."""
    h = embedding.embed(a)
    eig = linalg.hermitian_eig(h.assemble())
    phis, times = schedule.phis(), schedule.times()
    u0 = protocol._protocol_unitary(eig, h.n, h.m, phis, times)
    rows = []
    for eta in etas:
        dists = []
        for i in range(trials):
            factors = protocol.ControlNoiseModel(eta, seed + i).time_factors(len(phis))
            u = protocol._protocol_unitary(eig, h.n, h.m, phis, times * factors)
            dists.append(np.linalg.norm(u - u0, 2))
        rows.append((np.mean(dists), np.max(dists)))
    return rows


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
