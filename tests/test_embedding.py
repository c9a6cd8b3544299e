import numpy as np
import pytest
import scipy.linalg as sla

from hsvt import embedding
from hsvt.errors import NormalizationError

from conftest import conjugated_generator, random_contraction


def test_embed_scalar_example(rng):
    h = embedding.embed([[0.5]])
    assert np.allclose(h.assemble(), [[0.0, 0.5], [0.5, 0.0]])
    a = random_contraction(rng, 2, 3)   # 3 x 2
    m = embedding.embed(a).assemble()
    assert np.array_equal(m, m.conj().T)
    # lower-left block is A exactly
    assert np.array_equal(m[2:, :2], a)


def test_embed_zero_block():
    h = embedding.embed(np.zeros((2, 2)))
    assert np.array_equal(h.assemble(), np.zeros((4, 4)))


def test_embed_rejects_large_sigma():
    with pytest.raises(NormalizationError):
        embedding.embed([[1.5]])


def test_normalization_error_prints_sigma_max_to_twelve_digits():
    with pytest.raises(NormalizationError, match=r"value 1\.0000000002 exceeds 1"):
        embedding.embed([[1.0 + 2e-10]])


def test_conjugated_generator_phases(rng):
    a = random_contraction(rng, 3)
    h = embedding.embed(a)
    assert np.allclose(conjugated_generator(h, 0.0), h.assemble())
    g_pi = conjugated_generator(h, np.pi)
    assert np.allclose(g_pi, -h.assemble(), atol=1e-12)


def test_conjugated_generator_matches_explicit_conjugation(rng):
    a = random_contraction(rng, 2, 4)
    h = embedding.embed(a)
    z = np.diag([1, 1, -1, -1, -1, -1])
    phi = 0.3
    e = sla.expm(0.5j * phi * z)
    want = e @ h.assemble() @ e.conj().T
    got = conjugated_generator(h, phi)
    assert np.linalg.norm(got - want, 2) < 1e-12
    # spectrum preserved
    assert np.allclose(np.linalg.eigvalsh(got), np.linalg.eigvalsh(h.assemble()),
                       atol=1e-10)


def test_decompose_diagonal_example():
    h = embedding.embed(np.diag([0.8, 0.3]))
    assert sorted(h.svd.singulars) == pytest.approx([0.3, 0.8])


def test_decompose_zero_scalar():
    h = embedding.embed([[0.0]])
    assert h.svd.singulars.tolist() == [0.0]
    assert h.pair_basis().shape == (2, 2)


def test_decompose_eigen_relation(rng):
    a = random_contraction(rng, 4)
    h = embedding.embed(a)
    hm = h.assemble()
    b, r = h.pair_basis(), h.svd.singulars.size
    for j, sigma in enumerate(h.svd.singulars):
        plus = (b[:, j] + b[:, r + j]) / np.sqrt(2)
        minus = (b[:, j] - b[:, r + j]) / np.sqrt(2)
        assert np.linalg.norm(hm @ plus - sigma * plus) < 1e-10
        assert np.linalg.norm(hm @ minus + sigma * minus) < 1e-10


def test_decompose_pairs_orthogonal(rng):
    for shape in ((3, 5), (5, 2), (4, 4)):
        h = embedding.embed(random_contraction(rng, *shape))
        b = h.pair_basis()
        assert b.shape == (sum(shape), 2 * min(shape))
        assert np.linalg.norm(b.conj().T @ b - np.eye(b.shape[1])) < 1e-10


def test_subspace_invariance_of_conjugated_evolution(rng):
    a = random_contraction(rng, 3)
    h = embedding.embed(a)
    g = conjugated_generator(h, 0.7)
    u = sla.expm(-1.3j * g)
    b, r = h.pair_basis(), h.svd.singulars.size
    for j in range(r):
        pair = b[:, [j, r + j]]
        mapped = u @ pair
        # projection back onto the pair recovers everything
        proj = pair @ (pair.conj().T @ mapped)
        assert np.linalg.norm(mapped - proj) < 1e-10
