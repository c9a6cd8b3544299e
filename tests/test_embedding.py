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
    dec = embedding.decompose_subspaces(h)
    sigmas = sorted(t[0] for t in dec.triples)
    assert sigmas == pytest.approx([0.3, 0.8])


def test_decompose_zero_scalar():
    dec = embedding.decompose_subspaces(embedding.embed([[0.0]]))
    assert len(dec.triples) == 1
    assert dec.triples[0][0] == 0.0


def test_decompose_eigen_relation(rng):
    a = random_contraction(rng, 4)
    h = embedding.embed(a)
    hm = h.assemble()
    dec = embedding.decompose_subspaces(h)
    for sigma, r, l in dec.triples:
        plus = np.concatenate([r, l]) / np.sqrt(2)
        minus = np.concatenate([r, -l]) / np.sqrt(2)
        assert np.linalg.norm(hm @ plus - sigma * plus) < 1e-10
        assert np.linalg.norm(hm @ minus + sigma * minus) < 1e-10


def test_decompose_pairs_orthogonal(rng):
    a = random_contraction(rng, 3, 5)
    dec = embedding.decompose_subspaces(embedding.embed(a))
    bases = [dec.pair_basis(j) for j in range(len(dec.triples))]
    for i in range(len(bases)):
        for j in range(i + 1, len(bases)):
            assert np.linalg.norm(bases[i].conj().T @ bases[j]) < 1e-10


def test_subspace_invariance_of_conjugated_evolution(rng):
    a = random_contraction(rng, 3)
    h = embedding.embed(a)
    g = conjugated_generator(h, 0.7)
    u = sla.expm(-1.3j * g)
    dec = embedding.decompose_subspaces(h)
    for j in range(len(dec.triples)):
        b = dec.pair_basis(j)
        mapped = u @ b
        # projection back onto the pair recovers everything
        proj = b @ (b.conj().T @ mapped)
        assert np.linalg.norm(mapped - proj) < 1e-10
