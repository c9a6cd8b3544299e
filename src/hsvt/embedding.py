"""Zero-diagonal block Hamiltonians and their two-dimensional invariant
subspaces.

Layout convention: the assembled Hamiltonian is

    [[0, A^dag],
     [A, 0    ]]

so the first n coordinates span the right space H_R and the last m span the
left space H_L.  Z is +I on H_R and -I on H_L.

An embedding carries the one SVD of A that embed takes: the normalization
check, the invariant pairs, the simulator and the closed-form target all
read it, so a caller that passes the embedding on decomposes A once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError, NormalizationError

SIGMA_MAX_SLACK = 1e-10


@dataclass(frozen=True)
class BlockHamiltonian:
    a_block: np.ndarray                 # m x n, maps H_R -> H_L
    svd: linalg.SvdResult               # of a_block

    def __post_init__(self):
        if self.a_block.size == 0:
            raise InvalidInputError(
                f"A must have at least one row and one column, got shape "
                f"{self.a_block.shape}")
        smax = float(self.svd.singulars[0])
        if smax > 1.0 + SIGMA_MAX_SLACK:
            raise NormalizationError(smax)

    @property
    def n(self) -> int:
        return self.a_block.shape[1]

    @property
    def m(self) -> int:
        return self.a_block.shape[0]

    def assemble(self) -> np.ndarray:
        n, m = self.n, self.m
        h = np.zeros((n + m, n + m), dtype=complex)
        h[n:, :n] = self.a_block
        h[:n, n:] = self.a_block.conj().T
        return h


def embed(a) -> BlockHamiltonian:
    """Place A in the lower-left block of a zero-diagonal Hermitian matrix.

    Takes the SVD of A once and keeps it.  Requires a nonempty A with
    sigma_max(A) <= 1 (the A^dag A <= I sub-normalization).  An embedding
    is returned unchanged.
    """
    if isinstance(a, BlockHamiltonian):
        return a
    a = linalg.as_complex_matrix(a, "A")
    return BlockHamiltonian(a_block=a, svd=linalg.svd(a))


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Per-pair invariant subspaces of a block Hamiltonian.

    Each triple (sigma, r, l) spans a 2-D subspace on which H acts as
    sigma * X; (r (+) l)/sqrt(2) and (r (-) l)/sqrt(2) are eigenvectors with
    eigenvalues +sigma and -sigma.
    """

    triples: list       # (sigma, r_vec, l_vec)
    n: int
    m: int

    def pair_basis(self, j: int) -> np.ndarray:
        """(n+m) x 2 isometry [r_j (+) 0, 0 (+) l_j]."""
        sigma, r, l = self.triples[j]
        v = np.zeros((self.n + self.m, 2), dtype=complex)
        v[: self.n, 0] = r
        v[self.n:, 1] = l
        return v


def decompose_subspaces(h: BlockHamiltonian) -> SubspaceDecomposition:
    """One pair per singular triple of A, in linalg.svd's phase convention."""
    res = h.svd
    triples = [(float(s), res.right_vectors[:, j], res.left_vectors[:, j])
               for j, s in enumerate(res.singulars)]
    return SubspaceDecomposition(triples=triples, n=h.n, m=h.m)
