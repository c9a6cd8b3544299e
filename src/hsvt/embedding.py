"""Zero-diagonal block Hamiltonians and their two-dimensional invariant
subspaces.

Layout convention: the Hamiltonian is

    [[0, A^dag],
     [A, 0    ]]

so the first n coordinates span the right space H_R and the last m span the
left space H_L.  Z is +I on H_R and -I on H_L.

An embedding carries the one SVD of A that embed takes: the normalization
check, the invariant pairs, the simulator, the closed-form target and the
verification all read it, so a caller that passes the embedding on
decomposes A once.
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
