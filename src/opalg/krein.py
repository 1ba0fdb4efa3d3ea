"""Finite-dimensional indefinite inner-product spaces.

A space is defined by a nonsingular Hermitian Gram matrix G; the product is
(u, v) = u^H G v.  The canonical fundamental symmetry is the matrix sign
function of G, and pairing with it turns the indefinite product into a
positive-definite one.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

__all__ = [
    "KreinSpace",
    "FundamentalSymmetry",
    "NotHermitianError",
    "SingularGramError",
    "make_krein",
    "fundamental_symmetry",
    "krein_adjoint",
    "wick_rotate",
]

HERMITIAN_TOL = 1e-12
SINGULAR_TOL = 1e-10


class NotHermitianError(ValueError):
    """The candidate Gram matrix is not Hermitian."""


class SingularGramError(ValueError):
    """The candidate Gram matrix is (numerically) degenerate.

    Degenerate products are rejected here on purpose; the Galilean
    zero-norm subspace of the Levy-Leblond density is examined by the
    reference `degenerate_norm_structure` in tests/oracles.py.
    """


class KreinSpace(NamedTuple):
    dim: int
    gram: np.ndarray
    signature: Tuple[int, int]
    gram_inverse: np.ndarray  # taken once per space, by make_krein


class FundamentalSymmetry(NamedTuple):
    matrix: np.ndarray


def make_krein(gram) -> KreinSpace:
    """Validate a Gram matrix and compute its signature; both validation
    tests are relative to the scale of G, so G and mu G share a verdict."""
    G = np.asarray(gram, dtype=complex)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {G.shape}")
    if np.max(np.abs(G - G.conj().T)) > HERMITIAN_TOL * np.max(np.abs(G)):
        raise NotHermitianError("Gram matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(G)
    svals = np.abs(eigs)  # the singular values of a Hermitian matrix
    if svals.min() <= SINGULAR_TOL * svals.max():
        raise SingularGramError(f"smallest singular value {svals.min():.3e} below "
                                f"{SINGULAR_TOL:.0e} of the largest")
    p = int(np.sum(eigs > 0))
    q = int(np.sum(eigs < 0))
    G = G.copy()
    G.setflags(write=False)
    return KreinSpace(dim=G.shape[0], gram=G, signature=(p, q),
                      gram_inverse=np.linalg.inv(G))


def fundamental_symmetry(K: KreinSpace) -> FundamentalSymmetry:
    """Canonical symmetry: the matrix sign function of the Gram matrix."""
    eigs, U = np.linalg.eigh(K.gram)
    J = U @ np.diag(np.sign(eigs)) @ U.conj().T
    J.setflags(write=False)
    return FundamentalSymmetry(matrix=J)


def krein_adjoint(K: KreinSpace, A) -> np.ndarray:
    """Adjoint with respect to the indefinite product: G^{-1} A^H G.

    A may be a stack of matrices (leading axes); each is adjoined.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (K.dim, K.dim):
        raise ValueError(f"expected {K.dim}x{K.dim} matrices, got shape {A.shape}")
    return K.gram_inverse @ (A.conj().swapaxes(-1, -2) @ K.gram)


def wick_rotate(K: KreinSpace, J: FundamentalSymmetry) -> np.ndarray:
    """Positive-definite Gram matrix of the rotated product <u, v> = (u, Jv)."""
    return K.gram @ J.matrix
