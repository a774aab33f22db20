"""Dense float64 linear algebra and seeded data generation.

Everything here is deterministic: a counter-based PRNG (numpy's Philox)
makes a given seed reproduce the same stream on every run of this
implementation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ShapeError",
    "make_rng",
    "as_matrix",
    "matmul",
    "frobenius_norm",
    "spectral_norm",
    "random_orthogonal",
    "orthonormal_rows",
    "random_orthogonal_data",
]


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator backed by the Philox 64-bit counter-based bit stream."""
    return np.random.Generator(np.random.Philox(seed))


def as_matrix(data) -> np.ndarray:
    """Validate and return a 2-D float64 array with all entries finite."""
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def frobenius_norm(a: np.ndarray):
    """Frobenius norm of a matrix; for a stack of matrices (..., m, n), an
    array of the norm of each."""
    norms = np.sqrt(np.sum(a * a, axis=(-2, -1)))
    return float(norms) if norms.ndim == 0 else norms


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value (LAPACK SVD via numpy)."""
    return float(np.linalg.norm(a, 2))


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish d x d orthogonal matrix: Householder QR of a Gaussian draw,
    with the sign convention that diag(R) is nonnegative."""
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def orthonormal_rows(rng: np.random.Generator, d: int, n: int) -> np.ndarray:
    """d x n matrix with orthonormal rows drawn from an existing generator."""
    if n < d:
        raise ShapeError(f"need n >= d, got d={d}, n={n}")
    g = rng.standard_normal((n, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T.copy()


def random_orthogonal_data(d: int, n: int, seed: int) -> np.ndarray:
    """d x n matrix X with orthonormal rows (X X^T = I_d), seeded.

    Rows are obtained by QR-orthonormalizing a seeded Gaussian draw; the
    nonnegative-diag(R) convention removes sign ambiguity, so a seed maps
    to exactly one X.
    """
    return orthonormal_rows(make_rng(seed), d, n)
