"""Learnable shortcut coefficients with softmax normalization.

A layout of depth K is a (K+1) x (K+1) coefficient matrix whose entry
[i, j] weights source h_i (source 0 is the network input) in the input of
layer j.  Only the candidate entries 0 <= i < j <= K can be nonzero.  Here
every candidate carries a raw coefficient c[i, j], and a temperature
softmax over a masked matrix turns them into convex weights p: "ingoing"
normalizes each destination column (sum over sources i < j equals 1),
"outgoing" each source row (sum over destinations j > i equals 1).
normalize and coeff_gradients also take a stack (..., K+1, K+1) of such
matrices, one recipe for all, grouping over the last two axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "Pair",
    "AncreParams",
    "candidate_pairs",
    "candidate_mask",
    "normalization_groups",
    "normalize",
    "coeff_gradients",
    "heatmap",
    "heatmap_csv",
    "HEATMAP_SENTINEL",
]

Pair = tuple[int, int]

# Encodes "undefined" heatmap cells (i >= j) in the matrix and its CSV form.
HEATMAP_SENTINEL = -99.0

MODES = ("ingoing", "outgoing")


def candidate_pairs(K: int) -> list[Pair]:
    """All shortcut candidates (i, j) with 0 <= i < j <= K."""
    return [(i, j) for j in range(1, K + 1) for i in range(j)]


@lru_cache(maxsize=None)
def candidate_mask(K: int) -> np.ndarray:
    """Read-only (K+1) x (K+1) boolean matrix, True exactly at i < j."""
    mask = np.triu(np.ones((K + 1, K + 1), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


def _coeff_matrix(K: int, c) -> np.ndarray:
    """Raw coefficients as a fresh (K+1) x (K+1) matrix, from a matrix or a
    dict that covers every candidate pair."""
    if isinstance(c, dict):
        expected = set(candidate_pairs(K))
        got = set(c)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ValueError(
                f"coefficient set must cover all {len(expected)} pairs i<j<=K; "
                f"missing={missing} extra={extra}"
            )
        m = np.zeros((K + 1, K + 1))
        for pair, val in c.items():
            m[pair] = val
        return m
    m = np.array(c, dtype=np.float64)
    if m.shape != (K + 1, K + 1):
        raise ValueError(f"coefficient matrix must have shape {(K + 1, K + 1)}, "
                         f"got {m.shape}")
    if np.any(m[~candidate_mask(K)] != 0.0):
        raise ValueError("coefficients outside the candidate pairs i < j must be zero")
    return m


@dataclass(frozen=True, eq=False)
class AncreParams:
    """Raw coefficients plus the normalization recipe.

    c is the (K+1) x (K+1) raw-coefficient matrix, zero outside the
    K(K+1)/2 candidate entries i < j; a dict {(i, j): value} covering every
    candidate is accepted too.  The stored matrix is a read-only copy,
    validated here once.
    """

    K: int
    c: np.ndarray
    mode: str = "ingoing"
    temperature: float = 0.1

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"depth K must be >= 1, got {self.K}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        c = _coeff_matrix(self.K, self.c)
        if not np.all(np.isfinite(c)):
            bad = [tuple(int(x) for x in ij) for ij in np.argwhere(~np.isfinite(c))]
            raise ValueError(f"coefficients at {bad} are not finite")
        c.flags.writeable = False
        object.__setattr__(self, "c", c)

    @classmethod
    def uniform(cls, K: int, mode: str = "ingoing", temperature: float = 0.1) -> "AncreParams":
        """All raw coefficients zero, i.e. uniform weights within each group."""
        return cls(K=K, c=np.zeros((K + 1, K + 1)), mode=mode, temperature=temperature)

    def with_coeffs(self, c) -> "AncreParams":
        return replace(self, c=c)


def normalization_groups(params: AncreParams) -> list[list[Pair]]:
    """The pair groups over which the softmax normalizes.

    Ingoing: one group per destination j (sources i = 0..j-1).
    Outgoing: one group per source i (destinations j = i+1..K).
    """
    K = params.K
    if params.mode == "ingoing":
        return [[(i, j) for i in range(j)] for j in range(1, K + 1)]
    return [[(i, j) for j in range(i + 1, K + 1)] for i in range(K)]


@lru_cache(maxsize=None)
def _groups(K: int, mode: str) -> tuple:
    """(the index of the slice of a coefficient matrix, or of a stack of
    them, whose groups hold the candidates; the axis a group runs along; the
    slice's read-only additive bias, 0 at a candidate and -inf elsewhere).
    Ingoing groups are the columns j = 1..K, outgoing ones the rows
    i = 0..K-1."""
    if mode == "ingoing":
        index, axis = (..., slice(None), slice(1, None)), -2
    else:
        index, axis = (..., slice(None, K), slice(None)), -1
    bias = np.where(candidate_mask(K)[index], 0.0, -np.inf)
    bias.flags.writeable = False
    return index, axis, bias


def normalize(params: AncreParams, c: np.ndarray | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Softmax weights p of the raw matrix c (default params.c), or of each
    of a stack (..., K+1, K+1) of them, with max-subtraction for overflow
    safety.

    p is zero outside the candidate entries; each normalization group sums
    to 1 and every candidate p lies in (0, 1].  The groups' slice of p is
    written into `out` when given, whose other entries must be 0 already;
    else p is a fresh array.
    """
    c = params.c if c is None else c
    index, axis, bias = _groups(params.K, params.mode)
    z = np.divide(c[index], params.temperature)
    z += bias
    z -= np.maximum.reduce(z, axis=axis, keepdims=True)
    np.exp(z, out=z)
    if out is None:
        out = np.zeros(c.shape)
    np.divide(z, np.add.reduce(z, axis=axis, keepdims=True), out=out[index])
    return out


def coeff_gradients(params: AncreParams, p: np.ndarray, p_grads: np.ndarray) -> np.ndarray:
    """Chain q = dL/dp through the softmax Jacobian to get dL/dc.

    Per group, the Jacobian is (diag(p) - p p^T)/tau, so
    dL/dc_k = p_k (q_k - sum_i p_i q_i) / tau.  p_grads is a (K+1) x (K+1)
    matrix like p, or a stack of them; the result, a fresh array, is zero
    outside the candidate entries.
    """
    g = np.multiply(p, p_grads)
    avg = np.add.reduce(g, axis=_groups(params.K, params.mode)[1], keepdims=True)
    np.subtract(p_grads, avg, out=g)
    g *= p
    g /= params.temperature
    return g


def heatmap(params: AncreParams) -> np.ndarray:
    """(K+1) x (K+1) matrix of per-row log10 ratios of the softmax weights.

    Entry (j, i) for i < j is log10(p_ij / max_i' p_i'j); rows are indexed
    by destination j, columns by source i.  The per-row maximum therefore
    sits at 0 and less-used shortcuts are negative.  Cells with i >= j
    (including the whole j = 0 row) carry the sentinel value -99.

    Normalized weights p are used rather than raw coefficients: raw
    coefficients may be negative, which has no meaningful log ratio.
    Only defined for ingoing normalization, where rows are the
    normalization groups.
    """
    if params.mode != "ingoing":
        raise ValueError("heatmap requires ingoing normalization")
    K = params.K
    p = normalize(params)
    m = np.full((K + 1, K + 1), HEATMAP_SENTINEL)
    for j in range(1, K + 1):
        row = p[:j, j]
        m[j, :j] = np.log10(row / row.max())
    return m


def heatmap_csv(matrix: np.ndarray) -> str:
    """Serialize a heatmap matrix: header 'j\\i,0,...,K', 6 significant digits."""
    K = matrix.shape[0] - 1
    lines = ["j\\i," + ",".join(str(i) for i in range(K + 1))]
    for j in range(K + 1):
        cells = [f"{matrix[j, i]:.6g}" for i in range(K + 1)]
        lines.append(f"{j}," + ",".join(cells))
    return "\n".join(lines) + "\n"
