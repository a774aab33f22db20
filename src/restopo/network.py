"""Deep linear (optionally tanh) networks over square layers with residual
shortcuts, plus exact reverse-mode gradients.

Every layout is one (K+1) x (K+1) coefficient matrix P: entry P[i, j]
weights hidden state h_i in the input of layer j (source 0 is the network
input, and only i < j can be nonzero).  A fixed Topology is a constant
0/1 matrix; a learnable (ANCRe) layout is the softmax of a raw-coefficient
matrix (see ancre.py).  One recurrence serves both:

    h_j = act(W_j h_{j-1} + sum_i P[i, j] h_i)        (trunk on)
    h_j = act(W_j sum_i P[i, j] h_i)                  (trunk off, mixing only)

So the single shortcut 0:2 on a 3-layer net realizes W3 (W2 W1 + I) X and
the cascaded layout realizes prod_k (W_k + I) X.  The sum runs only over
the nonzero entries of each column, resolved once per fixed layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .ancre import AncreParams, coeff_gradients, normalize
from .tensor import ShapeError

__all__ = [
    "Topology",
    "Layout",
    "TrainState",
    "ForwardTrace",
    "Gradients",
    "forward",
    "backward",
    "loss",
    "end_to_end_map",
]


class Layout(NamedTuple):
    """A coefficient matrix as the recurrence consumes it.

    sources[j] lists, ascending, the i whose entry matrix[i, j] layer j
    reads; columns[j][i] is matrix[i, j] as a Python float.  params is the
    softmax recipe when the matrix is learned, else None.
    """

    matrix: np.ndarray
    sources: tuple
    columns: list
    trunk: bool = True
    params: AncreParams | None = None


@lru_cache(maxsize=None)
def _all_sources(K: int) -> tuple:
    """Every candidate source of every layer: sources[j] = (0, ..., j-1)."""
    return tuple(tuple(range(j)) for j in range(K + 1))


@dataclass(frozen=True)
class Topology:
    """A fixed shortcut layout: depth K plus a set of pairs (i, j), i < j <= K."""

    K: int
    shortcuts: frozenset = frozenset()

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"depth K must be >= 1, got {self.K}")
        object.__setattr__(self, "shortcuts", frozenset(tuple(p) for p in self.shortcuts))
        for (i, j) in self.shortcuts:
            if not (0 <= i < j <= self.K):
                raise ValueError(f"shortcut {(i, j)} violates 0 <= i < j <= K={self.K}")

    @classmethod
    def none(cls, K: int) -> "Topology":
        return cls(K=K)

    @classmethod
    def cascaded(cls, K: int) -> "Topology":
        return cls(K=K, shortcuts=frozenset((k - 1, k) for k in range(1, K + 1)))

    @classmethod
    def single(cls, i: int, j: int, K: int) -> "Topology":
        return cls(K=K, shortcuts=frozenset({(i, j)}))

    @cached_property
    def layout(self) -> Layout:
        """The constant 0/1 coefficient matrix, resolved once."""
        m = np.zeros((self.K + 1, self.K + 1))
        for pair in self.shortcuts:
            m[pair] = 1.0
        m.flags.writeable = False
        sources = tuple(tuple(np.flatnonzero(m[:, j]).tolist()) for j in range(self.K + 1))
        return Layout(m, sources, m.T.tolist())

    def label(self) -> str:
        if not self.shortcuts:
            return "none"
        if self.shortcuts == frozenset((k - 1, k) for k in range(1, self.K + 1)):
            return "cascaded"
        return "+".join(f"{i}:{j}" for (i, j) in sorted(self.shortcuts))


@dataclass
class ForwardTrace:
    """Cached values from a forward pass, consumed by backward().

    hidden stacks h_0 ... h_K as a (K+1, d, n) array with h_0 = X;
    mix_inputs holds the shortcut sums s_1 ... s_K that feed the layer maps
    when the trunk is off (else None); coeffs is the coefficient matrix used.
    """

    hidden: np.ndarray
    mix_inputs: list | None = None
    coeffs: np.ndarray | None = None


@dataclass
class Gradients:
    weights: np.ndarray
    coeffs: np.ndarray | None = None


@dataclass
class TrainState:
    """Weights, layout source (fixed topology XOR learnable mixing), and data.

    trunk applies to mixing mode only: with trunk on, layer k computes
    W_k h_{k-1} plus the convex shortcut mixture; with trunk off, the
    mixture itself is the layer input, h_k = act(W_k sum_i p_ik h_i).
    """

    weights: list
    X: np.ndarray
    Y: np.ndarray
    topology: Topology | None = None
    ancre: AncreParams | None = None
    nonlinearity: str = "none"
    trunk: bool = True

    def __post_init__(self):
        if (self.topology is None) == (self.ancre is None):
            raise ValueError("exactly one layout source required: topology or ancre")
        if self.nonlinearity not in ("none", "tanh"):
            raise ValueError(f"nonlinearity must be 'none' or 'tanh', got {self.nonlinearity!r}")
        K = len(self.weights)
        if K < 1:
            raise ValueError("need at least one layer")
        source_K = self.topology.K if self.topology is not None else self.ancre.K
        if source_K != K:
            raise ValueError(f"layout depth {source_K} != weight count {K}")
        d = self.weights[0].shape[0]
        for k, w in enumerate(self.weights, start=1):
            if w.shape != (d, d):
                raise ShapeError(f"layer {k}: expected shape {(d, d)}, got {w.shape}")
        if self.X.ndim != 2 or self.X.shape[0] != d:
            raise ShapeError(f"X must be {d} x n, got {self.X.shape}")
        if self.Y.shape != self.X.shape:
            raise ShapeError(f"Y shape {self.Y.shape} != X shape {self.X.shape}")

    @property
    def K(self) -> int:
        return len(self.weights)

    @property
    def d(self) -> int:
        return self.weights[0].shape[0]

    def copy(self) -> "TrainState":
        # AncreParams holds a read-only matrix, so it is shared, not copied.
        return replace(self, weights=[w.copy() for w in self.weights])


def _check_finite_weights(weights) -> None:
    for k, w in enumerate(weights, start=1):
        if not np.all(np.isfinite(w)):
            raise ValueError(f"layer {k}: weight entries must be finite")


def _layout(state: TrainState, coeffs: np.ndarray | None = None) -> Layout:
    """The state's coefficient matrix; coeffs optionally overrides the raw
    coefficients ancre.c.  The only place that tells a fixed topology from
    learned coefficients: downstream code reads the Layout alone."""
    if state.topology is not None:
        return state.topology.layout
    params = state.ancre
    p = normalize(params, coeffs)
    return Layout(p, _all_sources(params.K), p.T.tolist(), state.trunk, params)


def _scaled(c: float, x: np.ndarray) -> np.ndarray:
    """c * x; a unit coefficient (every fixed shortcut) skips the multiply."""
    return x if c == 1.0 else c * x


def _forward_arrays(weights, X, layout: Layout, tanh: bool):
    """The hidden recurrence; returns (H, mix) with H the stacked h_0 ... h_K
    and mix the trunk-off layer inputs s_k (None with the trunk on)."""
    K = len(weights)
    H = np.empty((K + 1,) + X.shape)
    H[0] = X
    h = list(H)
    mix = None if layout.trunk else [None] * (K + 1)
    for k in range(1, K + 1):
        z = h[k]
        col = layout.columns[k]
        if layout.trunk:
            np.matmul(weights[k - 1], h[k - 1], out=z)
            for i in layout.sources[k]:
                z += _scaled(col[i], h[i])
        else:
            s = mix[k] = np.zeros_like(z)
            for i in layout.sources[k]:
                s += _scaled(col[i], h[i])
            np.matmul(weights[k - 1], s, out=z)
        if tanh:
            np.tanh(z, out=z)
    return H, mix


def _backward_arrays(weights, residual, layout: Layout, tanh: bool, H, mix):
    """Reverse accumulation through the hidden recurrence.

    Visits layers K..1, accumulating the adjoint of every h_i (i >= 1) over
    all of its uses: the next layer's map plus every source entry it feeds.
    Layer k's source adjoint g_k is what multiplies matrix[i, k] h_i in the
    loss, so dL/dmatrix[i, k] = <h_i, g_k>.  Returns (weight gradients
    stacked as (K, d, d), [None, g_1, ..., g_K]).
    """
    K = len(weights)
    h = list(H)
    adj = [None] * (K + 1)
    adj[K] = residual
    wgrads = np.empty((K,) + weights[0].shape)
    G = [None] * (K + 1)
    for k in range(K, 0, -1):
        delta = adj[k]
        if tanh:
            delta = delta * (1.0 - h[k] * h[k])
        W = weights[k - 1]
        if layout.trunk:
            np.matmul(delta, h[k - 1].T, out=wgrads[k - 1])
            g = delta
            if k > 1:
                _accumulate(adj, k - 1, W.T @ delta)
        else:
            np.matmul(delta, mix[k].T, out=wgrads[k - 1])
            g = W.T @ delta
        col = layout.columns[k]
        for i in layout.sources[k]:
            if i:
                _accumulate(adj, i, _scaled(col[i], g))
        G[k] = g
    return wgrads, G


def _accumulate(adj: list, i: int, contrib: np.ndarray) -> None:
    # out of place: contrib may be another layer's adjoint
    adj[i] = contrib if adj[i] is None else adj[i] + contrib


def _p_gradients(H: np.ndarray, G: list) -> np.ndarray:
    """dL/dP: column k is the stacked h_0 ... h_{k-1} contracted with g_k."""
    K = len(G) - 1
    flat = H.reshape(K + 1, -1)
    q = np.zeros((K + 1, K + 1))
    for k in range(1, K + 1):
        q[:k, k] = flat[:k] @ G[k].ravel()
    return q


def _gradients(weights, residual, layout: Layout, tanh: bool, H, mix):
    """(weight gradients, raw-coefficient gradients or None for fixed layouts)."""
    wgrads, G = _backward_arrays(weights, residual, layout, tanh, H, mix)
    if layout.params is None:
        return wgrads, None
    return wgrads, coeff_gradients(layout.params, layout.matrix, _p_gradients(H, G))


def forward(state: TrainState):
    """Run the hidden recurrence; returns (output, trace) with output = h_K."""
    _check_finite_weights(state.weights)
    layout = _layout(state)
    H, mix = _forward_arrays(state.weights, state.X, layout,
                             state.nonlinearity == "tanh")
    return H[-1], ForwardTrace(hidden=H, mix_inputs=mix, coeffs=layout.matrix)


def loss(output: np.ndarray, Y: np.ndarray) -> float:
    """Half squared Frobenius residual, 0.5 * ||output - Y||_F^2."""
    if output.shape != Y.shape:
        raise ShapeError(f"loss shape mismatch: {output.shape} vs {Y.shape}")
    r = output - Y
    return 0.5 * float(np.vdot(r, r))


def backward(state: TrainState, trace: ForwardTrace) -> Gradients:
    """Exact gradients of loss(forward(state), state.Y) w.r.t. every weight
    and, in mixing mode, every raw coefficient (through the softmax Jacobian)."""
    K = state.K
    if len(trace.hidden) != K + 1:
        raise ValueError(f"stale trace: {len(trace.hidden) - 1} layers cached, state has {K}")
    if trace.hidden[0].shape != state.X.shape or not np.array_equal(trace.hidden[0], state.X):
        raise ValueError("stale trace: cached input does not match state.X")
    layout = _layout(state)
    if not np.array_equal(trace.coeffs, layout.matrix):
        raise ValueError("stale trace: coefficient matrix does not match state")
    H = trace.hidden
    wgrads, cgrads = _gradients(state.weights, H[K] - state.Y, layout,
                                state.nonlinearity == "tanh", H, trace.mix_inputs)
    return Gradients(weights=wgrads, coeffs=cgrads)


def loss_and_gradients(state: TrainState, weights=None, coeffs=None):
    """One fused forward/backward pass (integrator hot path).

    weights (a list or a stacked (K, d, d) array) and coeffs (a raw
    (K+1) x (K+1) coefficient matrix) default to the state's own
    parameters.  Returns (loss, weight gradients as (K, d, d), coefficient
    gradients or None); equivalent to forward + loss + backward.
    """
    if weights is None:
        weights = state.weights
    layout = _layout(state, coeffs)
    tanh = state.nonlinearity == "tanh"
    H, mix = _forward_arrays(weights, state.X, layout, tanh)
    r = H[-1] - state.Y
    value = 0.5 * float(np.vdot(r, r))
    wgrads, cgrads = _gradients(weights, r, layout, tanh, H, mix)
    return value, wgrads, cgrads


def end_to_end_map(weights, topology: Topology, nonlinearity: str = "none") -> np.ndarray:
    """The effective linear operator M with forward output = M @ X.

    Computed by running the forward recurrence on the identity; only
    meaningful without a nonlinearity.
    """
    if nonlinearity != "none":
        raise ValueError("end_to_end_map is only defined for linear networks")
    _check_finite_weights(weights)
    d = weights[0].shape[0]
    H, _ = _forward_arrays(weights, np.eye(d), topology.layout, False)
    return H[-1]
