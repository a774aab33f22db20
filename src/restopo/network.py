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

A network is evaluated one way: loss_and_gradients runs the recurrence
and its reverse pass together and returns the loss 0.5 ||h_K - Y||_F^2
with exact gradients for every weight and, in mixing mode, every raw
coefficient.  loss_only is its forward half; forward returns h_K alone
(with X = I, the end-to-end map of a linear network).  A TrainState holds
its weights as one float64 (K, d, d) array of its own.

Both passes run in a Workspace: the hidden states (h_0 = X written once),
the adjoint stack, the weight-gradient buffer, their per-layer views and
the order of the adjoint writes, resolved once per layout.  A training
run builds one and passes it to every evaluation, so a small-d step pays
for its numpy kernels and little else; a call without one builds its own
and so returns fresh arrays.  It is the same pass either way, bit for bit.

The recurrence also takes a leading curve axis: weights stacked as
(B, K, d, d) under a stacked layout of B fixed layouts (stack_layouts)
train B curves on one X and Y in one pass.  Each member's arithmetic is
that of its own solo pass, bit for bit; a lone curve carries no extra axis.
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
    "Workspace",
    "forward",
    "loss_and_gradients",
    "loss_only",
    "stack_layouts",
]


class Layout(NamedTuple):
    """A coefficient matrix as the recurrence consumes it.

    sources[j] lists, ascending, the i whose entry matrix[i, j] layer j
    reads; columns[j][i] is matrix[i, j] as a Python float.  params is the
    softmax recipe when the matrix is learned, else None.

    A stacked layout (stack_layouts) has a (B, K+1, K+1) matrix, sources[j]
    the union of its members' sources, and columns[j][i] a (B, 1, 1) bool
    array marking the members whose entry matrix[i, j] is 1.
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


def stack_layouts(layouts) -> Layout:
    """One layout for a batch of fixed layouts of one depth, in order."""
    matrix = np.stack([layout.matrix for layout in layouts])
    if not np.all((matrix == 0.0) | (matrix == 1.0)):
        raise ValueError("only fixed 0/1 layouts stack")
    K = matrix.shape[-1] - 1
    sources = tuple(tuple(np.flatnonzero(matrix[:, :, j].any(axis=0)).tolist())
                    for j in range(K + 1))
    member = matrix.astype(bool)
    columns = [[member[:, i, j, None, None] for i in range(K + 1)] for j in range(K + 1)]
    return Layout(matrix, sources, columns)


@dataclass(frozen=True)
class TrainState:
    """Weights, layout source (fixed topology XOR learnable mixing), and data.

    trunk applies to mixing mode only: with trunk on, layer k computes
    W_k h_{k-1} plus the convex shortcut mixture; with trunk off, the
    mixture itself is the layer input, h_k = act(W_k sum_i p_ik h_i).

    weights may be given as any sequence of K d x d matrices; the state
    stores a float64 (K, d, d) copy, so it never shares them with the
    caller.  The fields cannot be reassigned, so that holds for the
    state's life; the arrays are updated in place or replaced through
    dataclasses.replace.
    """

    weights: np.ndarray
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
        object.__setattr__(self, "weights", np.array(self.weights, dtype=np.float64))
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
        # __post_init__ copies the weights; AncreParams holds a read-only
        # matrix, so it is shared, not copied.
        return replace(self)


def _layout(state: TrainState, coeffs: np.ndarray | None = None) -> Layout:
    """The state's coefficient matrix; coeffs optionally overrides the raw
    coefficients ancre.c.  The only place that tells a fixed topology from
    learned coefficients: downstream code reads the Layout alone."""
    if state.topology is not None:
        return state.topology.layout
    params = state.ancre
    p = normalize(params, coeffs)
    return Layout(p, _all_sources(params.K), p.T.tolist(), state.trunk, params)


def _put(dst: np.ndarray, c, x: np.ndarray, tmp: np.ndarray, first: bool) -> None:
    """dst = c * x if first, else dst += c * x; in place.  A unit
    coefficient (every fixed shortcut) skips the multiply; a stacked
    layout's bool column keeps x for its members and gives the others exact
    zeros, whatever their own x holds."""
    if isinstance(c, np.ndarray):
        x = np.where(c, x, 0.0)
    elif c != 1.0:
        x = np.multiply(x, c, out=tmp)
    if first:
        np.copyto(dst, x)
    else:
        dst += x


def _by_layer(a: np.ndarray) -> np.ndarray:
    """A (K, d, d) or a batch's (B, K, d, d) stack as a view indexed by
    layer first."""
    return a if a.ndim == 3 else a.swapaxes(0, 1)


def _transposed(stack) -> list:
    return [a.swapaxes(-1, -2) for a in stack]


@lru_cache(maxsize=None)
def _adjoint_schedule(sources: tuple, trunk: bool) -> tuple:
    """The reverse pass's writes into the adjoint stack, in order: for each
    layer k = K..1, (k, trunk, feeds) with trunk whether the trunk's
    contribution to h_{k-1}'s adjoint is its first (None without one) and
    feeds the pairs (i, first) for the sources i >= 1 of layer k.  A first
    write sets the adjoint; later ones add to it, in the order listed."""
    written = set()

    def first(i):
        new = i not in written
        written.add(i)
        return new

    K = len(sources) - 1
    return tuple((k, first(k - 1) if trunk and k > 1 else None,
                  tuple((i, first(i)) for i in sources[k] if i))
                 for k in range(K, 0, -1))


class Workspace:
    """The buffers of repeated evaluations of one state at one parameter
    shape under one layout structure.

    Built from a state (its X and nonlinearity), the shape of the weights
    it will be given ((K, d, d), or (B, K, d, d) for a stacked batch) and a
    layout (default: the state's own), it serves every loss_and_gradients
    and loss_only call on that state at that shape under a layout with the
    same sources and trunk (a learned layout's coefficient values may
    change from call to call); other calls raise ValueError.  It holds the
    hidden states H with h_0 = X written once, the adjoint stack, the
    trunk-off mixtures, the weight-gradient buffer, the per-layer views of
    these and of the last two weight arrays it was given, and the layout's
    adjoint schedule.  The next evaluation overwrites all of them, the
    returned weight gradients included; the loss and the coefficient
    gradients are fresh objects.
    """

    def __init__(self, state: TrainState, shape: tuple, layout: Layout | None = None):
        K = shape[-3]
        hidden = (K + 1,) + tuple(shape[:-3]) + state.X.shape
        layout = _layout(state) if layout is None else layout
        self.sources, self.trunk = layout.sources, layout.trunk
        self.X, self.shape, self.tanh = state.X, tuple(shape), state.nonlinearity == "tanh"
        # The pass's matrix products: np.dot's call costs less than
        # np.matmul's, and a stacked batch needs matmul's broadcasting.  Both
        # reach the same BLAS product, so a member's bits are its solo pass's.
        self.mm = np.dot if len(shape) == 3 else np.matmul
        self.schedule = _adjoint_schedule(self.sources, self.trunk)
        self.H = np.empty(hidden)
        self.H[0] = state.X
        self.h, self.h_t = list(self.H), _transposed(self.H)
        self.adj = list(np.empty(hidden))
        self.tmp = np.empty(hidden[1:])
        # g_k, the adjoint of layer k's source sum, is its delta with the
        # trunk on and without tanh; else it needs a stack of its own.
        self.G = self.adj if self.trunk and not self.tanh else list(np.empty(hidden))
        self.mix = None
        if not self.trunk:
            self.mix = list(np.empty(hidden))
            self.mix_t = _transposed(self.mix)
            self.delta = np.empty(hidden[1:])
        self.grads = np.empty(shape)
        self.grad_layers = list(_by_layer(self.grads))
        self._layers = {}
        self.q = np.zeros((K + 1, K + 1))

    def fits(self, state: TrainState, weights: np.ndarray, layout: Layout) -> bool:
        """Whether this workspace serves an evaluation of these arguments."""
        return (state.X is self.X and weights.shape == self.shape
                and layout.trunk == self.trunk and layout.sources == self.sources
                and (state.nonlinearity == "tanh") == self.tanh)

    def layers(self, weights: np.ndarray) -> tuple[list, list]:
        """weights' per-layer views W_k and W_k^T, kept for the last two
        arrays given (a driver's parameters and its RK4 stage)."""
        views = self._layers.get(id(weights))
        if views is None:
            if len(self._layers) == 2:
                self._layers.clear()
            W = list(_by_layer(weights))
            views = self._layers[id(weights)] = (weights, W, _transposed(W))
        return views[1], views[2]


def _forward_arrays(work: Workspace, weights: np.ndarray, layout: Layout) -> None:
    """The hidden recurrence, into work.h (h_0 = X is already there) and,
    with the trunk off, the layer inputs s_k into work.mix."""
    W, _ = work.layers(weights)
    h, tmp, mm = work.h, work.tmp, work.mm
    for k in range(1, len(h)):
        z = h[k]
        col = layout.columns[k]
        if layout.trunk:
            mm(W[k - 1], h[k - 1], out=z)
            for i in layout.sources[k]:
                _put(z, col[i], h[i], tmp, False)
        else:
            s = work.mix[k]
            s.fill(0.0)
            for i in layout.sources[k]:
                _put(s, col[i], h[i], tmp, False)
            mm(W[k - 1], s, out=z)
        if work.tanh:
            np.tanh(z, out=z)


def _backward_arrays(work: Workspace, weights: np.ndarray, layout: Layout) -> np.ndarray:
    """Reverse accumulation through the hidden recurrence, from the residual
    in work.adj[K].

    Visits layers K..1, accumulating the adjoint of every h_i (i >= 1) over
    all of its uses, in work.schedule's order: the next layer's map, then
    every source entry it feeds.  Layer k's source adjoint g_k (work.G[k])
    is what multiplies matrix[i, k] h_i in the loss, so dL/dmatrix[i, k] =
    <h_i, g_k>.  Returns the weight gradients, shaped like the weights, in
    the workspace's gradient buffer.
    """
    _, W_t = work.layers(weights)
    h, h_t, adj, G, tmp, mm = work.h, work.h_t, work.adj, work.G, work.tmp, work.mm
    out = work.grad_layers
    for k, trunk_first, feeds in work.schedule:
        delta = adj[k]
        if work.tanh:
            np.multiply(h[k], h[k], out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            delta = np.multiply(delta, tmp, out=G[k] if layout.trunk else work.delta)
        if layout.trunk:
            mm(delta, h_t[k - 1], out=out[k - 1])
            g = delta
            if trunk_first is not None:
                if trunk_first:
                    mm(W_t[k - 1], delta, out=adj[k - 1])
                else:
                    adj[k - 1] += mm(W_t[k - 1], delta, out=tmp)
        else:
            mm(delta, work.mix_t[k], out=out[k - 1])
            g = mm(W_t[k - 1], delta, out=G[k])
        col = layout.columns[k]
        for i, first in feeds:
            _put(adj[i], col[i], g, tmp, first)
    return work.grads


def _p_gradients(work: Workspace) -> np.ndarray:
    """dL/dP: column k is the stacked h_0 ... h_{k-1} contracted with g_k.
    The matrix is the workspace's; only its columns' upper parts change."""
    q, G = work.q, work.G
    flat = work.H.reshape(len(G), -1)
    for k in range(1, len(G)):
        q[:k, k] = flat[:k] @ G[k].ravel()
    return q


def forward(state: TrainState) -> np.ndarray:
    """The network output h_K.  Raises ValueError, naming the layer, if a
    weight entry is not finite."""
    for k, w in enumerate(state.weights, start=1):
        if not np.all(np.isfinite(w)):
            raise ValueError(f"layer {k}: weight entries must be finite")
    layout = _layout(state)
    work = Workspace(state, state.weights.shape, layout)
    _forward_arrays(work, state.weights, layout)
    return work.h[-1]


def _half_squared(r: np.ndarray):
    """0.5 * ||r||_F^2; for a stacked residual (B, d, n), an array of one
    value per member, each the same one vdot its solo pass takes."""
    if r.ndim == 2:
        return 0.5 * float(np.vdot(r, r))
    return 0.5 * np.array([np.vdot(m, m) for m in r])


def _prepare(state, weights, coeffs, layout, work):
    weights = state.weights if weights is None else weights
    if layout is None:
        layout = _layout(state, coeffs)
    if work is None:
        work = Workspace(state, weights.shape, layout)
    elif not work.fits(state, weights, layout):
        raise ValueError("the workspace was built for another state, parameter "
                         "shape or layout structure")
    return weights, layout, work


def _residual_loss(state: TrainState, work: Workspace):
    """The loss of the hidden states in work, leaving the residual h_K - Y
    in work.adj[K]."""
    r = np.subtract(work.h[-1], state.Y, out=work.adj[-1])
    return _half_squared(r)


def loss_and_gradients(state: TrainState, weights=None, coeffs=None,
                       layout: Layout | None = None, work: Workspace | None = None):
    """The loss 0.5 * ||h_K - Y||_F^2 and its exact gradients, from one
    forward and one reverse pass.

    weights (a (K, d, d) array) and coeffs (a raw (K+1) x (K+1)
    coefficient matrix) default to the state's own parameters.  Returns
    (loss, weight gradients as (K, d, d), raw-coefficient gradients through
    the softmax Jacobian, or None for a fixed layout).

    For a batch of fixed layouts on the state's X and Y, pass their
    stack_layouts as `layout` and their weights as (B, K, d, d): the loss is
    then an array of B values and the weight gradients are (B, K, d, d).

    Without `work` the call builds its own Workspace, so every array it
    returns is fresh.  With one, the pass runs in its buffers and the
    weight gradients are its gradient buffer, valid until its next
    evaluation (see Workspace).
    """
    weights, layout, work = _prepare(state, weights, coeffs, layout, work)
    _forward_arrays(work, weights, layout)
    value = _residual_loss(state, work)
    wgrads = _backward_arrays(work, weights, layout)
    cgrads = None
    if layout.params is not None:
        cgrads = coeff_gradients(layout.params, layout.matrix, _p_gradients(work))
    return value, wgrads, cgrads


def loss_only(state: TrainState, weights=None, coeffs=None,
              layout: Layout | None = None, work: Workspace | None = None):
    """The loss of loss_and_gradients without its gradients (a forward pass
    and the residual).  Unlike forward(), non-finite weights do not raise:
    they give a non-finite loss."""
    weights, layout, work = _prepare(state, weights, coeffs, layout, work)
    _forward_arrays(work, weights, layout)
    return _residual_loss(state, work)
