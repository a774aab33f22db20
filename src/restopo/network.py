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
the cascaded layout realizes prod_k (W_k + I) X.  The sum runs over the
span of a column from its first to its last source, as one product of
that span of P with the hidden states, which are stored contiguously.
In a lone fixed layout, a span of one source is added as it is: its
coefficient is exactly 1, so the bits are the product's.

A network is evaluated one way: loss_and_gradients runs the recurrence
and its reverse pass together and returns the loss 0.5 ||h_K - Y||_F^2
with exact gradients for every weight and, in mixing mode, every raw
coefficient.  forward returns h_K alone (with X = I, the end-to-end map of
a linear network).  A TrainState holds its weights as one float64
(K, d, d) array of its own.

The reverse pass mirrors the forward: where the forward mixes a layer's
sources into its input, the reverse gathers each h_i's adjoint from the
layers that read it, as one product of that span of row i of P with their
source adjoints.  The K weight gradients are then one stacked product of
the layers' deltas with their transposed inputs.

Both passes run in a Workspace: the hidden states (h_0 = X written once),
the adjoint stack, the weight-gradient buffer, their per-layer views and
each layer's and each source's span, resolved once per workspace.  A
training run builds one and passes it to every evaluation, so a small-d
step pays for its numpy kernels and little else; a call without one builds
its own and so returns fresh arrays.  It is the same pass either way, bit
for bit.

The recurrence also takes a leading curve axis: weights stacked as
(B, K, d, d) under a stacked layout of B layouts (stack_layouts) train B
curves on one X and Y in one pass.  The fixed layouts come first and the
learned ones last: each evaluation refreshes the stack's learned rows from
one softmax of their raw coefficients, (L, K+1, K+1), and dL/dP of those
rows is one product of their hidden states with their source adjoints.
The loss of every member is one product too.  Each member's arithmetic is
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
    "stack_layouts",
    "state_layout",
]


class Layout(NamedTuple):
    """A coefficient matrix as the recurrence consumes it.

    sources[j] lists, ascending, the i whose entry matrix[i, j] layer j
    reads.  A stacked layout (stack_layouts) has a (B, K+1, K+1) matrix and
    sources[j] the union of its members' sources.  matrix[rows] are the
    learned matrices, which every evaluation refreshes from the softmax
    recipe params: the whole matrix of a lone learned layout, a stack's
    last rows; both are None when every coefficient is fixed.
    """

    matrix: np.ndarray
    sources: tuple
    trunk: bool = True
    params: AncreParams | None = None
    rows: slice | None = None


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
        return Layout(m, sources)

    def label(self) -> str:
        if not self.shortcuts:
            return "none"
        if self.shortcuts == frozenset((k - 1, k) for k in range(1, self.K + 1)):
            return "cascaded"
        return "+".join(f"{i}:{j}" for (i, j) in sorted(self.shortcuts))


def stack_layouts(layouts) -> Layout:
    """One layout for a batch of layouts of one depth and trunk, in order:
    the fixed ones first, then any learned ones (state_layout), which share
    one softmax recipe.  The stack's matrix is its own."""
    learned = [layout.params for layout in layouts if layout.params is not None]
    first = len(layouts) - len(learned)
    if (any(layout.params is None for layout in layouts[first:])
            or len({(p.mode, p.temperature) for p in learned}) > 1
            or len({layout.trunk for layout in layouts}) > 1):
        raise ValueError("a stack takes layouts of one trunk (a fixed layout keeps "
                         "its trunk), the learned ones last and of one softmax mode "
                         "and temperature")
    matrix = np.stack([layout.matrix for layout in layouts])
    if learned:
        return Layout(matrix, _all_sources(learned[0].K), layouts[0].trunk, learned[0],
                      slice(first, None))
    K = matrix.shape[-1] - 1
    sources = tuple(tuple(np.flatnonzero(matrix[:, :, j].any(axis=0)).tolist())
                    for j in range(K + 1))
    return Layout(matrix, sources)


@dataclass(frozen=True)
class TrainState:
    """Weights, layout source (fixed topology XOR learnable mixing), and data.

    trunk applies to mixing mode only: with trunk on, layer k computes
    W_k h_{k-1} plus the convex shortcut mixture; with trunk off, the
    mixture itself is the layer input, h_k = act(W_k sum_i p_ik h_i).  A
    fixed topology always has its trunk, so trunk=False without ancre
    raises ValueError.

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
        if not self.trunk and self.ancre is None:
            raise ValueError("trunk=False needs ancre: a fixed topology keeps its trunk")
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


def state_layout(state: TrainState) -> Layout:
    """The state's layout: its topology's constant matrix or, for learned
    coefficients, a matrix of its own that each evaluation refreshes from
    their softmax.  The only place that tells a fixed topology from learned
    coefficients: downstream code reads the Layout."""
    if state.topology is not None:
        return state.topology.layout
    params = state.ancre
    return Layout(np.zeros((params.K + 1, params.K + 1)), _all_sources(params.K),
                  state.trunk, params, slice(None))


def _refresh(layout: Layout, coeffs: np.ndarray | None) -> None:
    """Write the softmax of coeffs (default: the recipe's own) into the
    layout's learned matrices, if it has any."""
    if layout.params is not None:
        normalize(layout.params, coeffs, layout.matrix[layout.rows])


def _by_layer(a: np.ndarray) -> np.ndarray:
    """A (K, d, d) or a batch's (B, K, d, d) stack as a view indexed by
    layer first."""
    return a if a.ndim == 3 else a.swapaxes(0, 1)


def _row(a: np.ndarray) -> np.ndarray:
    """A (..., d, n) array as a (..., 1, dn) view: the out of a (..., 1, j)
    span of P times (..., j, dn) hidden states."""
    return a.reshape(a.shape[:-2] + (1, -1))


def _span(rows: list) -> tuple:
    """(first, last + 1) of ascending rows; (0, 0) when there are none."""
    return (rows[0], rows[-1] + 1) if rows else (0, 0)


class Workspace:
    """The buffers of repeated evaluations of one state at one parameter
    shape under one layout structure.

    Built from a state (its X and nonlinearity), the shape of the weights
    it will be given ((K, d, d), or (B, K, d, d) for a stacked batch) and a
    layout (default: the state's own), it serves every loss_and_gradients
    call on that state at that shape under a layout with the same sources,
    trunk and learned rows (a learned layout's coefficient values may change
    from call to call); other calls raise ValueError.  It holds the hidden
    states H with h_0 = X written once, the adjoint stack, the source
    adjoints G with g_0 = 0 written once, the trunk-off mixtures, the deltas
    (each layer's adjoint through its nonlinearity), the weight-gradient
    buffer, dL/dP of the learned rows, the per-layer views of these and of
    the last two weight arrays it was given, and member-major views Hm and
    Gm of H and G, (K+1, dn) or (B, K+1, dn), in which a span of sources is
    one matrix per member.  ins[k] is the span (first, last + 1) of layer
    k's sources and outs[i] that of the layers reading source i.  The next
    evaluation overwrites all of them, the returned weight gradients
    included; the loss and the coefficient gradients are fresh objects.
    """

    def __init__(self, state: TrainState, shape: tuple, layout: Layout | None = None):
        K, batch = shape[-3], tuple(shape[:-3])
        hidden = (K + 1,) + batch + state.X.shape
        layout = state_layout(state) if layout is None else layout
        self.sources, self.trunk, self.rows = layout.sources, layout.trunk, layout.rows
        self.X, self.shape, self.tanh = state.X, tuple(shape), state.nonlinearity == "tanh"
        # The pass's matrix products: np.dot's call costs less than
        # np.matmul's, and a stacked batch needs matmul's broadcasting.  Both
        # reach the same BLAS product, so a member's bits are its solo pass's.
        self.mm = np.dot if not batch else np.matmul
        # A lone fixed layout's coefficients are exactly 1, so a span of one
        # source is added as it is, with the product's bits: at d=128, n=256
        # the one-row product and its add take 32 us, the add alone 8 us
        # (2-vCPU x86-64 VM).
        self.unit = not batch and self.rows is None
        self.ins = [_span(self.sources[k]) for k in range(K + 1)]
        self.outs = [_span([j for j in range(i + 1, K + 1) if i in self.sources[j]])
                     for i in range(K + 1)]
        self.H = np.empty(hidden)
        self.H[0] = state.X
        self.h = list(self.H)
        adj = np.empty(hidden)
        self.tmp = np.empty(hidden[1:])
        self.tmp_row = _row(self.tmp)
        # g_k, the adjoint of layer k's source sum, is its delta with the
        # trunk on and without tanh; else it needs a stack of its own.
        # h_0 = X has no adjoint: g_0 = 0 keeps dL/dP's column 0 exactly 0.
        G = adj if self.trunk and not self.tanh else np.empty(hidden)
        G[0] = 0.0
        self.adj, self.G = list(adj), list(G)
        # The residual h_K - Y (adj[K]) as (..., 1, dn) and (..., dn, 1)
        # views, whose product is a stacked batch's squared norms.
        self.res = _row(adj[-1])
        self.res_t, self.squares = self.res.swapaxes(-1, -2), np.empty(batch + (1, 1))
        self.Hm, self.Gm = (np.moveaxis(a.reshape((K + 1,) + batch + (-1,)), 0, -2)
                            for a in (self.H, G))
        # Layer k's weight gradient is delta_k times the transposed input of
        # its weight (h_{k-1}, or the mixture s_k with the trunk off); one
        # product of the stacks gives all K after the reverse pass.  Without
        # tanh delta_k is adj[k]; with it, G[k] with the trunk on, else a
        # stack of its own.
        deltas = adj if not self.tanh else G if self.trunk else np.empty(hidden)
        self.deltas, self.delta_stack = list(deltas), deltas[1:]
        inputs = self.H[:-1]
        self.mix = None
        if not self.trunk:
            mix = np.empty(hidden)
            self.mix, inputs = list(mix), mix[1:]
            self.mix_rows, self.adj_rows = [_row(s) for s in mix], [_row(a) for a in adj]
        self.inputs_t = inputs.swapaxes(-1, -2)
        self.grads = np.empty(shape)
        self.grad_stack = _by_layer(self.grads)
        self._layers = {}
        if self.rows is not None:
            # dL/dP of the learned rows, <h_i, g_j> for every i and j, is one
            # product of their Hm and Gm.  Only the candidates i < j count:
            # coeff_gradients multiplies by p, which is exactly 0 elsewhere.
            self.Hq, self.Gq_t = self.Hm[self.rows], self.Gm[self.rows].swapaxes(-1, -2)
            self.q = np.empty(self.Hq.shape[:-1] + (K + 1,))

    def fits(self, state: TrainState, weights: np.ndarray, layout: Layout) -> bool:
        """Whether this workspace serves an evaluation of these arguments."""
        return (state.X is self.X and weights.shape == self.shape
                and layout.trunk == self.trunk and layout.sources == self.sources
                and layout.rows == self.rows
                and (state.nonlinearity == "tanh") == self.tanh)

    def layers(self, weights: np.ndarray) -> tuple[list, list]:
        """weights' per-layer views W_k and W_k^T, kept for the last two
        arrays given (a driver's parameters and its RK4 stage)."""
        views = self._layers.get(id(weights))
        if views is None:
            if len(self._layers) == 2:
                self._layers.clear()
            W = list(_by_layer(weights))
            views = self._layers[id(weights)] = (weights, W, [w.swapaxes(-1, -2) for w in W])
        return views[1], views[2]


def _forward_arrays(work: Workspace, weights: np.ndarray, layout: Layout) -> None:
    """The hidden recurrence, into work.h (h_0 = X is already there) and,
    with the trunk off, the layer inputs s_k into work.mix.  Layer k's
    shortcut term is P[..., lo:hi, k] times Hm[..., lo:hi, :] over its
    span (lo, hi), added to the trunk's product with the trunk on."""
    W, _ = work.layers(weights)
    h, Hm, tmp, mm, P = work.h, work.Hm, work.tmp, work.mm, layout.matrix
    for k in range(1, len(h)):
        z = h[k]
        lo, hi = work.ins[k]
        if layout.trunk:
            mm(W[k - 1], h[k - 1], out=z)
            if hi - lo == 1 and work.unit:
                z += h[lo]
            elif lo < hi:
                mm(P[..., None, lo:hi, k], Hm[..., lo:hi, :], out=work.tmp_row)
                z += tmp
        else:
            mm(P[..., None, lo:hi, k], Hm[..., lo:hi, :], out=work.mix_rows[k])
            mm(W[k - 1], work.mix[k], out=z)
        if work.tanh:
            np.tanh(z, out=z)


def _backward_arrays(work: Workspace, weights: np.ndarray, layout: Layout) -> np.ndarray:
    """Reverse accumulation through the hidden recurrence, from the residual
    in work.adj[K].

    Visits layers K..1.  Layer k's source adjoint g_k (work.G[k]) is what
    multiplies matrix[i, k] h_i in the loss, so dL/dmatrix[i, k] =
    <h_i, g_k>.  Once layer k's delta and g_k are known, every use of
    h_{k-1} has been visited, so h_{k-1}'s whole adjoint is gathered there
    (k >= 2), as the forward mixes a layer's input: the trunk's
    W_k^T delta_k plus P[..., k-1, lo:hi] times Gm[..., lo:hi, :] over the
    span (lo, hi) of the layers that read h_{k-1}.  Then one stacked product
    gives every weight gradient, shaped like the weights, into the
    workspace's gradient buffer, which it returns.
    """
    _, W_t = work.layers(weights)
    h, adj, G, Gm = work.h, work.adj, work.G, work.Gm
    tmp, mm, P = work.tmp, work.mm, layout.matrix
    for k in range(len(h) - 1, 0, -1):
        delta = adj[k]
        if work.tanh:
            np.multiply(h[k], h[k], out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            delta = np.multiply(delta, tmp, out=work.deltas[k])
        if not layout.trunk:
            mm(W_t[k - 1], delta, out=G[k])
        if k > 1:
            lo, hi = work.outs[k - 1]
            if layout.trunk:
                a = adj[k - 1]
                mm(W_t[k - 1], delta, out=a)
                if hi - lo == 1 and work.unit:
                    a += G[lo]
                elif lo < hi:
                    mm(P[..., k - 1:k, lo:hi], Gm[..., lo:hi, :], out=work.tmp_row)
                    a += tmp
            else:
                mm(P[..., k - 1:k, lo:hi], Gm[..., lo:hi, :], out=work.adj_rows[k - 1])
    np.matmul(work.delta_stack, work.inputs_t, out=work.grad_stack)
    return work.grads


def forward(state: TrainState) -> np.ndarray:
    """The network output h_K.  Raises ValueError, naming the layer, if a
    weight entry is not finite."""
    for k, w in enumerate(state.weights, start=1):
        if not np.all(np.isfinite(w)):
            raise ValueError(f"layer {k}: weight entries must be finite")
    layout = state_layout(state)
    _refresh(layout, None)
    work = Workspace(state, state.weights.shape, layout)
    _forward_arrays(work, state.weights, layout)
    return work.h[-1]


def _half_squared(work: Workspace):
    """0.5 * ||r||_F^2 of the residual r in work.adj[K]; for a stacked
    batch, an array of one value per member, each from one product of the
    member's residual row with its column, with the bits of the vdot of its
    solo pass."""
    r = work.adj[-1]
    if r.ndim == 2:
        return 0.5 * float(np.vdot(r, r))
    return 0.5 * np.matmul(work.res, work.res_t, out=work.squares).reshape(-1)


def loss_and_gradients(state: TrainState, weights=None, coeffs=None,
                       layout: Layout | None = None, work: Workspace | None = None):
    """The loss 0.5 * ||h_K - Y||_F^2 and its exact gradients, from one
    forward and one reverse pass.

    weights (a (K, d, d) array) and coeffs (a raw (K+1) x (K+1)
    coefficient matrix) default to the state's own parameters.  Returns
    (loss, weight gradients as (K, d, d), raw-coefficient gradients through
    the softmax Jacobian, or None for a fixed layout).

    For a batch on the state's X and Y, pass the stack_layouts of its
    members' layouts as `layout`, their weights as (B, K, d, d) and, when
    the stack has L learned rows, their raw coefficients as
    (L, K+1, K+1): the loss is then an array of B values, the weight
    gradients are (B, K, d, d) and the coefficient gradients
    (L, K+1, K+1).  A layout's learned matrices are refreshed from coeffs'
    softmax first, once per call.

    Without `work` the call builds its own Workspace, so every array it
    returns is fresh.  With one, the pass runs in its buffers and the
    weight gradients are its gradient buffer, valid until its next
    evaluation (see Workspace).
    """
    weights = state.weights if weights is None else weights
    layout = state_layout(state) if layout is None else layout
    if work is None:
        work = Workspace(state, weights.shape, layout)
    elif not work.fits(state, weights, layout):
        raise ValueError("the workspace was built for another state, parameter "
                         "shape or layout structure")
    _refresh(layout, coeffs)
    _forward_arrays(work, weights, layout)
    # the residual h_K - Y is the reverse pass's start, work.adj[K]
    np.subtract(work.h[-1], state.Y, out=work.adj[-1])
    value = _half_squared(work)
    wgrads = _backward_arrays(work, weights, layout)
    cgrads = None
    if layout.params is not None:
        q = work.mm(work.Hq, work.Gq_t, out=work.q)
        cgrads = coeff_gradients(layout.params, layout.matrix[layout.rows], q)
    return value, wgrads, cgrads
