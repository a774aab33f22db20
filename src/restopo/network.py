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

Both passes run in a Workspace, built from the member states it
evaluates, which resolves their layouts and the recurrence once: for each
layer, the arrays its products read and write (the trunk's source and
output, the views of P and of the stacked states over its shortcut span,
or the one source a lone fixed layout adds as it is, and the tanh and
trunk-off buffers).  The passes then make only their numpy calls.  A
training run builds one and passes it to every evaluation, so a small-d
step pays for its numpy kernels and little else; a call without one builds
its own and so returns fresh arrays.  It is the same pass either way, bit
for bit.

The recurrence also takes a leading member axis: B member states on one X
and Y, their weights stacked as (B, K, d, d), train as B curves in one
pass.  The fixed layouts come first and the learned ones last: each
evaluation refreshes the learned rows from one softmax of their raw
coefficients, (L, K+1, K+1), and dL/dP of those rows is one product of
their hidden states with their source adjoints.  The loss of every member
is one product too.  The workspace alone picks the kernels, from the
member count: one member runs the lone plan, whose products are
np.ndarray.dot, np.dot's C routine without its __array_function__
dispatch, with or without the member axis; more run np.matmul's stacked
plan.  Each member's arithmetic is that of its own solo pass, bit for bit.
"""

from __future__ import annotations

import math
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
]


class Layout(NamedTuple):
    """A coefficient matrix as the recurrence consumes it.

    sources[j] lists, ascending, the i whose entry matrix[i, j] layer j
    reads.  A stacked layout (of more members than one) has a
    (B, K+1, K+1) matrix and sources[j] the union of its members' sources.
    matrix[rows] are the learned matrices, which every evaluation refreshes
    from the softmax recipe params: the whole matrix of a lone learned
    layout, a stack's last rows; both are None when every coefficient is
    fixed.
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


def _layout(states) -> Layout:
    """The members' layouts as one, in order: a lone member's own (its
    topology's constant matrix or, for learned coefficients, a matrix of
    its own), more members' stacked into a (B, K+1, K+1) matrix of its own.
    The fixed layouts come first and the learned ones last; those share one
    softmax recipe, and each evaluation refreshes their matrices from it.
    The only place that tells a fixed topology from learned coefficients:
    downstream code reads the Layout."""
    learned = [s.ancre for s in states if s.ancre is not None]
    first = len(states) - len(learned)
    if (any(s.ancre is None for s in states[first:])
            or len({(p.mode, p.temperature) for p in learned}) > 1
            or len({s.trunk for s in states}) > 1):
        raise ValueError("a stack takes layouts of one trunk (a fixed layout keeps "
                         "its trunk), the learned ones last and of one softmax mode "
                         "and temperature")
    if not learned and len(states) == 1:
        return states[0].topology.layout
    K = states[0].K
    matrix = np.zeros((K + 1, K + 1) if len(states) == 1 else (len(states), K + 1, K + 1))
    for m, s in enumerate(states[:first]):
        matrix[m] = s.topology.layout.matrix
    if learned:
        # the rows first.. of a stack; of a lone matrix, the whole of it
        return Layout(matrix, _all_sources(K), states[0].trunk, learned[0],
                      slice(first, None))
    sources = tuple(tuple(np.flatnonzero(matrix[:, :, j].any(axis=0)).tolist())
                    for j in range(K + 1))
    return Layout(matrix, sources)


def _empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of `shape` starting on a 64-byte
    boundary.  np.empty aligns to 16 bytes only, so a large buffer's offset
    mod 64, and with it the speed of d=128 products over it (offset 0 was
    5% faster than 16, 32 or 48), would hang on allocation history."""
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + size].reshape(shape)


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
    """The buffers and the per-layer plan of repeated evaluations of the
    member states `states` at one parameter shape.

    Built from the members (the first one's X, Y and nonlinearity, and
    their layouts: fixed ones first, learned ones last, of one trunk and
    softmax recipe) and the weights' shape, (B, K, d, d) or, for one
    member, (K, d, d) too, it serves every loss_and_gradients call on the
    first member at that shape; another state or shape raises ValueError.
    Each evaluation refreshes the learned matrices from its coefficients.

    It holds the hidden states H with h_0 = X written once, the adjoint
    stack, the source adjoints G with g_0 = 0 written once, the trunk-off
    mixtures, the deltas (each layer's adjoint through its nonlinearity),
    the weight-gradient buffer, the losses, dL/dP of the learned rows, the
    per-layer views of these and of the last two parameter arrays it was
    given, and member-major views Hm and Gm of H and G, (K+1, dn) or
    (B, K+1, dn), in which a span of sources is one matrix per member.  The
    recurrence is resolved once, into a plan of the arrays each layer's
    products read and write (`forward`, layers 1..K, and `backward`, layers
    K..1), so a pass makes only its numpy calls.  The next evaluation
    overwrites all of these, the returned weight gradients and losses
    included; a loss without a member axis and the coefficient gradients
    are fresh objects.

    The workspace alone picks the plan, from the member count.  One member
    runs the lone plan whether or not its parameters carry the member axis
    (only the shapes returned keep it), and multiplies with
    np.ndarray.dot: the C routine of np.dot, without np.dot's
    __array_function__ dispatch, which costs about 0.12 us of the 0.45 us
    of a 4 x 4 product (2-vCPU x86-64 VM).  More members need np.matmul's
    broadcasting, and that ufunc is not dispatched.  A member's bits are
    its solo pass's either way.
    """

    def __init__(self, states, shape: tuple):
        state, shape = states[0], tuple(shape)
        allowed = [(len(states),) + state.weights.shape]
        if len(states) == 1:
            allowed.append(state.weights.shape)
        if shape not in allowed:
            raise ValueError(f"{len(states)} member state(s) take weights of shape "
                             f"{' or '.join(map(str, allowed))}, got {shape}")
        K, batch = shape[-3], (len(states),) if len(states) > 1 else ()
        hidden = (K + 1,) + batch + state.X.shape
        self.layout = layout = _layout(states)
        self.state, self.shape, self.tanh = state, shape, state.nonlinearity == "tanh"
        # one member's parameters may carry the member axis, which the lone
        # plan drops on the way in and puts back on the way out
        self.squeeze = len(shape) == 4 and not batch
        trunk, tanh, P, sources = layout.trunk, self.tanh, layout.matrix, layout.sources
        self.mm = np.matmul if batch else np.ndarray.dot
        # A lone fixed layout's coefficients are exactly 1, so a span of one
        # source is added as it is, with the product's bits: at d=128, n=256
        # the one-row product and its add take 32 us, the add alone 8 us
        # (2-vCPU x86-64 VM).
        unit = not batch and layout.rows is None
        H = _empty(hidden)
        H[0] = state.X
        adj = _empty(hidden)
        self.tmp = tmp = _empty(hidden[1:])
        # g_k, the adjoint of layer k's source sum, is its delta with the
        # trunk on and without tanh; else it needs a stack of its own.
        # h_0 = X has no adjoint: g_0 = 0 keeps dL/dP's column 0 exactly 0.
        G = adj if trunk and not tanh else _empty(hidden)
        G[0] = 0.0
        Hm, Gm = (np.moveaxis(a.reshape((K + 1,) + batch + (-1,)), 0, -2) for a in (H, G))
        # Layer k's weight gradient is delta_k times the transposed input of
        # its weight (h_{k-1}, or the mixture s_k with the trunk off); one
        # product of the stacks gives all K after the reverse pass.  Without
        # tanh delta_k is adj[k]; with it, G[k] with the trunk on, else a
        # stack of its own.
        deltas = adj if not tanh else G if trunk else _empty(hidden)
        mix = None if trunk else _empty(hidden)
        inputs = H[:-1] if trunk else mix[1:]
        self.delta_stack, self.inputs_t = deltas[1:], inputs.swapaxes(-1, -2)
        self.grads = _empty(shape)
        self.grad_stack = _by_layer(self.grads[0] if self.squeeze else self.grads)
        self.h_K, self.residual = H[-1], adj[-1]

        # Layer k's shortcut term: the product of the span (lo, hi) of
        # column k of P with Hm's rows lo..hi-1, into tmp (added to the
        # trunk's product) or, with the trunk off, into the mixture s_k;
        # for a lone fixed layout's one source, that source as it is.  Its
        # reverse gathers h_{k-1}'s adjoint (k >= 2) the same way, from
        # the span of row k-1 of P over the layers that read h_{k-1}.
        self.forward = []
        for k in range(1, K + 1):
            lo, hi = _span(sources[k])
            p = hs = term = add = None
            if not trunk:
                p, hs, term = P[..., None, lo:hi, k], Hm[..., lo:hi, :], _row(mix[k])
            elif hi - lo == 1 and unit:
                add = H[lo]
            elif lo < hi:
                p, hs, term, add = P[..., None, lo:hi, k], Hm[..., lo:hi, :], _row(tmp), tmp
            self.forward.append((p, hs, term, H[k - 1] if trunk else mix[k], H[k], add))
        self.backward = []
        for k in range(K, 0, -1):
            lo, hi = _span([j for j in range(k, K + 1) if k - 1 in sources[j]])
            g = None if trunk else G[k]
            p = gs = term = a = add = None
            if k > 1 and not trunk:
                p, gs, term = P[..., k - 1:k, lo:hi], Gm[..., lo:hi, :], _row(adj[k - 1])
            elif k > 1:
                a = adj[k - 1]
                if hi - lo == 1 and unit:
                    add = G[lo]
                elif lo < hi:
                    p, gs, term, add = P[..., k - 1:k, lo:hi], Gm[..., lo:hi, :], _row(tmp), tmp
            self.backward.append((adj[k], H[k], deltas[k], g, p, gs, term, a, add))

        # The loss: with a batch, the product of each member's residual row
        # (..., 1, dn) with its column (..., dn, 1), into the squares whose
        # flat view is the losses; alone, the dot of the residual's flat
        # view with itself, np.vdot's C routine, which the losses hold only
        # for parameters with a member axis.
        self.flat = None if batch else adj[-1].reshape(-1)
        self.res = _row(adj[-1])
        self.res_t, self.squares = self.res.swapaxes(-1, -2), np.empty(batch + (1, 1))
        self.losses = self.squares.reshape(-1) if len(shape) == 4 else None
        self._views = {}
        if layout.rows is not None:
            # dL/dP of the learned rows, <h_i, g_j> for every i and j, is one
            # product of their Hm and Gm.  Only the candidates i < j count:
            # coeff_gradients multiplies by p, which is exactly 0 elsewhere.
            self.p = P[layout.rows]
            self.Hq, self.Gq_t = Hm[layout.rows], Gm[layout.rows].swapaxes(-1, -2)
            self.q = np.empty(self.Hq.shape[:-1] + (K + 1,))

    def parameters(self, weights: np.ndarray, coeffs: np.ndarray | None) -> tuple:
        """Put the parameters where the plan reads them: refresh the learned
        matrices, if any, from the softmax of coeffs (default: the recipe's
        own), and return weights' per-layer views W_k and the W_k^T last
        layer first, as the reverse pass visits them, both without a lone
        member's axis.  The views, and coeffs without that axis, are kept
        for the last two weight arrays given (a driver's parameters and its
        RK4 stage), each with the coeffs given along."""
        views = self._views.get(id(weights))
        if views is None or views[1] is not coeffs:
            if len(self._views) == 2:
                self._views.clear()
            W = list(_by_layer(weights[0] if self.squeeze else weights))
            views = self._views[id(weights)] = (
                weights, coeffs, W, [w.swapaxes(-1, -2) for w in W[::-1]],
                coeffs[0] if self.squeeze and coeffs is not None else coeffs)
        params = self.layout.params
        if params is not None:
            normalize(params, views[4], self.p)
        return views[2], views[3]


def _forward_arrays(work: Workspace, W: list) -> None:
    """The hidden recurrence, into the workspace's hidden states (h_0 = X is
    already there) and, with the trunk off, the layer inputs s_k into their
    own stack, as the plan work.forward lays it out: per layer, the
    shortcut term, the trunk's (or the mixture's) product and the term's
    add, then tanh."""
    mm, tanh = work.mm, work.tanh
    for w, (p, hs, term, src, z, add) in zip(W, work.forward):
        if p is not None:
            mm(p, hs, term)
        mm(w, src, z)
        if add is not None:
            z += add
        if tanh:
            np.tanh(z, z)


def _backward_arrays(work: Workspace, W_t: list) -> np.ndarray:
    """Reverse accumulation through the hidden recurrence, from the residual
    in adj[K], as the plan work.backward lays it out.

    Visits layers K..1.  Layer k's source adjoint g_k (G[k]) is what
    multiplies matrix[i, k] h_i in the loss, so dL/dmatrix[i, k] =
    <h_i, g_k>.  Once layer k's delta and g_k are known, every use of
    h_{k-1} has been visited, so h_{k-1}'s whole adjoint is gathered there
    (k >= 2), as the forward mixes a layer's input: the trunk's
    W_k^T delta_k plus P[..., k-1, lo:hi] times Gm[..., lo:hi, :] over the
    span (lo, hi) of the layers that read h_{k-1}.  Then one stacked product
    gives every weight gradient, shaped like the weights, into the
    workspace's gradient buffer, which it returns.
    """
    mm, tanh, tmp = work.mm, work.tanh, work.tmp
    for wt, (r, hk, delta, g, p, gs, term, a, add) in zip(W_t, work.backward):
        if tanh:
            np.multiply(hk, hk, tmp)
            np.subtract(1.0, tmp, tmp)
            np.multiply(r, tmp, delta)
        if g is not None:
            mm(wt, delta, g)
        if p is not None:
            mm(p, gs, term)
        if a is not None:
            mm(wt, delta, a)
            if add is not None:
                a += add
    np.matmul(work.delta_stack, work.inputs_t, out=work.grad_stack)
    return work.grads


def forward(state: TrainState) -> np.ndarray:
    """The network output h_K.  Raises ValueError, naming the layer, if a
    weight entry is not finite."""
    for k, w in enumerate(state.weights, start=1):
        if not np.all(np.isfinite(w)):
            raise ValueError(f"layer {k}: weight entries must be finite")
    work = Workspace([state], state.weights.shape)
    _forward_arrays(work, work.parameters(state.weights, None)[0])
    return work.h_K


def _half_squared(work: Workspace):
    """0.5 * ||r||_F^2 of the residual r in adj[K]: a float, or with a
    member axis the workspace's losses, one value per member, each (in a
    stacked batch) from one product of the member's residual row with its
    column, with the bits of its solo pass's dot."""
    flat, losses = work.flat, work.losses
    if flat is None:
        np.matmul(work.res, work.res_t, out=work.squares)
        return np.multiply(losses, 0.5, out=losses)
    value = 0.5 * float(flat.dot(flat))
    if losses is None:
        return value
    losses[0] = value
    return losses


def loss_and_gradients(state: TrainState, weights=None, coeffs=None,
                       work: Workspace | None = None):
    """The loss 0.5 * ||h_K - Y||_F^2 and its exact gradients, from one
    forward and one reverse pass.

    weights (a (K, d, d) array) and coeffs (a raw (K+1) x (K+1)
    coefficient matrix) default to the state's own parameters.  Returns
    (loss, weight gradients as (K, d, d), raw-coefficient gradients through
    the softmax Jacobian, or None for a fixed layout).

    A batch of member states that share X and Y evaluates through a
    Workspace of those states (see there) and its first member as `state`:
    the weights are then (B, K, d, d) and, when L members are learned (the
    last L), their raw coefficients (L, K+1, K+1); the loss is an array of
    B values, the weight gradients are (B, K, d, d) and the coefficient
    gradients (L, K+1, K+1).  B = 1 is a batch too.  The learned matrices
    are refreshed from coeffs' softmax first, once per call.

    Without `work` the call builds a Workspace of the state alone, so every
    array it returns is fresh.  With one, the pass runs in its buffers, and
    the weight gradients (and a loss with a member axis) are its buffers,
    valid until its next evaluation.
    """
    weights = state.weights if weights is None else weights
    if work is None:
        work = Workspace([state], weights.shape)
    elif state is not work.state or weights.shape != work.shape:
        raise ValueError("the workspace was built for another state or parameter shape")
    W, W_t = work.parameters(weights, coeffs)
    _forward_arrays(work, W)
    # the residual h_K - Y is the reverse pass's start, adj[K]
    np.subtract(work.h_K, state.Y, out=work.residual)
    value = _half_squared(work)
    wgrads = _backward_arrays(work, W_t)
    cgrads = None
    params = work.layout.params
    if params is not None:
        cgrads = coeff_gradients(params, work.p, work.mm(work.Hq, work.Gq_t, work.q))
        if work.squeeze:
            cgrads = cgrads[None]
    return value, wgrads, cgrads
