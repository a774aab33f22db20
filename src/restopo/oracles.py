"""Independent verification machinery.

The three-layer networks with a single shortcut admit a decoupled
per-coordinate description when target and weights are diagonal: with
w_i, u_i, v_i the i-th diagonals of W1 + I, W2, W3 and sigma_i the target
diagonals, gradient flow reduces to

    a_i = w_i u_i v_i,
    dw_i/dt = -u_i v_i (a_i - sigma_i),
    du_i/dt = -w_i v_i (a_i - sigma_i),
    dv_i/dt = -w_i u_i (a_i - sigma_i).

This module integrates that system directly (an oracle independent of the
full-matrix path), evaluates the closed-form convergence envelopes, builds
the witness instances that satisfy the bounds' hypotheses, and provides a
central-difference gradient oracle.  The coordinates are integrated one
by one in Python floats, stepping together; the arithmetic and its order
are those of the same update on numpy arrays, so the records agree with
it bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ancre import candidate_mask
from .network import Topology, TrainState, loss_and_gradients
from .tensor import make_rng

__all__ = [
    "DiagState",
    "DiagTrajectory",
    "diag_integrate",
    "lower_bound_curve",
    "upper_bound_curve",
    "DeltaThreshold",
    "delta_threshold",
    "fd_gradient",
    "pack_state",
    "lb_witness_init",
    "ub_witness_init",
]

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# ub_witness_init: the target spectrum's norm, and how many times it may
# halve the initial weights before it gives up
UB_TARGET_NORM = 0.5
UB_MAX_HALVINGS = 60


@dataclass
class DiagState:
    """Per-coordinate (w, u, v) triples plus targets sigma."""

    w: np.ndarray
    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        d = len(self.w)
        for name in ("u", "v", "sigma"):
            if len(getattr(self, name)) != d:
                raise ValueError(f"{name} length != {d}")

    @property
    def a(self) -> np.ndarray:
        return self.w * self.u * self.v


@dataclass
class DiagTrajectory:
    times: np.ndarray
    w: np.ndarray            # shape (records, d)
    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    diverged: bool = False

    @property
    def a(self) -> np.ndarray:
        return self.w * self.u * self.v

    @property
    def losses(self) -> np.ndarray:
        return 0.5 * np.sum((self.a - self.sigma) ** 2, axis=1)


def diag_integrate(s0: DiagState, dt: float, t_end: float, method: str = "rk4",
                   record_every: int = 100) -> DiagTrajectory:
    """Integrate the decoupled coordinate system for round(t_end / dt)
    steps, recording every record_every steps and at the last one; the
    first step whose values are not all finite ends the run as diverged.

    Every step advances each coordinate in turn in Python floats, with the
    operations, and their order, of the same update on (3, d) numpy
    arrays, so the records are those arrays' bit for bit.  At the
    witnesses' small d numpy's per-call cost would be the whole cost of a
    step."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if method not in ("rk4", "euler"):
        raise ValueError(f"method must be 'rk4' or 'euler', got {method!r}")
    sigma = np.asarray(s0.sigma, dtype=float)
    coords = list(zip(np.asarray(s0.w, dtype=float).tolist(),
                      np.asarray(s0.u, dtype=float).tolist(),
                      np.asarray(s0.v, dtype=float).tolist()))
    targets = sigma.tolist()
    n_steps = int(round(t_end / dt))
    rk4, half, sixth = method == "rk4", 0.5 * dt, dt / 6.0
    isfinite = math.isfinite
    times, recs, diverged = [0.0], [coords], False
    for it in range(1, n_steps + 1):
        stepped, finite = [], True
        for (w, u, v), s in zip(coords, targets):
            r = w * u * v - s
            aw, au, av = -u * v * r, -w * v * r, -w * u * r
            if rk4:
                w2, u2, v2 = w + half * aw, u + half * au, v + half * av
                r = w2 * u2 * v2 - s
                bw, bu, bv = -u2 * v2 * r, -w2 * v2 * r, -w2 * u2 * r
                w2, u2, v2 = w + half * bw, u + half * bu, v + half * bv
                r = w2 * u2 * v2 - s
                cw, cu, cv = -u2 * v2 * r, -w2 * v2 * r, -w2 * u2 * r
                w2, u2, v2 = w + dt * cw, u + dt * cu, v + dt * cv
                r = w2 * u2 * v2 - s
                dw, du, dv = -u2 * v2 * r, -w2 * v2 * r, -w2 * u2 * r
                w = w + sixth * (aw + 2.0 * bw + 2.0 * cw + dw)
                u = u + sixth * (au + 2.0 * bu + 2.0 * cu + du)
                v = v + sixth * (av + 2.0 * bv + 2.0 * cv + dv)
            else:
                w, u, v = w + dt * aw, u + dt * au, v + dt * av
            finite = finite and isfinite(w) and isfinite(u) and isfinite(v)
            stepped.append((w, u, v))
        coords = stepped
        diverged = not finite
        if diverged or it % record_every == 0 or it == n_steps:
            times.append(it * dt)
            recs.append(coords)
        if diverged:
            break
    stack = np.array(recs).reshape(len(recs), len(targets), 3).transpose(0, 2, 1)
    return DiagTrajectory(times=np.array(times), w=stack[:, 0], u=stack[:, 1],
                          v=stack[:, 2], sigma=sigma, diverged=diverged)


def lower_bound_curve(a0: float, t) -> float | np.ndarray:
    """Sublinear loss floor 0.5 * (a0 / (1 + 3 a0 t))^2 for the 0:1 witness.

    The conservative form keeps the 1/2 factor: the loss dominates half the
    squared witness-coordinate value, which itself decays no faster than
    a0 / (1 + 3 a0 t)."""
    if not a0 > 0:
        raise ValueError(f"a0 must be positive, got {a0}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    val = 0.5 * (a0 / (1.0 + 3.0 * a0 * t)) ** 2
    return float(val) if val.ndim == 0 else val


def upper_bound_curve(L0: float, lam: float, t) -> float | np.ndarray:
    """Linear-convergence ceiling L0 * exp(-2 (1 - lam)^2 t) for the 0:2 layout."""
    if not 0 < lam < 1:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    if L0 < 0:
        raise ValueError(f"L0 must be >= 0, got {L0}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    val = L0 * np.exp(-2.0 * (1.0 - lam) ** 2 * t)
    return float(val) if val.ndim == 0 else val


@dataclass
class DeltaThreshold:
    """Initialization-norm threshold activating the linear-rate guarantee.

    The theorem statement and its proof use slightly different first
    exponent terms (sqrt(lam * L0) vs sqrt(2 * L0)); both variants are
    computed and the conservative minimum is what gets used.
    """

    statement: float
    proof: float

    @property
    def used(self) -> float:
        return min(self.statement, self.proof)


def delta_threshold(lam: float, L0: float) -> DeltaThreshold:
    if not 0 < lam < 1:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    if L0 < 0:
        raise ValueError(f"L0 must be >= 0, got {L0}")
    common = SQRT_2PI * L0 / (2.0 * (1.0 - lam) ** 3)
    scale = np.sqrt(lam / 2.0)
    statement = scale * np.exp(-np.sqrt(lam * L0) / (1.0 - lam) ** 2 - common)
    proof = scale * np.exp(-np.sqrt(2.0 * L0) / (1.0 - lam) ** 2 - common)
    return DeltaThreshold(statement=float(statement), proof=float(proof))


def fd_gradient(evaluate, params: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central differences (evaluate(p + eps e_i) - evaluate(p - eps e_i)) / 2 eps.

    Coordinates whose evaluations come back non-finite are flagged with NaN
    and a warning."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    bad = []
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump[i] = eps
        hi = evaluate(params + bump)
        lo = evaluate(params - bump)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            grad[i] = np.nan
            bad.append(i)
            continue
        grad[i] = (hi - lo) / (2.0 * eps)
    if bad:
        warnings.warn(f"non-finite loss at coordinates {bad}", RuntimeWarning,
                      stacklevel=2)
    return grad


def pack_state(state: TrainState):
    """Flatten a state's parameters (weights, then the raw coefficients of
    the candidate pairs in sorted order) into one vector; returns (vector,
    evaluate, analytic_gradient) where evaluate maps a vector to the loss and
    analytic_gradient to the exact gradient in the same layout.  This is the
    glue for cross-checking reverse-mode gradients against fd_gradient."""
    K, d = state.K, state.d
    n_w = K * d * d
    mask = candidate_mask(K) if state.ancre is not None else None
    base = np.concatenate([np.ravel(state.weights)] +
                          ([state.ancre.c[mask]] if mask is not None else []))

    def split(vec: np.ndarray):
        weights = vec[:n_w].reshape(K, d, d)
        coeffs = None
        if mask is not None:
            coeffs = np.zeros(mask.shape)
            coeffs[mask] = vec[n_w:]
        return weights, coeffs

    def evaluate(vec: np.ndarray) -> float:
        value, _, _ = loss_and_gradients(state, *split(vec))
        return value

    def analytic(vec: np.ndarray) -> np.ndarray:
        _, wgrads, cgrads = loss_and_gradients(state, *split(vec))
        return np.concatenate([wgrads.ravel()] +
                              ([cgrads[mask]] if mask is not None else []))

    return base, evaluate, analytic


def lb_witness_init(d: int, rank_A: int, seed: int) -> tuple[TrainState, DiagState]:
    """The sublinear-rate witness: rank-deficient diagonal target
    A = diag(sigma_1..sigma_rank, 0, ..., 0), diagonal weights with
    W1[d,d](0) in [-0.5, 0] and W2[d,d](0) = W3[d,d](0) in (0, 0.5].

    W2 and W3 share their whole diagonal, so u_i(t) = v_i(t) on every
    coordinate.  X is the identity (trivially whitened), which keeps the
    full-matrix flow exactly diagonal and comparable coordinate-by-
    coordinate with diag_integrate.
    """
    if not 0 < rank_A < d:
        raise ValueError(f"need 0 < rank_A < d, got rank_A={rank_A}, d={d}")
    rng = make_rng(seed)
    sigma = np.zeros(d)
    sigma[:rank_A] = np.sort(rng.uniform(0.5, 1.5, rank_A))[::-1]
    w1 = np.empty(d)
    w1[:d - 1] = _uniform_open_low(rng, 0.0, 0.5, d - 1)
    w1[d - 1] = -_uniform_open_low(rng, 0.0, 0.5, 1)[0]
    uv = _uniform_open_low(rng, 0.0, 0.5, d)
    A = np.diag(sigma)
    X = np.eye(d)
    state = TrainState(weights=[np.diag(w1), np.diag(uv), np.diag(uv.copy())],
                       X=X, Y=A.copy(), topology=Topology.single(0, 1, K=3))
    diag = DiagState(w=1.0 + w1, u=uv.copy(), v=uv.copy(), sigma=sigma)
    return state, diag


def _uniform_open_low(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """Draws in the half-open interval (lo, hi]: uniform samples cover
    [0, hi - lo), so hi minus a sample never reaches lo."""
    return hi - rng.uniform(0.0, hi - lo, n)


def ub_witness_init(d: int, lam: float, seed: int) -> tuple[TrainState, DeltaThreshold, float, int]:
    """A linear-rate witness for the 0:2 layout with delta-compliant init.

    The threshold delta depends on the initial loss, which depends on the
    initialization, so the construction halves a small seeded Gaussian
    draw until max_k ||W_k(0)||_F <= delta(lam, L(0)) closes on itself.
    Returns (state, threshold, L0, halvings_used).
    """
    if not 0 < lam < 1:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    rng = make_rng(seed)
    sig = rng.uniform(0.5, 1.5, d)
    sig *= UB_TARGET_NORM / np.linalg.norm(sig)
    A = np.diag(sig)
    X = np.eye(d)
    weights = [rng.standard_normal((d, d)) * (0.01 / np.sqrt(d)) for _ in range(3)]
    topo = Topology.single(0, 2, K=3)
    for halvings in range(UB_MAX_HALVINGS + 1):
        state = TrainState(weights=weights, X=X, Y=A.copy(), topology=topo)
        L0, _, _ = loss_and_gradients(state)
        thr = delta_threshold(lam, L0)
        if max(np.linalg.norm(w) for w in weights) <= thr.used:
            return state, thr, L0, halvings
        weights = [0.5 * w for w in weights]
    raise RuntimeError(f"no self-consistent initialization within {UB_MAX_HALVINGS} halvings")
