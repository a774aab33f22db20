"""Training dynamics: gradient descent, gradient-flow ODE integration,
trajectory recording, and convergence-rate classification.

A trajectory records loss and norm channels on a fixed stride.  For GD the
time axis is the pseudo-time iteration * lr (the raw iteration index is
kept alongside); for gradient flow it is ODE time.  Explicit Euler with
step dt is the documented discrete stand-in for exact gradient flow; RK4
re-evaluates full gradients at stage points for step-size studies.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import tensor
# `normalize` is not called here.  It stays bound because the benchmark's
# tracer (perfbench/spans.py) wraps `dynamics.normalize` by name, and
# `--trace 1` fails with a KeyError where the name is missing.
from .ancre import normalize  # noqa: F401
from .network import TrainState, loss_and_gradients

__all__ = [
    "RecordOptions",
    "Trajectory",
    "RateVerdict",
    "run_gd",
    "integrate_gf",
    "classify_rate",
    "balance_drift",
]

DIVERGENCE_THRESHOLD = 1e9
LOSS_CLAMP = 1e-300
STALL_TOL = 1e-12


@dataclass
class RecordOptions:
    record_every: int = 10
    spectral_w1w2: bool = False
    balance_gap: bool = False
    diagonals: bool = False
    stop_below: float | None = None


@dataclass
class Trajectory:
    times: np.ndarray
    iters: np.ndarray
    losses: np.ndarray
    weight_fro_norms: np.ndarray            # shape (records, K)
    spectral_w1w2: np.ndarray | None = None
    balance_gap: np.ndarray | None = None
    diagonals: np.ndarray | None = None         # shape (records, K, d); diagnostic only
    diverged: bool = False

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self, extra: dict | None = None) -> str:
        """Serialize per the trajectory CSV contract: decimal text, 12
        significant digits, LF line endings, columns
        t,iter,loss,fro_w1..fro_wK[,spec_w1w2][,balance_gap][,extras...]."""
        K = self.weight_fro_norms.shape[1]
        cols = ["t", "iter", "loss"] + [f"fro_w{k}" for k in range(1, K + 1)]
        chans = [self.times, self.iters, self.losses] + \
                [self.weight_fro_norms[:, k] for k in range(K)]
        if self.spectral_w1w2 is not None:
            cols.append("spec_w1w2")
            chans.append(self.spectral_w1w2)
        if self.balance_gap is not None:
            cols.append("balance_gap")
            chans.append(self.balance_gap)
        for name, values in (extra or {}).items():
            cols.append(name)
            chans.append(np.asarray(values))
        lines = [",".join(cols)]
        for row in range(len(self.times)):
            cells = []
            for chan in chans:
                v = chan[row]
                cells.append(str(int(v)) if chan is self.iters else f"{v:.12g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


@dataclass
class RateVerdict:
    """Outcome of tail-window fitting: losses vs time.

    kind 'linear' carries the exponential rate (loss ~ exp(-rate * t));
    'sublinear' carries the power (loss ~ t^-power).  fit_quality is the
    coefficient of determination of the chosen fit.
    """

    kind: str
    rate_or_power: float
    fit_quality: float
    note: str = ""


class _Recorder:
    def __init__(self, options: RecordOptions, time_scale: float):
        self.time_scale = time_scale
        self.times, self.iters, self.losses, self.fro = [], [], [], []
        self.spec = [] if options.spectral_w1w2 else None
        self.gap = [] if options.balance_gap else None
        self.diag = [] if options.diagonals else None
        self.last_iter = -1

    def snapshot(self, it: int, value: float, weights):
        if it == self.last_iter:
            return
        self.last_iter = it
        self.times.append(it * self.time_scale)
        self.iters.append(it)
        self.losses.append(value)
        self.fro.append([tensor.frobenius_norm(w) for w in weights])
        if self.spec is not None:
            self.spec.append(tensor.spectral_norm(weights[1] @ weights[0]))
        if self.gap is not None:
            self.gap.append(float(np.sum(weights[0] ** 2) - np.sum(weights[1] ** 2)))
        if self.diag is not None:
            self.diag.append([np.diag(w).copy() for w in weights])

    def build(self, diverged: bool) -> Trajectory:
        return Trajectory(
            times=np.array(self.times),
            iters=np.array(self.iters, dtype=np.int64),
            losses=np.array(self.losses),
            weight_fro_norms=np.array(self.fro),
            spectral_w1w2=np.array(self.spec) if self.spec is not None else None,
            balance_gap=np.array(self.gap) if self.gap is not None else None,
            diagonals=np.array(self.diag) if self.diag is not None else None,
            diverged=diverged,
        )


def _finite(wgrads: np.ndarray, cgrads: np.ndarray | None) -> bool:
    return bool(np.isfinite(wgrads).all()) and (
        cgrads is None or bool(np.isfinite(cgrads).all()))


def _descend(weights: np.ndarray, coeffs: np.ndarray | None, wgrads: np.ndarray,
             cgrads: np.ndarray | None, step: float, step_c: float) -> None:
    """The GD and Euler update, in place: W <- W - step * grad and, in
    mixing mode, c <- c - step_c * grad_c."""
    weights -= step * wgrads
    if coeffs is not None:
        coeffs -= step_c * cgrads


def _parameters(state: TrainState) -> tuple[np.ndarray, np.ndarray | None]:
    """Fresh buffers: the weights stacked as (K, d, d) and the raw
    coefficient matrix (None for a fixed layout)."""
    return (np.array(state.weights, dtype=np.float64),
            None if state.ancre is None else state.ancre.c.copy())


def _with_parameters(state: TrainState, weights: np.ndarray,
                     coeffs: np.ndarray | None) -> TrainState:
    return replace(state, weights=list(weights),
                   ancre=None if coeffs is None else state.ancre.with_coeffs(coeffs))


def _run(state: TrainState, n_steps: int, time_scale: float, options: RecordOptions,
         update) -> tuple[Trajectory, TrainState]:
    """Shared driver: snapshot/stop logic around a per-step in-place update
    update(weights, coeffs, wgrads, cgrads) of the parameter buffers."""
    weights, coeffs = _parameters(state)
    rec = _Recorder(options, time_scale)
    diverged = False

    for it in range(n_steps + 1):
        value, wgrads, cgrads = loss_and_gradients(state, weights, coeffs)
        record_due = (it % options.record_every == 0) or it == n_steps
        blown = not np.isfinite(value) or value > DIVERGENCE_THRESHOLD
        floored = options.stop_below is not None and value <= options.stop_below
        if record_due or blown or floored:
            rec.snapshot(it, value, weights)
        if blown:
            diverged = True
            break
        if floored or it == n_steps:
            break
        if not _finite(wgrads, cgrads):
            diverged = True
            break
        update(weights, coeffs, wgrads, cgrads)

    return rec.build(diverged), _with_parameters(state, weights, coeffs)


def run_gd(state: TrainState, lr: float, iters: int, lr_c: float | None = None,
           options: RecordOptions | None = None) -> tuple[Trajectory, TrainState]:
    """Gradient descent for `iters` steps: W_k <- W_k - lr * grad and, in
    mixing mode, c <- c - lr_c * grad_c (lr_c defaults to lr).  The
    trajectory's time axis is iter * lr.  A loss blow-up or a non-finite
    gradient stops the run with `diverged` set, before the step it would
    have taken."""
    if not lr > 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if iters < 0:
        raise ValueError("iters must be >= 0")
    lr_c = lr if lr_c is None else lr_c
    options = options or RecordOptions()
    update = functools.partial(_descend, step=lr, step_c=lr_c)
    return _run(state, iters, lr, options, update)


def integrate_gf(state: TrainState, dt: float, t_end: float, method: str = "euler",
                 options: RecordOptions | None = None) -> tuple[Trajectory, TrainState]:
    """Integrate the gradient-flow ODE dtheta/dt = -grad L over all
    parameters (weights and, in mixing mode, raw coefficients)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if t_end > 0 and dt > t_end:
        raise ValueError(f"dt={dt} exceeds t_end={t_end}")
    if method not in ("euler", "rk4"):
        raise ValueError(f"method must be 'euler' or 'rk4', got {method!r}")
    options = options or RecordOptions()
    n_steps = int(round(t_end / dt))

    if method == "euler":
        update = functools.partial(_descend, step=dt, step_c=dt)
    else:
        def stage(weights, coeffs, scale, gw, gc):
            shifted_c = None if coeffs is None else coeffs - scale * gc
            _, sw, sc = loss_and_gradients(state, weights - scale * gw, shifted_c)
            return sw, sc

        def update(weights, coeffs, k1w, k1c):
            k2w, k2c = stage(weights, coeffs, 0.5 * dt, k1w, k1c)
            k3w, k3c = stage(weights, coeffs, 0.5 * dt, k2w, k2c)
            k4w, k4c = stage(weights, coeffs, dt, k3w, k3c)
            weights -= (dt / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
            if coeffs is not None:
                coeffs -= (dt / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)

    return _run(state, n_steps, dt, options, update)


def _least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Fit y ~ a + b x; returns (b, R^2)."""
    A = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[1]), r2


def classify_rate(traj: Trajectory, tail_fraction: float = 0.5,
                  drop_first: int = 10) -> RateVerdict:
    """Classify the tail of a loss trajectory as linear (exponential decay)
    or sublinear (power-law decay).

    The first `drop_first` recorded points are discarded as transient; the
    fit window is the trailing `tail_fraction` of what remains.  Both
    log-loss-vs-time and log-loss-vs-log-time are fitted by least squares
    and the better coefficient of determination wins.  Flat windows
    (relative change < 1e-12) are 'stalled'; a diverged trajectory is
    'diverged'.  Exact zeros are clamped to 1e-300 before the logs.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must lie in (0, 1]")
    if traj.diverged:
        return RateVerdict(kind="diverged", rate_or_power=float("nan"), fit_quality=0.0)
    losses = traj.losses[drop_first:]
    t = traj.times[drop_first:]
    if len(losses) == 0:
        losses, t = traj.losses, traj.times
    n_tail = max(int(np.ceil(len(losses) * tail_fraction)), 1)
    losses, t = losses[-n_tail:], t[-n_tail:]
    note = ""
    if np.any(losses <= 0):
        note = f"clamped {int(np.sum(losses <= 0))} nonpositive losses at {LOSS_CLAMP}"
    clamped = np.clip(losses, LOSS_CLAMP, None)
    ref = max(float(clamped[0]), LOSS_CLAMP)
    if abs(float(clamped[-1]) - float(clamped[0])) < STALL_TOL * ref:
        return RateVerdict(kind="stalled", rate_or_power=0.0, fit_quality=1.0, note=note)
    if len(clamped) < 20:
        raise ValueError(f"tail window has {len(clamped)} points; need >= 20")
    y = np.log(clamped)
    slope_lin, r2_lin = _least_squares(t, y)
    mask = t > 0
    slope_pow, r2_pow = _least_squares(np.log(t[mask]), y[mask])
    if r2_lin >= r2_pow:
        return RateVerdict(kind="linear", rate_or_power=-slope_lin, fit_quality=r2_lin,
                           note=note)
    return RateVerdict(kind="sublinear", rate_or_power=-slope_pow, fit_quality=r2_pow,
                       note=note)


def balance_drift(traj: Trajectory) -> float:
    """Max excursion of the recorded ||W1||_F^2 - ||W2||_F^2 gap from its
    initial value.  The gap is exactly conserved under gradient flow for
    the 0:2 layout, so the drift measures integrator error."""
    if traj.balance_gap is None:
        raise ValueError("trajectory has no balance_gap channel")
    return float(np.max(np.abs(traj.balance_gap - traj.balance_gap[0])))
