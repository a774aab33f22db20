"""Training dynamics: gradient descent, gradient-flow ODE integration,
trajectory recording, and convergence-rate classification.

A trajectory records loss and norm channels on a fixed stride.  For GD the
time axis is the pseudo-time iteration * lr (the raw iteration index is
kept alongside); for gradient flow it is ODE time.  Explicit Euler with
step dt is the documented discrete stand-in for exact gradient flow; RK4
re-evaluates full gradients at stage points for step-size studies.

One driver trains a batch of layouts on one instance: train_batch stacks
states that share X, Y, depth, nonlinearity and layout kind along a
leading curve axis and evaluates them in one pass per step.  Each member
stops on its own (loss blow-up, loss floor, non-finite gradient or step
budget) and is then frozen, so its trajectory and final state are those
of a solo run, bit for bit.  run_gd and integrate_gf train one state.
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
from .network import TrainState, loss_and_gradients, loss_only, stack_layouts

__all__ = [
    "RecordOptions",
    "Trajectory",
    "RateVerdict",
    "run_gd",
    "integrate_gf",
    "train_batch",
    "classify_rate",
    "balance_drift",
]

DIVERGENCE_THRESHOLD = 1e9
LOSS_CLAMP = 1e-300
STALL_TOL = 1e-12
METHODS = ("gd", "euler", "rk4")


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
    # Why the run stopped: "budget" (it took all its steps), "floor" (the
    # loss reached RecordOptions.stop_below), "loss_blowup" (the loss
    # exceeded DIVERGENCE_THRESHOLD or was not finite) or "nonfinite_grad";
    # the last two are divergence.
    stop_reason: str = "budget"
    steps: int = 0                              # updates taken before the stop

    @property
    def diverged(self) -> bool:
        return self.stop_reason in ("loss_blowup", "nonfinite_grad")

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
    """One trajectory's channels, in arrays sized for `capacity` records
    (a run's budget step and its stop at most), filled row by row."""

    def __init__(self, options: RecordOptions, time_scale: float, capacity: int,
                 K: int, d: int):
        self.time_scale = time_scale
        self.n = 0
        self.iters = np.empty(capacity, dtype=np.int64)
        self.losses = np.empty(capacity)
        self.fro = np.empty((capacity, K))
        self.spec = np.empty(capacity) if options.spectral_w1w2 else None
        self.gap = np.empty(capacity) if options.balance_gap else None
        self.diag = np.empty((capacity, K, d)) if options.diagonals else None

    def snapshot(self, it: int, value: float, weights: np.ndarray, fro: np.ndarray):
        """Record step `it`: its loss, the (K, d, d) weights and their
        Frobenius norms fro."""
        n = self.n
        self.iters[n] = it
        self.losses[n] = value
        self.fro[n] = fro
        if self.spec is not None:
            self.spec[n] = tensor.spectral_norm(weights[1] @ weights[0])
        if self.gap is not None:
            self.gap[n] = np.sum(weights[0] ** 2) - np.sum(weights[1] ** 2)
        if self.diag is not None:
            self.diag[n] = np.diagonal(weights, axis1=-2, axis2=-1)
        self.n = n + 1

    def build(self, stop_reason: str, steps: int) -> Trajectory:
        def filled(chan):
            return None if chan is None else chan[:self.n].copy()

        iters = filled(self.iters)
        return Trajectory(times=iters * self.time_scale, iters=iters,
                          losses=filled(self.losses), weight_fro_norms=filled(self.fro),
                          spectral_w1w2=filled(self.spec), balance_gap=filled(self.gap),
                          diagonals=filled(self.diag), stop_reason=stop_reason, steps=steps)


def _finite(wgrads: np.ndarray, cgrads: np.ndarray | None) -> bool:
    return bool(np.isfinite(wgrads).all()) and (
        cgrads is None or bool(np.isfinite(cgrads).all()))


def _nonfinite_rows(grads: np.ndarray | None) -> set:
    """The rows (members) of a stacked gradient with a non-finite entry."""
    if grads is None:
        return set()
    return set(np.flatnonzero(~np.isfinite(grads).reshape(len(grads), -1).all(axis=1))
               .tolist())


def _descend(grad, weights: np.ndarray, coeffs: np.ndarray | None, wgrads: np.ndarray,
             cgrads: np.ndarray | None, step: float, step_c: float) -> None:
    """The GD and Euler update, in place: W <- W - step * grad and, in
    mixing mode, c <- c - step_c * grad_c."""
    weights -= step * wgrads
    if coeffs is not None:
        coeffs -= step_c * cgrads


def _shifted(a: np.ndarray | None, scale: float, g: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else a - scale * g


def _rk4(grad, weights: np.ndarray, coeffs: np.ndarray | None, k1w: np.ndarray,
         k1c: np.ndarray | None, dt: float) -> None:
    """The classical RK4 update, in place, with stage gradients from grad."""
    _, k2w, k2c = grad(weights - 0.5 * dt * k1w, _shifted(coeffs, 0.5 * dt, k1c))
    _, k3w, k3c = grad(weights - 0.5 * dt * k2w, _shifted(coeffs, 0.5 * dt, k2c))
    _, k4w, k4c = grad(weights - dt * k3w, _shifted(coeffs, dt, k3c))
    weights -= (dt / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
    if coeffs is not None:
        coeffs -= (dt / 6.0) * (k1c + 2 * k2c + 2 * k3c + k4c)


def _parameters(states) -> tuple[np.ndarray, np.ndarray | None]:
    """Fresh buffers with a leading member axis: the weights as (B, K, d, d)
    and the raw coefficient matrices (None for fixed layouts)."""
    return (np.array([s.weights for s in states], dtype=np.float64),
            None if states[0].ancre is None else np.array([s.ancre.c for s in states]))


def _with_parameters(state: TrainState, weights: np.ndarray,
                     coeffs: np.ndarray | None) -> TrainState:
    return replace(state, weights=list(weights),
                   ancre=None if coeffs is None else state.ancre.with_coeffs(coeffs))


def _evaluators(states, active: list):
    """(grad, value) over the stacked parameters of the members `active`:
    grad(weights, coeffs) -> (losses, weight gradients, coefficient
    gradients) and value(weights, coeffs) -> losses, one loss per row.

    A lone active member is evaluated without the member axis, as a solo
    run; more go through the stacked layout of the active members."""
    state = states[active[0]]
    if len(active) == 1:
        def grad(weights, coeffs):
            value, wgrads, cgrads = loss_and_gradients(
                state, weights[0], None if coeffs is None else coeffs[0])
            return [value], wgrads[None], None if cgrads is None else cgrads[None]

        def value(weights, coeffs):
            return [loss_only(state, weights[0], None if coeffs is None else coeffs[0])]
    else:
        layout = stack_layouts([states[m].topology.layout for m in active])

        def grad(weights, coeffs):
            values, wgrads, _ = loss_and_gradients(state, weights, None, layout)
            return values.tolist(), wgrads, None

        def value(weights, coeffs):
            return loss_only(state, weights, None, layout).tolist()
    return grad, value


def _run(states, n_steps: int, time_scale: float, options: RecordOptions,
         update) -> list[tuple[Trajectory, TrainState]]:
    """The one driver, over members stacked along a leading axis.

    Each step evaluates the active members in one pass, records those due
    (every record_every steps, and at a stop) and stops, each on its own,
    the members whose loss blew up or reached the floor, whose budget is
    spent, or whose gradient is not finite; a stopped member keeps the
    parameters it stopped with.  The rest take update(grad, weights,
    coeffs, wgrads, cgrads), in place, where grad evaluates the active
    members at other parameters (for RK4 stages).  The budget step
    evaluates the loss alone."""
    weights, coeffs = _parameters(states)
    active = list(range(len(states)))           # the member of each row
    capacity = n_steps // options.record_every + 2
    recs = [_Recorder(options, time_scale, capacity, s.K, s.d) for s in states]
    results = [None] * len(states)
    grad, value = _evaluators(states, active)
    floor, every = options.stop_below, options.record_every

    for it in range(n_steps + 1):
        budget = it == n_steps
        if budget:
            values = value(weights, coeffs)
        else:
            values, wgrads, cgrads = grad(weights, coeffs)
        stops = {}
        for row, v in enumerate(values):
            if not v <= DIVERGENCE_THRESHOLD:
                stops[row] = "loss_blowup"
            elif floor is not None and v <= floor:
                stops[row] = "floor"
            elif budget:
                stops[row] = "budget"
        due = budget or it % every == 0
        if due or stops:
            fro = tensor.frobenius_norm(weights)
            for row, member in enumerate(active):
                if due or row in stops:
                    recs[member].snapshot(it, values[row], weights[row], fro[row])
        if not budget and not _finite(wgrads, cgrads):
            for row in _nonfinite_rows(wgrads) | _nonfinite_rows(cgrads):
                stops.setdefault(row, "nonfinite_grad")
        if stops:
            for row, reason in stops.items():
                member = active[row]
                results[member] = (recs[member].build(reason, it), _with_parameters(
                    states[member], weights[row], None if coeffs is None else coeffs[row]))
            keep = [row for row in range(len(active)) if row not in stops]
            if not keep:
                break
            active = [active[row] for row in keep]
            weights, wgrads = weights[keep], wgrads[keep]
            if coeffs is not None:
                coeffs, cgrads = coeffs[keep], cgrads[keep]
            grad, value = _evaluators(states, active)
        update(grad, weights, coeffs, wgrads, cgrads)

    return results


def _check_batch(states) -> None:
    if not states:
        raise ValueError("a batch needs at least one state")
    first = states[0]
    for s in states[1:]:
        if ((s.K, s.nonlinearity, s.ancre is None) != (first.K, first.nonlinearity,
                                                         first.ancre is None)
                or not (np.array_equal(s.X, first.X) and np.array_equal(s.Y, first.Y))):
            raise ValueError("batch members must share X, Y, depth K, nonlinearity "
                             "and layout kind (fixed or learned)")
    if len(states) > 1 and first.ancre is not None:
        raise ValueError("learned (ANCRe) layouts train one per batch")


def _drive(states, method: str, step: float, n_steps: int, lr_c: float | None,
           options: RecordOptions | None) -> list[tuple[Trajectory, TrainState]]:
    options = options or RecordOptions()
    if method == "rk4":
        update = functools.partial(_rk4, dt=step)
    else:
        update = functools.partial(_descend, step=step, step_c=step if lr_c is None else lr_c)
    return _run(states, n_steps, step, options, update)


def train_batch(states, method: str, step: float, n_steps: int, lr_c: float | None = None,
                options: RecordOptions | None = None) -> list[tuple[Trajectory, TrainState]]:
    """Train `states` as one batch for n_steps steps; returns one
    (trajectory, final state) per state, in order, each equal to what a
    solo run_gd or integrate_gf of that state gives.

    method is "gd" (step is lr, and lr_c, default lr, the coefficient
    rate), "euler" or "rk4" (step is dt).  The time axis is iteration *
    step.  The members must share X, Y, depth K, nonlinearity and layout
    kind; their initial weights and fixed layouts may differ.  Learned
    (ANCRe) layouts train one per batch."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    _check_batch(states)
    return _drive(states, method, step, n_steps, lr_c, options)


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
    return _drive([state], "gd", lr, iters, lr_c, options)[0]


def integrate_gf(state: TrainState, dt: float, t_end: float, method: str = "euler",
                 options: RecordOptions | None = None) -> tuple[Trajectory, TrainState]:
    """Integrate the gradient-flow ODE dtheta/dt = -grad L over all
    parameters (weights and, in mixing mode, raw coefficients) for
    round(t_end / dt) steps."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if t_end > 0 and dt > t_end:
        raise ValueError(f"dt={dt} exceeds t_end={t_end}")
    if method not in ("euler", "rk4"):
        raise ValueError(f"method must be 'euler' or 'rk4', got {method!r}")
    return _drive([state], method, dt, int(round(t_end / dt)), None, options)[0]


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
