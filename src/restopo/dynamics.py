"""Training dynamics: gradient descent, gradient-flow ODE integration,
trajectory recording, and convergence-rate classification.

A trajectory records the loss, the weights' norms and, on request, the
weights on a fixed stride.  For GD the time axis is the pseudo-time
iteration * lr (the raw iteration index is kept alongside); for gradient
flow it is ODE time.  Explicit Euler with step dt is the documented
discrete stand-in for exact gradient flow; RK4 re-evaluates full
gradients at stage points for step-size studies.

One driver trains a batch of layouts on one instance: train_batch stacks
states that share X, Y, depth, nonlinearity and trunk along a leading
curve axis, fixed and learned (ANCRe) layouts alike, and evaluates them in
one pass per step.  The learned members' raw coefficients are one
(L, K+1, K+1) array, the only coefficients an update touches.  Each member
stops on its own (loss blow-up, loss floor, non-finite gradient or step
budget) and is then frozen, so its trajectory and final state are those
of a solo run, bit for bit.  run_gd and integrate_gf train one state.

The driver keeps one network Workspace and its update buffers per active
set, so a step allocates little: parameters are updated in place, the
RK4 stage parameters and the weighted sum of k1..k4 are built in
preallocated buffers (each stage's gradients are folded into the sum
before the next evaluation overwrites them), and a lone member is
evaluated without the member axis, as a solo run.  A record step writes
one row for the whole batch, each member in its own column.
Evaluations go through this module's loss_and_gradients name, which the
benchmark's tracer wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor
# `normalize` is not called here.  It stays bound because the benchmark's
# tracer (perfbench/spans.py) wraps `dynamics.normalize` by name, and
# `--trace 1` fails with a KeyError where the name is missing.
from .ancre import normalize  # noqa: F401
from .network import (TrainState, Workspace, loss_and_gradients, stack_layouts,
                      state_layout)

__all__ = [
    "RecordOptions",
    "Trajectory",
    "RateVerdict",
    "run_gd",
    "integrate_gf",
    "train_batch",
    "classify_rate",
    "balance_gap",
    "balance_drift",
]

DIVERGENCE_THRESHOLD = 1e9
LOSS_CLAMP = 1e-300
STALL_TOL = 1e-12
METHODS = ("gd", "euler", "rk4")


@dataclass
class RecordOptions:
    record_every: int = 10                  # a record every this many steps and at the stop
    weights: bool = False                   # records hold the (K, d, d) weights
    stop_below: float | None = None         # stop once the loss is <= this; None: never

    def __post_init__(self):
        every, floor = self.record_every, self.stop_below
        if isinstance(every, bool) or not isinstance(every, int) or every < 1:
            raise ValueError(f"record_every must be a positive int, got {every!r}")
        if floor is not None and (isinstance(floor, bool) or not isinstance(
                floor, (int, float)) or not math.isfinite(floor)):
            raise ValueError(f"stop_below must be None or a finite number, got {floor!r}")


@dataclass
class Trajectory:
    times: np.ndarray
    iters: np.ndarray
    losses: np.ndarray
    weight_fro_norms: np.ndarray            # shape (records, K)
    weights: np.ndarray | None = None       # shape (records, K, d, d); RecordOptions.weights
    # Why the run stopped: "budget" (it took all its steps), "floor" (the
    # loss reached RecordOptions.stop_below), "loss_blowup" (the loss
    # exceeded DIVERGENCE_THRESHOLD or was not finite) or "nonfinite_grad";
    # the last two are divergence.
    stop_reason: str = "budget"

    @property
    def steps(self) -> int:
        """The updates taken before the stop: the last record is the stop's."""
        return int(self.iters[-1])

    @property
    def diverged(self) -> bool:
        return self.stop_reason in ("loss_blowup", "nonfinite_grad")

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self, extra: dict | None = None) -> str:
        """Serialize per the trajectory CSV contract: decimal text, 12
        significant digits, LF line endings, columns
        t,iter,loss,fro_w1..fro_wK[,extras...]."""
        K, extra = self.weight_fro_norms.shape[1], extra or {}
        cols = ["t", "iter", "loss"] + [f"fro_w{k}" for k in range(1, K + 1)] + list(extra)
        chans = [self.times, self.iters, self.losses, *self.weight_fro_norms.T,
                 *map(np.asarray, extra.values())]
        row = "%.12g,%d," + ",".join(["%.12g"] * (len(chans) - 2))
        lines = [",".join(cols)] + [row % cells
                                    for cells in zip(*(chan.tolist() for chan in chans))]
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
    """The trajectories of a batch's members, one column each, in arrays
    sized for `capacity` records (a run's budget step and its stop at most):
    a record writes one row, the step of every member still training."""

    def __init__(self, options: RecordOptions, time_scale: float, capacity: int,
                 members: int, K: int, d: int):
        self.time_scale = time_scale
        self.n = self.written = 0   # rows kept; rows up to the last one written
        self.iters = np.empty(capacity, dtype=np.int64)
        self.losses = np.empty((capacity, members))
        self.fro = np.empty((capacity, members, K))
        self.weights = np.empty((capacity, members, K, d, d)) if options.weights else None

    def write(self, it: int, cols, values: list, weights: np.ndarray, fro: np.ndarray,
              keep: bool):
        """Write step `it` of the members in columns `cols` as the next row:
        their losses, (B, K, d, d) weights and the weights' (B, K) Frobenius
        norms.  Unless `keep`, the next write overwrites the row: it is a
        stop between records, which only the stopping members' trajectories,
        built before that write, end with."""
        n = self.n
        self.iters[n] = it
        self.losses[n, cols] = values
        self.fro[n, cols] = fro
        if self.weights is not None:
            self.weights[n, cols] = weights
        self.written, self.n = n + 1, n + keep

    def build(self, col: int, stop_reason: str) -> Trajectory:
        """Column col's trajectory, up to the row written last.  A lone
        member's channels are views (its recorder is dropped once this
        returns); a batch member's are copied out of the shared rows."""
        rows, lone = slice(self.written), self.losses.shape[1] == 1

        def column(chan):
            if chan is None:
                return None
            return chan[rows, col] if lone else chan[rows, col].copy()

        iters = self.iters[rows] if lone else self.iters[rows].copy()
        return Trajectory(times=iters * self.time_scale, iters=iters,
                          losses=column(self.losses), weight_fro_norms=column(self.fro),
                          weights=column(self.weights), stop_reason=stop_reason)


def _finite(grads: np.ndarray | None) -> bool:
    """A one-dot-product pre-check: true only if every entry is finite.  A
    sum of squares that is not finite (an entry is not, or the squares
    overflow) says nothing; _nonfinite_rows then checks each entry."""
    return grads is None or math.isfinite(np.vdot(grads, grads))


def _nonfinite_rows(grads: np.ndarray | None) -> set:
    """The rows (members) of a stacked gradient with a non-finite entry."""
    if grads is None:
        return set()
    return set(np.flatnonzero(~np.isfinite(grads).reshape(len(grads), -1).all(axis=1))
               .tolist())


def _descend(active: _Active, wgrads: np.ndarray, cgrads: np.ndarray | None,
             step: float, step_c: float) -> None:
    """The GD and Euler update, in place: W <- W - step * grad and, in
    mixing mode, c <- c - step_c * grad_c."""
    active.weights -= np.multiply(wgrads, step, out=active.acc)
    if active.coeffs is not None:
        active.coeffs -= np.multiply(cgrads, step_c, out=active.acc_c)


def _stage(active: _Active, k: int, dt: float, kw: np.ndarray,
           kc: np.ndarray | None) -> None:
    """Fold stage k's gradients (k = 1..4) into the RK4 sum k1 + 2 k2 +
    2 k3 + k4, built in the active set's acc buffers in that expression's
    operation order, and build the next stage's parameters, theta - (dt/2)
    k or, after k3, theta - dt k3, in its stage buffers.  Stage k's
    gradients may be overwritten by the next evaluation once this
    returns."""
    for theta, g, acc, stage in ((active.weights, kw, active.acc, active.stage),
                                 (active.coeffs, kc, active.acc_c, active.stage_c)):
        if theta is None:
            continue
        if k < 4:
            np.subtract(theta, np.multiply(g, dt if k == 3 else 0.5 * dt, out=stage),
                        out=stage)
        if k == 1:
            np.copyto(acc, g)
        elif k < 4:
            acc += np.multiply(g, 2, out=g)
        else:
            acc += g


def _rk4(active: _Active, k1w: np.ndarray, k1c: np.ndarray | None, dt: float, _) -> None:
    """The classical RK4 update, in place, with stage gradients evaluated
    at stage parameters built in the active set's buffers:
    theta <- theta - (dt / 6) (k1 + 2 k2 + 2 k3 + k4)."""
    _stage(active, 1, dt, k1w, k1c)
    for k in (2, 3, 4):
        _, kw, kc = active.grad(active.stage, active.stage_c)
        _stage(active, k, dt, kw, kc)
    active.weights -= np.multiply(active.acc, dt / 6.0, out=active.acc)
    if active.coeffs is not None:
        active.coeffs -= np.multiply(active.acc_c, dt / 6.0, out=active.acc_c)


def _parameters(states) -> tuple[np.ndarray, np.ndarray | None]:
    """Fresh buffers of the weights and of the learned members' raw
    coefficient matrices (None when there are none) in the form _Active
    takes: a lone state's own shapes or, for more states, (B, K, d, d) and
    (L, K+1, K+1)."""
    weights = np.array([s.weights for s in states], dtype=np.float64)
    learned = [s.ancre.c for s in states if s.ancre is not None]
    coeffs = np.array(learned) if learned else None
    if len(states) > 1:
        return weights, coeffs
    return weights[0], None if coeffs is None else coeffs[0]


def _with_parameters(state: TrainState, weights: np.ndarray,
                     coeffs: np.ndarray | None) -> TrainState:
    return replace(state, weights=weights,
                   ancre=None if coeffs is None else state.ancre.with_coeffs(coeffs))


def _take(a: np.ndarray | None, rows: list, lone: bool) -> np.ndarray | None:
    """The rows `rows` of a, which has a leading member axis, in a fresh
    array of the form the next active set takes (without that axis when it
    is lone); None when there are none."""
    if a is None or not rows:
        return None
    return a[rows[0]].copy() if lone else a[rows]


class _Active:
    """The members still training, evaluated as one: a lone member without
    the member axis (so as a solo run), more through the stack of their
    layouts, in which the learned members come last, from row `first` on.
    Holds their weights and the learned members' raw coefficients in that
    form, updated in place, one network Workspace and the update's buffers;
    a run builds a new one whenever the active set shrinks.  members[row]
    is the recorder column of the member in that row."""

    def __init__(self, states, members: list, weights: np.ndarray,
                 coeffs: np.ndarray | None):
        self.members, self.lone = members, len(members) == 1
        contiguous = members == list(range(members[0], members[0] + len(members)))
        self.cols = slice(members[0], members[-1] + 1) if contiguous else np.array(members)
        self.state = states[members[0]]
        self.weights, self.coeffs = weights, coeffs
        learned = 0 if coeffs is None else 1 if self.lone else len(coeffs)
        self.first = len(members) - learned
        layouts = [state_layout(states[m]) for m in members]
        self.layout = layouts[0] if self.lone else stack_layouts(layouts)
        self.work = Workspace(self.state, weights.shape, self.layout)
        self.stage, self.acc = np.empty_like(weights), np.empty_like(weights)
        self.stage_c = self.acc_c = None
        if coeffs is not None:
            self.stage_c, self.acc_c = np.empty_like(coeffs), np.empty_like(coeffs)

    def grad(self, weights: np.ndarray, coeffs: np.ndarray | None):
        """(losses as a list, weight gradients, coefficient gradients)."""
        value, wgrads, cgrads = loss_and_gradients(self.state, weights, coeffs,
                                                   self.layout, self.work)
        return [value] if self.lone else value.tolist(), wgrads, cgrads

    def rows(self, a: np.ndarray | None) -> np.ndarray | None:
        """a with a leading member axis (of the learned members only, for
        coefficient arrays)."""
        return a[None] if self.lone and a is not None else a

    def nonfinite(self, wgrads: np.ndarray, cgrads: np.ndarray | None) -> set:
        """The rows whose weight or coefficient gradients hold a non-finite
        entry."""
        return _nonfinite_rows(self.rows(wgrads)) | {
            self.first + row for row in _nonfinite_rows(self.rows(cgrads))}

    def shrink(self, states, keep: list, wgrads: np.ndarray,
               cgrads: np.ndarray | None) -> tuple:
        """The active set of the rows `keep`, and their gradients in its
        form."""
        lone = len(keep) == 1
        keep_c = [row - self.first for row in keep if row >= self.first]
        active = _Active(states, [self.members[row] for row in keep],
                         _take(self.rows(self.weights), keep, lone),
                         _take(self.rows(self.coeffs), keep_c, lone))
        return (active, _take(self.rows(wgrads), keep, lone),
                _take(self.rows(cgrads), keep_c, lone))


def _drive(states, method: str, step: float, n_steps: int, lr_c: float | None,
           options: RecordOptions | None) -> list[tuple[Trajectory, TrainState]]:
    """The one driver, over members stacked along a leading axis; the time
    axis is iteration * step, and lr_c (default step) the GD coefficient
    rate.

    Each step evaluates the active members in one pass, decides which stop,
    each on its own (its loss blew up or reached the floor, its budget is
    spent, or its gradient is not finite), then records the step of every
    active member in one row when due (every record_every steps, and at
    every stop); a stopping member's trajectory is built from its column
    then, and it keeps the parameters it stopped with.  The rest take the
    method's update in place.  The budget step's gradients are computed but
    neither used nor checked."""
    options = options or RecordOptions()
    step_c = step if lr_c is None else lr_c
    update = _rk4 if method == "rk4" else _descend
    # the fixed members first, so that the learned ones are the stack's last
    # rows (stack_layouts rejects members of another trunk or softmax recipe
    # here, before the first step); the results are put back in the callers'
    # order at the end
    order = sorted(range(len(states)), key=lambda m: states[m].ancre is not None)
    states = [states[m] for m in order]
    active = _Active(states, list(range(len(states))), *_parameters(states))
    rec = _Recorder(options, step, n_steps // options.record_every + 2, len(states),
                    states[0].K, states[0].d)
    results = [None] * len(states)
    floor, every = options.stop_below, options.record_every

    for it in range(n_steps + 1):
        budget = it == n_steps
        values, wgrads, cgrads = active.grad(active.weights, active.coeffs)
        stops = {}
        for row, v in enumerate(values):
            if not v <= DIVERGENCE_THRESHOLD:
                stops[row] = "loss_blowup"
            elif floor is not None and v <= floor:
                stops[row] = "floor"
            elif budget:
                stops[row] = "budget"
        if not (budget or _finite(wgrads) and _finite(cgrads)):
            for row in active.nonfinite(wgrads, cgrads):
                stops.setdefault(row, "nonfinite_grad")
        due = budget or it % every == 0
        if due or stops:
            rec.write(it, active.cols, values, active.rows(active.weights),
                      active.rows(tensor.frobenius_norm(active.weights)), due)
        if stops:
            weights, coeffs = active.rows(active.weights), active.rows(active.coeffs)
            for row, reason in stops.items():
                member = active.members[row]
                results[member] = (rec.build(member, reason), _with_parameters(
                    states[member], weights[row],
                    None if row < active.first else coeffs[row - active.first]))
            keep = [row for row in range(len(values)) if row not in stops]
            if not keep:
                break
            active, wgrads, cgrads = active.shrink(states, keep, wgrads, cgrads)
        update(active, wgrads, cgrads, step, step_c)

    return [results[row] for row in np.argsort(order)]


def _check_batch(states) -> None:
    if not states:
        raise ValueError("a batch needs at least one state")
    first = states[0]
    for s in states[1:]:
        if ((s.K, s.nonlinearity) != (first.K, first.nonlinearity)
                or not (np.array_equal(s.X, first.X) and np.array_equal(s.Y, first.Y))):
            raise ValueError("batch members must share X, Y, depth K and nonlinearity")


def _check_schedule(step_name: str, step: float, steps_name: str, n_steps: int,
                    lr_c: float | None) -> None:
    """Reject a bad step size, step count or coefficient rate before the
    first step."""
    if not 0 < step < np.inf:
        raise ValueError(f"{step_name} must be positive and finite, got {step}")
    if isinstance(n_steps, bool) or not isinstance(n_steps, int):
        raise ValueError(f"{steps_name} must be an int, got {n_steps!r}")
    if n_steps < 0:
        raise ValueError(f"{steps_name} must be >= 0")
    if lr_c is not None and not 0 <= lr_c < np.inf:
        raise ValueError(f"lr_c must be None or >= 0 and finite, got {lr_c!r}")


def train_batch(states, method: str, step: float, n_steps: int, lr_c: float | None = None,
                options: RecordOptions | None = None) -> list[tuple[Trajectory, TrainState]]:
    """Train `states` as one batch for n_steps steps; returns one
    (trajectory, final state) per state, in order, each equal to what a
    solo run_gd or integrate_gf of that state gives.

    method is "gd" (step is lr, and lr_c, default lr, the coefficient
    rate), "euler" or "rk4" (step is dt; lr_c must be None).  The time
    axis is iteration * step.  The members must share X, Y, depth K,
    nonlinearity and trunk, so a trunk-off learned layout cannot join fixed
    ones, which keep their trunk; their initial weights and layouts may
    differ, fixed and learned (ANCRe) alike, and the learned ones must
    share their softmax mode and temperature."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_schedule("step", step, "n_steps", n_steps, lr_c)
    if lr_c is not None and method != "gd":
        raise ValueError(f"lr_c applies to method 'gd' only, not {method!r}")
    _check_batch(states)
    return _drive(states, method, step, n_steps, lr_c, options)


def run_gd(state: TrainState, lr: float, iters: int, lr_c: float | None = None,
           options: RecordOptions | None = None) -> tuple[Trajectory, TrainState]:
    """Gradient descent for `iters` steps: W_k <- W_k - lr * grad and, in
    mixing mode, c <- c - lr_c * grad_c (lr_c defaults to lr).  The
    trajectory's time axis is iter * lr.  A loss blow-up or a non-finite
    gradient stops the run with `diverged` set, before the step it would
    have taken."""
    _check_schedule("lr", lr, "iters", iters, lr_c)
    return _drive([state], "gd", lr, iters, lr_c, options)[0]


def integrate_gf(state: TrainState, dt: float, t_end: float, method: str = "euler",
                 options: RecordOptions | None = None) -> tuple[Trajectory, TrainState]:
    """Integrate the gradient-flow ODE dtheta/dt = -grad L over all
    parameters (weights and, in mixing mode, raw coefficients) for
    round(t_end / dt) steps."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not 0 <= t_end < np.inf:
        raise ValueError(f"t_end must be >= 0 and finite, got {t_end}")
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


def balance_gap(weights: np.ndarray) -> np.ndarray:
    """||W1||_F^2 - ||W2||_F^2 of each record of (records, K, d, d) weights,
    a record at a time: no temporary of the size of `weights`."""
    return np.fromiter((np.sum(w[0] ** 2) - np.sum(w[1] ** 2) for w in weights), float,
                       len(weights))


def balance_drift(traj: Trajectory) -> float:
    """Max excursion of the recorded weights' ||W1||_F^2 - ||W2||_F^2 gap
    from its initial value.  The gap is exactly conserved under gradient
    flow for the 0:2 layout, so the drift measures integrator error."""
    if traj.weights is None:
        raise ValueError("trajectory has no weights channel (RecordOptions.weights)")
    gap = balance_gap(traj.weights)
    return float(np.max(np.abs(gap - gap[0])))
