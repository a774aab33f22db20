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

The driver keeps one network Workspace and its update buffers per active
set, so a step allocates nothing: parameters are updated in place, the
RK4 stage parameters and the weighted sum of k1..k4 are built in
preallocated buffers (each stage's gradients are folded into the sum
before the next evaluation overwrites them), and a lone member is
evaluated without the member axis, as a solo run.
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
from .network import TrainState, Workspace, loss_and_gradients, loss_only, stack_layouts

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
    """Fresh buffers of the weights and the raw coefficient matrices (None
    for fixed layouts) in the form _Active takes: a lone state's own
    shapes, or with a leading member axis, (B, K, d, d) and so on."""
    weights = np.array([s.weights for s in states], dtype=np.float64)
    coeffs = None if states[0].ancre is None else np.array([s.ancre.c for s in states])
    if len(states) > 1:
        return weights, coeffs
    return weights[0], None if coeffs is None else coeffs[0]


def _with_parameters(state: TrainState, weights: np.ndarray,
                     coeffs: np.ndarray | None) -> TrainState:
    return replace(state, weights=weights,
                   ancre=None if coeffs is None else state.ancre.with_coeffs(coeffs))


class _Active:
    """The members still training, evaluated as one: a lone member without
    the member axis (so as a solo run), more through the stacked layout of
    their fixed layouts.  Holds their parameters in that form, updated in
    place, one network Workspace and the update's buffers; a run builds a
    new one whenever the active set shrinks."""

    def __init__(self, states, members: list, weights: np.ndarray,
                 coeffs: np.ndarray | None):
        self.members, self.lone = members, len(members) == 1
        self.state = state = states[members[0]]
        self.weights, self.coeffs = weights, coeffs
        if not self.lone:
            self.layout = stack_layouts([states[m].topology.layout for m in members])
        else:
            # a learned layout is normalized from the coefficients of each call
            self.layout = None if state.ancre is not None else state.topology.layout
        self.work = Workspace(state, weights.shape, self.layout)
        self.stage, self.acc = np.empty_like(weights), np.empty_like(weights)
        self.stage_c = self.acc_c = None
        if coeffs is not None:
            self.stage_c, self.acc_c = np.empty_like(coeffs), np.empty_like(coeffs)

    def grad(self, weights: np.ndarray, coeffs: np.ndarray | None):
        """(losses as a list, weight gradients, coefficient gradients)."""
        value, wgrads, cgrads = loss_and_gradients(self.state, weights, coeffs,
                                                   self.layout, self.work)
        return [value] if self.lone else value.tolist(), wgrads, cgrads

    def losses(self) -> list:
        value = loss_only(self.state, self.weights, self.coeffs, self.layout, self.work)
        return [value] if self.lone else value.tolist()

    def rows(self, a: np.ndarray | None) -> np.ndarray | None:
        """a with a leading member axis."""
        return a[None] if self.lone and a is not None else a

    def take(self, a: np.ndarray | None, keep: list) -> np.ndarray | None:
        """The rows `keep` of a, in a fresh array of the form the next
        active set takes."""
        if a is None:
            return None
        a = self.rows(a)
        return a[keep] if len(keep) > 1 else a[keep[0]].copy()


def _drive(states, method: str, step: float, n_steps: int, lr_c: float | None,
           options: RecordOptions | None) -> list[tuple[Trajectory, TrainState]]:
    """The one driver, over members stacked along a leading axis; the time
    axis is iteration * step, and lr_c (default step) the GD coefficient
    rate.

    Each step evaluates the active members in one pass, records those due
    (every record_every steps, and at a stop) and stops, each on its own,
    the members whose loss blew up or reached the floor, whose budget is
    spent, or whose gradient is not finite; a stopped member keeps the
    parameters it stopped with.  The rest take the method's update in
    place.  The budget step evaluates the loss alone."""
    options = options or RecordOptions()
    step_c = step if lr_c is None else lr_c
    update = _rk4 if method == "rk4" else _descend
    active = _Active(states, list(range(len(states))), *_parameters(states))
    capacity = n_steps // options.record_every + 2
    recs = [_Recorder(options, step, capacity, s.K, s.d) for s in states]
    results = [None] * len(states)
    floor, every = options.stop_below, options.record_every

    for it in range(n_steps + 1):
        budget = it == n_steps
        if budget:
            values, wgrads, cgrads = active.losses(), None, None
        else:
            values, wgrads, cgrads = active.grad(active.weights, active.coeffs)
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
            fro = active.rows(tensor.frobenius_norm(active.weights))
            for row, (member, w) in enumerate(zip(active.members,
                                                  active.rows(active.weights))):
                if due or row in stops:
                    recs[member].snapshot(it, values[row], w, fro[row])
        if not (budget or _finite(wgrads) and _finite(cgrads)):
            for row in (_nonfinite_rows(active.rows(wgrads))
                        | _nonfinite_rows(active.rows(cgrads))):
                stops.setdefault(row, "nonfinite_grad")
        if stops:
            weights, coeffs = active.rows(active.weights), active.rows(active.coeffs)
            for row, reason in stops.items():
                member = active.members[row]
                results[member] = (recs[member].build(reason, it), _with_parameters(
                    states[member], weights[row], None if coeffs is None else coeffs[row]))
            keep = [row for row in range(len(values)) if row not in stops]
            if not keep:
                break
            wgrads, cgrads = active.take(wgrads, keep), active.take(cgrads, keep)
            active = _Active(states, [active.members[row] for row in keep],
                             active.take(active.weights, keep),
                             active.take(active.coeffs, keep))
        update(active, wgrads, cgrads, step, step_c)

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
    rate), "euler" or "rk4" (step is dt).  The time axis is iteration *
    step.  The members must share X, Y, depth K, nonlinearity and layout
    kind; their initial weights and fixed layouts may differ.  Learned
    (ANCRe) layouts train one per batch."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_schedule("step", step, "n_steps", n_steps, lr_c)
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


def balance_drift(traj: Trajectory) -> float:
    """Max excursion of the recorded ||W1||_F^2 - ||W2||_F^2 gap from its
    initial value.  The gap is exactly conserved under gradient flow for
    the 0:2 layout, so the drift measures integrator error."""
    if traj.balance_gap is None:
        raise ValueError("trajectory has no balance_gap channel")
    return float(np.max(np.abs(traj.balance_gap - traj.balance_gap[0])))
