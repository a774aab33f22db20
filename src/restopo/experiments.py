"""Preset experiments, run-directory persistence, and comparison reports.

A run executes one preset (or a custom configuration) and persists, under
<output_dir>/<preset>_<seed>/:

    config.json             the exact configuration echo
    trajectory_<curve>.csv  one loss/norm trajectory per trained curve
    heatmap.csv             learned-coefficient heatmap (mixing presets)
    record.json             verdicts (or why one is missing), thresholds,
                            steps and stop reasons, invariant checks, paths

The curves a preset trains on one instance, its fixed layouts and its
ANCRe curve, are trained as one batch (dynamics.train_batch) when they
share a trunk; each curve's records equal those of a solo run.  A witness
preset's side runs, which feed its checks but train no curve, run in
forked worker processes while it trains its main curve (_side_runs); their
results are those of a serial run, bit for bit.

The run directory appears only when the run completes: its files are
written into a hidden sibling that is then renamed into place, replacing
an earlier run of the same preset and seed whole.  A run that raises
leaves the output directory as it found it.

Figure presets draw their target and initial weights from one commuting
family: a hidden random orthogonal basis R with all matrices of the form
R diag(.) R^T.  Within that family every shortcut layout evolves as d
decoupled scalar systems, which makes the rate phenomenology (a balanced
pair annihilating a rank-deficient mode sublinearly vs a free last-layer
factor converging linearly) reproducible for every seed instead of
depending on uncontrolled smallest singular values of raw Gaussian draws.
Consecutive weights after W1 are initialized as equal symmetric pairs, the
matrix form of the balanced witness initializations behind the two rate
bounds, and W1 stays near zero so I + W1 cannot lose rank.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Callable

import numpy as np

from . import __version__, tensor
from .ancre import MODES, AncreParams, candidate_pairs, heatmap, heatmap_csv
from .dynamics import (RecordOptions, Trajectory, balance_drift, balance_gap,
                       classify_rate, integrate_gf, run_gd, train_batch)
from .network import Topology, TrainState
from .oracles import (diag_integrate, lb_witness_init, lower_bound_curve,
                      ub_witness_init, upper_bound_curve)
from .tensor import make_rng, orthonormal_rows, random_orthogonal

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "THRESHOLDS",
    "run",
    "compare",
    "verify",
    "render_compare",
    "load_record",
]

THRESHOLDS = (1e-2, 1e-4, 1e-6, 1e-8)
THRESHOLD_KEYS = ("1e-2", "1e-4", "1e-6", "1e-8")

# Spectrum constants for the commuting-family instances (see module docstring).
SIGMA_RANGE = (0.5, 1.5)
PAIR_LO = 0.25
PAIR_WIDTH = 0.15
KDEEP_PAIR_STEP = 0.4
W1_SCALE = 0.01
DEPTH_RANGE = (0.25, 0.4)

def _check_preset(preset) -> None:
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}")


@dataclass
class ExperimentConfig:
    preset: str = "custom"
    d: int = 8
    n: int = 16
    K: int = 3
    seed: int = 1
    optimizer: str = "gd"              # gd | gf-euler | gf-rk4
    lr: float = 1e-2                   # moves the weights and the learned coefficients
    dt: float = 1e-3
    t_end: float = 20.0
    iters: int = 30000
    record_every: int = 10
    nonlinearity: str = "none"
    temperature: float = 0.1
    trunk: bool = True
    lam: float = 0.5                   # ub-witness rate constant
    rank_deficiency: int = 1           # zero modes in the target spectrum
    stop_below: float | None = 1e-26   # early loss floor, None disables
    topology: str | None = None        # custom preset: "none"|"cascaded"|"0:2"|"0:1+2:3"
    ancre_mode: str | None = None      # custom preset: "ingoing"|"outgoing"
    output_dir: str | None = None

    def __post_init__(self):
        _check_preset(self.preset)
        for name in ("topology", "output_dir"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"config field {name!r} must be None or a string, "
                                 f"got {value!r}")
        for name in ("d", "n", "K", "iters", "record_every", "seed", "rank_deficiency"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config field {name!r} must be an int, got {value!r}")
        for name in ("lr", "dt", "t_end", "temperature", "lam", "stop_below"):
            value = getattr(self, name)
            if value is None and name == "stop_below":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"config field {name!r} must be a number, got {value!r}")
        for name in ("d", "n", "K", "record_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name!r} must be >= 1")
        for name in ("iters", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"config field {name!r} must be >= 0")
        if not isinstance(self.trunk, bool):
            raise ValueError(f"config field 'trunk' must be a bool, got {self.trunk!r}")
        if self.stop_below is not None and not math.isfinite(self.stop_below):
            raise ValueError(f"config field 'stop_below' must be None or finite, "
                             f"got {self.stop_below!r}")
        if self.n < self.d:
            raise ValueError(f"config requires n >= d, got d={self.d}, n={self.n}")
        if self.optimizer not in ("gd", "gf-euler", "gf-rk4"):
            raise ValueError(f"config field 'optimizer' invalid: {self.optimizer!r}")
        if self.topology is not None and self.ancre_mode is not None:
            raise ValueError("config fields 'topology' and 'ancre_mode' are exclusive")
        for name in ("lr", "dt", "temperature"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"config field {name!r} must be positive and finite")
        if not 0 <= self.t_end < np.inf:
            raise ValueError("config field 't_end' must be >= 0 and finite")
        if self.t_end > 0 and self.dt > self.t_end:
            raise ValueError(f"config field 'dt'={self.dt} exceeds 't_end'={self.t_end}")
        if self.nonlinearity not in ("none", "tanh"):
            raise ValueError(f"config field 'nonlinearity' invalid: {self.nonlinearity!r}")
        if self.ancre_mode is not None and self.ancre_mode not in MODES:
            raise ValueError(f"config field 'ancre_mode' invalid: {self.ancre_mode!r}")
        if self.topology is not None:
            try:
                parse_topology(self.topology, self.K)
            except ValueError as exc:
                raise ValueError(f"config field 'topology' invalid: {exc}") from None
        if not 0 < self.lam < 1:
            raise ValueError(f"config field 'lam' must lie in (0, 1), got {self.lam}")
        lowest = 1 if self.preset == "lb-witness" else 0
        if not lowest <= self.rank_deficiency < self.d:
            raise ValueError(f"config field 'rank_deficiency' must lie in "
                             f"[{lowest}, d={self.d}), got {self.rank_deficiency}")
        if self.preset in WITNESS_PRESETS and self.n != self.d:
            raise ValueError(f"config field 'n' must equal d={self.d} under preset "
                             f"{self.preset!r}, whose data is X = I_d; got n={self.n}")
        where = f"preset {self.preset!r}"
        unread = [(name, where) for name in PRESETS[self.preset].unread]
        if self.preset == "custom" and self.ancre_mode is None:
            unread += [(name, where + " without 'ancre_mode'") for name in _ANCRE_ONLY]
        steps = ("dt", "t_end") if self.optimizer == "gd" else ("lr", "iters")
        unread += [(name, f"optimizer {self.optimizer!r}") for name in steps]
        defaults = {f.name: f.default for f in fields(self)} | PRESETS[self.preset].defaults
        for name, where in unread:
            value = getattr(self, name)
            if value != defaults[name]:
                raise ValueError(f"config field {name!r} is not read or is fixed by {where}; "
                                 f"it must keep its default {defaults[name]!r}, got {value!r}")

    @classmethod
    def for_preset(cls, preset: str, **overrides) -> "ExperimentConfig":
        _check_preset(preset)
        merged = dict(PRESETS[preset].defaults)
        merged.update(overrides)
        return cls(preset=preset, **merged)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config field(s): {unknown}")
        preset = data.get("preset", "custom")
        rest = {k: v for k, v in data.items() if k != "preset"}
        return cls.for_preset(preset, **rest)

    def resolved_output_dir(self) -> str:
        return self.output_dir or os.environ.get("RESTOPO_OUT") or "runs"


@dataclass
class Instance:
    A: np.ndarray
    weights: list
    X: np.ndarray
    Y: np.ndarray

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.A, self.X, self.Y, *self.weights):
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()[:16]


def _symmetric_from_spectrum(R: np.ndarray, diag: np.ndarray) -> np.ndarray:
    return (R * diag) @ R.T


def figure_instance(d: int, n: int, K: int, seed: int, rank_deficiency: int,
                    pair_step: float = 0.0) -> Instance:
    """Commuting-family instance: symmetric target with a controlled spectrum
    (rank_deficiency trailing zeros), near-zero W1, and equal symmetric pairs
    (W2, W3), (W4, W5), ... whose spectra sit in [PAIR_LO + m*pair_step,
    ... + PAIR_WIDTH] for pair index m."""
    if not 0 <= rank_deficiency < d:
        raise ValueError(f"rank_deficiency must lie in [0, d), got {rank_deficiency}")
    rng = make_rng(seed)
    R = random_orthogonal(rng, d)
    sig = np.sort(rng.uniform(*SIGMA_RANGE, d))[::-1]
    if rank_deficiency:
        sig[d - rank_deficiency:] = 0.0
    A = _symmetric_from_spectrum(R, sig)
    weights = [_symmetric_from_spectrum(R, rng.uniform(-W1_SCALE, W1_SCALE, d))]
    m, k = 0, 1
    while k < K:
        lo = PAIR_LO + pair_step * m
        w = _symmetric_from_spectrum(R, rng.uniform(lo, lo + PAIR_WIDTH, d))
        weights.append(w)
        if k + 1 < K:
            weights.append(w.copy())
            k += 2
        else:
            k += 1
        m += 1
    X = orthonormal_rows(rng, d, n)
    return Instance(A=A, weights=weights, X=X, Y=A @ X)


def depth_instance(d: int, n: int, K: int, seed: int) -> Instance:
    """Fully balanced plain-stack instance: full-rank symmetric target and all
    K layers initialized to one shared symmetric draw.  The same seed yields
    the same target and base layer for every K."""
    rng = make_rng(seed)
    R = random_orthogonal(rng, d)
    sig = np.sort(rng.uniform(*SIGMA_RANGE, d))[::-1]
    A = _symmetric_from_spectrum(R, sig)
    base = _symmetric_from_spectrum(R, rng.uniform(*DEPTH_RANGE, d))
    X = orthonormal_rows(rng, d, n)
    return Instance(A=A, weights=[base.copy() for _ in range(K)], X=X, Y=A @ X)


def parse_topology(text: str, K: int) -> Topology:
    """Parse 'none', 'cascaded', or '+'-joined 'i:j' shortcut lists."""
    text = text.strip()
    if text == "none":
        return Topology.none(K)
    if text == "cascaded":
        return Topology.cascaded(K)
    pairs = set()
    for part in text.split("+"):
        i, sep, j = part.partition(":")
        if not sep:
            raise ValueError(f"shortcut {part!r} is not of the form 'i:j'")
        pairs.add((int(i), int(j)))
    return Topology(K=K, shortcuts=frozenset(pairs))


# ---------------------------------------------------------------------------
# curve execution

def iterations_to(traj: Trajectory, threshold: float) -> float:
    hit = np.nonzero(traj.losses <= threshold)[0]
    return float(traj.iters[hit[0]]) if hit.size else float("inf")


def _verdict(traj: Trajectory) -> tuple[dict | None, str | None]:
    """(verdict, None), or (None, the reason) when classify_rate gives none."""
    try:
        v = classify_rate(traj)
    except ValueError as exc:
        return None, str(exc)
    return {"kind": v.kind, "rate_or_power": v.rate_or_power,
            "fit_quality": v.fit_quality, "note": v.note}, None


def _train(cfg: ExperimentConfig, states: list, options: RecordOptions) -> list:
    """Train `states` as one batch with the configured optimizer; returns
    their (trajectory, final state) pairs.  A lone state goes through
    run_gd or integrate_gf."""
    gd = cfg.optimizer == "gd"
    method = "gd" if gd else cfg.optimizer.removeprefix("gf-")
    if len(states) > 1:
        step, n_steps = (cfg.lr, cfg.iters) if gd else (cfg.dt, int(round(cfg.t_end / cfg.dt)))
        return train_batch(states, method, step, n_steps, options=options)
    if gd:
        return [run_gd(states[0], cfg.lr, cfg.iters, options=options)]
    return [integrate_gf(states[0], cfg.dt, cfg.t_end, method, options)]


def _curve(cfg: ExperimentConfig, record: dict, files: dict, curves: list,
           extra=None, weights: bool = False) -> list[tuple[Trajectory, TrainState]]:
    """Train the (name, state) pairs of `curves` as one batch, then put each
    curve's CSV text in `files` and its entry in record["curves"] under its
    name, in order; returns the (trajectory, final state) pairs.

    `weights` records each record's weights (RecordOptions.weights);
    `extra`, if given, maps a trajectory to further CSV columns
    {name: values}."""
    options = RecordOptions(record_every=cfg.record_every, weights=weights,
                            stop_below=cfg.stop_below)
    results = _train(cfg, [state for _, state in curves], options)
    for (name, _), (traj, _) in zip(curves, results):
        csv_name = "trajectory_" + name.replace(":", "-") + ".csv"
        files[csv_name] = traj.to_csv(extra=extra(traj) if extra else None)
        verdict, verdict_error = _verdict(traj)
        record["curves"][name] = {
            "trajectory_csv": csv_name,
            "verdict": verdict,
            "verdict_error": verdict_error,
            "iterations_to": {key: iterations_to(traj, thr)
                              for key, thr in zip(THRESHOLD_KEYS, THRESHOLDS)},
            "final_loss": float(traj.losses[-1]),
            "records": len(traj),
            "diverged": traj.diverged,
            **_counts(traj),
        }
    return results


def _counts(traj: Trajectory) -> dict:
    """What a run did: its steps, gradient evaluations and stop reason."""
    return {"steps": traj.steps, "evals": traj.evals, "stop_reason": traj.stop_reason}


# ---------------------------------------------------------------------------
# side runs

def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextlib.contextmanager
def _side_runs(tasks: list):
    """Start `tasks`, picklable calls of no arguments, in forked worker
    processes, min(len(tasks), usable CPUs) of them, which take the tasks
    in list order; yields a function, to be called once, that waits for
    the tasks and returns their results in list order.  The caller works
    on meanwhile.  With one usable CPU, or where fork is unavailable, that
    function runs the tasks itself, in this process.  Every worker is
    joined on leaving the block, when a task or the caller raises too.

    Each task's result is its own computation's, bit for bit, wherever it
    runs.  The workers are forked, not spawned, so that they do not import
    numpy again.  Forking is safe here: the pool forks all its workers
    before it starts its own thread, and OpenBLAS shuts its thread pool
    down across a fork.  The pool is imported here, so that runs without
    side runs load no multiprocessing module."""
    cpus = _usable_cpus()
    if cpus < 2 or not hasattr(os, "fork"):
        yield lambda: [task() for task in tasks]
        return
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(min(len(tasks), cpus), mp_context=get_context("fork"))
    try:
        futures = [pool.submit(task) for task in tasks]
        yield lambda: [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _euler_run(state: TrainState, dt: float, t_end: float, reduce: Callable,
               weights: bool = False) -> tuple:
    """A witness's side run: explicit Euler from `state` to t_end, a
    record every 10 steps (with the weights if `weights`); returns
    reduce(trajectory) and the run's counts.  Module-level, with
    module-level `reduce`, so that it pickles into a worker."""
    traj, _ = integrate_gf(state, dt, t_end, "euler",
                           RecordOptions(record_every=10, weights=weights))
    return reduce(traj), _counts(traj)


def _check(name: str, value: float, bound: float, kind: str, note: str = "") -> dict:
    """kind '<=' passes when value <= bound; kind '>=' when value >= bound.
    margin is the signed headroom (positive iff passed)."""
    if kind == "<=":
        passed, margin = value <= bound, bound - value
    elif kind == ">=":
        passed, margin = value >= bound, value - bound
    else:
        raise ValueError(kind)
    return {"name": name, "passed": bool(passed), "value": float(value),
            "bound": float(bound), "margin": float(margin), "note": note}


def _nonincreasing_check(name: str, values: np.ndarray, note: str = "") -> dict:
    """`values` never rise by more than 1e-10 times the value before; fewer
    than two values pass with value 0 and no note."""
    if len(values) < 2:
        return _check(name, 0.0, 0.0, "<=")
    increases = values[1:] - values[:-1] - 1e-10 * np.maximum(values[:-1], 1e-300)
    return _check(name, float(np.max(increases)), 0.0, "<=", note=note)


def _monotone_loss_check(losses: np.ndarray, name: str) -> dict:
    return _nonincreasing_check(name, losses, "max recorded loss increase beyond 1e-10 * L")


def _lower_bound_envelope_check(traj: Trajectory, a_d0: float) -> dict:
    """The lower-bound witness's rate check: the loss stays above 0.99 times
    the envelope lower_bound_curve(a_d0, t) at every recorded time.  It
    holds under the 0:1 shortcut and fails where a layout converges
    exponentially (0:2), the paper's exponential gap."""
    env = lower_bound_curve(a_d0, traj.times)
    return _check("lower_bound_envelope",
                  float(np.min(traj.losses / (env * (1.0 - 1e-2)))), 1.0, ">=",
                  note="min L(t) / (0.99 * envelope)")


def _upper_bound_envelope_check(losses: np.ndarray, env: np.ndarray) -> dict:
    """The upper-bound witness's rate check: the loss stays within 1.05
    times the envelope upper_bound_curve, given per record in `env`.  It
    holds under the 0:2 shortcut and fails where a layout converges
    sublinearly (0:1), the paper's exponential gap."""
    return _check("upper_bound_envelope", float(np.max(losses / env)), 1.05, "<=",
                  note="max L(t) / envelope; 1.05 slack per contract")


def _delta_compliant_init_check(init_norms: list, delta: float, halvings: int) -> dict:
    """The upper-bound witness's start: every ||W_k(0)||_F, given in
    `init_norms`, is at most delta, the threshold the linear-rate proof
    needs, reached after `halvings` halvings of the draw."""
    return _check("delta_compliant_init", float(max(init_norms)), delta, "<=",
                  note=f"max ||W_k(0)||_F vs delta_used after {halvings} halvings")


def _w2w1_spectral_norms(weights: np.ndarray) -> np.ndarray:
    """||W2 W1||_2 of each record of (records, K, d, d) weights, each through
    tensor.spectral_norm looked up at call time, the name the benchmark's
    tracer wraps."""
    return np.array([tensor.spectral_norm(w[1] @ w[0]) for w in weights])


def _spectral_norm_containment_check(spec: np.ndarray, lam: float) -> dict:
    """The upper-bound witness's containment: ||W2 W1||_2, given per record
    in `spec`, stays at or below lam along the flow, as the linear-rate
    proof needs and a delta-compliant initialization ensures."""
    return _check("spectral_norm_containment", float(np.max(spec)), lam, "<=",
                  note="max ||W2 W1||_2 along the flow")


def _balance_drift_halving_checks(drifts: dict) -> list[dict]:
    """Explicit Euler's balance drift is first order in the step: for each
    step dt of `drifts` ({dt: drift}, keyed by successive halvings) but the
    last, drift(dt) / drift(dt/2) lies in [1.6, 2.4].  A drift at roundoff
    level, as under RK4, gives ratios of no order and fails."""
    dts, checks = list(drifts), []
    for dt, half in zip(dts, dts[1:]):
        r = drifts[dt] / drifts[half] if drifts[half] > 0 else float("inf")
        checks.append(_check(f"balance_drift_halving_dt_{dt:g}", abs(r - 2.0), 0.4, "<=",
                             note=f"drift({dt:g})/drift({half:g}) = {r:.4f}, "
                                  f"must lie in [1.6, 2.4]"))
    return checks


def _w3_growth_check(traj: Trajectory, L0: float) -> dict:
    """||W3(t)||_F grows by at most sqrt(t L0) (plus 1e-3) along gradient
    flow from an initial loss L0: the largest ratio of that growth, less
    1e-3, to sqrt(t L0) over the records after t = 0 is at most 1 (-inf
    when no record follows t = 0)."""
    fro3, later = traj.weight_fro_norms[:, 2], traj.times > 0
    ratio = (fro3[later] - fro3[0] - 1e-3) / np.sqrt(traj.times[later] * L0)
    return _check("w3_frobenius_growth", float(np.max(ratio, initial=-np.inf)), 1.0, "<=",
                  note="max over t > 0 of (||W3(t)||_F - ||W3(0)||_F - 1e-3) / sqrt(t L0)")


def _w1w2_growth_cap_check(fro: np.ndarray, init_norms: list, L0: float,
                           lam: float) -> dict:
    """The upper-bound witness's growth cap: ||W1||_F^2 + ||W2||_F^2, from
    the (records, K) Frobenius norms `fro`, stays within 1.05 times its
    initial value times e^M, where M = 2 sqrt(2 L0) ||W3(0)||_F / (1 - lam)^2
    + sqrt(2 pi) L0 / (1 - lam)^3 bounds its log-growth along the flow from
    an initial loss L0 and weights of Frobenius norms `init_norms`."""
    M = (2.0 * np.sqrt(2.0 * L0) * init_norms[2] / (1.0 - lam) ** 2
         + np.sqrt(2.0 * np.pi) * L0 / (1.0 - lam) ** 3)
    w12_0 = init_norms[0] ** 2 + init_norms[1] ** 2
    w12 = fro[:, 0] ** 2 + fro[:, 1] ** 2
    return _check("w1w2_growth_cap", float(np.max(w12 / (w12_0 * np.exp(M)))), 1.05, "<=",
                  note="(||W1||^2+||W2||^2) vs e^M cap, 5% slack")


def _suppression_check(hm: np.ndarray) -> dict:
    """The learned layout's suppression of the shortcuts 0:K and K-1:K: in
    the heatmap `hm` of log10 weight ratios (ancre.heatmap), both sit at
    least 0.3 below the most used source of layer K."""
    K = hm.shape[0] - 1
    return _check("suppression_0K_and_Kminus1K", float(max(hm[K, 0], hm[K, K - 1])), -0.3,
                  "<=", note=f"log10 weight ratios into layer {K}: "
                             f"{[round(float(x), 3) for x in hm[K, :K]]}")


def _depth_slowdown_check(iterations: dict) -> dict:
    """Deeper plain stacks train slower: the iterations to 1e-4 in
    `iterations`, {depth K: count}, rise strictly with K (value 1 when
    they do, else 0)."""
    counts = [iterations[K] for K in sorted(iterations)]
    ordered = all(a < b for a, b in zip(counts, counts[1:]))
    return _check("depth_slowdown_monotone", 1.0 if ordered else 0.0, 1.0, ">=",
                  note=f"iterations to 1e-4 by depth: {', '.join(map(str, counts))}")


def _witness_diagonals(weights: np.ndarray) -> tuple:
    """The lower-bound witness's coordinates (w, u, v), each (records, d),
    from its (records, 3, d, d) recorded weights: the diagonals of W1 plus
    its 0:1 shortcut's identity, of W2 and of W3."""
    diagonals = np.diagonal(weights, axis1=-2, axis2=-1)
    return diagonals[:, 0, :] + 1.0, diagonals[:, 1, :], diagonals[:, 2, :]


def _diag_oracle_match_check(full: tuple, oracle: tuple) -> dict:
    """The lower-bound witness's diagonal oracle: the recorded diagonals
    (w, u, v) in `full`, each (records, d), match the decoupled-coordinate
    oracle's in `oracle` to a relative 1e-6 (relative to the oracle's
    magnitude, floored at 1e-30)."""
    rel = 0.0
    for got, want in zip(full, oracle):
        rel = max(rel, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-30))))
    return _check("diag_oracle_match", rel, 1e-6, "<=",
                  note="max relative error of W diagonals vs the "
                       "decoupled-coordinate oracle")


def _witness_u_equals_v_check(u: np.ndarray, v: np.ndarray) -> dict:
    """The lower-bound witness keeps W2's and W3's last diagonal entries
    equal along the flow: u and v, per record, agree to 1e-10."""
    return _check("witness_u_equals_v", float(np.max(np.abs(u - v))), 1e-10, "<=")


def _witness_chain_check(w: np.ndarray, u: np.ndarray) -> dict:
    """The lower-bound witness's chain 0 <= u <= w <= 1 holds at every
    record, to 1e-9: the value is its largest violation."""
    violation = max(float(np.max(-u)), float(np.max(u - w)), float(np.max(w - 1.0)))
    return _check("witness_0_le_u_le_w_le_1", violation, 1e-9, "<=")


def _witness_cbrt_check(w: np.ndarray, a: np.ndarray) -> dict:
    """The lower-bound witness's w stays at or above cbrt(|a|), a = w u v,
    at every record, to 1e-9."""
    return _check("witness_w_dominates_cbrt_a", float(np.max(np.cbrt(np.abs(a)) - w)),
                  1e-9, "<=")


# ---------------------------------------------------------------------------
# presets

def _fixed_state(cfg: ExperimentConfig, inst: Instance, topology: Topology) -> TrainState:
    return TrainState(weights=inst.weights, X=inst.X, Y=inst.Y,
                      topology=topology, nonlinearity=cfg.nonlinearity)


def _run_figure(cfg: ExperimentConfig, record: dict, files: dict,
                layouts: list | None = None) -> np.ndarray | None:
    """Train `layouts`, fixed layouts of depth cfg.K, in this order on one
    commuting-family instance, then an ANCRe curve, all as one batch; with
    the trunk off the ANCRe curve trains alone, since a fixed layout keeps
    its trunk.  Without layouts (custom) the one curve is cfg.topology's
    layout or, with an ancre_mode, the ANCRe curve.  When the ANCRe curve
    mixes ingoing, its learned-coefficient heatmap goes into `files` and is
    returned."""
    K, with_ancre = cfg.K, layouts is not None or cfg.ancre_mode is not None
    if layouts is None:
        layouts = [] if with_ancre else [parse_topology(cfg.topology or "none", K)]
    inst = figure_instance(cfg.d, cfg.n, K, cfg.seed, cfg.rank_deficiency)
    record["instance_digest"] = inst.digest()
    curves = [(topo.label(), _fixed_state(cfg, inst, topo)) for topo in layouts]
    if with_ancre:
        params = AncreParams.uniform(K, mode=cfg.ancre_mode or "ingoing",
                                     temperature=cfg.temperature)
        curves.append(("ancre", TrainState(weights=inst.weights, X=inst.X, Y=inst.Y,
                                           ancre=params, nonlinearity=cfg.nonlinearity,
                                           trunk=cfg.trunk)))
    alone = with_ancre and not cfg.trunk and len(curves) > 1
    for batch in ([curves[:-1], curves[-1:]] if alone else [curves]):
        results = _curve(cfg, record, files, batch)
    if not with_ancre:
        return None
    final = results[-1][1]
    if final.ancre.mode != "ingoing":
        return None
    hm = heatmap(final.ancre)
    files["heatmap.csv"] = heatmap_csv(hm)
    record["heatmap_csv"] = "heatmap.csv"
    return hm


def _run_ancre_lnn(cfg: ExperimentConfig, record: dict, files: dict):
    hm = _run_figure(cfg, record, files, layouts=[])
    if hm is not None:
        record["invariant_checks"].append(_suppression_check(hm))


def _run_depth_sweep(cfg: ExperimentConfig, record: dict, files: dict):
    i4 = {}
    for K in (2, 3, 4):
        inst = depth_instance(cfg.d, cfg.n, K, cfg.seed)
        record.setdefault("instance_digest", inst.digest())
        [(traj, _)] = _curve(cfg, record, files,
                             [(f"K{K}", _fixed_state(cfg, inst, Topology.none(K)))])
        i4[K] = iterations_to(traj, 1e-4)
    record["invariant_checks"].append(_depth_slowdown_check(i4))


def _run_kdeep(cfg: ExperimentConfig, record: dict, files: dict):
    for K in (4, 5):
        inst = figure_instance(cfg.d, cfg.n, K, cfg.seed, cfg.rank_deficiency,
                               KDEEP_PAIR_STEP)
        record.setdefault("instance_digest", inst.digest())
        _curve(cfg, record, files,
               [(f"K{K}_{topo.label()}", _fixed_state(cfg, inst, topo))
                for topo in (Topology.single(0, 1, K), Topology.single(0, K - 1, K))])


def _run_lb_witness(cfg: ExperimentConfig, record: dict, files: dict):
    rank_A = cfg.d - cfg.rank_deficiency
    state, diag0 = lb_witness_init(cfg.d, rank_A, cfg.seed)
    record["instance_digest"] = Instance(A=state.Y, weights=state.weights,
                                         X=state.X, Y=state.Y).digest()
    a_d0 = float(diag0.a[-1])
    record["witness"] = {"a_d0": a_d0, "rank_A": rank_A,
                         "w_d0": float(diag0.w[-1]), "u_d0": float(diag0.u[-1])}

    # the Euler monotonicity run, reduced to its losses, runs beside the
    # main curve
    euler = partial(_euler_run, state.copy(), 1e-3, 20.0, attrgetter("losses"))
    with _side_runs([euler]) as side_results:
        [(traj, _)] = _curve(
            cfg, record, files, [("gf", state.copy())], weights=True,
            extra=lambda traj: {"lb_env": lower_bound_curve(a_d0, traj.times)})

        checks = record["invariant_checks"]
        checks.append(_lower_bound_envelope_check(traj, a_d0))

        oracle = diag_integrate(diag0, cfg.dt, cfg.t_end, method="rk4",
                                record_every=cfg.record_every)
        full_w, full_u, full_v = _witness_diagonals(traj.weights)
        checks.append(_diag_oracle_match_check((full_w, full_u, full_v),
                                               (oracle.w, oracle.u, oracle.v)))

        wd, ud, vd = full_w[:, -1], full_u[:, -1], full_v[:, -1]
        checks.append(_witness_u_equals_v_check(ud, vd))
        checks.append(_witness_chain_check(wd, ud))
        a_d = wd * ud * vd
        checks.append(_witness_cbrt_check(wd, a_d))
        checks.append(_nonincreasing_check("witness_a_squared_nonincreasing", a_d ** 2))
        checks.append(_w3_growth_check(traj, float(traj.losses[0])))

        [(losses, counts)] = side_results()
    record["witness"]["euler_loss_monotone_run"] = counts
    checks.append(_monotone_loss_check(losses, "euler_loss_monotone"))


def _run_ub_witness(cfg: ExperimentConfig, record: dict, files: dict):
    state, thr, L0, halvings = ub_witness_init(cfg.d, cfg.lam, cfg.seed)
    record["instance_digest"] = Instance(A=state.Y, weights=state.weights,
                                         X=state.X, Y=state.Y).digest()
    record["witness"] = {"L0": L0, "delta_statement": thr.statement,
                         "delta_proof": thr.proof, "delta_used": thr.used,
                         "halvings": halvings}
    init_norms = [float(np.linalg.norm(w)) for w in state.weights]

    columns = {}  # the CSV's extra columns, kept for the checks below

    def ub_columns(traj):
        columns.update(spec_w1w2=_w2w1_spectral_norms(traj.weights),
                       balance_gap=balance_gap(traj.weights),
                       ub_env=upper_bound_curve(L0, cfg.lam, traj.times))
        return columns

    # The balance-drift runs run beside the main curve, longest first so
    # that the shorter ones fill in behind it.  Each is reduced to its
    # drift where it runs, so a process holds one run's weights at a time.
    dts = (2e-3, 1e-3, 5e-4, 2.5e-4)
    drift_runs = [partial(_euler_run, state.copy(), dt, 5.0, balance_drift, weights=True)
                  for dt in reversed(dts)]
    with _side_runs(drift_runs) as side_results:
        [(traj, _)] = _curve(cfg, record, files, [("gf", state.copy())], extra=ub_columns,
                             weights=True)
        env = columns["ub_env"]

        checks = record["invariant_checks"]
        checks.append(_delta_compliant_init_check(init_norms, thr.used, halvings))
        checks.append(_upper_bound_envelope_check(traj.losses, env))
        checks.append(_spectral_norm_containment_check(columns["spec_w1w2"], cfg.lam))
        checks.append(_w1w2_growth_cap_check(traj.weight_fro_norms, init_norms, L0,
                                             cfg.lam))
        checks.append(_w3_growth_check(traj, L0))
        checks.append(_monotone_loss_check(traj.losses, "euler_loss_monotone"))

        runs = dict(zip(reversed(dts), side_results()))
    drifts = {dt: runs[dt][0] for dt in dts}
    record["witness"]["balance_drifts"] = {f"{dt:g}": drifts[dt] for dt in dts}
    record["witness"]["balance_drift_runs"] = {f"{dt:g}": runs[dt][1] for dt in dts}
    checks.extend(_balance_drift_halving_checks(drifts))


@dataclass(frozen=True)
class Preset:
    """A preset's runner, which fills a run's record and {file name: text}
    map; the config defaults it sets; and the config fields it does not
    read or fixes, which reject any value but the default: it would be
    echoed in config.json yet change nothing, or break the preset's
    checks.  custom reads the ANCRe fields only with an ancre_mode, and
    every preset only its optimizer's step fields.  The witnesses' checks
    (the diagonal oracle, the drift halving) assume their own integrator,
    so they fix the optimizer; a figure preset fixes K, its layouts' depth;
    ancre-lnn fixes ancre_mode, since its one check reads the ingoing
    heatmap, which outgoing mixing has not."""

    run: Callable[[ExperimentConfig, dict, dict], None]
    defaults: dict
    unread: tuple


_ANCRE_ONLY = ("ancre_mode", "temperature", "trunk")

PRESETS = {
    "depth-sweep": Preset(_run_depth_sweep, dict(K=4, iters=20000),
                          ("K", "topology", "lam", "rank_deficiency") + _ANCRE_ONLY),
    "topo-3layer": Preset(partial(_run_figure, layouts=[
                              Topology.none(3), Topology.cascaded(3),
                              Topology.single(0, 1, 3), Topology.single(0, 2, 3)]),
                          dict(K=3, iters=30000), ("K", "topology", "lam")),
    "topo-4layer": Preset(partial(_run_figure, layouts=[
                              Topology(K=4, shortcuts=frozenset(combo))
                              for combo in itertools.combinations(candidate_pairs(4), 2)]
                              + [Topology.single(0, 3, 4)]),
                          dict(K=4, iters=20000), ("K", "topology", "lam")),
    "ancre-lnn": Preset(_run_ancre_lnn, dict(K=3, iters=30000),
                        ("K", "topology", "lam", "ancre_mode")),
    "kdeep-extension": Preset(_run_kdeep, dict(K=5, iters=60000),
                              ("K", "topology", "lam") + _ANCRE_ONLY),
    "lb-witness": Preset(_run_lb_witness,
                         dict(d=4, n=4, K=3, optimizer="gf-rk4", dt=1e-4, t_end=50.0,
                              record_every=100, rank_deficiency=2, stop_below=None),
                         ("K", "topology", "lam", "nonlinearity", "optimizer")
                         + _ANCRE_ONLY),
    "ub-witness": Preset(_run_ub_witness,
                         dict(d=4, n=4, K=3, optimizer="gf-euler", dt=1e-3, t_end=20.0,
                              record_every=10, stop_below=None),
                         ("K", "topology", "rank_deficiency", "nonlinearity", "optimizer")
                         + _ANCRE_ONLY),
    "custom": Preset(_run_figure, {}, ("lam",)),
}

# The presets whose runs witness the paper's rate bounds; verify runs these.
WITNESS_PRESETS = ("lb-witness", "ub-witness")


# ---------------------------------------------------------------------------
# persistence

def _jsonable(obj):
    if isinstance(obj, float) and not np.isfinite(obj):
        return "inf" if obj > 0 else ("-inf" if obj < 0 else "nan")
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(float(obj))
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def run(config: ExperimentConfig) -> dict:
    """Execute a preset and persist its run directory; returns the record.

    The preset's runner only fills `record` and a {file name: text} map;
    this is the one place that writes.  The files go into a directory
    inside a hidden sibling of <output_dir>/<preset>_<seed>/ (same
    filesystem), which is renamed into place once every file is written,
    replacing an earlier run directory.  An exception while the preset
    runs or its files are written leaves nothing of this run behind and an
    earlier run directory as it was."""
    start = time.perf_counter()
    record = {
        "library": {"name": "restopo", "version": __version__},
        "preset": config.preset,
        "seed": config.seed,
        "config": asdict(config),
        "curves": {},
        "invariant_checks": [],
    }
    files = {}
    PRESETS[config.preset].run(config, record, files)
    record["all_checks_passed"] = all(c["passed"] for c in record["invariant_checks"])
    record["wall_clock_s"] = time.perf_counter() - start
    files["config.json"] = _json_text(asdict(config))
    files["record.json"] = _json_text(record)

    root = config.resolved_output_dir()
    name = f"{config.preset}_{config.seed}"
    outdir = os.path.join(root, name)
    os.makedirs(root, exist_ok=True)
    # mkdtemp makes a private (0700) directory; the run directory is made
    # inside it so that it gets the usual permissions.
    staging = tempfile.mkdtemp(prefix=f".{name}.", dir=root)
    try:
        built = os.path.join(staging, name)
        os.mkdir(built)
        for file_name, text in files.items():
            with open(os.path.join(built, file_name), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(text)
        if os.path.isdir(outdir):
            shutil.rmtree(outdir)
        os.rename(built, outdir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    record["output_dir"] = outdir
    return record


def load_record(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _iters_value(entry) -> float:
    return float("inf") if entry == "inf" else float(entry)


def compare(records: list[dict]) -> dict:
    """Iterations-to-threshold table across runs sharing one instance.

    Rejects inputs whose (d, n, seed, instance digest) differ.  When a
    'cascaded' curve is present it serves as the speedup baseline:
    speedup = baseline iterations / curve iterations (inf-aware)."""
    if not records:
        raise ValueError("no records to compare")
    keys = [(r["config"]["d"], r["config"]["n"], r["seed"], r["instance_digest"])
            for r in records]
    if len(set(keys)) != 1:
        raise ValueError(f"records do not share (d, n, seed, data): {sorted(set(keys))}")
    rows = []
    baseline = None
    for rec in records:
        for curve, entry in rec["curves"].items():
            iters = {k: _iters_value(entry["iterations_to"][k]) for k in THRESHOLD_KEYS}
            rows.append({"preset": rec["preset"], "curve": curve, "iterations": iters})
            if curve == "cascaded" and baseline is None:
                baseline = iters
    if baseline is not None:
        for row in rows:
            speedup = {}
            for k in THRESHOLD_KEYS:
                b, c = baseline[k], row["iterations"][k]
                if np.isinf(b) and np.isinf(c):
                    speedup[k] = 1.0
                elif np.isinf(b):
                    speedup[k] = float("inf")
                elif np.isinf(c):
                    speedup[k] = 0.0
                else:
                    speedup[k] = b / c if c > 0 else float("inf")
            row["speedup_vs_cascaded"] = speedup
    return {"thresholds": list(THRESHOLD_KEYS), "rows": rows,
            "baseline": "cascaded" if baseline is not None else None}


def render_compare(report: dict) -> str:
    def fmt(v):
        return "inf" if np.isinf(v) else (f"{v:.3g}" if isinstance(v, float) else str(v))
    lines = []
    head = f"{'curve':24s} " + " ".join(f"{k:>10s}" for k in report["thresholds"])
    if report["baseline"]:
        head += "   " + " ".join(f"spd@{k:>6s}" for k in report["thresholds"])
    lines.append(head)
    for row in report["rows"]:
        label = f"{row['preset']}/{row['curve']}"
        line = f"{label:24s} " + " ".join(
            f"{fmt(row['iterations'][k]):>10s}" for k in report["thresholds"])
        if "speedup_vs_cascaded" in row:
            line += "   " + " ".join(
                f"{fmt(row['speedup_vs_cascaded'][k]):>10s}" for k in report["thresholds"])
        lines.append(line)
    return "\n".join(lines) + "\n"


def verify(preset: str, seed: int = 1, output_dir: str | None = None) -> tuple[dict, bool]:
    """Run a theorem-witness preset and report whether every invariant passed."""
    if preset not in WITNESS_PRESETS:
        raise ValueError(f"verify supports presets {' and '.join(map(repr, WITNESS_PRESETS))}")
    cfg = ExperimentConfig.for_preset(preset, seed=seed, output_dir=output_dir)
    record = run(cfg)
    return record, bool(record["all_checks_passed"])
