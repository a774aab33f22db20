"""Span tracing at restopo's module boundaries, installed from outside.

The modules import each other's functions by name, so each boundary
function is wrapped where its caller looks it up (for example
`restopo.dynamics.loss_and_gradients`, not `restopo.network.`...).  The hot
boundaries see 10^5 to 10^6 calls per round, so spans are not kept one by
one: count, total time and self time are aggregated per (parent span,
child span).  Self time is a span's duration minus the time of its child
spans.  `installed()` restores every original in `finally`.
"""

from __future__ import annotations

import contextlib
import functools
import time

ROOT_SPAN = "bench"


class Tracer:
    def __init__(self):
        # (parent, child) -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: dict[str, float] = {}
        self._stack = [[ROOT_SPAN, 0.0]]
        # id(TrainState) -> [state, evals]; flops are computed per state at the end
        self._eval_states: dict[int, list] = {}

    def reset(self):
        self.edges.clear()
        self.counts.clear()
        self._eval_states.clear()

    def add(self, key: str, value: float):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, on_return=None):
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                agg = edges.get((parent[0], name))
                if agg is None:
                    agg = edges[(parent[0], name)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # -- per-boundary counters derived from arguments and results ---------

    def _on_drive(self, args, kwargs, result):
        traj, _ = result
        self.add("dynamics.steps", int(traj.iters[-1]))
        self.add("dynamics.records", len(traj))

    def _on_diag(self, args, kwargs, result):
        dt = args[1] if len(args) > 1 else kwargs["dt"]
        self.add("oracles.diag_steps", int(round(result.times[-1] / dt)))

    def _on_eval(self, args, kwargs, result):
        state = args[0]
        entry = self._eval_states.get(id(state))
        if entry is None:
            self._eval_states[id(state)] = [state, 1]
        else:
            entry[1] += 1

    def eval_flops(self) -> int:
        return sum(eval_flops(state) * n for state, n in self._eval_states.values())

    def boundaries(self, restopo):
        """(owner, attribute, span name, on_return) for every wrapped boundary."""
        ex, dyn, net, orc, ten = (restopo.experiments, restopo.dynamics,
                                  restopo.network, restopo.oracles, restopo.tensor)
        return [
            (ex, "run", "experiments.run", None),
            (ex, "run_gd", "dynamics.drive", self._on_drive),
            (ex, "integrate_gf", "dynamics.drive", self._on_drive),
            (ex, "classify_rate", "dynamics.classify", None),
            (dyn.Trajectory, "to_csv", "dynamics.to_csv", None),
            (ex, "diag_integrate", "oracles.diag_integrate", self._on_diag),
            (ex, "lb_witness_init", "oracles.witness_init", None),
            (ex, "ub_witness_init", "oracles.witness_init", None),
            (dyn, "loss_and_gradients", "network.eval", self._on_eval),
            (orc, "loss_and_gradients", "network.eval", self._on_eval),
            (net, "normalize", "ancre.normalize", None),
            (dyn, "normalize", "ancre.normalize", None),
            (net, "coeff_gradients", "ancre.coeff_gradients", None),
            (ten, "spectral_norm", "tensor.spectral_norm", None),
            (ten, "frobenius_norm", "tensor.frobenius_norm", None),
        ]

    @contextlib.contextmanager
    def installed(self, restopo):
        saved = []
        try:
            for owner, attr, name, on_return in self.boundaries(restopo):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_return))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def span_totals(self) -> dict[str, list]:
        """span name -> [calls, total_s, self_s], summed over parents."""
        out: dict[str, list] = {}
        for (_, child), (calls, total, self_s) in self.edges.items():
            agg = out.setdefault(child, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out


def eval_flops(state) -> int:
    """Computed floating-point operations of one `loss_and_gradients` call.

    Counted from array shapes and the layout, not measured: per layer three
    d x d by d x n products (forward map, weight gradient, back-propagated
    adjoint) at 2 d^2 n each, plus d n per element-wise add, scale or
    product on the hidden states, plus the loss residual (3 d n).  A fixed
    layout adds 2 d n per shortcut (forward add, adjoint accumulate); a
    mixing layout adds 6 d n per candidate shortcut (forward scale and add,
    gradient product-sum, adjoint scale and add) and, with the trunk, d n
    per layer; tanh adds 4 d n per layer.
    """
    d, n, K = state.weights[0].shape[0], state.X.shape[1], len(state.weights)
    dn = d * n
    flops = 6 * K * d * dn + 3 * dn
    if state.topology is not None:
        flops += 2 * dn * len(state.topology.shortcuts)
    else:
        flops += 6 * dn * (K * (K + 1) // 2)
        if state.trunk:
            flops += K * dn
    if state.nonlinearity == "tanh":
        flops += 4 * K * dn
    return flops
