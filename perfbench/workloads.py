"""The benchmark's workloads: the `experiments.run` calls each one makes.

A workload is a fixed list of calls to `restopo.experiments.run`, run
sequentially by one caller (a closed loop with a single client).  One
execution of that list is a *round*; a benchmark run repeats rounds for
its measuring time.  Every round of a run uses the same inputs.

Importing this module imports neither numpy nor restopo: set-up time
(`setup`) starts with that import, and the BLAS thread count must be fixed
in the environment before numpy loads.
"""

from __future__ import annotations

import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")

WORKLOADS = ("layout-sweep", "witness-flow", "ancre-mix", "wide-gd")

# The calibration loop (calibrate.py) whose work resembles each workload's.
CALIBRATION = {"layout-sweep": "overhead", "witness-flow": "overhead",
               "ancre-mix": "overhead", "wide-gd": "blas"}

# Benchmark seeds (--seed) map onto this many instance seeds, each with a
# stored reference output (references/<workload>.json).
REFERENCE_SEEDS = 16

# Run lengths per size.  "full" is what the benchmark measures; "tiny" is
# for the self-check only.  No curve reaches a loss floor at these lengths,
# so every round does the same number of steps on every seed.  Rounds are
# kept short (about 0.5 s, except witness-flow, whose fixed Euler and drift
# runs take about 3.5 s) so that a run holds many of them and calibration
# (run.py) brackets each closely.  layout-sweep records every 2 steps so
# that its 100-step curves still get a rate verdict.
SIZES = {
    "full": {"layout_iters": 100, "layout_record_every": 2, "lb_t_end": 0.2,
             "ub_t_end": 2.0, "ancre_iters": 300, "wide_iters": 150},
    "tiny": {"layout_iters": 20, "layout_record_every": 2, "lb_t_end": 0.1,
             "ub_t_end": 0.5, "ancre_iters": 40, "wide_iters": 20},
}


@dataclasses.dataclass
class Call:
    """One `experiments.run` call plus what set-up knows about its output."""

    label: str
    config: object          # restopo.experiments.ExperimentConfig
    digest: str             # instance digest the record must echo


def instance_seed(seed: int) -> int:
    """The restopo seed a benchmark seed selects (1..REFERENCE_SEEDS)."""
    return seed % REFERENCE_SEEDS + 1


def import_restopo():
    """Import restopo from this checkout's sources, never an installed copy."""
    if not os.path.isdir(os.path.join(SRC, "restopo")):
        raise ImportError(f"no restopo sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import restopo.experiments
    if not os.path.abspath(restopo.__file__).startswith(SRC + os.sep):
        raise ImportError(f"imported restopo from {restopo.__file__}, not {SRC}")
    return restopo


def setup(workload: str, seed: int, size: str = "full") -> list[Call]:
    """Import restopo and build the workload's configs and initial instances.

    `seed` is the instance seed.  The instances are rebuilt here, outside
    the timed region, so that each record's instance digest can be checked.
    """
    restopo = import_restopo()
    return _BUILDERS[workload](restopo, seed, SIZES[size])


def _digest(restopo, state) -> str:
    return restopo.experiments.Instance(A=state.Y, weights=state.weights,
                                        X=state.X, Y=state.Y).digest()


def _layout_sweep(restopo, seed, sz):
    ex = restopo.experiments
    cfg = ex.ExperimentConfig.for_preset("topo-4layer", seed=seed,
                                         iters=sz["layout_iters"],
                                         record_every=sz["layout_record_every"])
    inst = ex.figure_instance(cfg.d, cfg.n, 4, seed, cfg.rank_deficiency)
    return [Call("topo-4layer", cfg, inst.digest())]


def _witness_flow(restopo, seed, sz):
    ex, orc = restopo.experiments, restopo.oracles
    lb = ex.ExperimentConfig.for_preset("lb-witness", seed=seed, t_end=sz["lb_t_end"])
    lb_state, _ = orc.lb_witness_init(lb.d, lb.d - lb.rank_deficiency, seed)
    ub = ex.ExperimentConfig.for_preset("ub-witness", seed=seed, t_end=sz["ub_t_end"])
    ub_state, _, _, _ = orc.ub_witness_init(ub.d, ub.lam, seed)
    return [Call("lb-witness", lb, _digest(restopo, lb_state)),
            Call("ub-witness", ub, _digest(restopo, ub_state))]


def _ancre_mix(restopo, seed, sz):
    ex = restopo.experiments
    common = dict(K=6, d=8, n=16, seed=seed, stop_below=None, record_every=1,
                  iters=sz["ancre_iters"])
    calls = []
    for label, extra in (("ingoing", dict(ancre_mode="ingoing")),
                         ("outgoing", dict(ancre_mode="outgoing", trunk=False,
                                           nonlinearity="tanh"))):
        cfg = ex.ExperimentConfig.for_preset("custom", **common, **extra)
        inst = ex.figure_instance(cfg.d, cfg.n, cfg.K, seed, cfg.rank_deficiency)
        calls.append(Call(label, cfg, inst.digest()))
    return calls


def _wide_gd(restopo, seed, sz):
    ex = restopo.experiments
    cfg = ex.ExperimentConfig.for_preset("custom", topology="cascaded", K=4, d=128,
                                         n=256, seed=seed, stop_below=None,
                                         record_every=10, iters=sz["wide_iters"])
    inst = ex.figure_instance(cfg.d, cfg.n, cfg.K, seed, cfg.rank_deficiency)
    return [Call("cascaded", cfg, inst.digest())]


_BUILDERS = {
    "layout-sweep": _layout_sweep,
    "witness-flow": _witness_flow,
    "ancre-mix": _ancre_mix,
    "wide-gd": _wide_gd,
}


def with_output_dir(calls: list[Call], outdir: str) -> list[Call]:
    """Give every call its own output directory under `outdir`.

    Calls of one workload may share a preset and seed, and so a run
    directory name; separate parents keep their files apart."""
    return [dataclasses.replace(
                c, config=dataclasses.replace(c.config,
                                              output_dir=os.path.join(outdir, f"c{i}")))
            for i, c in enumerate(calls)]
