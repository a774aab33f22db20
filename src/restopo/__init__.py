"""restopo: deep linear networks with configurable residual-shortcut
topologies, learnable softmax-normalized shortcut mixing, gradient
descent / gradient-flow training, and convergence-rate verification."""

__version__ = "0.1.0"

from .ancre import AncreParams, candidate_pairs, heatmap, heatmap_csv, normalize
from .dynamics import (RateVerdict, RecordOptions, Trajectory, balance_drift,
                       classify_rate, integrate_gf, run_gd, train_batch)
from .network import (ForwardTrace, Gradients, Topology, TrainState, backward,
                      end_to_end_map, forward, loss)
from .oracles import (DeltaThreshold, DiagState, delta_threshold, diag_integrate,
                      fd_gradient, lb_witness_init, lower_bound_curve,
                      pack_state, ub_witness_init, upper_bound_curve)
from .tensor import (frobenius_norm, make_rng, matmul, random_orthogonal_data,
                     spectral_norm)

__all__ = [
    "__version__",
    "AncreParams", "candidate_pairs", "heatmap", "heatmap_csv", "normalize",
    "RateVerdict", "RecordOptions", "Trajectory", "balance_drift",
    "classify_rate", "integrate_gf", "run_gd", "train_batch",
    "ForwardTrace", "Gradients", "Topology", "TrainState", "backward",
    "end_to_end_map", "forward", "loss",
    "DeltaThreshold", "DiagState", "delta_threshold", "diag_integrate",
    "fd_gradient", "lb_witness_init", "lower_bound_curve", "pack_state",
    "ub_witness_init", "upper_bound_curve",
    "frobenius_norm", "make_rng", "matmul", "random_orthogonal_data",
    "spectral_norm",
]
