"""The benchmark's tracer (perfbench/spans.py) wraps restopo functions by
module attribute name.  A rename in restopo breaks `perfbench/run.py
--trace 1` with a KeyError, so check the names here."""

import os

import numpy as np
import pytest

import restopo.experiments  # the boundaries include restopo.experiments
from restopo.ancre import AncreParams
from restopo.network import Topology, TrainState

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans
    return spans


def test_trace_boundaries_exist(spans):
    for owner, attr, _, _ in spans.Tracer().boundaries(restopo):
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
    weights = [np.eye(4) * 0.5 for _ in range(3)]
    X = np.ones((4, 6))
    fixed = TrainState(weights=weights, X=X, Y=X, topology=Topology.cascaded(3))
    mixing = TrainState(weights=weights, X=X, Y=X, ancre=AncreParams.uniform(3))
    assert 0 < spans.eval_flops(fixed) < spans.eval_flops(mixing)


def test_tracer_survives_a_batched_run(spans, tmp_path):
    # topo-3layer trains its four fixed layouts as one batch; eval_flops
    # must read the first argument of that batch's evals
    tracer = spans.Tracer()
    with tracer.installed(restopo):
        restopo.experiments.run(restopo.experiments.ExperimentConfig.for_preset(
            "topo-3layer", iters=4, output_dir=str(tmp_path)))
    flops = tracer.eval_flops()
    assert isinstance(flops, int) and flops > 0
    assert tracer.span_totals()["network.eval"][0] > 0
