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
