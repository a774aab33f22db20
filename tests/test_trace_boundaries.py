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
    # topo-3layer trains its four fixed layouts and its ANCRe curve as one
    # batch; eval_flops must read the first argument of that batch's evals
    tracer = spans.Tracer()
    with tracer.installed(restopo):
        restopo.experiments.run(restopo.experiments.ExperimentConfig.for_preset(
            "topo-3layer", iters=4, output_dir=str(tmp_path)))
    flops = tracer.eval_flops()
    assert isinstance(flops, int) and flops > 0
    assert tracer.span_totals()["network.eval"][0] > 0


def test_every_mixing_eval_reaches_coeff_gradients(spans, tmp_path):
    # ancre.coeff_gradients_calls reads the wrapped network.coeff_gradients;
    # if the reverse pass stopped reaching it by that name, the count would
    # read 0 without an error
    tracer = spans.Tracer()
    with tracer.installed(restopo):
        restopo.experiments.run(restopo.experiments.ExperimentConfig.for_preset(
            "custom", ancre_mode="outgoing", trunk=False, K=3, d=4, n=4, iters=5,
            output_dir=str(tmp_path)))
    totals = tracer.span_totals()
    assert totals["network.eval"][0] > 0
    assert totals["ancre.coeff_gradients"][0] == totals["network.eval"][0]


def test_every_ub_witness_record_reaches_spectral_norm(spans, tmp_path):
    # tensor.spectral_norm_calls reads the wrapped tensor.spectral_norm: one
    # call per record of the ub witness's gf curve, none elsewhere, so the
    # count can neither read 0 nor double without failing here
    tracer = spans.Tracer()
    with tracer.installed(restopo):
        record = restopo.experiments.run(restopo.experiments.ExperimentConfig.for_preset(
            "ub-witness", t_end=0.5, output_dir=str(tmp_path)))
    records = record["curves"]["gf"]["records"]
    assert records == 51
    assert tracer.span_totals()["tensor.spectral_norm"][0] == records


def test_every_step_and_the_budget_step_reach_network_eval(spans, tmp_path):
    # network.evals reads the wrapped dynamics.loss_and_gradients: a curve of
    # 5 steps evaluates at each step and once more at its budget step
    tracer = spans.Tracer()
    with tracer.installed(restopo):
        record = restopo.experiments.run(restopo.experiments.ExperimentConfig.for_preset(
            "custom", iters=5, output_dir=str(tmp_path)))
    [curve] = record["curves"].values()
    assert curve["steps"] == 5
    assert tracer.span_totals()["network.eval"][0] == 6


def test_a_batched_ancre_curve_reaches_normalize_and_coeff_gradients(spans, tmp_path):
    # topo-3layer trains its ANCRe curve in the batch of its fixed layouts:
    # each stacked evaluation refreshes the learned row through the wrapped
    # network.normalize and chains its gradients through the wrapped
    # network.coeff_gradients, so neither ancre.*_calls count reads 0
    tracer = spans.Tracer()
    with tracer.installed(restopo):
        record = restopo.experiments.run(restopo.experiments.ExperimentConfig.for_preset(
            "topo-3layer", iters=4, output_dir=str(tmp_path)))
    assert len(record["curves"]) == 5
    totals = tracer.span_totals()
    assert totals["network.eval"][0] == 5
    assert totals["ancre.normalize"][0] == totals["network.eval"][0]
    assert totals["ancre.coeff_gradients"][0] == totals["network.eval"][0]
