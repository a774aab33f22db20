import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from restopo import experiments
from restopo.ancre import AncreParams, heatmap
from restopo.cli import main as cli_main
from restopo.dynamics import RecordOptions, balance_drift, integrate_gf
from restopo.experiments import (ExperimentConfig, compare, figure_instance,
                                 load_record, parse_topology, render_compare, run)
from restopo.network import Topology, loss_and_gradients
from restopo.oracles import (delta_threshold, diag_integrate, lb_witness_init, ub_witness_init,
                             upper_bound_curve)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree(path):
    """{relative file path: bytes} of every file under `path`."""
    return {str(f.relative_to(path)): f.read_bytes()
            for f in sorted(path.rglob("*")) if f.is_file()}


def stable_tree(path):
    """tree(path), with config.json and record.json read without the
    fields that differ between equal runs: wall_clock_s and output_dir."""
    out = tree(path)
    for name, data in out.items():
        if name.endswith(".json"):
            body = json.loads(data)
            body.pop("wall_clock_s", None)
            body.pop("output_dir", None)
            body.get("config", {}).pop("output_dir", None)
            out[name] = body
    return out


class TestConfig:
    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(ValueError, match="learning_rate"):
            ExperimentConfig.from_dict({"preset": "topo-3layer", "learning_rate": 0.1})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            ExperimentConfig.for_preset("topo-9layer")

    def test_invalid_count_rejected_with_field_name(self):
        with pytest.raises(ValueError, match="'d'"):
            ExperimentConfig.from_dict({"preset": "custom", "d": 0})

    def test_n_ge_d_enforced(self):
        with pytest.raises(ValueError, match="n >= d"):
            ExperimentConfig.from_dict({"preset": "custom", "d": 8, "n": 4})

    def test_layout_exclusivity(self):
        with pytest.raises(ValueError, match="exclusive"):
            ExperimentConfig.from_dict({"preset": "custom", "topology": "0:2",
                                        "ancre_mode": "ingoing"})

    @pytest.mark.parametrize("preset,field,value", [
        ("topo-3layer", "temperature", 0.0),
        ("custom", "lr", -1.0),
        ("custom", "topology", "0-2"),
        ("custom", "ancre_mode", "sideways"),
        ("lb-witness", "rank_deficiency", 0),
        ("custom", "seed", -1),
        ("custom", "stop_below", "1e-6"),
        ("custom", "K", 2.5),
        ("custom", "record_every", True),
        ("custom", "trunk", "no"),
        ("custom", "lr", "0.01"),
        ("custom", "lr", True),
        ("custom", "dt", "1e-3"),
        ("custom", "t_end", "2"),
        ("custom", "temperature", "0.1"),
        ("custom", "lam", "0.5"),
        ("custom", "lr_c", "0.1"),
        ("custom", "rank_deficiency", 1.5),
        # fields a preset does not read, or cannot use
        ("topo-3layer", "K", 5),
        ("depth-sweep", "K", 9),
        ("lb-witness", "n", 8),
        ("lb-witness", "K", 7),
        ("topo-3layer", "topology", "0:1"),
        ("depth-sweep", "ancre_mode", "outgoing"),
        ("custom", "trunk", False),
        ("depth-sweep", "trunk", False),
        ("kdeep-extension", "trunk", False),
        ("lb-witness", "trunk", False),
        ("ub-witness", "trunk", False),
        # fields of the wrong type
        ("custom", "topology", 5),
        ("custom", "preset", ["x"]),
        ("custom", "output_dir", 5),
        # the step fields of the optimizer a config does not use
        ("custom", "dt", 0.5),
        ("custom", "t_end", 0.5),
        ("ub-witness", "lr", 0.5),
        ("lb-witness", "iters", 100),
        # the witnesses' checks assume their own integrator
        ("lb-witness", "optimizer", "gd"),
        ("ub-witness", "optimizer", "gf-rk4"),
        # its one check reads the ingoing heatmap, which outgoing mixing has not
        ("ancre-lnn", "ancre_mode", "outgoing"),
    ])
    def test_bad_field_raises_before_any_directory(self, tmp_path, preset, field, value):
        with pytest.raises(ValueError, match=field):
            run(ExperimentConfig.from_dict({"preset": preset, "output_dir": str(tmp_path),
                                            field: value}))
        assert list(tmp_path.iterdir()) == []

    def test_trunk_off_accepted_where_an_ancre_curve_trains(self):
        for preset, extra in (("custom", dict(ancre_mode="outgoing")), ("topo-3layer", {}),
                              ("ancre-lnn", {})):
            assert not ExperimentConfig.for_preset(preset, trunk=False, **extra).trunk

    def test_benchmark_workload_configs_accepted(self, monkeypatch):
        monkeypatch.syspath_prepend(PERFBENCH)
        import workloads
        for workload in workloads.WORKLOADS:
            assert workloads.setup(workload, 1, "tiny")

    def test_a_config_with_a_coefficient_rate_is_rejected(self):
        # a run has one step size; config.json files that hold "lr_c": null
        # are not read back
        echo = dataclasses.asdict(ExperimentConfig.for_preset("topo-3layer")) | {"lr_c": None}
        with pytest.raises(ValueError, match=r"unknown config field\(s\): \['lr_c'\]"):
            ExperimentConfig.from_dict(echo)

    def test_round_trips_through_json(self):
        cfg = ExperimentConfig.for_preset("ub-witness", seed=3)
        again = ExperimentConfig.from_dict(dataclasses.asdict(cfg))
        assert again == cfg


class TestInstances:
    def test_instance_is_deterministic(self):
        a = figure_instance(6, 8, 3, seed=5, rank_deficiency=1)
        b = figure_instance(6, 8, 3, seed=5, rank_deficiency=1)
        assert a.digest() == b.digest()
        np.testing.assert_array_equal(a.weights[1], b.weights[1])

    def test_digest_covers_initial_weights(self):
        # same target and data, W4 shifted by the kdeep pair step
        flat = figure_instance(8, 16, 4, seed=1, rank_deficiency=1, pair_step=0.0)
        kdeep = figure_instance(8, 16, 4, seed=1, rank_deficiency=1, pair_step=0.4)
        np.testing.assert_array_equal(flat.Y, kdeep.Y)
        assert flat.digest() != kdeep.digest()

    def test_pairing_and_rank(self):
        inst = figure_instance(6, 8, 5, seed=2, rank_deficiency=2, pair_step=0.4)
        np.testing.assert_array_equal(inst.weights[1], inst.weights[2])
        np.testing.assert_array_equal(inst.weights[3], inst.weights[4])
        assert np.linalg.matrix_rank(inst.A, tol=1e-10) == 4
        np.testing.assert_allclose(inst.X @ inst.X.T, np.eye(6), atol=1e-12)

    def test_parse_topology(self):
        assert parse_topology("none", 3).shortcuts == frozenset()
        assert parse_topology("cascaded", 2).shortcuts == frozenset({(0, 1), (1, 2)})
        assert parse_topology("0:1+2:3", 3).shortcuts == frozenset({(0, 1), (2, 3)})


class TestInvariantChecks:
    def test_lower_bound_envelope_fails_where_convergence_is_exponential(self):
        # the lb instance under its own 0:1 shortcut stays above the
        # envelope; under 0:2 it converges exponentially and falls below
        state, diag0 = lb_witness_init(4, 2, 1)
        values = {}
        for topology in (Topology.single(0, 1, 3), Topology.single(0, 2, 3)):
            traj, _ = integrate_gf(dataclasses.replace(state, topology=topology), 1e-3,
                                   50.0, "euler", RecordOptions(record_every=100))
            check = experiments._lower_bound_envelope_check(traj, float(diag0.a[-1]))
            assert check["name"] == "lower_bound_envelope"
            values[topology.label()] = check
        assert values["0:1"]["passed"] and values["0:1"]["value"] > 1.0
        assert not values["0:2"]["passed"] and values["0:2"]["value"] < 1e-12

    def test_spectral_norm_containment_fails_from_a_non_compliant_init(self):
        # from the delta-compliant witness init ||W2 W1||_2 stays near 0;
        # from W1 = -W2 = I/2 and W3 = 2I (norms far above delta) it starts
        # at 0.25 < lam and grows past lam along the flow
        state, _, _, _ = ub_witness_init(4, 0.5, 1)
        values = {}
        for label, weights in (("compliant", state.weights),
                               ("non-compliant", np.array([0.5, -0.5, 2.0])[:, None, None]
                                * np.eye(4))):
            traj, _ = integrate_gf(dataclasses.replace(state, weights=weights), 1e-3, 2.0,
                                   "euler", RecordOptions(record_every=10, weights=True))
            spec = experiments._w2w1_spectral_norms(traj.weights)
            assert spec.shape == (len(traj),)
            values[label] = (spec[0], experiments._spectral_norm_containment_check(spec, 0.5))
        assert values["compliant"][1]["passed"] and values["compliant"][1]["value"] < 1e-3
        start, check = values["non-compliant"]
        assert check["name"] == "spectral_norm_containment"
        assert start < 0.5 and not check["passed"] and check["value"] > 0.8
        # the product is W2 W1: here W2 W1 = 0 while ||W1 W2||_2 = 1
        e11, e12 = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])
        assert experiments._w2w1_spectral_norms(np.array([[e11, e12, e11]])).tolist() == [0.0]

    def test_upper_bound_envelope_fails_where_convergence_is_sublinear(self):
        # the ub instance under its own 0:2 shortcut meets the envelope; under
        # 0:1 it converges sublinearly and ends 7.0e3 times above it
        state, _, L0, _ = ub_witness_init(4, 0.5, 1)
        values = {}
        for topology in (Topology.single(0, 2, 3), Topology.single(0, 1, 3)):
            traj, _ = integrate_gf(dataclasses.replace(state, topology=topology), 1e-3,
                                   20.0, "euler", RecordOptions(record_every=10))
            env = upper_bound_curve(L0, 0.5, traj.times)
            values[topology.label()] = experiments._upper_bound_envelope_check(
                traj.losses, env)
        assert values["0:2"]["name"] == "upper_bound_envelope"
        assert values["0:2"]["passed"] and values["0:2"]["value"] == pytest.approx(1.0)
        assert not values["0:1"]["passed"]
        assert values["0:1"]["value"] == pytest.approx(7.02e3, rel=1e-2)

    def test_delta_compliant_init_fails_one_halving_short(self):
        # seed 1 at lam 0.5 needs one halving; without it the largest
        # ||W_k(0)||_F is 2.52e-2, above the delta of its own loss, 2.09e-2
        state, thr, _, halvings = ub_witness_init(4, 0.5, 1)
        assert halvings == 1
        check = experiments._delta_compliant_init_check(
            [np.linalg.norm(w) for w in state.weights], thr.used, halvings)
        assert check["name"] == "delta_compliant_init" and check["passed"]
        short = 2.0 * state.weights
        L0, _, _ = loss_and_gradients(dataclasses.replace(state, weights=short))
        check = experiments._delta_compliant_init_check(
            [np.linalg.norm(w) for w in short], delta_threshold(0.5, L0).used, 0)
        assert not check["passed"]
        assert check["value"] == pytest.approx(2.52e-2, abs=1e-4)
        assert check["bound"] == pytest.approx(2.09e-2, abs=1e-4)

    def test_lb_witness_checks_fail_on_counterfactual_diagonals(self):
        # a short lb witness run (RK4, dt=1e-3, to t=2) passes its four
        # diagonal checks; each fails where its claim is false
        state, diag0 = lb_witness_init(4, 2, 1)
        traj, _ = integrate_gf(state, 1e-3, 2.0, "rk4",
                               RecordOptions(record_every=100, weights=True))
        oracle = diag_integrate(diag0, 1e-3, 2.0, method="rk4", record_every=100)
        full = experiments._witness_diagonals(traj.weights)
        want = (oracle.w, oracle.u, oracle.v)
        w, u, v = (x[:, -1] for x in full)
        passing = [experiments._diag_oracle_match_check(full, want),
                   experiments._witness_u_equals_v_check(u, v),
                   experiments._witness_chain_check(w, u),
                   experiments._witness_cbrt_check(w, w * u * v)]
        assert [c["name"] for c in passing] == [
            "diag_oracle_match", "witness_u_equals_v", "witness_0_le_u_le_w_le_1",
            "witness_w_dominates_cbrt_a"]
        assert all(c["passed"] for c in passing)
        assert passing[0]["value"] < 1e-13
        # an oracle off by 1e-5 relative, against the bound of 1e-6
        off = experiments._diag_oracle_match_check(full, tuple((1 + 1e-5) * x for x in want))
        assert not off["passed"] and off["value"] == pytest.approx(1e-5, rel=1e-3)
        # u and v apart by 1e-6
        apart = experiments._witness_u_equals_v_check(u, u + 1e-6)
        assert not apart["passed"] and apart["value"] == pytest.approx(1e-6)
        # a w above 1
        above = w.copy()
        above[-1] = 1.0 + 1e-6
        chain = experiments._witness_chain_check(above, u)
        assert not chain["passed"] and chain["value"] == pytest.approx(1e-6)
        # u = v = 1.5 w, so that cbrt(w u v) = 1.5^(2/3) w exceeds w
        cbrt = experiments._witness_cbrt_check(w, w * (1.5 * w) ** 2)
        assert not cbrt["passed"]
        assert cbrt["value"] == pytest.approx((1.5 ** (2 / 3) - 1) * w.max())

    def test_a_squared_nonincreasing_fails_where_euler_overshoots(self):
        # the lb witness (seed 6) under the preset's Euler step: a_d = w u v
        # of the rank-deficient coordinate shrinks towards its target 0.
        # At dt=20 the step overshoots: u = v changes sign, and a_d^2 rises
        # from 0.0208 to 0.0797 at step 1 (the other coordinates blow the
        # loss up at step 2)
        state, diag0 = lb_witness_init(4, 2, 6)
        values = {}
        for dt, t_end in ((1e-3, 2.0), (20.0, 200.0)):
            traj, _ = integrate_gf(state.copy(), dt, t_end, "euler",
                                   RecordOptions(record_every=1, weights=True))
            w, u, v = (x[:, -1] for x in experiments._witness_diagonals(traj.weights))
            a2 = (w * u * v) ** 2
            values[dt] = (traj, a2, experiments._nonincreasing_check(
                "witness_a_squared_nonincreasing", a2))
        traj, a2, check = values[1e-3]
        assert a2[0] == pytest.approx(float(diag0.a[-1]) ** 2, rel=1e-12)
        assert check["name"] == "witness_a_squared_nonincreasing" and check["passed"]
        traj, a2, check = values[20.0]
        assert traj.stop_reason == "loss_blowup" and traj.steps == 2
        assert a2[:2] == pytest.approx([0.0208, 0.0797], abs=1e-4)
        assert not check["passed"]
        # the rise at step 1 alone fails the check, before the blow-up
        first = experiments._nonincreasing_check("witness_a_squared_nonincreasing", a2[:2])
        assert not first["passed"] and first["value"] == pytest.approx(0.0589, abs=1e-4)

    def test_balance_drift_halving_fails_at_roundoff_drift(self):
        # Euler's drift halves with dt; RK4's conserves the gap to roundoff,
        # so its drift ratios have no order and every halving check fails
        state, _, _, _ = ub_witness_init(4, 0.5, 1)
        passed = {}
        for method in ("euler", "rk4"):
            drifts = {dt: balance_drift(integrate_gf(
                          state.copy(), dt, 5.0, method,
                          RecordOptions(record_every=10, weights=True))[0])
                      for dt in (2e-3, 1e-3, 5e-4, 2.5e-4)}
            checks = experiments._balance_drift_halving_checks(drifts)
            assert [c["name"] for c in checks] == [
                "balance_drift_halving_dt_0.002", "balance_drift_halving_dt_0.001",
                "balance_drift_halving_dt_0.0005"]
            passed[method] = [c["passed"] for c in checks]
        assert passed == {"euler": [True] * 3, "rk4": [False] * 3}

    def test_euler_loss_monotone_fails_at_too_large_a_step(self):
        # Euler on the lb witness never raises its loss at dt=1e-3; at dt=1
        # it overshoots, and a step raises the loss by 7.8e-5
        state, _ = lb_witness_init(4, 2, 1)
        values = {}
        for dt in (1e-3, 1.0):
            traj, _ = integrate_gf(state.copy(), dt, 20.0, "euler",
                                   RecordOptions(record_every=1))
            values[dt] = experiments._monotone_loss_check(traj.losses, "euler_loss_monotone")
        small, large = values[1e-3], values[1.0]
        assert small["name"] == "euler_loss_monotone"
        assert small["passed"] and small["value"] == pytest.approx(-8.2e-9, abs=1e-10)
        assert not large["passed"] and large["value"] == pytest.approx(7.8e-5, abs=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_ub_euler_loss_monotone_fails_at_too_large_a_step(self):
        # the ub witness (lam 0.5) under the preset's Euler step never raises
        # its loss; at dt=2.1 a step overshoots and raises it from 0.123 to a
        # peak of 0.533, a plain rise (the run takes its 10 steps), and at
        # dt=2.5 the loss blows up at step 7
        state, _, _, _ = ub_witness_init(4, 0.5, 1)
        runs = {dt: integrate_gf(state.copy(), dt, t_end, "euler",
                                 RecordOptions(record_every=1 if dt > 1 else 10))[0]
                for dt, t_end in ((1e-3, 2.0), (2.1, 21.0), (2.5, 20.0))}
        values = {dt: experiments._monotone_loss_check(traj.losses, "euler_loss_monotone")
                  for dt, traj in runs.items()}
        assert values[1e-3]["passed"]
        rise, blowup = runs[2.1], runs[2.5]
        assert rise.stop_reason == "budget" and rise.steps == 10
        assert not values[2.1]["passed"]
        assert values[2.1]["value"] == pytest.approx(0.075, abs=1e-3)
        assert blowup.stop_reason == "loss_blowup" and blowup.steps == 7
        assert not values[2.5]["passed"] and values[2.5]["value"] > 1e9

    def test_w3_growth_fails_when_w3_outgrows_its_cap(self):
        # the lb witness's W3 grows from 0.48 to 0.85 by t=2, at most 0.57
        # of the way to its cap ||W3(0)|| + sqrt(t L0) + 1e-3 at any t > 0;
        # against a tenth of L0 the same growth breaks the cap
        state, _ = lb_witness_init(4, 2, 1)
        traj, _ = integrate_gf(state, 1e-3, 2.0, "euler", RecordOptions(record_every=10))
        L0 = float(traj.losses[0])
        check = experiments._w3_growth_check(traj, L0)
        assert check["name"] == "w3_frobenius_growth"
        assert check["passed"] and check["value"] == pytest.approx(0.5697, abs=1e-4)
        tight = experiments._w3_growth_check(traj, 0.1 * L0)
        assert not tight["passed"] and tight["value"] == pytest.approx(1.8017, abs=1e-4)
        # a trajectory with no record after t = 0 has nothing to exceed
        start, _ = integrate_gf(state, 1e-3, 0.0, "euler")
        assert experiments._w3_growth_check(start, L0)["passed"]

    def test_w1w2_growth_cap_fails_above_the_cap(self):
        # along the ub witness's flow ||W1||^2 + ||W2||^2 shrinks a little,
        # so its largest ratio to the cap, 0.0812, is its start's, e^-M;
        # grown by 1.1 e^M after t = 0, it reaches 1.1 times the cap
        state, _, L0, _ = ub_witness_init(4, 0.5, 1)
        init_norms = [float(np.linalg.norm(w)) for w in state.weights]
        traj, _ = integrate_gf(state, 1e-3, 2.0, "euler", RecordOptions(record_every=10))
        check = experiments._w1w2_growth_cap_check(traj.weight_fro_norms, init_norms, L0,
                                                    0.5)
        assert check["name"] == "w1w2_growth_cap"
        assert check["passed"] and check["value"] == pytest.approx(0.0812, abs=1e-4)
        grown = traj.weight_fro_norms.copy()
        grown[1:, :2] *= np.sqrt(1.1 / check["value"])
        over = experiments._w1w2_growth_cap_check(grown, init_norms, L0, 0.5)
        assert not over["passed"] and over["value"] == pytest.approx(1.1, abs=1e-3)

    def test_suppression_fails_on_the_untrained_uniform_heatmap(self):
        # layer 3 reading h_1 at raw coefficient 1 (temperature 0.1) weighs
        # 0:3 and 2:3 e^-10 as much, a log10 ratio of -4.34; the untrained
        # uniform layout's heatmap is all 0, against the bound of -0.3
        c = np.zeros((4, 4))
        c[1, 3] = 1.0
        favoured = experiments._suppression_check(heatmap(AncreParams(K=3, c=c)))
        assert favoured["name"] == "suppression_0K_and_Kminus1K"
        assert favoured["passed"] and favoured["value"] == pytest.approx(-10 / np.log(10))
        assert favoured["note"] == "log10 weight ratios into layer 3: [-4.343, 0.0, -4.343]"
        uniform = experiments._suppression_check(heatmap(AncreParams.uniform(3)))
        assert not uniform["passed"] and uniform["value"] == 0.0
        # favouring 2:3 as much as 1:3 leaves 0:3 suppressed, but not 2:3
        c[2, 3] = 1.0
        half = experiments._suppression_check(heatmap(AncreParams(K=3, c=c)))
        assert not half["passed"] and half["value"] == 0.0

    def test_depth_slowdown_fails_when_depth_order_is_not_increasing(self):
        rising = experiments._depth_slowdown_check({2: 100.0, 3: 250.0, 4: 900.0})
        assert rising["name"] == "depth_slowdown_monotone" and rising["passed"]
        assert rising["note"] == "iterations to 1e-4 by depth: 100.0, 250.0, 900.0"
        for counts in ({2: 100.0, 3: 900.0, 4: 250.0}, {2: 250.0, 3: 250.0, 4: 900.0},
                       {4: 100.0, 3: 250.0, 2: 900.0}):
            check = experiments._depth_slowdown_check(counts)
            assert not check["passed"] and check["value"] == 0.0


class TestRun:
    def test_zero_iters_gives_single_point_stalled(self, tmp_path):
        cfg = ExperimentConfig.for_preset("topo-3layer", seed=1, iters=0,
                                          output_dir=str(tmp_path))
        rec = run(cfg)
        for curve in rec["curves"].values():
            assert curve["records"] == 1
            assert curve["verdict"]["kind"] == "stalled"
            assert curve["verdict_error"] is None

    def test_missing_verdict_carries_its_reason(self, tmp_path):
        # 21 records leave a tail window of 6 after the first 10: too few to fit
        cfg = ExperimentConfig.for_preset("custom", topology="0:2", d=4, n=4, iters=40,
                                          record_every=2, output_dir=str(tmp_path))
        rec = run(cfg)
        curve = rec["curves"]["0:2"]
        assert curve["verdict"] is None
        assert curve["verdict_error"] == "tail window has 6 points; need >= 20"
        saved = load_record(str(tmp_path / "custom_1" / "record.json"))
        assert saved["curves"]["0:2"]["verdict_error"] == curve["verdict_error"]

    def test_each_curve_records_its_evaluations(self, tmp_path):
        # 20 GD steps of every topo-3layer curve, the batched ANCRe curve's
        # included, are 21 evaluations; 20 RK4 steps are 81
        rec = run(ExperimentConfig.for_preset("topo-3layer", iters=20,
                                              output_dir=str(tmp_path)))
        assert {name: c["evals"] for name, c in rec["curves"].items()} == dict.fromkeys(
            ["none", "cascaded", "0:1", "0:2", "ancre"], 21)
        rec = run(ExperimentConfig.for_preset("custom", optimizer="gf-rk4", dt=0.01,
                                              t_end=0.2, output_dir=str(tmp_path)))
        [curve] = rec["curves"].values()
        assert curve["steps"] == 20 and curve["evals"] == 81

    def test_run_directory_layout(self, tmp_path):
        cfg = ExperimentConfig.for_preset("topo-3layer", seed=2, iters=300,
                                          output_dir=str(tmp_path))
        rec = run(cfg)
        outdir = tmp_path / "topo-3layer_2"
        assert (outdir / "config.json").exists()
        assert (outdir / "record.json").exists()
        for curve in rec["curves"].values():
            assert (outdir / curve["trajectory_csv"]).exists()
        saved = load_record(str(outdir / "record.json"))
        assert saved["preset"] == "topo-3layer"
        assert saved["library"]["name"] == "restopo"
        assert set(saved["curves"]) == {"none", "cascaded", "0:1", "0:2", "ancre"}

    def test_topo_4layer_runs_all_two_shortcut_layouts(self, tmp_path):
        cfg = ExperimentConfig.for_preset("topo-4layer", seed=1, iters=50,
                                          output_dir=str(tmp_path))
        rec = run(cfg)
        assert len(rec["curves"]) == 45 + 1 + 1

    @pytest.mark.parametrize("trunk", [True, False])
    def test_the_ancre_curve_joins_the_fixed_batch_when_it_keeps_its_trunk(
            self, tmp_path, monkeypatch, trunk):
        batches, real = [], experiments.train_batch
        monkeypatch.setattr(experiments, "train_batch", lambda states, *a, **kw:
                            batches.append(states) or real(states, *a, **kw))
        solo, real_gd = [], experiments.run_gd
        monkeypatch.setattr(experiments, "run_gd", lambda state, *a, **kw:
                            solo.append(state) or real_gd(state, *a, **kw))
        rec = run(ExperimentConfig.for_preset("topo-3layer", iters=20, trunk=trunk,
                                              output_dir=str(tmp_path)))
        assert list(rec["curves"]) == ["none", "cascaded", "0:1", "0:2", "ancre"]
        [batch] = batches
        if trunk:
            assert len(batch) == 5 and batch[-1].ancre is not None and not solo
        else:
            # a fixed layout keeps its trunk, so a trunk-off ANCRe curve
            # trains alone
            assert len(batch) == 4 and all(st.ancre is None for st in batch)
            [state] = solo
            assert state.ancre is not None and not state.trunk

    def test_ancre_preset_emits_heatmap(self, tmp_path):
        cfg = ExperimentConfig.for_preset("ancre-lnn", seed=1, iters=300,
                                          output_dir=str(tmp_path))
        rec = run(cfg)
        path = tmp_path / "ancre-lnn_1" / rec["heatmap_csv"]
        lines = path.read_text().splitlines()
        assert lines[0] == "j\\i,0,1,2,3"
        assert len(lines) == 5

    @pytest.mark.parametrize("preset,t_end,header", [
        ("ub-witness", 0.5, "t,iter,loss,fro_w1,fro_w2,fro_w3,spec_w1w2,balance_gap,ub_env"),
        ("lb-witness", 0.1, "t,iter,loss,fro_w1,fro_w2,fro_w3,lb_env"),
    ])
    def test_witness_csv_header(self, tmp_path, preset, t_end, header):
        rec = run(ExperimentConfig.for_preset(preset, t_end=t_end,
                                              output_dir=str(tmp_path)))
        lines = (tmp_path / f"{preset}_1" / "trajectory_gf.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rec["curves"]["gf"]["records"]

    def test_trajectory_csvs_are_byte_identical_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            cfg = ExperimentConfig.for_preset("ub-witness", seed=4,
                                              output_dir=str(tmp_path / sub))
            run(cfg)
        a = read(tmp_path / "a" / "ub-witness_4" / "trajectory_gf.csv")
        b = read(tmp_path / "b" / "ub-witness_4" / "trajectory_gf.csv")
        assert a == b

    def test_record_bodies_identical_up_to_wall_clock(self, tmp_path):
        recs = []
        for sub in ("a", "b"):
            cfg = ExperimentConfig.for_preset("depth-sweep", seed=5, iters=500,
                                              output_dir=str(tmp_path / sub))
            run(cfg)
            body = load_record(str(tmp_path / sub / "depth-sweep_5" / "record.json"))
            body.pop("wall_clock_s")
            body["config"].pop("output_dir")
            recs.append(json.dumps(body, sort_keys=True))
        assert recs[0] == recs[1]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RESTOPO_OUT", str(tmp_path / "envout"))
        cfg = ExperimentConfig.for_preset("ub-witness", seed=6)
        rec = run(cfg)
        assert str(tmp_path / "envout") in rec["output_dir"]
        assert (tmp_path / "envout" / "ub-witness_6" / "record.json").exists()

    def test_failed_run_leaves_no_directory(self, tmp_path):
        # lam close to 1 admits no delta-compliant initialization
        with pytest.raises(RuntimeError):
            run(ExperimentConfig.for_preset("ub-witness", lam=0.99,
                                            output_dir=str(tmp_path)))
        assert list(tmp_path.iterdir()) == []

    def test_rerun_replaces_the_run_directory(self, tmp_path):
        for topology in ("0:1", "0:2"):
            run(ExperimentConfig.for_preset("custom", topology=topology, d=4, n=4,
                                            iters=50, output_dir=str(tmp_path)))
        assert [p.name for p in tmp_path.iterdir()] == ["custom_1"]
        assert sorted(tree(tmp_path / "custom_1")) == [
            "config.json", "record.json", "trajectory_0-2.csv"]

    def test_failed_rerun_keeps_the_earlier_run(self, tmp_path, monkeypatch):
        run(ExperimentConfig.for_preset("ancre-lnn", iters=50, output_dir=str(tmp_path)))
        before = tree(tmp_path)

        def fail(params):
            raise RuntimeError("heatmap failed")

        # fails after the curve is trained, with the trajectory differing
        monkeypatch.setattr(experiments, "heatmap", fail)
        with pytest.raises(RuntimeError, match="heatmap failed"):
            run(ExperimentConfig.for_preset("ancre-lnn", iters=60,
                                            output_dir=str(tmp_path)))
        assert tree(tmp_path) == before
        assert [p.name for p in tmp_path.iterdir()] == ["ancre-lnn_1"]

    def test_divergent_custom_run_recorded_as_diverged(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "preset": "custom", "topology": "0:2", "d": 4, "n": 4, "K": 3,
            "optimizer": "gd", "lr": 1e4, "iters": 500,
            "output_dir": str(tmp_path)})
        rec = run(cfg)
        curve = rec["curves"]["0:2"]
        assert curve["diverged"]
        assert curve["verdict"]["kind"] == "diverged"


def side_run_counts(steps):
    return {"steps": steps, "evals": steps + 1, "stop_reason": "budget"}


class TestSideRuns:
    @pytest.mark.parametrize("preset,t_end,side_runs,counts", [
        ("lb-witness", 0.2, 1, {"euler_loss_monotone_run": side_run_counts(20000)}),
        ("ub-witness", 2.0, 4, {"balance_drift_runs": {
            f"{dt:g}": side_run_counts(steps)
            for dt, steps in ((2e-3, 2500), (1e-3, 5000), (5e-4, 10000), (2.5e-4, 20000))}}),
    ])
    def test_serial_and_forked_side_runs_write_the_same_files(
            self, tmp_path, monkeypatch, preset, t_end, side_runs, counts):
        # one usable CPU runs the side runs in this process; more fork one
        # worker per side run, up to the usable CPUs
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        trees = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
            forks.clear()
            rec = run(ExperimentConfig.for_preset(preset, t_end=t_end,
                                                  output_dir=str(tmp_path / str(cpus))))
            assert len(forks) == (0 if cpus == 1 else min(side_runs, cpus))
            assert {key: rec["witness"][key] for key in counts} == counts
            assert rec["all_checks_passed"]
            trees[cpus] = stable_tree(tmp_path / str(cpus))
        assert trees[1] == trees[2] == trees[8]

    @pytest.mark.parametrize("where", ["side run", "caller"])
    def test_a_raise_leaves_no_directory_and_no_worker(self, tmp_path, monkeypatch, where):
        # the lb witness's Euler run raises in its worker, or the caller
        # raises in the diagonal oracle while the worker runs: the error
        # reaches run's caller, no run directory is written, and the worker
        # has been joined
        real = experiments.integrate_gf

        def integrate_gf(state, dt, t_end, method="euler", options=None):
            if method == "euler":
                raise RuntimeError(f"side run failed in process {os.getpid()}")
            return real(state, dt, t_end, method, options)

        def diag_integrate(*args, **kwargs):
            raise RuntimeError(f"caller failed in process {os.getpid()}")

        if where == "side run":
            monkeypatch.setattr(experiments, "integrate_gf", integrate_gf)
        else:
            monkeypatch.setattr(experiments, "diag_integrate", diag_integrate)
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=f"{where} failed in process") as info:
            run(ExperimentConfig.for_preset("lb-witness", t_end=0.2,
                                            output_dir=str(tmp_path)))
        pid = int(str(info.value).split()[-1])
        assert (pid != os.getpid()) == (where == "side run")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):  # no child, running or unreaped
            os.waitpid(-1, os.WNOHANG)

    def test_only_side_runs_load_the_pool(self, tmp_path):
        # a figure preset forks nothing and imports no multiprocessing
        # module; the lb witness, with two usable CPUs, does
        code = f"""
import sys
from restopo import experiments
def pool_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("multiprocessing", "concurrent"))
experiments.run(experiments.ExperimentConfig.for_preset(
    "topo-3layer", iters=20, output_dir={str(tmp_path)!r}))
print(len(pool_modules()))
experiments._usable_cpus = lambda: 2
experiments.run(experiments.ExperimentConfig.for_preset(
    "lb-witness", t_end=0.1, output_dir={str(tmp_path)!r}))
print("multiprocessing" in pool_modules())
"""
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["0", "True"]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    td = tmp_path_factory.mktemp("cmp")
    rec3 = run(ExperimentConfig.for_preset("topo-3layer", seed=7, iters=3000,
                                           output_dir=str(td)))
    reca = run(ExperimentConfig.for_preset("ancre-lnn", seed=7, iters=3000,
                                           output_dir=str(td)))
    return rec3, reca


class TestCompare:
    def test_self_comparison_speedup_is_one(self, records):
        rec3, _ = records
        report = compare([rec3])
        cascaded = next(r for r in report["rows"] if r["curve"] == "cascaded")
        assert all(v == 1.0 for v in cascaded["speedup_vs_cascaded"].values())

    def test_unreached_threshold_is_inf(self, records):
        rec3, _ = records
        report = compare([rec3])
        row01 = next(r for r in report["rows"] if r["curve"] == "0:1")
        assert np.isinf(row01["iterations"]["1e-8"])

    def test_ancre_speedup_vs_cascaded_at_1e6(self, records):
        rec3, _ = records
        report = compare([rec3])
        ancre = next(r for r in report["rows"] if r["curve"] == "ancre")
        assert ancre["speedup_vs_cascaded"]["1e-6"] >= 1.0

    def test_cross_preset_comparison_shares_instance(self, records):
        rec3, reca = records
        report = compare([rec3, reca])
        curves = [(r["preset"], r["curve"]) for r in report["rows"]]
        assert ("ancre-lnn", "ancre") in curves
        text = render_compare(report)
        assert "cascaded" in text

    def test_mismatched_data_rejected(self, records, tmp_path):
        rec3, _ = records
        other = run(ExperimentConfig.for_preset("topo-3layer", seed=8, iters=200,
                                                output_dir=str(tmp_path)))
        with pytest.raises(ValueError, match="share"):
            compare([rec3, other])


class TestCli:
    def test_run_preset_and_verify(self, tmp_path, capsys):
        code = cli_main(["run", "--preset", "ub-witness", "--seed", "9",
                         "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run complete" in out and "all passed" in out

        code = cli_main(["verify", "--preset", "ub-witness", "--seed", "9",
                         "--out", str(tmp_path / "v")])
        assert code == 0
        assert "all invariants passed" in capsys.readouterr().out

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preset": "custom", "topology": "0:2", "d": 4, "n": 6, "K": 3,
            "iters": 500, "output_dir": str(tmp_path)}))
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "custom_1" / "record.json").exists()

    def test_seed_and_out_override_a_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "preset": "custom", "topology": "0:2", "d": 4, "n": 6, "K": 3, "seed": 3,
            "iters": 50, "output_dir": str(tmp_path / "a")}))
        assert cli_main(["run", "--config", str(cfg_path), "--seed", "7",
                         "--out", str(tmp_path / "b")]) == 0
        assert os.listdir(tmp_path / "b") == ["custom_7"]
        assert load_record(str(tmp_path / "b" / "custom_7" / "record.json"))["seed"] == 7
        assert not (tmp_path / "a").exists()
        assert cli_main(["run", "--config", str(cfg_path)]) == 0
        assert os.listdir(tmp_path / "a") == ["custom_3"]

    def test_compare_command(self, tmp_path, capsys):
        cli_main(["run", "--preset", "depth-sweep", "--seed", "3",
                  "--out", str(tmp_path)])
        capsys.readouterr()
        rec = str(tmp_path / "depth-sweep_3" / "record.json")
        assert cli_main(["compare", rec]) == 0
        out = capsys.readouterr().out
        assert "K2" in out and "1e-6" in out

    def test_run_requires_exactly_one_source(self, capsys):
        assert cli_main(["run"]) == 2
