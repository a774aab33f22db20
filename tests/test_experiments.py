import json

import numpy as np
import pytest

from restopo import experiments
from restopo.cli import main as cli_main
from restopo.experiments import (ExperimentConfig, compare, figure_instance,
                                 load_record, parse_topology, render_compare, run)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def tree(path):
    """{relative file path: bytes} of every file under `path`."""
    return {str(f.relative_to(path)): f.read_bytes()
            for f in sorted(path.rglob("*")) if f.is_file()}


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
    ])
    def test_bad_field_raises_before_any_directory(self, tmp_path, preset, field, value):
        with pytest.raises(ValueError, match=field):
            run(ExperimentConfig.for_preset(preset, output_dir=str(tmp_path),
                                            **{field: value}))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("optimizer", ["gf-euler", "gf-rk4"])
    def test_lr_c_rejected_under_gradient_flow(self, tmp_path, optimizer):
        # gradient flow integrates every parameter at one rate, so an lr_c
        # would be echoed in config.json and record.json yet change nothing
        with pytest.raises(ValueError, match="lr_c"):
            run(ExperimentConfig.for_preset("custom", ancre_mode="ingoing",
                                            optimizer=optimizer, lr_c=0.0, t_end=0.1,
                                            output_dir=str(tmp_path)))
        assert list(tmp_path.iterdir()) == []

    def test_round_trips_through_json(self):
        cfg = ExperimentConfig.for_preset("ub-witness", seed=3)
        import dataclasses
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

    def test_ancre_preset_emits_heatmap(self, tmp_path):
        cfg = ExperimentConfig.for_preset("ancre-lnn", seed=1, iters=300,
                                          output_dir=str(tmp_path))
        rec = run(cfg)
        path = tmp_path / "ancre-lnn_1" / rec["heatmap_csv"]
        lines = path.read_text().splitlines()
        assert lines[0] == "j\\i,0,1,2,3"
        assert len(lines) == 5

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
