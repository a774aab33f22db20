"""The stored benchmark references (perfbench/references/) hold for the
current code: each workload's calls, at the size the benchmark runs them,
pass perfbench/check.py's comparison on one instance seed.  Without this, a
change whose outputs drift past the benchmark's tolerances would pass the
tests and fail only in a benchmark run."""

import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
SEED = 1  # an instance seed, 1..workloads.REFERENCE_SEEDS


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import check
    import workloads
    return check, workloads


@pytest.mark.parametrize("workload", ["layout-sweep", "witness-flow", "ancre-mix",
                                      "wide-gd"])
def test_stored_reference_holds(perfbench, workload, tmp_path):
    check, workloads = perfbench
    assert workload in workloads.WORKLOADS
    refs = check.load_reference(os.path.join(workloads.REFERENCE_DIR, f"{workload}.json"),
                                SEED)
    calls = workloads.with_output_dir(workloads.setup(workload, SEED), str(tmp_path))
    assert [r["preset"] for r in refs] == [c.config.preset for c in calls]
    run = workloads.import_restopo().experiments.run
    for call, ref in zip(calls, refs):
        problems = check.check_call(run(call.config), ref, call.digest,
                                    call.config.record_every)
        assert problems and not any(problems.values()), (call.label, problems)
