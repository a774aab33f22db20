"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

For every workload: make a tiny reference, then check that run.py prints
every end-to-end metric (--trace 0) and every per-layer metric (--trace 1)
by name with its unit and with no failed curve, and that a perturbed
reference is reported as failed curves.  Also checks that BENCHMARK.json
names the metrics run.py prints, and that run.py exits non-zero without a
result where restopo's sources are missing.  Exits non-zero on the first
failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import make_reference
import run
import workloads

RUN = os.path.join(run.HERE, "run.py")
SEED = 1


def bench(args: list[str], cwd: str = workloads.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        fail(f"{what}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def expect_metrics(result: dict, lines: list[str], units: dict, what: str):
    if set(result["metrics"]) != set(units):
        fail(f"{what}: metrics {sorted(result['metrics'])} != {sorted(units)}")
    for name, unit in units.items():
        if result["metrics"][name]["unit"] != unit:
            fail(f"{what}: {name} has unit {result['metrics'][name]['unit']}")
        if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}")
                   for line in lines):
            fail(f"{what}: no '{name} <value> {unit}' line")
    if not any(line.startswith("failed_curve_frac ") for line in lines):
        fail(f"{what}: no failed_curve_frac line")


def fail(message: str):
    print(f"SELFCHECK FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_benchmark_json():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            fail(f"BENCHMARK.json {key} {declared} != run.py {units}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_workload(workload: str, tmp: str):
    seed = workloads.instance_seed(SEED)
    make_reference.main(["--workload", workload, "--size", "tiny", "--seeds",
                         str(seed), "--out", tmp])
    ref = os.path.join(tmp, f"{workload}.json")
    common = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
              "--size", "tiny", "--reference", ref]

    for trace, units in (("0", run.END_TO_END_UNITS), ("1", run.PER_LAYER_UNITS)):
        what = f"{workload} --trace {trace}"
        result, lines = result_of(bench(common + ["--trace", trace]), what)
        expect_metrics(result, lines, units, what)
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            fail(f"{what}: {result['failed']} of {result['attempted']} curves failed")

    with open(ref, encoding="utf-8") as fh:
        data = json.load(fh)
    curves = data["seeds"][str(seed)][0]["curves"]
    name = max(curves, key=lambda c: curves[c]["final_loss"])
    curves[name]["final_loss"] *= 1.01
    with open(ref, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    what = f"{workload} perturbed reference"
    result, _ = result_of(bench(common + ["--trace", "0"]), what)
    if result["correct"] or result["failed"] < 1:
        fail(f"{what}: perturbed final_loss of {name} not reported as failed")
    print(f"ok {workload}")


def check_bare_directory(tmp: str):
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    bare = os.path.join(tmp, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "wide-gd", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py printed a result or exited 0 without restopo's sources")
    print("ok bare directory")


def main() -> int:
    check_benchmark_json()
    with tempfile.TemporaryDirectory(prefix=".perfbench-check-",
                                     dir=workloads.ROOT) as tmp:
        check_bare_directory(tmp)
        for workload in workloads.WORKLOADS:
            check_workload(workload, tmp)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
