"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload layout-sweep --seed 1 --seconds 10 --trace 0

Run from the repository root.  The seed selects the workload's inputs
(instance seed = seed mod 16 + 1, each with a stored reference output).
Set-up (importing restopo, building configs and initial instances) is
timed in fresh interpreters and reported as the median.  Rounds of the
workload's `experiments.run` calls then repeat for `--seconds`; each
round's outputs are checked against the reference and against the first
round, and its run directories are deleted.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 spends half the time untraced and half traced, and prints the
per-layer metrics.

wall_s and setup_s are in reference seconds (calibrate.py): each
`experiments.run` call and each set-up is bracketed by a calibration loop,
and its wall time is divided by the loop's mean slowdown around it; wall_s
is the median over rounds of the round's sum, setup_s the median over
set-ups.  On a machine shared with other tenants, co-running work slows
this process by up to 2x for stretches of a fraction of a second to
minutes.  Over 20 s runs of one workload there, the raw median round varied
by 27-44% from run to run (quartile distance over median), the fastest
round by up to 80%, and the calibrated median by 3-5%; raw set-up medians
by 12-33%, calibrated ones with probe and calibration on one CPU by 6%.
Raw times and slowdowns are printed alongside.

Failed curves over curves attempted is printed as `failed_curve_frac` and
carried by the result's `attempted` and `failed`.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import check
import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_BLAS_THREADS = 2
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "network.evals": "count", "network.eval_s": "s", "network.us_per_eval": "us",
    "network.flops_computed": "flop", "network.gflops_per_s": "GFLOP/s",
    "ancre.normalize_calls": "count", "ancre.normalize_s": "s",
    "ancre.coeff_gradients_calls": "count", "ancre.coeff_gradients_s": "s",
    "dynamics.drive_s": "s", "dynamics.self_s": "s", "dynamics.steps": "count",
    "dynamics.records": "count", "dynamics.to_csv_s": "s", "dynamics.classify_s": "s",
    "oracles.diag_integrate_s": "s", "oracles.diag_steps": "count",
    "oracles.witness_init_s": "s",
    "tensor.spectral_norm_calls": "count", "tensor.spectral_norm_s": "s",
    "tensor.frobenius_norm_calls": "count", "tensor.frobenius_norm_s": "s",
    "experiments.run_s": "s", "experiments.self_s": "s",
    "experiments.files_written": "count", "experiments.bytes_written": "byte",
    "experiments.cpu_s": "s",
    "trace.overhead_s": "s",
}


def blas_threads() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS))


def environment(threads: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "blas": blas, "python": sys.version.split()[0]}


def setup_samples(workload: str, seed: int, size: str, cal) -> list[tuple[float, float]]:
    """(seconds, slowdown) of set-up in each of SETUP_PROBES fresh interpreters.

    This thread, and so each probe, is pinned to one CPU meanwhile, so that
    the calibration around a probe runs where the probe runs."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        samples = []
        before = cal.slowdown()
        for _ in range(SETUP_PROBES):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
                 str(seed), size],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
            after = cal.slowdown()
            samples.append((float(out.stdout.split()[-1]), (before + after) / 2))
            before = after
        return samples
    finally:
        os.sched_setaffinity(0, allowed)


# ---------------------------------------------------------------------------
# rounds

def _stable_record(record: dict) -> str:
    """A record's content without the parts that differ between rounds."""
    rec = {k: v for k, v in record.items() if k not in ("wall_clock_s", "output_dir")}
    rec["config"] = {k: v for k, v in rec["config"].items() if k != "output_dir"}
    return json.dumps(rec, sort_keys=True, default=float)


def _scan(outdir: str) -> tuple[int, int, dict]:
    """(files, bytes, digest per data file) of a round's run directories.

    config.json and record.json carry the output path and the wall clock,
    so only their count and size enter; records are compared separately."""
    files = size = 0
    digests = {}
    for parent, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(parent, name)
            files += 1
            size += os.path.getsize(path)
            if name not in ("config.json", "record.json"):
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, outdir)] = hashlib.sha256(
                        fh.read()).hexdigest()
    return files, size, digests


def run_round(restopo, calls, refs, tmp: str, index: int, baseline: dict | None, cal):
    """Run the workload once and check it; returns a dict of round results.

    Each call is bracketed by calibration; "ref_wall" is the round's time
    in reference seconds."""
    outdir = os.path.join(tmp, f"r{index}")
    calls = workloads.with_output_dir(calls, outdir)
    records, wall, ref_wall, cpu = [], 0.0, 0.0, 0.0
    before = cal.slowdown()
    for c in calls:
        cpu0, start = time.process_time(), time.perf_counter()
        records.append(restopo.experiments.run(c.config))
        elapsed = time.perf_counter() - start
        cpu += time.process_time() - cpu0
        after = cal.slowdown()
        wall += elapsed
        ref_wall += elapsed / ((before + after) / 2)
        before = after

    files, size, digests = _scan(outdir)
    fingerprint = {"records": [_stable_record(r) for r in records], "files": digests}
    same = baseline is None or fingerprint == baseline
    attempted = failed = 0
    for call, record, ref in zip(calls, records, refs):
        problems = check.check_call(record, ref, call.digest, call.config.record_every)
        for curve, p in problems.items():
            attempted += 1
            if p or not same:
                failed += 1
                reasons = p or ["output differs from the first round"]
                print(f"FAILED {call.label}/{curve}: {'; '.join(reasons)}",
                      file=sys.stderr)
    shutil.rmtree(outdir)
    return {"wall": wall, "ref_wall": ref_wall, "cpu": cpu, "files": files,
            "bytes": size, "attempted": attempted, "failed": failed,
            "fingerprint": fingerprint}


def rounds_for(seconds: float, restopo, calls, refs, tmp, first, baseline,
               cal, tracer: Tracer | None = None):
    """Rounds until `seconds` have passed (at least one)."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
            with tracer.installed(restopo):
                r = run_round(restopo, calls, refs, tmp, first + len(out), baseline, cal)
            r["layers"] = layer_metrics(tracer, r)
        else:
            r = run_round(restopo, calls, refs, tmp, first + len(out), baseline, cal)
        baseline = baseline or r["fingerprint"]
        out.append(r)
    return out, baseline


def layer_metrics(tracer: Tracer, rnd: dict) -> dict:
    spans = tracer.span_totals()

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0])[1]

    def self_time(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    evals, eval_s = calls("network.eval"), self_time("network.eval")
    flops = tracer.eval_flops()
    return {
        "network.evals": evals,
        "network.eval_s": eval_s,
        "network.us_per_eval": 1e6 * eval_s / evals if evals else 0.0,
        "network.flops_computed": flops,
        "network.gflops_per_s": flops / eval_s / 1e9 if eval_s else 0.0,
        "ancre.normalize_calls": calls("ancre.normalize"),
        "ancre.normalize_s": total("ancre.normalize"),
        "ancre.coeff_gradients_calls": calls("ancre.coeff_gradients"),
        "ancre.coeff_gradients_s": total("ancre.coeff_gradients"),
        "dynamics.drive_s": total("dynamics.drive"),
        "dynamics.self_s": self_time("dynamics.drive"),
        "dynamics.steps": tracer.counts.get("dynamics.steps", 0),
        "dynamics.records": tracer.counts.get("dynamics.records", 0),
        "dynamics.to_csv_s": total("dynamics.to_csv"),
        "dynamics.classify_s": total("dynamics.classify"),
        "oracles.diag_integrate_s": total("oracles.diag_integrate"),
        "oracles.diag_steps": tracer.counts.get("oracles.diag_steps", 0),
        "oracles.witness_init_s": total("oracles.witness_init"),
        "tensor.spectral_norm_calls": calls("tensor.spectral_norm"),
        "tensor.spectral_norm_s": total("tensor.spectral_norm"),
        "tensor.frobenius_norm_calls": calls("tensor.frobenius_norm"),
        "tensor.frobenius_norm_s": total("tensor.frobenius_norm"),
        "experiments.run_s": total("experiments.run"),
        "experiments.self_s": self_time("experiments.run"),
        "experiments.files_written": rnd["files"],
        "experiments.bytes_written": rnd["bytes"],
        "experiments.cpu_s": rnd["cpu"],
    }


def print_edges(tracer: Tracer):
    for (parent, child), (n, total, self_s) in sorted(tracer.edges.items()):
        print(f"span {parent} -> {child}: calls={n} total_s={total:.6f} "
              f"self_s={self_s:.6f}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="'tiny' is for the self-check only")
    ap.add_argument("--reference", help="reference file (default: the stored one)")
    args = ap.parse_args(argv)

    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    seed = workloads.instance_seed(args.seed)
    ref_path = args.reference or os.path.join(workloads.REFERENCE_DIR,
                                              f"{args.workload}.json")
    refs = check.load_reference(ref_path, seed)

    try:
        calls = workloads.setup(args.workload, seed, args.size)
    except ImportError as exc:
        print(f"cannot import restopo from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    from calibrate import Calibration  # imports numpy: after the BLAS threads are set
    setup = setup_samples(args.workload, seed, args.size, Calibration("overhead"))
    cal = Calibration(workloads.CALIBRATION[args.workload])
    if [r["preset"] for r in refs] != [c.config.preset for c in calls]:
        print(f"reference {ref_path} does not match the workload's calls", file=sys.stderr)
        return 2
    restopo = sys.modules["restopo"]
    print("env " + json.dumps(environment(threads), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} instance_seed {seed} "
          f"size {args.size} calls {[c.label for c in calls]}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-run-",
                                     dir=workloads.ROOT) as tmp:
        if args.trace:
            plain, baseline = rounds_for(args.seconds / 2, restopo, calls, refs, tmp,
                                         0, None, cal)
            tracer = Tracer()
            traced, _ = rounds_for(args.seconds / 2, restopo, calls, refs, tmp,
                                   len(plain), baseline, cal, tracer)
            rounds = plain + traced
        else:
            rounds, _ = rounds_for(args.seconds, restopo, calls, refs, tmp, 0, None,
                                   cal)

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        print_edges(tracer)
        metrics = {k: statistics.median_low(r["layers"][k] for r in traced)
                   for k in PER_LAYER_UNITS if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["ref_wall"] for r in traced)
                                       - statistics.median(r["ref_wall"] for r in plain))
        units = PER_LAYER_UNITS
        print(f"rounds untraced={len(plain)} traced={len(traced)}")
    else:
        metrics = {
            "wall_s": statistics.median(r["ref_wall"] for r in rounds),
            "setup_s": statistics.median(raw / slow for raw, slow in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        print(f"rounds {len(rounds)} raw wall_s {[round(r['wall'], 4) for r in rounds]} "
              f"slowdown {[round(r['wall'] / r['ref_wall'], 3) for r in rounds]}")
        print(f"setup raw s {[round(raw, 4) for raw, _ in setup]} "
              f"slowdown {[round(slow, 3) for _, slow in setup]}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_curve_frac {failed / attempted!r} ratio "
          f"({failed} of {attempted} curves failed)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
