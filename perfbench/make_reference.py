"""Write the reference outputs the benchmark checks every curve against.

    python3 perfbench/make_reference.py                  # all workloads, seeds 1..16
    python3 perfbench/make_reference.py --workload wide-gd --size tiny \\
        --seeds 2 --out some/dir

Each workload runs once per instance seed; the summarized records (see
check.summarize) go to <out>/<workload>.json.  Regenerate only when the
program's results are meant to change, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import check
import workloads


def reference(workload: str, seeds, size: str) -> dict:
    out = {"workload": workload, "size": size, "seeds": {}}
    for seed in seeds:
        calls = workloads.setup(workload, seed, size)
        run = sys.modules["restopo"].experiments.run
        with tempfile.TemporaryDirectory(prefix=".perfbench-ref-",
                                         dir=workloads.ROOT) as tmp:
            records = [run(c.config) for c in workloads.with_output_dir(calls, tmp)]
        for call, record in zip(calls, records):
            if not record["all_checks_passed"] or record["instance_digest"] != call.digest:
                raise SystemExit(f"{workload} seed {seed} {call.label}: invariant "
                                 "checks or instance digest failed")
        out["seeds"][str(seed)] = [check.summarize(r) for r in records]
        print(f"{workload} seed {seed} done", file=sys.stderr)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, action="append")
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--seeds", type=int, nargs="+",
                    default=list(range(1, workloads.REFERENCE_SEEDS + 1)),
                    help="instance seeds")
    ap.add_argument("--out", default=workloads.REFERENCE_DIR)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        data = reference(workload, args.seeds, args.size)
        with open(os.path.join(args.out, f"{workload}.json"), "w",
                  encoding="utf-8", newline="\n") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
