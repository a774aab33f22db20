"""Command-line entry point.

    restopo run --config cfg.json
    restopo run --preset topo-3layer [--seed N] [--out DIR]
    restopo compare RUN_DIR/record.json ...
    restopo verify --preset {lb-witness,ub-witness} [--seed N] [--out DIR]

The RESTOPO_OUT environment variable sets the default output directory.
verify exits 0 iff every invariant check of the witness preset passes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import (ExperimentConfig, PRESETS, WITNESS_PRESETS, compare,
                          load_record, render_compare, run, verify)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="restopo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a preset or a JSON config")
    p_run.add_argument("--config", help="path to a JSON configuration file")
    p_run.add_argument("--preset", choices=sorted(PRESETS))
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--out", help="output directory (default: $RESTOPO_OUT or ./runs)")

    p_cmp = sub.add_parser("compare", help="iterations-to-threshold table across runs")
    p_cmp.add_argument("records", nargs="+", help="record.json paths")

    p_ver = sub.add_parser("verify", help="run a theorem-witness preset and check invariants")
    p_ver.add_argument("--preset", required=True, choices=WITNESS_PRESETS)
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "run":
        if (args.config is None) == (args.preset is None):
            print("run needs exactly one of --config or --preset", file=sys.stderr)
            return 2
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                cfg = ExperimentConfig.from_dict(json.load(fh))
            if args.out:
                cfg = ExperimentConfig.from_dict(
                    {**{k: v for k, v in cfg.__dict__.items()}, "output_dir": args.out})
        else:
            cfg = ExperimentConfig.for_preset(args.preset, seed=args.seed,
                                              output_dir=args.out)
        record = run(cfg)
        print(f"run complete: {record['output_dir']}")
        for name, curve in record["curves"].items():
            verdict = curve["verdict"]
            kind = verdict["kind"] if verdict else "n/a"
            print(f"  {name:16s} final_loss={curve['final_loss']:.6g} verdict={kind}")
        if record["invariant_checks"]:
            bad = [c["name"] for c in record["invariant_checks"] if not c["passed"]]
            print(f"  invariant checks: {'all passed' if not bad else 'FAILED: ' + ', '.join(bad)}")
        return 0

    if args.command == "compare":
        report = compare([load_record(path) for path in args.records])
        print(render_compare(report), end="")
        return 0

    record, ok = verify(args.preset, seed=args.seed, output_dir=args.out)
    for check in record["invariant_checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: value={check['value']:.6g} "
              f"bound={check['bound']:.6g} margin={check['margin']:.3g}")
    print("verify:", "all invariants passed" if ok else "INVARIANT FAILURES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
