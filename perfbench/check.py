"""Output checks: summarize a round's records and compare them with the
stored reference.

Tolerances, fixed from float64 before any reference was generated:

- verdict kind: exact.
- `iterations_to` entries: within one record stride (`record_every`) of
  the reference; an unreached threshold ("inf") must stay unreached.
- `final_loss`: compared as the residual norm r = sqrt(2 * final_loss),
  which is what rounding perturbs additively.  |r - r_ref| must not exceed
  RTOL * r_ref + ATOL.  RTOL = 1e-8 is about sqrt(float64 eps); ATOL =
  1e-12 is about 4500 ulp of a unit-scale target, the floor below which
  the cancellation in `output - Y` leaves no meaningful digits.
- every invariant check of the call passes, and the set of check names
  matches the reference.
- the record echoes the instance digest set-up computed, and each curve's
  trajectory CSV exists with one line per record plus a header.

A curve fails if any of these fails for it or for the call that made it.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-8
ATOL = 1e-12


def _num(value) -> float | str:
    """JSON-safe number: infinities become the strings the records use."""
    value = float(value)
    return value if math.isfinite(value) else ("inf" if value > 0 else "nan")


def summarize(record: dict) -> dict:
    """The parts of one `experiments.run` record the reference keeps."""
    curves = {}
    for name, entry in record["curves"].items():
        verdict = entry["verdict"]
        curves[name] = {
            "kind": verdict["kind"] if verdict else None,
            "iterations_to": {k: _num(v) for k, v in entry["iterations_to"].items()},
            "final_loss": _num(entry["final_loss"]),
            "records": int(entry["records"]),
            "diverged": bool(entry["diverged"]),
            "csv": entry["trajectory_csv"],
        }
    return {"preset": record["preset"],
            "checks": sorted(c["name"] for c in record["invariant_checks"]),
            "curves": curves}


def load_reference(path: str, seed: int) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return data["seeds"][str(seed)]
    except KeyError:
        raise SystemExit(f"reference {path} has no entry for instance seed {seed}")


def _iters_ok(got, ref, stride: int) -> bool:
    if ref == "inf" or not isinstance(got, (int, float)):
        return got == ref
    return abs(got - ref) <= stride


def _loss_ok(got, ref) -> bool:
    if not (isinstance(got, float) and isinstance(ref, float)):
        return False
    r, r_ref = math.sqrt(2.0 * max(got, 0.0)), math.sqrt(2.0 * max(ref, 0.0))
    return abs(r - r_ref) <= RTOL * r_ref + ATOL


def _csv_lines(path: str) -> int:
    try:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    except OSError:
        return -1


def check_call(record: dict, ref: dict, digest: str, stride: int) -> dict[str, list[str]]:
    """Problems per curve of one call; a curve with no problems passed.

    Curves the reference expects but the record lacks are reported too."""
    got = summarize(record)
    call_problems = []
    if record.get("instance_digest") != digest:
        call_problems.append("instance digest differs from set-up")
    if not record["all_checks_passed"]:
        failing = [c["name"] for c in record["invariant_checks"] if not c["passed"]]
        call_problems.append(f"invariant checks failed: {failing}")
    if got["checks"] != ref["checks"]:
        call_problems.append("invariant check set differs from reference")
    problems = {}
    for name, r in ref["curves"].items():
        g = got["curves"].get(name)
        if g is None:
            problems[name] = call_problems + ["curve missing"]
            continue
        p = list(call_problems)
        if g["diverged"] != r["diverged"]:
            p.append(f"diverged={g['diverged']}")
        if g["kind"] != r["kind"]:
            p.append(f"verdict {g['kind']} != {r['kind']}")
        for key, ref_it in r["iterations_to"].items():
            if not _iters_ok(g["iterations_to"].get(key), ref_it, stride):
                p.append(f"iterations_to[{key}] {g['iterations_to'].get(key)} != {ref_it}")
        if not _loss_ok(g["final_loss"], r["final_loss"]):
            p.append(f"final_loss {g['final_loss']!r} != {r['final_loss']!r}")
        csv = os.path.join(record["output_dir"], g["csv"])
        if _csv_lines(csv) != g["records"] + 1:
            p.append(f"{g['csv']}: expected {g['records'] + 1} lines")
        problems[name] = p
    for name in got["curves"].keys() - ref["curves"].keys():
        problems[name] = ["curve not in reference"]
    return problems
