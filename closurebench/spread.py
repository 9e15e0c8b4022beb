#!/usr/bin/env python3
"""Steadiness check of the closure-engineer benchmark.

Usage (from the repository root):

    python3 closurebench/spread.py [--runs 10] [--first-seed 1]
        [--workload W ...] [--seed-fixed] [--save out.json]
        [--compare earlier.json]

Runs run.py --trace 0 `--runs` times per workload, each time with another
seed (or the same seed with --seed-fixed, which separates run-to-run noise
from seed-to-seed variation), and prints, per end-to-end metric, the median
and the inter-quartile distance as a share of the median next to the
metric's bound in BENCHMARK.json. With --compare it also prints how far
each median moved in the "worse" direction against an earlier --save file.
Exits 1 when a run fails or is incorrect.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def run_once(workload, seed, seconds):
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = r.returncode == 0 and result is not None and result["correct"]
    return ok, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed-fixed", action="store_true")
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    values, all_ok = {}, True
    for w in workloads:
        values[w] = {}
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.seed_fixed else i)
            ok, result = run_once(w, seed, bench["run_seconds"])
            all_ok = all_ok and ok
            if result is None:
                print(f"{w} seed {seed}: no result", flush=True)
                continue
            print(f"{w} seed {seed}: correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
            for k, v in result["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
        for k, vs in values[w].items():
            if len(vs) < 2:
                continue
            med = metrics.median(vs)
            line = (f"  {w} {k}: median {med:.5g}, spread "
                    f"{metrics.quartile_spread(vs):.4f}, bound "
                    f"{spec[k]['bound']}")
            before = earlier.get(w, {}).get(k)
            if before:
                old = metrics.median(before)
                worse = (med - old if spec[k]["better"] == "lower"
                         else old - med) / old
                line += f", worse than earlier by {worse:+.4f}"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
