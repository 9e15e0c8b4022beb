#!/usr/bin/env python3
"""Closure-engineer benchmark: build, run one workload, print its metrics.

Usage (from the repository root):

    python3 closurebench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds the benchmark binary from the repository sources (CMake, into
$CARGO_TARGET_DIR or .bench_build under the repository root), primes the
library cache it owns (keyed on the characterization sources, so a
change to them re-primes it), runs the workload and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) of BENCHMARK.json. Lines before it give the phase accounting
and the workload's metrics under their closure-engineer names. Exits
nonzero without a result when the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("cold_ladder", "eco_stream", "mcmm_corners", "serve_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Source directories whose code determines a characterized library: the
# liberty builder and serializer, the device models, and the util code
# both link.
CHAR_SOURCES = ("src/liberty", "src/device", "src/util")


def log(msg):
    print(f"closurebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "closurebench"


def build(out):
    """Configure (once) and build; returns the binary path or None."""
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            log("build failed")
            return None
    binary = out / "closurebench"
    return binary if binary.exists() else None


def char_source_key():
    """Digest of every file under CHAR_SOURCES, paths and contents."""
    h = hashlib.sha256()
    for d in CHAR_SOURCES:
        for f in sorted((ROOT / d).rglob("*")):
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode() + b"\0")
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def library_cache(out):
    """The library cache directory of the current characterization
    sources; caches of other source versions are removed."""
    root = out / "libcache"
    key = char_source_key()
    if root.is_dir():
        for old in root.iterdir():
            if old.name != key:
                shutil.rmtree(old) if old.is_dir() else old.unlink()
    cache = root / key
    cache.mkdir(parents=True, exist_ok=True)
    return cache


def run_binary(args, env):
    try:
        r = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(args)}")
        return None
    sys.stderr.write(r.stdout)
    sys.stderr.write(r.stderr[-4000:])
    return r.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2

    # Everything the program writes stays under the build directory: the
    # library cache it owns, the farm's snapshot hand-off, raw results.
    env = dict(os.environ)
    libcache = library_cache(out)
    env["TC_LIB_CACHE_DIR"] = str(libcache)
    env["TC_FARM_WORKER"] = str(out / "goalposts_worker")
    env["TMPDIR"] = str(out / "tmp")
    for d in ("tmp", "runs"):
        (out / d).mkdir(exist_ok=True)

    primed = libcache / "primed"
    if not primed.exists():
        log("characterizing libraries into the benchmark's cache")
        if run_binary([str(binary), "--prepare"], env) != 0:
            return 2
        primed.touch()

    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    raw_path = out / "runs" / f"{stem}.json"
    trace_path = out / "runs" / f"{stem}.trace.json"
    for p in (raw_path, trace_path):
        p.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.trace:
        cmd += ["--trace-out", str(trace_path)]
    code = run_binary(cmd, env)
    if code is None or not raw_path.exists():
        return 2
    raw = json.loads(raw_path.read_text())

    for name, p in sorted(raw["phases"].items()):
        print(f"phase {name}: attempted {p['attempted']}, "
              f"succeeded {p['attempted'] - p['failed']}, failed {p['failed']}")
    for f in raw["failures"]:
        print(f"failure: {f}")
    print(f"input digest: {raw['input_digest']}")
    attempted, failed = metrics.accounting(raw)
    correct = code == 0 and failed == 0 and not raw["failures"]

    scale = metrics.host_scale(raw)
    print(f"host speed: calibration pass {metrics.CALIB_REF_MS / scale:.4g} "
          f"ms (reference {metrics.CALIB_REF_MS:g} ms); times below are "
          f"wall clock x {scale:.4g}")
    if args.trace:
        events = []
        if trace_path.exists():
            events = json.loads(trace_path.read_text())["traceEvents"]
        values = metrics.per_layer(raw, events, scale)
        declared = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(raw, scale)
        declared = [(n, u, b) for n, u, b, _ in metrics.END_TO_END]
        wall = metrics.end_to_end_raw(raw)
        for name, unit, src, factor in metrics.CLOSURE_NAMES[args.workload]:
            print(f"{args.workload} {name} = {values[src] * factor:.6g} {unit} "
                  f"(wall clock {wall[src] * factor:.6g} {unit})")
        tail = metrics.tail_percentile(raw["samples"].get("op_ms", []))
        if tail:
            n = len(raw["samples"]["op_ms"])
            print(f"{args.workload} op tail p{tail[0]:g} = "
                  f"{tail[1] * scale:.6g} ms (n={n})")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in declared},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
