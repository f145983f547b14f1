#!/usr/bin/env python3
"""The repo's benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--record results.jsonl]

Run from the repository root.  It builds the anow library and the driver
from source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, runs perfbench_driver, checks the result,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list, and the driver's spans are written as a
Chrome trace-event file under the build directory.  The line before it is
the full record (host, build, cost model, problem size, every metric),
which --record also appends to a JSON-lines file for perfbench/compare.py.
Any failed check makes the exit code non-zero.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
START = time.monotonic()
# A run must end within this many seconds once the program is built.
RUN_LIMIT_S = 170
BENCH_DIR = Path(__file__).resolve().parent


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("run from the repository root: CMakeLists.txt and src/ are "
             "needed to build the program")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench_driver"


def source_fingerprint():
    """sha256 over the sources the benchmark builds (the checkout it runs
    in need not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", help="append the full record to this "
                    "JSON-lines file")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else ROOT / target)
    build_dir = build_dir / "perfbench"
    exe = build(build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    # The program's knobs default from ANOW_* variables; the benchmark
    # fixes every leg's configuration itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANOW_")}
    limit = max(RUN_LIMIT_S - (time.monotonic() - START), args.seconds + 60)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        fail("driver timed out", code=1)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = None
    if out is None:
        # A crash (signal) or an uncaught error: one attempted, one failed.
        print(f"perfbench: driver exited {proc.returncode} without a "
              "result", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        sys.exit(1)

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    missing = []
    for m in spec[group]:
        v = out["metrics"].get(m["name"])
        if v is None or not math.isfinite(v):
            missing.append(m["name"])
            continue
        if group == "end_to_end" and v <= 0:
            missing.append(m["name"])
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    failed = out["failed"]
    correct = failed == 0 and proc.returncode == 0 and not missing
    for name in missing:
        print(f"perfbench: metric {name} missing or not positive",
              file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": out["attempted"], "failed": failed,
        "failures": out["failures"], "passes": out["passes"],
        "metrics": out["metrics"], "config": out["config"],
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system(), "release": platform.release()},
        "git_sha": git_sha(), "source": source_fingerprint(),
        "spans_file": str(spans) if spans else None,
    }
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:15s} fail_ratio {failed}/{out['attempted']}")
    print("record " + json.dumps(record, sort_keys=True))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
