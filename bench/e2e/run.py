#!/usr/bin/env python3
"""Build and run the spfactor end-to-end benchmark (bench/e2e/README.md).

    python3 bench/e2e/run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
    python3 bench/e2e/run.py --workload all --out results/a1.json
    python3 bench/e2e/run.py --smoke [--binary PATH]

The first call configures and builds bench/e2e (and the library from src/)
into .bench_build/e2e; later calls only re-check the build.  Each workload
runs in its own spf_bench child process.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
are the end-to-end metrics BENCHMARK.json names (--trace 0) or its
per-layer metrics (--trace 1).  --out writes every workload's full report,
host stamp included, for compare.py.  The exit status is 0 only when every
answer was correct.
"""
import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
WORKLOADS = ["refactor-3d", "refactor-powernet", "serve-mix", "dist-2rank"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SETUPS = 3  # fresh set-ups per run; setup_s is their median


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (re)build spf_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: the benchmark builds the library from source")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "spf_bench", "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "spf_bench"


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    with open(spec_path) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, setups, trace_path=None):
    """One spf_bench child; returns its JSON report and its exit status."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--setups", str(setups)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"{workload}: spf_bench exited with {done.returncode}")
    return json.loads(lines[-1]), done.returncode


def select(report, section, wanted):
    """The metrics `wanted` lists, from one report section; units must match."""
    got = report.get(section, {})
    out = {}
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            fail(f"{report['workload']}: spf_bench did not report {m['name']}")
        if value["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {value['unit']} != BENCHMARK.json {m['unit']}")
        out[m["name"]] = value
    return out


def smoke(binary, spec):
    """Every workload at smoke length, traced: every metric of BENCHMARK.json
    present with its unit, every answer right, the trace valid JSON; then the
    checkers must reject a wrong answer."""
    problems = []
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        for w in WORKLOADS:
            trace = Path(tmp) / f"{w}.json"
            report, status = run_workload(binary, w, 1, 0.4, 1, trace)
            for section in ("end_to_end", "per_layer"):
                for name, value in select(report, section, spec[section]).items():
                    if not math.isfinite(value["value"]):
                        problems.append(f"{w}: {name} is not finite")
                    if section == "end_to_end" and value["value"] <= 0:
                        problems.append(f"{w}: {name} = {value['value']} is not positive")
            if status != 0 or report["failed"] != 0 or report["attempted"] < 1:
                problems.append(f"{w}: {report['failed']} of {report['attempted']} answers wrong")
            with open(trace) as f:
                if not json.load(f)["traceEvents"]:
                    problems.append(f"{w}: empty trace")
            print(f"smoke {w}: {report['attempted']} answers checked", file=sys.stderr)
    checked = subprocess.run([str(binary), "--self-test"], capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    sys.stderr.write(checked.stdout)
    if checked.returncode != 0:
        problems.append("the checkers accepted a wrong answer")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", type=Path, help="write the full per-workload reports here")
    ap.add_argument("--binary", type=Path, help="use this spf_bench instead of building")
    ap.add_argument("--smoke", action="store_true",
                    help="short self-checking run of all workloads")
    args = ap.parse_args()

    spec = load_spec()
    binary = args.binary or build()
    if args.smoke:
        sys.exit(smoke(binary, spec))
    if args.workload is None:
        fail("--workload is required")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    reports = {}
    metrics = {}
    attempted = failed = 0
    for w in workloads:
        trace = BUILD / f"trace-{w}.json" if args.trace else None
        report, _ = run_workload(binary, w, args.seed, seconds, SETUPS, trace)
        reports[w] = report
        attempted += report["attempted"]
        failed += report["failed"]
        section = "per_layer" if args.trace else "end_to_end"
        for name, value in select(report, section, spec[section]).items():
            metrics[name if len(workloads) == 1 else f"{w}/{name}"] = value
            print(f"{w:18} {name:26} {value['value']:14.6g} {value['unit']}", file=sys.stderr)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds, "trace": args.trace,
                       "workloads": reports}, f, indent=1)
            f.write("\n")
    correct = failed == 0 and all(r["correct"] for r in reports.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
