#!/usr/bin/env python3
"""Benchmark driver for the CHARISMA simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0

It builds the harness (perfbench/CMakeLists.txt, which compiles the
simulator library from src/ through the repository's own build file) into
.bench_build/perfbench, runs the known-defect canary, runs the workload,
prints every metric by name with its unit, the model outputs, the output
checks and the reproducibility record, and writes a run record under
.bench_build/runs/. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. The exit code is 0 when every output
check passed, 1 when a check failed or the harness could not run, 2 on a
usage error or when the simulator sources are missing.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper_grid", "metro_world", "lazy_dense_world")
ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 175.0  # one invocation, build excluded


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    """The build tree: $CARGO_TARGET_DIR when it lies inside the checkout,
    else .bench_build."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, target))
    if os.path.commonpath([path, ROOT]) != ROOT or path == ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def run_cmd(cmd, timeout, log_path=None):
    """Runs cmd in its own process group; on timeout the whole group is
    killed and reaped. Returns (returncode, stdout, stderr)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        if log_path:
            with open(log_path, "a") as log:
                log.write(out + err)
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if log_path:
        with open(log_path, "a") as log:
            log.write(out + err)
    return proc.returncode, out, err


def build(build_dir):
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no simulator sources: {needed} is missing from {ROOT}", 2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    open(log_path, "w").close()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "charisma_perfbench", "-j", jobs])
    for step in steps:
        code, _, _ = run_cmd(step, 850, log_path)
        if code != 0:
            with open(log_path) as log:
                tail = log.read()[-3000:]
            fail(f"build failed ({' '.join(step)}):\n{tail}")
    return os.path.join(build_dir, "charisma_perfbench")


def last_json(stdout, what):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} printed no JSON result: {lines[-1][:200]}")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def declared_metrics(trace):
    """The metrics BENCHMARK.json declares for this mode, and the unit of
    every metric it declares in either mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    return bench["per_layer" if trace else "end_to_end"], units


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]", 2)
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    binary = build(os.path.join(build_root(), "perfbench"))
    declared, units = declared_metrics(args.trace)
    runs_dir = os.path.join(build_root(), "runs")
    os.makedirs(runs_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.monotonic()

    code, out, err = run_cmd([binary, "--canary", "--seed", str(args.seed)], 60)
    canary = last_json(out, "canary")["known_defect"] if code == 0 else {
        "name": "lazy_partial_band", "reproduces": True,
        "what": f"probe process exited {code}: {err.strip()[-200:]}"}

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", os.path.join(runs_dir, stem + ".spans.json")]
    ticks0 = cpu_ticks()
    code, out, err = run_cmd(cmd, DEADLINE_S - (time.monotonic() - started))
    ticks1 = cpu_ticks()
    if err.strip():
        print(err.strip(), file=sys.stderr)
    result = last_json(out, "harness")
    if "error" in result:
        print(f"perfbench: harness error: {result['error']}", file=sys.stderr)

    print(f"== perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for check in result.get("checks", []):
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check  {status} {check['name']}: {check['detail']}")
    state = "reproduces" if canary.get("reproduces") else "no longer reproduces"
    where = (f" at epoch {canary['failed_epoch']}"
             if "failed_epoch" in canary else "")
    print(f"known_defect {canary.get('name')}: {state}{where} "
          f"({canary.get('what')}) [{canary.get('command', '')}]")

    produced = result.get("metrics", {})
    metrics = {}
    for m in declared:
        if m["name"] not in produced:
            if "error" in result:
                break
            fail(f"harness did not report metric {m['name']}")
        value = produced[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value:.6g} {m['unit']}")
    for name, value in produced.items():
        # Measured but outside this mode's regression set (no bound).
        if name not in metrics:
            print(f"report {name} = {value:.6g} {units.get(name, '')}")
    for key, value in result.get("model", {}).items():
        print(f"model  {key} = {value}")
    record = dict(result.get("record", {}))
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # Share of this VM's CPU time the hypervisor gave to others while
        # the workload ran: the usual cause of a slow outlier run.
        record["host_steal_share"] = round(
            (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 4)
    record.update({"git_rev": git_rev(),
                   "command": " ".join(["python3", "perfbench/run.py"] +
                                       sys.argv[1:])})
    for key, value in record.items():
        if key == "workload":
            for k, v in value.items():
                print(f"record {k} = {v}")
        else:
            print(f"record {key} = {value}")

    with open(os.path.join(runs_dir, stem + ".json"), "w") as f:
        json.dump({"result": result, "known_defect": canary, "record": record},
                  f, indent=1)

    correct = bool(result.get("correct")) and code == 0 and len(metrics) == len(declared)
    failed = int(result.get("failed", 1))
    summary = {"correct": correct,
               "attempted": int(result.get("attempted", 1)),
               "failed": failed if correct else max(1, failed),
               "metrics": metrics}
    print(json.dumps(summary))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
