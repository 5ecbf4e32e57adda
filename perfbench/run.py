#!/usr/bin/env python3
"""Build and run the end-to-end training benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds
perfbench/ (the program's libraries from src/ plus the perfbench binary)
into .bench_build/ (or $CARGO_TARGET_DIR); later calls only re-check the
build.

--trace 0 starts one perfbench process per training run, as a user runs the
trainer, until --seconds are spent (at least three runs), and reports the
median of each end-to-end metric over the runs during which the hypervisor
stole at most 2% of the machine's CPU (over all runs if fewer than three).
--trace 1 runs the binary once for the per-layer metrics and writes its
spans to .bench_build/traces/.  The last line of stdout is one JSON object
{correct, attempted, failed, metrics}, checked against the metric names in
BENCHMARK.json; each result is also kept, with the host block, under
.bench_build/results/ for perfbench/compare.py.  Exits non-zero, printing
no result, if the build, a run or the check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TOTAL_TIMEOUT_S = 175
MIN_RUNS = 3
# A run during which the hypervisor gave more than this share of the
# machine's CPU to other guests measured the neighbours, not the program.
MAX_STEAL = 0.02


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_root):
    tree = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 2)
    make = ["cmake", "--build", tree, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(make, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(tree, "perfbench")


def drive(command, deadline):
    """Runs the binary once; returns its report lines and parsed last line."""
    # The benchmark measures the default pool width, as users run it.
    env = {k: v for k, v in os.environ.items() if k != "SHMCAFFE_THREADS"}
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {TOTAL_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), flush=True)
        fail(f"perfbench exited with {proc.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("perfbench printed no result")


def host_of(lines):
    return next((json.loads(l[len("host: "):]) for l in lines if l.startswith("host: ")), None)


def end_to_end(base, seconds, deadline):
    """One process per training run; medians over the runs."""
    start = time.monotonic()
    runs, report, longest = [], [], 0.0
    while len(runs) < MIN_RUNS or time.monotonic() - start + longest < seconds:
        t0 = time.monotonic()
        lines, run = drive(base + ["--trace", "0"], deadline)
        longest = max(longest, time.monotonic() - t0)
        report = report or lines[:2]  # host block and workload line
        report += [l for l in lines if l.startswith("run: ")]
        runs.append(run)
    # Medians over the runs the hypervisor left alone, if there are enough.
    clean = [r for r in runs if r["steal"] <= MAX_STEAL]
    counted = clean if len(clean) >= MIN_RUNS else runs

    def median(name):
        values = [r["metrics"][name]["value"] for r in counted]
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None
    names = list(runs[0]["metrics"])
    metrics = {n: {"value": median(n), "unit": runs[0]["metrics"][n]["unit"]} for n in names}
    failed = sum(1 for r in runs if r["failure"])
    report.append(f"end-to-end, median of {len(counted)} of {len(runs)} runs (one process "
                  f"each; {len(runs) - len(clean)} had steal > {MAX_STEAL:.0%}):")
    report += [f"  {n:22s} {m['value']} {m['unit']}" for n, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    return report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_root)
    deadline = time.monotonic() + TOTAL_TIMEOUT_S
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        os.makedirs(os.path.join(build_root, "traces"), exist_ok=True)
        report, result = drive(base + ["--trace", "1", "--seconds", str(args.seconds),
                                       "--trace-out",
                                       os.path.join(build_root, "traces", tag + ".json")],
                               deadline)
    else:
        report, result = end_to_end(base, args.seconds, deadline)
    print("\n".join(report), flush=True)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    # The binary reports test_loss per run for the report and the failure
    # check; only the metrics BENCHMARK.json names are results.
    result["metrics"] = {m["name"]: result["metrics"].get(m["name"]) for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            fail(f"metric {m['name']} missing or malformed")

    os.makedirs(os.path.join(build_root, "results"), exist_ok=True)
    with open(os.path.join(build_root, "results", tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "host": host_of(report), "result": result}, f)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
