#!/usr/bin/env python3
"""Compare two sets of perfbench results, refusing runs from different hosts.

    python3 perfbench/compare.py <base results dir> <new results dir>

Each directory holds the files perfbench/run.py writes to .bench_build/results/
(copy them aside between commits).  For every workload and end-to-end metric
it prints both medians over seeds, the change, and a verdict against the
metric's bound in BENCHMARK.json:
  regressed   the new median is worse than the base median by more than the bound
  unresolved  the base's own spread (quartile distance / median) exceeds the bound
  ok          otherwise
Per-layer metrics (--trace 1 results) are listed without a verdict.  Exits 1
if any metric regressed or if the two sets do not share one host block
(nproc, SIMD tier, pool width, compiler, build type): gates compare only
like machines.
"""
import collections
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    hosts = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        hosts.add(json.dumps(record["host"], sort_keys=True))
        for name, metric in record["result"]["metrics"].items():
            runs[(record["workload"], record["trace"])][name].append(metric["value"])
    return runs, hosts


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, base_hosts = load(sys.argv[1])
    new, new_hosts = load(sys.argv[2])
    if len(base_hosts | new_hosts) != 1:
        print("refused: results come from different hosts:")
        for host in sorted(base_hosts | new_hosts):
            print("  " + host)
        sys.exit(1)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'})")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = statistics.median(base[key][name]), statistics.median(new[key][name])
            change = (n - b) / abs(b) if b else float("nan")
            verdict = ""
            if not trace and name in spec:
                m = spec[name]
                worse = -change if m["better"] == "higher" else change
                if spread(base[key][name]) > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict, regressed = "regressed", True
                else:
                    verdict = "ok"
            print(f"  {name:32s} {b:14.6g} -> {n:14.6g}  {change:+8.1%}  {verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
