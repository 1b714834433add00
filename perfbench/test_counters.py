#!/usr/bin/env python3
"""The benchmark's own test: exact counters repeat, every metric is named.

Runs each workload of BENCHMARK.json at the small size (--small: the tiny
dataset and the test MLP) twice with --trace 1 and once with --trace 0, and
checks that

  * every run is correct, with zero failed operations;
  * the printed metrics are exactly BENCHMARK.json's per_layer names (traced)
    or end_to_end names (untraced), each with its declared unit;
  * every exact counter repeats identically across the two traced runs, and
    the counters of the layers a workload drives are nonzero.

Run from the repository root:  python3 perfbench/test_counters.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EXACT = [
    "attack.steps", "attack.attempts", "attack.landed", "attack.blocked",
    "dram.acts", "dram.aaps", "dram.bitflips", "dram.sim_ms",
    "defense.maintenance_ops", "defense.sim_ms",
    "core.swaps", "serve.ticks", "serve.samples",
]
# Counters each workload must drive (nonzero at the small size too).
DRIVEN = {
    "dram": ["attack.steps", "attack.attempts", "dram.acts", "dram.sim_ms"],
    "serve": ["core.swaps", "serve.ticks", "serve.samples", "dram.aaps"],
}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s --trace %d exited %d" % (workload, trace, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_catalogue(result, declared, where):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise AssertionError("%s: missing %s, undeclared %s, wrong units %s"
                             % (where, missing, extra, units))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in [w["name"] for w in bench["workloads"]]:
        try:
            plain = run(workload, 0)
            traced = [run(workload, 1), run(workload, 1)]
            for i, result in enumerate([plain] + traced):
                where = "%s run %d" % (workload, i)
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    raise AssertionError("%s: correct=%s failed=%d attempted=%d" % (
                        where, result["correct"], result["failed"], result["attempted"]))
            check_catalogue(plain, bench["end_to_end"], workload + " --trace 0")
            for result in traced:
                check_catalogue(result, bench["per_layer"], workload + " --trace 1")
            a, b = (r["metrics"] for r in traced)
            for name in EXACT:
                if a[name]["value"] != b[name]["value"]:
                    raise AssertionError("%s: %s differs between runs: %r vs %r" % (
                        workload, name, a[name]["value"], b[name]["value"]))
            for name in DRIVEN[workload]:
                if a[name]["value"] <= 0:
                    raise AssertionError("%s: %s is not driven (reads %r)"
                                         % (workload, name, a[name]["value"]))
            print("ok   %s" % workload)
        except AssertionError as e:
            failures.append(str(e))
            print("FAIL %s" % e)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
