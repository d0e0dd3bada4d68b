"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workloads corpus,implicit,refute \\
        --seeds 1-10 [--out spread.json]

Runs bench/run.py once per workload and seed, one run at a time, at the
run length of BENCHMARK.json.  For each workload and end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and their distance as a share of the median, next to the metric's bound.
With ``--out`` it also writes every run's metrics, report digest and
printed lines, so two sets of runs can be compared digest by digest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[1] for ln in lines
                   if ln.startswith("report_digest ")), None)
    result = json.loads(lines[-1]) if lines else {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "digest": digest, "result": result, "lines": lines[:-1]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="corpus,implicit,refute")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out")
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            r = one_run(workload, seed, spec["run_seconds"])
            runs.append(r)
            print(f"{workload} seed {seed}: exit {r['exit']}, "
                  f"digest {r['digest']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)

    ok = all(r["exit"] == 0 for r in runs)
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload and r["result"]]
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in mine]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            print(f"{workload:9s} {m['name']:12s} median {med:.4g} "
                  f"{m['unit']}, quartiles {q1:.4g}..{q3:.4g}, spread "
                  f"{share:.3f} of median (bound {m['bound']}, "
                  f"{'within a third' if share < m['bound'] / 3 else 'WIDE'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
