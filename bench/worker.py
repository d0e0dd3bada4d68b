"""One workload in one fresh process; started by run.py.

Measures set-up (``import tanbun`` plus building the inputs), then runs
the items as a closed loop: one client, the next item only after the
previous verdict is back.  Untraced, it repeats whole passes while the
next one still fits in ``--seconds`` (always at least one).  Traced, it
runs one untraced pass, installs the tracer and runs one traced pass.
The last line of standard output is a JSON object for run.py.

The speed of a shared host can drift by a factor of two over minutes,
in CPU time as much as in wall time.  So between items, at least every
``CAL_EVERY_S`` seconds, the worker times a fixed calibration loop, and
each stretch of items is also reported scaled to the reference speed at
which that loop takes ``CAL_REF_S`` (the mean of the loops before and
after the stretch).  Set-up is scaled the same way, by loops just before
and just after it.  Calibration time is not part of any measured time.

    python3 bench/worker.py --workload refute --seed 1 --seconds 30 \\
        --trace 0 --workdir .bench_out/w [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

clock = time.perf_counter
CAL_EVERY_S = 0.25
CAL_ROUNDS = 8
# The reference speed: the calibration loop's time, a round figure
# between the 1.2 ms and 2.5 ms it took on the 2-CPU machine the
# benchmark was tuned on, whose speed moved between the two.
CAL_REF_S = 0.002
CAL_DATA = [(i * 0.37) % 1.0 for i in range(1500)]


def calibrate() -> float:
    """Median time of three runs of a fixed loop of interpreted float,
    list and dict work.  It imports nothing and touches no tanbun code,
    so a change to tanbun cannot move it."""
    times = []
    for _ in range(3):
        t0 = clock()
        acc = 0.0
        for _ in range(CAL_ROUNDS):
            d = {}
            for i, x in enumerate(CAL_DATA):
                k = i % 97
                d[k] = d.get(k, 0.0) + x * x
            acc += sum(sorted(d.values())[:10])
        times.append(clock() - t0)
    return statistics.median(times)


def run_pass(items, workloads) -> dict:
    """One pass over the items.  `wall_s` sums the items' stretches;
    `wall_ref_s` sums them scaled to the reference speed."""
    outcomes = []
    wall = wall_ref = stretch = 0.0
    cal_before = calibrate()
    cals = [cal_before]
    for i, item in enumerate(items):
        t0 = clock()
        outcomes.append(workloads.run_item(item, clock))
        stretch += clock() - t0
        if stretch >= CAL_EVERY_S or i == len(items) - 1:
            cal_after = calibrate()
            cals.append(cal_after)
            wall += stretch
            wall_ref += stretch * CAL_REF_S / ((cal_before + cal_after) / 2)
            cal_before, stretch = cal_after, 0.0
    return {"wall_s": wall, "wall_ref_s": wall_ref,
            "cal_s": statistics.median(cals),
            "digest": workloads.report_digest(outcomes),
            "item_s": [o.seconds for o in outcomes],
            "failures": [[o.name, o.error] for o in outcomes if o.error]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    cal_before = calibrate()
    t0 = clock()
    import tanbun  # noqa: F401  (part of set-up)
    import workloads
    items = workloads.build(args.workload, args.seed, args.workdir)
    setup = {"setup_raw_s": clock() - t0}
    setup["setup_s"] = setup["setup_raw_s"] * CAL_REF_S / (
        (cal_before + calibrate()) / 2)
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy
    import scipy
    out = {**setup, "items_per_pass": len(items),
           "versions": {"python": sys.version.split()[0],
                        "numpy": numpy.__version__,
                        "scipy": scipy.__version__}}
    if args.trace:
        from tracer import Tracer, summarize
        untraced = run_pass(items, workloads)
        tr = Tracer(clock)
        tr.install()
        try:
            traced = run_pass(items, workloads)
        finally:
            tr.uninstall()
        out["passes"] = [untraced, traced]
        out["spans"] = summarize(tr.spans)
        out["counters"] = dict(tr.counters)
    else:
        passes = []
        start = clock()
        while True:
            passes.append(run_pass(items, workloads))
            longest = max(ps["wall_s"] for ps in passes)
            if clock() - start + longest > args.seconds:
                break
        out["passes"] = passes
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
