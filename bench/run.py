"""tanbun benchmark: one workload, one run, one JSON line at the end.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It uses the tanbun sources under
``src/`` (nothing is installed) and exits with code 2, printing no
result, when they are missing.

Each run starts fresh processes with BLAS and OpenMP pinned to one
thread: four that only set up (``import tanbun`` and build the inputs),
then the worker, which sets up once more and runs the workload (see
worker.py).  The host's speed is measured by a calibration loop around
set-up and between items, and times are scaled to a reference speed
(see worker.py): ``setup_s`` is the median of the five scaled set-ups,
``wall_ref_s`` the median scaled pass time.  The unscaled figures are
printed before the JSON line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics, from a traced pass that
must give the same report digest as the untraced pass before it.  The
last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the provenance, every metric with its unit, the per-item latency
percentiles and the report digest.  The exit code is 1 when an item
misses its known answer or the digests disagree.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import CAL_REF_S
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 4
DEADLINE_S = 170
LATENCY_MIN_ITEMS = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
COUNTER_STATS = ("points", "nonpoly", "exact", "refuted", "none", "fail")
SPAN_STATS = ("calls", "self_s", "total_s")


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("TANBUN_SEED", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_worker(argv: list, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + argv
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {DEADLINE_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_value(name: str, spans: dict, counters: dict,
                overhead_s: float) -> float:
    """Value of a per-layer metric `<span name>.<stat>` from a traced
    pass; a layer the workload never entered reads 0."""
    if name == "trace.overhead_s":
        return overhead_s
    prefix, stat = name.rsplit(".", 1)
    span = spans.get(prefix, {})
    calls = span.get("calls", 0)
    if stat in SPAN_STATS:
        return span.get(stat, 0)
    if stat in COUNTER_STATS:
        return counters.get(name, 0)
    if stat == "diverged":
        return counters.get(f"{prefix}.raised.NewtonDiverged", 0)
    if stat == "points_per_call":
        return counters.get(f"{prefix}.points", 0) / calls if calls else 0.0
    if stat == "success_ratio":
        raised = sum(v for k, v in counters.items()
                     if k.startswith(f"{prefix}.raised."))
        bad = counters.get(f"{prefix}.none", 0) + raised
        return (calls - bad) / calls if calls else 0.0
    if stat == "exact_ratio":
        return counters.get(f"{prefix}.exact", 0) / calls if calls else 0.0
    raise BenchError(f"no rule for per-layer metric {name!r}")


def measure(args, root: str, spec: dict) -> tuple:
    """Returns (result JSON object, lines to print before it)."""
    env = child_env(root)
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(root, ".bench_out",
                           f"{args.workload}-{os.getpid()}")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir]
    try:
        setups = [] if args.trace else [
            run_worker(base + ["--setup-only"], env, deadline)
            for _ in range(SETUP_PROBES)]
        res = run_worker(base, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_out"))
        except OSError:
            pass
    passes = res["passes"]
    setups.append(res)

    attempted = sum(len(ps["item_s"]) for ps in passes)
    failures = [f for ps in passes for f in ps["failures"]]
    digests = {ps["digest"] for ps in passes}
    # item latencies from untraced passes only
    timed = passes[:1] if args.trace else passes
    item_s = [t for ps in timed for t in ps["item_s"]]
    lines = [
        f"workload {args.workload}, seed {args.seed}, seconds "
        f"{args.seconds}, trace {args.trace}; closed loop, one client; "
        f"nproc {os.cpu_count()}, python {res['versions']['python']}, "
        f"numpy {res['versions']['numpy']}, scipy "
        f"{res['versions']['scipy']}, BLAS/OpenMP threads 1",
        f"{len(passes)} passes of {res['items_per_pass']} items; attempted "
        f"{attempted}, failed {len(failures)}, failed_ratio "
        f"{len(failures) / attempted}",
        f"report_digest {passes[0]['digest']}",
    ]
    lines.append(
        f"wall_s {statistics.median(ps['wall_s'] for ps in timed)} s "
        f"(median of {len(timed)} untraced passes, not scaled); "
        f"calibration loop {statistics.median(ps['cal_s'] for ps in passes)}"
        f" s, reference {CAL_REF_S} s; set-up "
        f"{statistics.median(s['setup_raw_s'] for s in setups)} s, not "
        f"scaled (median of {len(setups)})")
    lines += [f"FAILED {name}: {why}" for name, why in failures]
    if len(digests) > 1:
        what = "traced and untraced passes" if args.trace else "passes"
        lines.append(f"DIGEST MISMATCH between {what}: {sorted(digests)}")
    if len(item_s) >= LATENCY_MIN_ITEMS:
        lines.append(f"verdict_s_p50 {percentile(item_s, 50)} s, "
                     f"verdict_s_p90 {percentile(item_s, 90)} s "
                     f"(n = {len(item_s)} items)")
    else:
        lines.append(f"verdict_s_p50/p90 not reported: {len(item_s)} items "
                     f"< {LATENCY_MIN_ITEMS}")

    if args.trace:
        overhead = passes[1]["wall_ref_s"] - passes[0]["wall_ref_s"]
        values = {m["name"]: layer_value(m["name"], res["spans"],
                                         res["counters"], overhead)
                  for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {"wall_ref_s": statistics.median(ps["wall_ref_s"]
                                                  for ps in passes),
                  "setup_s": statistics.median(s["setup_s"]
                                               for s in setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise BenchError("end_to_end metrics in BENCHMARK.json do not "
                             "match the ones this benchmark measures")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    lines += [f"{name} {m['value']} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": not failures and len(digests) == 1,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tanbun", "__init__.py")):
        print("bench: no tanbun sources under src/; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        result, lines = measure(args, root, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
