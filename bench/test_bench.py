"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench -q

They cover the seeded generators, the tracer's span arithmetic and
rebinding, agreement of traced and untraced runs, a small run of each
workload, and the command's behaviour with and without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
import tracer
import workloads
import worker
from tracer import Tracer, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- generators -------------------------------------------------------------


def test_generators_repeat_for_the_same_seed():
    assert workloads.implicit_texts(5) == workloads.implicit_texts(5)
    assert workloads.refute_inputs(5) == workloads.refute_inputs(5)
    assert workloads.implicit_texts(5) != workloads.implicit_texts(6)
    assert workloads.refute_inputs(5) != workloads.refute_inputs(6)


def test_generated_parameters_stay_in_their_ranges():
    lo, hi = workloads.IMPLICIT_C_RANGE
    for seed in range(20):
        rng = workloads.random.Random(seed)
        cs = workloads._stratified(rng, lo, hi, 4)
        assert all(lo + (hi - lo) * i / 4 <= c < lo + (hi - lo) * (i + 1) / 4
                   for i, c in enumerate(sorted(cs)))
    kinds = [k for k, _, _ in workloads.refute_inputs(3)]
    assert "seam" not in kinds
    assert kinds.count("catalog") == len(workloads.CATALOG_DIMS)
    for kind in workloads.MUTANT_KINDS:
        assert kinds.count(kind) == workloads.REFUTE_BUNDLES_PER_KIND


# -- tracer -----------------------------------------------------------------


def test_self_time_on_a_toy_call_tree():
    # a [0, 10] calls b [1, 3], b [4, 7] (which recurses into b [5, 6])
    # and c [8, 9]
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("b", 4.0, 7.0, 0),
             ("b", 5.0, 6.0, 2), ("c", 8.0, 9.0, 0)]
    s = summarize(spans)
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert s["b"] == {"calls": 3, "total_s": 5.0, "self_s": 5.0}
    assert s["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_wrappers_record_spans_and_pass_exceptions_through():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: next(ticks))

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    w_inner = tr.wrap("inner", inner)

    def outer(x):
        return w_inner(x) + 1

    w_outer = tr.wrap("outer", outer)
    assert w_outer(3) == 7
    with pytest.raises(ValueError, match="negative"):
        w_outer(-1)
    assert tr.counters == {"inner.raised.ValueError": 1,
                           "outer.raised.ValueError": 1}
    assert [(n, p) for n, _, _, p in tr.spans] == [
        ("outer", -1), ("inner", 0), ("outer", -1), ("inner", 2)]
    # each outer call lasts 3 ticks, 1 of them inside inner
    assert summarize(tr.spans)["outer"]["self_s"] == 4.0


def test_install_rebinds_every_holder_and_uninstall_restores():
    import tanbun
    import tanbun.expr
    import tanbun.jet
    import tanbun.universal

    orig_jac = tanbun.expr.jac_eval_batch
    orig_eval = tanbun.jet.ImplicitMap.eval_point
    tr = Tracer()
    tr.install()
    try:
        wrapped = tanbun.expr.jac_eval_batch
        assert wrapped is not orig_jac
        assert tanbun.jet.jac_eval_batch is wrapped
        assert tanbun.jac_eval_batch is wrapped
        assert tanbun.jet.ImplicitMap.eval_point is not orig_eval
        assert tanbun.universal.minimize.__module__.startswith("scipy")
    finally:
        tr.uninstall()
    assert tanbun.expr.jac_eval_batch is orig_jac
    assert tanbun.jet.jac_eval_batch is orig_jac
    assert tanbun.jet.ImplicitMap.eval_point is orig_eval


def test_every_per_layer_metric_has_a_source():
    spec = _spec()
    traced = {f"{m.rsplit('.', 1)[-1]}.{p}" for m, p, _, _ in tracer.TARGETS}
    import tanbun
    entries = {e.name for e in tanbun.corpus_list()}
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            continue
        prefix = name.rsplit(".", 1)[0]
        assert prefix in traced or (
            prefix.startswith("corpus.corpus_run.")
            and prefix.split(".", 2)[2] in entries), name
        run.layer_value(name, {}, {}, 0.0)  # raises when no rule exists
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_ref_s", "setup_s", "peak_rss_mb"}


def test_layer_ratios_use_their_base():
    spans = {"jet.solve_least_norm": {"calls": 10},
             "expr.jac_eval_batch": {"calls": 4}}
    counters = {"jet.solve_least_norm.none": 2,
                "jet.solve_least_norm.raised.ValueError": 1,
                "expr.jac_eval_batch.points": 12}
    assert run.layer_value("jet.solve_least_norm.success_ratio", spans,
                           counters, 0.0) == 0.7
    assert run.layer_value("expr.jac_eval_batch.points_per_call", spans,
                           counters, 0.0) == 3.0


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([3.0], 90) == 3.0


# -- small runs of each workload -------------------------------------------


def _small_items(workload, tmp_path):
    seed = 4
    if workload == "corpus":
        quick = {"bump_counterexample", "mutant_xi_shift", "mutant_flip_lift",
                 "scaling_morphism_nonidempotent"}
        return [i for i in workloads.corpus_items(seed) if i.name in quick]
    if workload == "implicit":
        fname, text = workloads.implicit_texts(seed, files=1)[0]
        path = tmp_path / fname
        path.write_text(text, encoding="utf-8")
        return workloads.implicit_items(seed, [str(path)])
    inputs = workloads.refute_inputs(seed)
    picked = {}
    for kind, name, payload in inputs:
        picked.setdefault(kind, (kind, name, payload))
    return workloads.refute_items(seed, list(picked.values()))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_run_meets_known_answers_and_traces_identically(workload,
                                                              tmp_path):
    items = _small_items(workload, tmp_path)
    assert items
    plain = worker.run_pass(items, workloads)
    assert plain["failures"] == []
    tr = Tracer()
    tr.install()
    try:
        traced = worker.run_pass(items, workloads)
    finally:
        tr.uninstall()
    assert traced["failures"] == []
    assert traced["digest"] == plain["digest"]
    assert tr.spans


@pytest.mark.xfail(strict=True, reason="known false pass: the rosicky check "
                   "misses the rank collapse of this seam at seed 12")
def test_seam_missed_by_the_sampled_rank_check_at_seed_12():
    # the seam's rank collapse sits at (0, 1 + s) on the top edge of the box
    inputs = [("seam", "seam_03",
               workloads.seam_text(Fraction(793, 6000), "seam_03"))]
    out = worker.run_pass(workloads.refute_items(12, inputs), workloads)
    assert out["failures"] == []


def test_seam_rank_collapse_found_at_seed_1():
    inputs = [("seam", "seam_00",
               workloads.seam_text(Fraction(1, 2), "seam_00"))]
    out = worker.run_pass(workloads.refute_items(1, inputs), workloads)
    assert out["failures"] == []


def test_pass_time_is_scaled_by_the_calibration_around_each_stretch(
        monkeypatch):
    # the host runs at half the reference speed, then at the reference
    # speed; one item per stretch
    cals = iter([2 * worker.CAL_REF_S, worker.CAL_REF_S, worker.CAL_REF_S])
    monkeypatch.setattr(worker, "calibrate", lambda: next(cals))
    monkeypatch.setattr(worker, "CAL_EVERY_S", 0.0)
    ticks = iter([0.0, 3.0, 10.0, 12.0])
    monkeypatch.setattr(worker, "clock", lambda: next(ticks))
    items = [workloads.Item(n, lambda: None, lambda r: (r, None))
             for n in "ab"]
    monkeypatch.setattr(workloads, "run_item",
                        lambda item, clock: workloads.Outcome(
                            item.name, 0.0, None, None))
    out = worker.run_pass(items, workloads)
    assert out["wall_s"] == 5.0
    assert out["wall_ref_s"] == 3.0 / 1.5 + 2.0
    assert out["cal_s"] == worker.CAL_REF_S


def test_a_wrong_answer_and_an_exception_count_as_failed():
    def boom():
        raise RuntimeError("broken")

    items = [workloads.Item("raises", boom, lambda r: (r, None)),
             workloads.Item("wrong", lambda: 1, lambda r: (r, "expected 2"))]
    out = worker.run_pass(items, workloads)
    assert [name for name, _ in out["failures"]] == ["raises", "wrong"]
    assert "RuntimeError: broken" in out["failures"][0][1]


# -- the command ------------------------------------------------------------


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_of_its_mode(trace):
    t0 = time.monotonic()
    proc = _bench(ROOT, "--workload", "refute", "--seed", "2", "--seconds",
                  "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    spec = _spec()
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "report_digest" in proc.stdout
    assert time.monotonic() - t0 < 170
    assert not os.path.exists(os.path.join(ROOT, ".bench_out"))


def test_command_refuses_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "corpus", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
