"""Built-in example corpus: builders, staged suite chains, and recorded
expectations."""

import dataclasses

import numpy as np
import pytest

from tanbun import bundle, corpus, universal
from tanbun.expr import CheckConfig
from tanbun.bundle import Verdict, induce_addition
from tanbun.corpus import (
    SUITE_ORDER, UnknownCorpusEntry, bump_bundle, conjugated_bundle,
    corpus_entry, corpus_list, corpus_run, run_suites, tangent_bundle,
    trivial_bundle,
)

CFG = CheckConfig(count=30, seed=5)

NAMES = [
    "trivial_1_1", "trivial_2_3", "tangent_bundle_1", "tangent_bundle_2",
    "conjugated_1_1", "bump_counterexample",
    "scaling_morphism_nonidempotent", "mutant_xi_shift",
    "mutant_lambda_offset", "mutant_lift_coalgebra", "mutant_q_cube",
    "mutant_add_twisted", "mutant_scalar_quadratic",
    "mutant_morphism_shift", "mutant_flip_lift",
]


# --------------------------------------------------------------------------
# Builders


def test_corpus_listing_is_stable():
    assert [e.name for e in corpus_list()] == NAMES


def test_unknown_entry_names_the_alternatives():
    with pytest.raises(UnknownCorpusEntry) as exc:
        corpus_entry("no_such_entry")
    assert "trivial_1_1" in str(exc.value)


def test_trivial_builder_dimensions():
    tb = trivial_bundle(2, 3)
    assert tb.base_dim == 2 and tb.total_dim == 5
    assert tb.q.arity == 5 and tb.q.coarity == 2
    assert tb.lam.coarity == 10


def test_tangent_builder_is_the_square_trivial_case():
    tb = tangent_bundle(2)
    assert tb.base_dim == 2 and tb.total_dim == 4
    assert tb.name == "tangent_bundle_2"


def test_conjugated_builder_zero_section_sits_on_the_parabola():
    cb = conjugated_bundle()
    assert np.allclose(cb.xi.eval_point(np.array([0.5])), [0.5, 0.25])


def test_bump_builder_projection_blends_cubic_into_linear():
    bump = bump_bundle()
    # Fully below the seam the blend is off and the projection is linear.
    assert np.allclose(bump.q.eval_point(np.array([1.5, -1.0])), [1.5])
    # At the top of the box it is the pure cubic.
    assert np.allclose(bump.q.eval_point(np.array([1.5, 1.0])), [1.5 ** 3])


# --------------------------------------------------------------------------
# Staged suites


def test_suite_chain_runs_a_prefix():
    reports = run_suites(trivial_bundle(1, 1), CFG, suite="rosicky")
    assert list(reports) == ["pre", "rosicky"]
    assert all(rep.ok for rep in reports.values())


def test_suite_chain_skips_after_a_failure():
    reports = run_suites(bump_bundle(), CFG, suite="all")
    assert list(reports) == list(SUITE_ORDER)
    assert reports["pre"].ok
    assert not reports["rosicky"].ok
    for later in SUITE_ORDER[2:]:
        entries = reports[later].entries
        assert len(entries) == 1
        assert entries[0].verdict is Verdict.SKIPPED


def test_forced_chain_keeps_running_after_a_failure():
    reports = run_suites(bump_bundle(), CFG, suite="addition", force=True)
    assert not reports["rosicky"].ok
    add_entries = reports["addition"].entries
    assert all(e.verdict is not Verdict.SKIPPED for e in add_entries)
    assert any(e.verdict is Verdict.FAIL for e in add_entries)


def _with_verdict(pv, verdict, law_id="surjective"):
    """pv with one law's verdict rewritten; on a passing square its
    aggregate then reads verdict."""
    return dataclasses.replace(pv, entries=[
        dataclasses.replace(e, verdict=verdict) if e.law_id == law_id else e
        for e in pv.entries])


def _no_certificate(monkeypatch):
    """Let the rosicky square of every bundle go to check_pullback, where
    a test may rewrite its verdict."""
    monkeypatch.setattr(corpus, "rosicky_certificate", lambda spec, cfg: None)


def _record_depths(monkeypatch, rosicky=None) -> dict:
    """{square: cfg.t_depth} for every check_pullback call of the chain;
    rosicky(pv) may rewrite the rosicky verdict, which is then sampled."""
    depths = {}
    real = corpus.check_pullback
    if rosicky:
        _no_certificate(monkeypatch)

    def recording(sq, cfg):
        kind = sq.name.rsplit(":", 1)[1]
        depths[kind] = cfg.t_depth
        pv = real(sq, cfg)
        return rosicky(pv) if rosicky and kind == "rosicky" else pv
    monkeypatch.setattr(corpus, "check_pullback", recording)
    return depths


def test_cockett_and_strong_are_depth_0_checks_after_a_rosicky_pass(
        monkeypatch):
    # trivial_1_1's rosicky square is proved by its certificate at depth
    # 2, so no sampled rosicky check runs
    depths = _record_depths(monkeypatch)
    reports = run_suites(trivial_bundle(1, 1), CFG)
    assert depths == {"cockett": 0, "strong": 0, "combined": 2}
    assert reports["rosicky"].aggregate is Verdict.PASS_EXACT
    assert all(e.provenance["depth"] == 2
               and e.provenance["certificate"] == "explicit polynomial inverse"
               for e in reports["rosicky"].entries)
    for sid in ("cockett", "strong"):
        assert reports[sid].ok
        for e in reports[sid].entries:
            assert e.provenance["depth"] == 0
            assert e.provenance["consistency_check"] == \
                "depth 0, after rosicky passed at depth 2"
    for sid in ("rosicky", "combined"):
        assert all("consistency_check" not in e.provenance
                   for e in reports[sid].entries)


@pytest.mark.parametrize("verdict, force", [(Verdict.UNKNOWN, False),
                                            (Verdict.FAIL, True)])
def test_cockett_and_strong_run_at_full_depth_unless_rosicky_passed(
        monkeypatch, verdict, force):
    depths = _record_depths(monkeypatch,
                            lambda pv: _with_verdict(pv, verdict))
    # the addition is induced whatever rosicky says, so cockett runs too
    monkeypatch.setattr(corpus, "induce_addition",
                        lambda spec, universality: induce_addition(
                            spec, Verdict.PASS_NUMERIC))
    reports = run_suites(trivial_bundle(1, 1), CFG, force=force)
    assert reports["rosicky"].aggregate is verdict
    assert depths["cockett"] == 2 and depths["strong"] == 2
    for sid in ("cockett", "strong"):
        assert reports[sid].ok
        for e in reports[sid].entries:
            assert e.provenance["depth"] == 2
            assert "consistency_check" not in e.provenance


@pytest.mark.parametrize("verdict", [Verdict.UNKNOWN, Verdict.FAIL])
def test_a_gate_reads_the_universality_verdict_it_refused(monkeypatch,
                                                          verdict):
    # a refusal on an unknown verdict refutes nothing, so it reads
    # unknown; a refusal on a failure stays a failure
    _no_certificate(monkeypatch)
    real = corpus.check_pullback

    def rewritten(sq, cfg):
        pv = real(sq, cfg)
        if sq.name.endswith((":rosicky", ":strong")):
            pv = _with_verdict(pv, verdict)
        return pv
    monkeypatch.setattr(corpus, "check_pullback", rewritten)
    reports = run_suites(trivial_bundle(1, 1), CFG, force=True)
    gates = {e.law_id: e.verdict for rep in reports.values()
             for e in rep.entries
             if e.law_id.endswith("gate") or e.law_id == "addition-available"}
    assert gates == dict.fromkeys(
        ["addition-available", "splitting-gate", "strong-gate",
         "db.phi-gate", "vb.phi-gate"], verdict)
    assert "universality verdict is " + verdict.value in \
        reports["addition"].entries[0].note
    assert Verdict.reduce(r.aggregate for r in reports.values()) is verdict


def test_the_cross_check_reads_an_unknown_refusal_as_unknown(monkeypatch):
    real = universal.check_pullback

    def rewritten(sq, cfg):
        pv = real(sq, cfg)
        unknown = sq.name.endswith(":rosicky")
        return _with_verdict(pv, Verdict.UNKNOWN) if unknown else pv
    monkeypatch.setattr(universal, "check_pullback", rewritten)
    rep = universal.cross_check_equivalence(
        trivial_bundle(1, 1), dataclasses.replace(CFG, t_depth=0))
    got = {e.law_id: e.verdict for e in rep.entries}
    assert got["square-cockett"] is Verdict.UNKNOWN
    assert got["equivalence"] is Verdict.FAIL      # the others pass


def test_vector_entry_uses_module_laws_as_its_gate():
    spec = corpus_entry("mutant_scalar_quadratic").build()
    reports = run_suites(spec, CFG, suite="pre")
    assert {e.law_id for e in reports["pre"].entries
            if e.verdict is Verdict.FAIL} == {"scalar-scalar-distrib"}


# --------------------------------------------------------------------------
# Recorded expectations


def test_mutant_run_matches_its_frozen_failure_set():
    res = corpus_run("mutant_lift_coalgebra", CFG)
    assert res.expected == "fail"
    assert res.expectation_met
    assert set(res.failed_laws) == {"pre-2"}


def test_positive_run_meets_expectation_at_reduced_budget():
    res = corpus_run("trivial_1_1", CheckConfig(count=25, seed=5))
    assert res.expected == "pass"
    assert res.aggregate.ok
    assert res.expectation_met
    assert res.failed_laws == ()


def test_counterexample_expectation_is_a_recorded_failure():
    res = corpus_run("bump_counterexample", CFG)
    assert res.expected == "fail"
    assert res.expectation_met
    assert "rank" in res.failed_laws


@pytest.mark.parametrize("name", NAMES[:5])
def test_a_positive_entry_computes_its_fibre_chart_at_most_twice(
        monkeypatch, name):
    # once for the bundle, whose rosicky certificate, addition, scaling
    # and retraction share it, and once for the as-lift bundle of the vb
    # round trip
    calls = []
    real = bundle._fraction_pinv
    monkeypatch.setattr(bundle, "_fraction_pinv",
                        lambda A: calls.append(A) or real(A))
    bundle.fibre_chart.cache_clear()
    assert corpus_run(name, CFG).expectation_met
    assert 1 <= len(calls) <= 2
