"""Verdict lattice, report aggregation and the universality gate."""

import dataclasses

import numpy as np
import pytest

from tanbun import splitting, universal, vb
from tanbun.bundle import induce_addition
from tanbun.corpus import bump_bundle, trivial_bundle
from tanbun.expr import CheckConfig, EqVerdict
from tanbun.report import (
    CheckReport, LawResult, Refused, Verdict, law_from_verdict, sampled_law,
)


def _law(law_id, verdict):
    return LawResult(law_id, f"{law_id} anchor", verdict)


def test_aggregate_is_the_worst_entry():
    rep = CheckReport("demo")
    rep.add(_law("a", Verdict.PASS_EXACT))
    rep.add(_law("b", Verdict.PASS_NUMERIC))
    assert rep.aggregate is Verdict.PASS_NUMERIC
    rep.add(_law("c", Verdict.UNKNOWN))
    assert rep.aggregate is Verdict.UNKNOWN
    rep.add(_law("d", Verdict.FAIL))
    assert rep.aggregate is Verdict.FAIL
    assert not rep.ok
    # the same rule, called on bare verdicts
    assert Verdict.reduce(e.verdict for e in rep.entries) is Verdict.FAIL
    assert Verdict.reduce([Verdict.PASS_EXACT, Verdict.SKIPPED,
                           Verdict.UNKNOWN]) is Verdict.UNKNOWN
    assert Verdict.reduce([Verdict.SKIPPED, Verdict.PASS_EXACT]) \
        is Verdict.PASS_EXACT
    assert Verdict.reduce([Verdict.PASS_EXACT, Verdict.PASS_NUMERIC]) \
        is Verdict.PASS_NUMERIC
    assert Verdict.reduce([Verdict.SKIPPED]) is Verdict.SKIPPED
    assert Verdict.reduce([]) is Verdict.SKIPPED


def test_all_exact_aggregates_exact():
    rep = CheckReport("demo")
    rep.add(_law("a", Verdict.PASS_EXACT))
    rep.add(_law("b", Verdict.PASS_EXACT))
    assert rep.aggregate is Verdict.PASS_EXACT
    assert rep.ok


def test_skipped_entries_do_not_poison_the_aggregate():
    rep = CheckReport("demo")
    rep.add(_law("a", Verdict.PASS_EXACT))
    rep.add(_law("b", Verdict.SKIPPED))
    assert rep.aggregate is Verdict.PASS_EXACT


def test_duplicate_law_ids_are_rejected():
    rep = CheckReport("demo")
    rep.add(_law("a", Verdict.PASS_EXACT))
    with pytest.raises(ValueError):
        rep.add(_law("a", Verdict.FAIL))


def test_lookup_and_failures():
    rep = CheckReport("demo")
    rep.add(_law("good", Verdict.PASS_NUMERIC))
    rep.add(_law("bad", Verdict.FAIL))
    assert rep["bad"].verdict is Verdict.FAIL
    assert [e.law_id for e in rep.failures()] == ["bad"]
    with pytest.raises(KeyError):
        rep["missing"]


def test_law_from_verdict_maps_equality_kinds():
    eq = EqVerdict(kind="equal")
    ne = EqVerdict(kind="not-equal", witness=(0.0,), max_residual=1.0)
    un = EqVerdict(kind="unknown", reason="solver gave up")
    assert law_from_verdict("x", "a", eq).verdict is Verdict.PASS_EXACT
    bad = law_from_verdict("x", "a", ne)
    assert bad.verdict is Verdict.FAIL and bad.witness == (0.0,)
    res = law_from_verdict("x", "a", un)
    assert res.verdict is Verdict.UNKNOWN and "solver" in res.note


def test_describe_mentions_every_law():
    rep = CheckReport("demo")
    rep.add(_law("first", Verdict.PASS_EXACT))
    rep.add(_law("second", Verdict.FAIL))
    text = rep.describe()
    assert "first" in text and "second" in text


def test_sampled_law_fails_at_the_first_gap_not_within_tol():
    # The one rule of expr.worst_row: the largest gap above tol fails the
    # law, wherever it sits among the samples; with none, the first NaN
    # gap reads unknown.  The witness is the judged sample's inputs, flat,
    # and max_residual the largest gap that is a number.
    inputs = [(0.5, [1.0, 2.0]), (1.5, [3.0, 4.0]), (2.5, [5.0, 6.0])]
    ok = sampled_law("a", "", [0.0, 1e-12, 0.0], inputs, 1e-9, {"n": 3})
    assert ok.verdict is Verdict.PASS_NUMERIC and ok.witness is None
    assert ok.max_residual == 1e-12 and ok.provenance == {"n": 3}
    for gaps, worst in (([1.0, np.nan, 2.0], 2), ([3.0, 2.0, np.nan], 0),
                        ([np.inf, 1.0, 0.0], 0)):
        res = sampled_law("a", "", gaps, inputs, 1e-9, {})
        assert res.verdict is Verdict.FAIL and res.note == ""
        assert res.max_residual == gaps[worst]
        assert res.witness == (np.hstack(inputs[worst]).tolist(),)
    # a NaN gap never passes: it reads unknown and names its sample
    for gaps, first, top in (([0.0, np.nan, 1e-12], 1, 1e-12),
                             ([np.nan] * 3, 0, 0.0)):
        res = sampled_law("a", "", gaps, inputs, 1e-9, {})
        assert res.verdict is Verdict.UNKNOWN
        assert res.note == "residual is not a number"
        assert res.max_residual == top
        assert res.witness == (np.hstack(inputs[first]).tolist(),)
    empty = sampled_law("a", "", [], [], 1e-9, {})
    assert empty.verdict is Verdict.PASS_NUMERIC and empty.max_residual == 0.0


# The four constructions behind a universality gate: three raise a
# Refused, and biproduct_check reports its gate as its first entry.
GATED = {
    "induce_addition": induce_addition,
    "splitting_pair": splitting.splitting_pair,
    "phi": vb.phi,
    "biproduct_check": splitting.biproduct_check,
}
CFG = CheckConfig(count=40, seed=42)


def _gate_entry(name, spec, universality):
    """The gate's entry when the construction is refused, else None."""
    try:
        out = GATED[name](spec, CFG, universality=universality)
    except Refused as exc:
        return exc.law("gate", "")
    if name == "biproduct_check" and out.entries[0].law_id == "strong-gate":
        return out.entries[0]
    return None


def _squares_checked(monkeypatch) -> list:
    """The check_pullback calls made from here on, from every module that
    calls it."""
    calls = []
    for module in (universal, splitting, vb):
        real = module.check_pullback
        monkeypatch.setattr(module, "check_pullback",
                            lambda *a, _real=real: calls.append(a) or
                            _real(*a))
    return calls


@pytest.mark.parametrize("name", sorted(GATED))
def test_every_gate_checks_its_square_when_no_verdict_is_given(monkeypatch,
                                                                name):
    # bump_bundle's lift is not universal: its squares fail on rank
    square = "strong" if name == "biproduct_check" else "rosicky"
    entry = _gate_entry(name, bump_bundle(), None)
    assert entry is not None and entry.verdict is Verdict.FAIL
    assert "universality verdict is fail" in entry.note
    assert entry.note.endswith(
        f"the gate checked bump_counterexample:{square} itself")

    # on a verdict that passes, the gate checks no square
    calls = _squares_checked(monkeypatch)
    assert _gate_entry(name, bump_bundle(), Verdict.PASS_NUMERIC) is None
    assert calls == []


def test_phi_induces_its_addition_on_the_verdict_it_went_on(monkeypatch):
    # with no verdict and no declared addition, phi checks rosicky once,
    # not once more for the addition
    calls = _squares_checked(monkeypatch)
    spec = dataclasses.replace(trivial_bundle(1, 1), add=None)
    assert _gate_entry("phi", spec, None) is None
    assert len(calls) == 1
