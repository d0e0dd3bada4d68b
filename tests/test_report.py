"""Verdict lattice and report aggregation."""

import pytest

from tanbun.expr import EqVerdict
from tanbun.report import (
    CheckReport, LawResult, Verdict, law_from_verdict,
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
    assert law_from_verdict("x", "a", eq,
                            exact_ok=False).verdict is Verdict.PASS_NUMERIC
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
