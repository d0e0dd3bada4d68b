"""Verdict lattice, report aggregation and the universality gate."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from tanbun import corpus, splitting, universal, vb
from tanbun.bundle import induce_addition
from tanbun.cli import main
from tanbun.corpus import bump_bundle, trivial_bundle
from tanbun.expr import MAX_BUMP_ORDER, CheckConfig, cube, parse_map
from tanbun.report import (
    CheckReport, LawResult, Refused, Verdict, identity_law, sampled_law,
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
    assert [e.law_id for e in rep.entries
            if e.verdict is Verdict.FAIL] == ["bad"]
    with pytest.raises(KeyError):
        rep["missing"]


def test_identity_law_maps_equality_kinds():
    # one pair of maps per kind of equal_maps; only the exact pass, which
    # sampled nothing, records no sampler settings
    cfg = CheckConfig(count=30, seed=5)

    def law(lhs, rhs):
        return identity_law("x", "a", parse_map(lhs, 1), parse_map(rhs, 1),
                            cube(1), cfg)

    eq = law("(x0 + 1)^2", "x0^2 + 2*x0 + 1")
    assert eq.verdict is Verdict.PASS_EXACT and eq.provenance == {}
    num = law("sin(x0)^2", "1 - cos(x0)^2")
    assert num.verdict is Verdict.PASS_NUMERIC and num.note == ""
    bad = law("x0^2", "x0^2 + x0^4")
    assert bad.verdict is Verdict.FAIL and bad.max_residual > cfg.tol
    x, lhs, rhs = bad.witness
    assert lhs[0] == x[0] ** 2 and rhs[0] == x[0] ** 2 + x[0] ** 4
    res = law("x0", "x0 + 1/1000000000000")
    assert res.verdict is Verdict.UNKNOWN and "canonical forms" in res.note
    for judged in (num, bad, res):
        assert judged.provenance == {"seed": 5, "count": 30, "tol": 1e-9}


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
    cfg = CheckConfig(seed=7)
    ok = sampled_law("a", "", [0.0, 1e-12, 0.0], inputs, 1e-9, cfg, n=3)
    assert ok.verdict is Verdict.PASS_NUMERIC and ok.witness is None
    assert ok.max_residual == 1e-12 and ok.provenance == {
        "seed": 7, "count": 3, "tol": 1e-9, "n": 3}
    for gaps, worst in (([1.0, np.nan, 2.0], 2), ([3.0, 2.0, np.nan], 0),
                        ([np.inf, 1.0, 0.0], 0)):
        res = sampled_law("a", "", gaps, inputs, 1e-9, cfg)
        assert res.verdict is Verdict.FAIL and res.note == ""
        assert res.max_residual == gaps[worst]
        assert res.witness == (np.hstack(inputs[worst]).tolist(),)
    # a NaN gap never passes: it reads unknown and names its sample
    for gaps, first, top in (([0.0, np.nan, 1e-12], 1, 1e-12),
                             ([np.nan] * 3, 0, 0.0)):
        res = sampled_law("a", "", gaps, inputs, 1e-9, cfg)
        assert res.verdict is Verdict.UNKNOWN
        assert res.note == "residual is not a number"
        assert res.max_residual == top
        assert res.witness == (np.hstack(inputs[first]).tolist(),)
    empty = sampled_law("a", "", [], [], 1e-9, cfg)
    assert empty.verdict is Verdict.PASS_NUMERIC and empty.max_residual == 0.0


# The four constructions behind a universality gate: three raise a
# Refused, and biproduct_check reports its gate as its first entry.
CFG = CheckConfig(count=40, seed=42)
GATED = {
    "induce_addition": induce_addition,
    "splitting_pair": splitting.splitting_pair,
    "phi": vb.phi,
    "biproduct_check": lambda spec, universality: splitting.biproduct_check(
        spec, CFG, universality),
}


def _gate_entry(name, spec, universality):
    """The gate's entry when the construction is refused, else None."""
    try:
        out = GATED[name](spec, universality)
    except Refused as exc:
        return exc.law("gate", "")
    if name == "biproduct_check" and out.entries[0].law_id == "strong-gate":
        return out.entries[0]
    return None


def _squares_checked(monkeypatch) -> list:
    """The check_pullback calls made from here on, from every module that
    calls it."""
    calls = []
    for module in (universal, corpus):
        real = module.check_pullback
        monkeypatch.setattr(module, "check_pullback",
                            lambda *a, _real=real: calls.append(a) or
                            _real(*a))
    return calls


@pytest.mark.parametrize("name", sorted(GATED))
def test_a_gate_given_no_verdict_refuses_as_unknown_and_checks_no_square(
        monkeypatch, name):
    # bump_bundle's lift is not universal: its squares fail on rank, and
    # a gate handed that verdict refuses as fail
    square = (universal.strong_square if name == "biproduct_check"
              else universal.rosicky_square)(bump_bundle())
    entry = _gate_entry(name, bump_bundle(),
                        universal.check_pullback(square, CFG))
    assert entry is not None and entry.verdict is Verdict.FAIL
    assert entry.note.endswith("universality verdict is fail")

    calls = _squares_checked(monkeypatch)
    for given, note in ((None, "refused, no universality verdict was given"),
                        (Verdict.UNKNOWN, "universality verdict is unknown")):
        entry = _gate_entry(name, bump_bundle(), given)
        assert entry is not None and entry.verdict is Verdict.UNKNOWN
        assert entry.note.endswith(note)
    # on a verdict that passes, the construction goes on
    assert _gate_entry(name, bump_bundle(), Verdict.PASS_NUMERIC) is None
    assert calls == []


def test_phi_induces_its_addition_on_the_verdict_it_went_on(monkeypatch):
    # with no declared addition, phi induces one on the verdict it was
    # handed, and checks no square
    calls = _squares_checked(monkeypatch)
    seen = []
    monkeypatch.setattr(vb, "induce_addition", lambda spec, universality:
                        seen.append(universality) or
                        induce_addition(spec, universality))
    spec = dataclasses.replace(trivial_bundle(1, 1), add=None)
    ros = CheckReport("rosicky", [_law("rank", Verdict.PASS_NUMERIC)])
    assert vb.phi(spec, ros).add is not None
    assert len(seen) == 1 and seen[0] is ros
    assert calls == []


# d12bump's derivative is past the registry, so T(lam) raises: the check
# of every square raises, and no gate is handed a verdict
HI_BUMP = """\
name = hi_bump
base_dim = 1
total_dim = 2
base_box = -2..2
total_box = -2..2, -2..2
q = x0
xi = x0, 0
lambda = x0, 0, 0, x1 + (1/100)*d12bump(x0)
"""


def test_a_square_whose_check_raises_is_checked_once(monkeypatch, tmp_path,
                                                     capsys):
    assert MAX_BUMP_ORDER == 12
    calls = _squares_checked(monkeypatch)
    path = tmp_path / "hi_bump.txt"
    path.write_text(HI_BUMP)
    assert main(["check", str(path), "--samples", "20",
                 "--format", "json"]) == 2
    counts = Counter(sq.name for sq, _ in calls)
    assert counts["hi_bump:rosicky"] == 1 and counts["hi_bump:strong"] == 1
    suites = {s["id"]: s for s in json.loads(capsys.readouterr().out)
              ["suites"]}
    raised = "ExprError: bump derivative order exceeds registry limit"
    assert [law["note"] for law in suites["rosicky"]["laws"]] == [raised]
    # each gate refuses as unknown and says why nothing was built; split
    # and vb report their own laws beside the refusals
    gates = {"addition": ["addition-available"],
             "split": ["chi-idempotent", "chi-linear", "chi-lift-compat",
                       "chi-rank-trace", "splitting-gate", "strong-gate"],
             "vb": ["db.phi-gate"]}
    for sid, law_ids in gates.items():
        laws = suites[sid]["laws"]
        assert [law["law"] for law in laws] == law_ids, sid
        assert suites[sid]["aggregate"] == "unknown", sid
        for law in laws:
            if law["law"].endswith(("-gate", "-available")):
                assert law["verdict"] == "unknown"
                assert law["note"].endswith(
                    "refused, no universality verdict was given")
            else:
                assert law["verdict"] in ("pass", "pass-exact")
