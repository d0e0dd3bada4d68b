"""Translation between fibrewise-linear bundles and lift-presented
bundles, in both directions, with its refusal gates."""

import json
from fractions import Fraction
from inspect import signature
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tanbun import corpus, expr, report, vb as vb_module
from tanbun.expr import (
    Box, CheckConfig, DenominatorNearZero, cube, equal_maps, parse_map,
)
from tanbun.bundle import (
    BundleMorphism, BundleSpec, NotWellTyped, Verdict, check_predifferential,
    fibre_matched_tuples,
)
from tanbun.cli import main, parse_bundle_file
from tanbun.corpus import corpus_entry, run_suites, trivial_bundle
from tanbun.report import CheckReport, LawResult, Refused, sampled_law
from tanbun.vb import (
    VectorBundleSpec, _compare, check_module_laws, morphism_transport_check,
    phi, psi, roundtrip_check, transport_demo_morphisms,
)
from tanbun.universal import check_pullback, rosicky_square

CFG = CheckConfig(count=50, seed=42)
PASSED = Verdict.PASS_NUMERIC       # a universality verdict that passes


def _line_vb() -> VectorBundleSpec:
    return VectorBundleSpec(
        name="line", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1, x0*x2", 3))


def _translated_vb() -> VectorBundleSpec:
    # Same bundle pushed through the chart change a -> a + m^2: the
    # zero section sits on a parabola and every operation is shifted.
    return VectorBundleSpec(
        name="translated", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2, -6, 6),
        q=parse_map("x0", 2), xi=parse_map("x0, x0^2", 1),
        add=parse_map("x0, x1 + x3 - x0^2", 4),
        scalar=parse_map("x1, x0*x2 + x1^2 - x0*x1^2", 3))


def _translated_db() -> BundleSpec:
    return BundleSpec(
        name="translated-db", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2, -6, 6),
        q=parse_map("x0", 2), xi=parse_map("x0, x0^2", 1),
        lam=parse_map("x0, x0^2, 0, x1 - x0^2", 2))


def _bump_db() -> BundleSpec:
    qsrc = "(1 - bump(x1))*x0 + bump(x1)*x0^3"
    return BundleSpec(
        name="bump", base_dim=1, total_dim=2,
        base_box=cube(1),
        total_box=Box(((Fraction(-2), Fraction(2)),
                       (Fraction(-2), Fraction(1)))),
        q=parse_map(qsrc, 2), xi=parse_map("x0, 0", 1),
        lam=parse_map(qsrc + ", 0, 0, x1", 2))


# --------------------------------------------------------------------------
# Module laws


def test_module_laws_pass_on_both_presentations():
    for vb in (_line_vb(), _translated_vb()):
        rep = check_module_laws(vb, CFG)
        assert rep.ok, vb.name
    ids = [e.law_id for e in check_module_laws(_line_vb(), CFG).entries]
    assert ids == ["scalar-unit", "scalar-assoc", "scalar-scalar-distrib",
                   "scalar-add-distrib", "scalar-zero", "scalar-base"]


def test_quadratic_scalar_action_breaks_distributivity():
    bad = VectorBundleSpec(
        name="bad", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1, x0^2*x2", 3))
    rep = check_module_laws(bad, CFG)
    assert {e.law_id for e in rep.entries
            if e.verdict is Verdict.FAIL} == {"scalar-scalar-distrib"}


def _replay(vb, law_id, inputs):
    """The gap of one module law at a witness, read as the law reads its
    inputs: scalars first, then points."""
    d = vb.total_dim
    w = np.asarray(inputs, dtype=float)

    def act(r, a):
        return vb.scalar.eval_point(np.concatenate([[r], a]))

    def add(a, b):
        return vb.add.eval_point(np.concatenate([a, b]))

    def q(a):
        return vb.q.eval_point(a)

    r, s = w[0], w[1]
    lhs, rhs = {
        "scalar-unit": lambda: (act(1.0, w), w),
        "scalar-assoc": lambda: (act(r, act(s, w[2:])), act(r * s, w[2:])),
        "scalar-scalar-distrib": lambda: (
            act(r + s, w[2:]), add(act(r, w[2:]), act(s, w[2:]))),
        "scalar-add-distrib": lambda: (
            act(r, add(w[1:1 + d], w[1 + d:])),
            add(act(r, w[1:1 + d]), act(r, w[1 + d:]))),
        "scalar-zero": lambda: (act(0.0, w), vb.xi.eval_point(q(w))),
        "scalar-base": lambda: (q(act(r, w[1:])), q(w[1:])),
    }[law_id]()
    return float(np.max(np.abs(lhs - rhs)))


def test_every_failing_module_law_has_a_replayable_witness():
    # an action that breaks all six laws, and the quadratic mutant
    broken = VectorBundleSpec(
        name="broken", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1 + x0, x0^2*x2 + 1", 3))
    quadratic = corpus_entry("mutant_scalar_quadratic").build()
    widths = {"scalar-unit": 2, "scalar-assoc": 4,
              "scalar-scalar-distrib": 4, "scalar-add-distrib": 5,
              "scalar-zero": 2, "scalar-base": 3}
    for vb, n_fail in ((broken, 6), (quadratic, 1)):
        rep = check_module_laws(vb, CFG)
        failures = [e for e in rep.entries if e.verdict is Verdict.FAIL]
        assert len(failures) == n_fail, vb.name
        for e in failures:
            (inputs,) = e.witness
            assert len(inputs) == widths[e.law_id]
            assert _replay(vb, e.law_id, inputs) > max(CFG.tol, 1e-9), \
                (vb.name, e.law_id)
        for e in rep.entries:
            assert (e.witness is None) == (e.verdict is not Verdict.FAIL)


BROKEN_SCALAR = """\
name = broken-scalar
base_dim = 1
total_dim = 2
base_box = -2..2
total_box = -2..2, -2..2
q = x0
xi = x0, 0
lambda = x0, 0, 0, x1
add = x0, x1 + x3
scalar = x1, x0^2*x2
"""


def test_a_declared_scalar_that_breaks_the_module_laws_fails(tmp_path,
                                                            capsys):
    # (r + s)^2 e is not r^2 e + s^2 e: the vb suite refutes the declared
    # action with a witness, and does not translate it
    path = tmp_path / "broken.txt"
    path.write_text(BROKEN_SCALAR)
    assert main(["check", str(path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [law for s in doc["suites"] for law in s["laws"]
              if law["verdict"] == "fail"]
    assert [law["law"] for law in failed] == ["vb.scalar-scalar-distrib"]
    vec = corpus._vector_spec_of(parse_bundle_file(BROKEN_SCALAR, "b")[0])
    (inputs,) = failed[0]["witness"]
    assert _replay(vec, "scalar-scalar-distrib", inputs) > max(doc["tol"],
                                                               1e-9)
    (vb_suite,) = [s for s in doc["suites"] if s["id"] == "vb"]
    assert vb_suite["laws"][-1]["law"] == "vb.suite"
    assert vb_suite["laws"][-1]["verdict"] == "skipped"


def test_a_vector_file_checks_its_module_laws_once(monkeypatch):
    # its pre suite is the module laws; the vb suite does not repeat them
    calls = []

    def counted(vb, cfg):
        calls.append(vb.name)
        return check_module_laws(vb, cfg)

    monkeypatch.setattr(corpus, "check_module_laws", counted)
    monkeypatch.setattr(vb_module, "check_module_laws", counted)
    out = run_suites(_line_vb(), CFG)
    assert calls == ["line"]
    assert all(rep.ok for rep in out.values())
    assert not any(e.law_id.startswith("vb.scalar-")
                   for e in out["vb"].entries)


def test_a_nan_gap_fails_its_module_law_with_a_witness():
    # exp(1000) overflows, so acting by one gives inf - inf in the fibre:
    # every gap of scalar-unit is NaN, so the law does not pass, reads
    # unknown, and names its first sample, whose replay is NaN; a vector
    # file reports it in pre, and its round trip does not run, even forced
    nan_at_one = VectorBundleSpec(
        name="nan", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map(
            "x1, x0*x2 + exp(1000*x0) - exp(999*x0)*exp(x0)", 3))
    with np.errstate(over="ignore", invalid="ignore"):
        laws = check_module_laws(nan_at_one, CFG)
        unit = laws["scalar-unit"]
        assert unit.verdict is Verdict.UNKNOWN
        assert unit.note == "residual is not a number"
        (inputs,) = unit.witness
        assert inputs == nan_at_one.total_box.sample(
            CFG.rng("nan:module"), 50)[0].tolist()
        assert np.isnan(_replay(nan_at_one, "scalar-unit", inputs))
        out = run_suites(nan_at_one, CFG, force=True)
    assert repr(out["pre"].entries) == repr(laws.entries)
    (gate,) = [e for e in out["vb"].entries if e.law_id.startswith("vb.")]
    assert gate.law_id == "vb.suite" and gate.verdict is Verdict.SKIPPED
    assert gate.note.startswith("module laws read fail")


def _module_laws_point_by_point(vb, cfg):
    """check_module_laws one sample at a time, each law a Python loop of
    one-point evaluations: the reference the batched laws must match bit
    for bit, raised errors included."""
    rep = CheckReport(f"{vb.name}: module laws")
    tol = max(cfg.tol, 1e-9)
    rng = cfg.rng(f"{vb.name}:module")
    n = min(cfg.count, 120)
    A = vb.total_box.sample(rng, n)
    R = rng.uniform(-2.0, 2.0, n)
    S = rng.uniform(-2.0, 2.0, n)

    def act(r, a):
        return vb.scalar.eval_point(np.concatenate([[r], a]))

    def fibre_sum(a, b):
        return vb.add.eval_point(np.concatenate([a, b]))

    def gap(u, v):
        return np.max(np.abs(u - v))

    def law(law_id, anchor, cases):
        rep.add(sampled_law(law_id, anchor, [g for _, g in cases],
                            [x for x, _ in cases], tol, cfg))

    law("scalar-unit", "acting by one changes nothing",
        [((a,), gap(act(1.0, a), a)) for a in A])
    law("scalar-assoc", "nested actions multiply the scalars",
        [((r, s, a), gap(act(r, act(s, a)), act(r * s, a)))
         for r, s, a in zip(R, S, A)])
    law("scalar-scalar-distrib", "a scalar sum acts as the fibre sum",
        [((r, s, a), gap(act(r + s, a), fibre_sum(act(r, a), act(s, a))))
         for r, s, a in zip(R, S, A)])
    try:
        (first, second), _ = fibre_matched_tuples(
            vb.q, vb.total_box, cfg, width=2, count=n,
            tag=f"{vb.name}:module-pairs")
        law("scalar-add-distrib", "the action distributes over fibre sums",
            [((r, a, b), gap(act(r, fibre_sum(a, b)),
                             fibre_sum(act(r, a), act(r, b))))
             for r, a, b in zip(R, first, second)])
    except NotWellTyped as exc:
        rep.add(LawResult("scalar-add-distrib",
                          "the action distributes over fibre sums",
                          Verdict.UNKNOWN, note=str(exc)))
    law("scalar-zero", "acting by zero lands on the zero section",
        [((a,), gap(act(0.0, a), vb.xi.eval_point(vb.q.eval_point(a))))
         for a in A])
    law("scalar-base", "the action preserves the fibre",
        [((r, a), gap(vb.q.eval_point(act(r, a)), vb.q.eval_point(a)))
         for r, a in zip(R, A)])
    return rep


@pytest.mark.parametrize("seed", [42, 1])
def test_batched_module_laws_match_the_point_by_point_laws(monkeypatch,
                                                           seed):
    seen = []

    def record(vb, cfg):
        seen.append((vb, cfg))
        return check_module_laws(vb, cfg)

    # the vb suite and the mutant's runner read the corpus's name
    monkeypatch.setattr(corpus, "check_module_laws", record)
    cfg = CheckConfig(seed=seed)
    for entry in corpus.corpus_list():
        corpus.corpus_run(entry.name, cfg)
    assert sorted(vb.name for vb, _ in seen) == [
        "conjugated_1_1:vector", "mutant_scalar_quadratic",
        "tangent_bundle_1:vector", "tangent_bundle_2:vector",
        "trivial_1_1:vector", "trivial_2_3:vector"]
    for vb, cfg in seen:
        batched = check_module_laws(vb, cfg).entries
        reference = _module_laws_point_by_point(vb, cfg).entries
        # repr spells every float exactly, NaN included
        assert repr(batched) == repr(reference), vb.name
        if vb.name == "mutant_scalar_quadratic":
            (bad,) = [e for e in reference if e.verdict is Verdict.FAIL]
            assert bad.law_id == "scalar-scalar-distrib" and bad.witness


def test_a_law_raising_on_some_rows_reports_the_first_rows_error():
    # bump(y) is 0 for y <= 0: the first component of the action divides
    # by zero where the base coordinate is not positive, the second where
    # the fibre coordinate is not.  The first sample that raises decides
    # which is reported; at this seed it is the second, which a single
    # evaluation of the whole batch would not reach first.
    vb = VectorBundleSpec(
        name="half-defined", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1 + x0/bump(x1), x0*x2 + x0/bump(x2)", 3))
    cfg = CheckConfig(count=50, seed=1)
    with pytest.raises(DenominatorNearZero) as reference:
        _module_laws_point_by_point(vb, cfg)
    with pytest.raises(DenominatorNearZero) as batched:
        check_module_laws(vb, cfg)
    assert str(batched.value) == str(reference.value)
    assert str(reference.value).endswith("x0/bump(x2)")
    assert run_suites(vb, cfg)["pre"].entries[0].note \
        == f"DenominatorNearZero: {reference.value}"


def test_module_laws_take_the_same_batches_at_any_sample_size(monkeypatch):
    # SmoothMap.eval_batch and its one-point eval_point both call this
    calls = []
    eval_batch = expr.eval_batch

    def counted(f, X):
        calls.append(len(X))
        return eval_batch(f, X)

    monkeypatch.setattr(expr, "eval_batch", counted)
    vb = corpus._vector_spec_of(trivial_bundle(1, 1))
    made = []
    for count in (20, 120):
        calls.clear()
        check_module_laws(vb, CheckConfig(count=count))
        made.append(len(calls))
    assert made[0] == made[1]


# --------------------------------------------------------------------------
# vb -> db


def test_lift_built_from_the_scalar_action_line():
    db = psi(_line_vb())
    v = equal_maps(db.lam, parse_map("x0, 0, 0, x1", 2), cube(2), CFG)
    assert v.kind == "equal"


def test_lift_built_from_the_scalar_action_translated():
    db = psi(_translated_vb())
    v = equal_maps(db.lam, parse_map("x0, x0^2, 0, x1 - x0^2", 2),
                   cube(2, -6, 6), CFG)
    assert v.kind == "equal"


def test_psi_unchecked_skips_the_gate():
    # the vb suite reports the module laws and gates the round trip on
    # them; psi only translates
    bad = VectorBundleSpec(
        name="broken", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1, x0*x2 + 1", 3))
    assert not check_module_laws(bad, CFG).ok
    assert "checked" not in signature(psi).parameters
    v = equal_maps(psi(bad).lam, parse_map("x0, 1, 0, x1", 2), cube(2), CFG)
    assert v.kind == "equal"


def test_psi_refuses_a_newton_defined_lift(monkeypatch):
    """phi of a lift that is not affine in the fibre gives an implicit
    action; psi of it refuses with an ExprError, which a suite reports
    as unknown, instead of a bundle whose lift has no formulas."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    name, text = workloads.implicit_texts(1)[0]
    spec, _ = parse_bundle_file(text, name)
    cfg = CheckConfig(count=20, seed=1)
    with pytest.raises(Refused, match="Newton-defined"):
        check_predifferential(psi(phi(spec, PASSED)), cfg)
    # the round trip still compares the generated lift by sampling
    rep = roundtrip_check(spec, cfg, PASSED)
    assert rep["roundtrip-lift"].verdict is Verdict.PASS_NUMERIC
    assert rep.ok


# --------------------------------------------------------------------------
# db -> vb and round trips


def test_phi_recovers_the_scalar_action():
    vb = phi(_translated_db(), PASSED)
    v = equal_maps(vb.scalar,
                   parse_map("x1, x0*x2 + x1^2 - x0*x1^2", 3),
                   cube(3, -6, 6), CFG)
    assert v.kind != "not-equal"


def _failed_rosicky(db):
    return check_pullback(rosicky_square(db), CheckConfig(count=40, seed=42))


def test_phi_refuses_without_universality():
    db = _bump_db()
    with pytest.raises(Refused):
        phi(db, _failed_rosicky(db))


def test_roundtrip_from_vector_side():
    for vb in (_line_vb(), _translated_vb()):
        rep = roundtrip_check(vb, CFG, PASSED)
        assert rep.ok, vb.name
        ids = {e.law_id for e in rep.entries}
        assert "roundtrip-scalar" in ids
        assert "untouched-projection" in ids


def test_roundtrip_from_lift_side():
    rep = roundtrip_check(_translated_db(), CFG, PASSED)
    assert rep.ok
    assert "roundtrip-lift" in {e.law_id for e in rep.entries}


def test_roundtrip_reports_the_refusal():
    db = _bump_db()
    rep = roundtrip_check(db, CheckConfig(count=40, seed=42),
                          _failed_rosicky(db))
    assert not rep.ok
    assert any(e.verdict is Verdict.FAIL for e in rep.entries)


# --------------------------------------------------------------------------
# Morphism transport


def test_transport_agreement_on_the_demo_morphisms():
    demos = transport_demo_morphisms()
    assert len(demos) == 10
    for name, mor, expected in demos:
        rep = morphism_transport_check(mor, CFG)
        lift_ok = rep["lift-linear"].verdict.ok
        scalar_ok = rep["scalar-preserving"].verdict.ok
        assert rep["transport-agreement"].verdict.ok, name
        assert lift_ok == expected, name
        assert scalar_ok == expected, name


# exp(1000*x0) overflows above x0 = 0.71, where this map is inf - inf
NAN_ABOVE = "x0 + exp(1000*x0) - exp(999*x0)*exp(x0)"


def _sampled(src: str):
    """The map of src, as a map that is not a SmoothMap, so that _compare
    samples it."""
    f = parse_map(src, 1)
    return SimpleNamespace(eval_batch=f.eval_batch, eval_point=f.eval_point)


def test_compare_fails_at_the_first_gap_not_within_tol():
    # Both sides overflow to inf above x0 = 0.71, where their gap is NaN;
    # below it the gap is x0^2 or rounds to 0.  The law fails at the
    # largest gap that is a number, not at the first sample outside tol,
    # and the NaN gaps neither pass nor hide the refutation.
    f = _sampled("exp(1000*x0) + x0^2")
    g = parse_map("exp(1000*x0)", 1)
    cfg = CheckConfig(count=60, seed=3)
    X = cube(1).sample(cfg.rng("roundtrip:probe"), 60)
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.array([np.max(np.abs(f.eval_point(x) - g.eval_point(x)))
                         for x in X])
        res = _compare("probe", "f = g", f, g, cube(1), cfg)
    first = next(k for k, gap in enumerate(gaps) if not gap <= 1e-9)
    worst = int(np.nanargmax(gaps))
    assert np.any(X > 0.72) and np.isnan(gaps).any() and first != worst
    assert res.verdict is Verdict.FAIL
    assert res.max_residual == gaps[worst]
    assert res.witness == (X[worst].tolist(),)


def test_an_all_nan_comparison_fails():
    # every gap is NaN: the comparison does not pass, reads unknown, and
    # names its first sample
    cfg = CheckConfig(count=10)
    with np.errstate(over="ignore", invalid="ignore"):
        res = _compare("t", "a", _sampled(NAN_ABOVE),
                       parse_map("x0", 1), cube(1, 1, 2), cfg)
    X = cube(1, 1, 2).sample(cfg.rng("roundtrip:t"), 10)
    assert res.verdict is Verdict.UNKNOWN
    assert res.note == "residual is not a number"
    assert res.max_residual == 0.0
    assert res.witness == (X[0].tolist(),)


def test_an_all_nan_scalar_gap_fails_the_transport_check():
    line = BundleSpec(
        name="line", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        lam=parse_map("x0, 0, 0, x1", 2))
    nan = NAN_ABOVE.replace("x0", "(x0^2 + 1)")
    mor = BundleMorphism(line, line, parse_map(f"x0, x1 + {nan}", 2))
    cfg = CheckConfig(count=10)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = morphism_transport_check(mor, cfg)
    rng = cfg.rng("transport:scalar")
    X = cube(2).sample(rng, 10)
    r = rng.uniform(-2.0, 2.0, 10)[0]
    # every gap is NaN: the scalar side does not pass, reads unknown with
    # its first sample, and so does the agreement of the two sides
    scalar = rep["scalar-preserving"]
    assert scalar.verdict is Verdict.UNKNOWN
    assert scalar.note == "residual is not a number"
    assert scalar.max_residual == 0.0
    assert scalar.witness == ([r] + X[0].tolist(),)
    agreement = rep["transport-agreement"]
    assert agreement.verdict is Verdict.UNKNOWN
    assert agreement.note == "scalar side inconclusive"


def test_an_unknown_lift_side_reads_unknown_not_fail(monkeypatch):
    # equal_maps could not decide the lift side: lift-linear carries its
    # reason, and the agreement of the two sides is inconclusive
    monkeypatch.setattr(report, "equal_maps", lambda *args: expr.EqVerdict(
        "unknown", reason="evaluation failed: demo"))
    _, mor, _ = transport_demo_morphisms()[0]
    rep = morphism_transport_check(mor, CFG)
    lift = rep["lift-linear"]
    assert lift.verdict is Verdict.UNKNOWN
    assert lift.note == "evaluation failed: demo"
    assert rep["scalar-preserving"].verdict.ok
    agreement = rep["transport-agreement"]
    assert agreement.verdict is Verdict.UNKNOWN
    assert agreement.note == "lift side inconclusive"
