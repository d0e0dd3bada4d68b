"""Splitting the vertical retraction, biproduct structure, and the
non-example that refuses to split."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tanbun.expr import (
    CheckConfig, compose, cube, parse_map, projection, simplify_map,
    to_source,
)
from tanbun import splitting, universal
from tanbun.jet import ImplicitMap, tangent_map
from tanbun.bundle import BundleSpec, Verdict, check_predifferential
from tanbun.cli import parse_bundle_file
from tanbun.report import CheckReport, LawResult
from tanbun.splitting import (
    biproduct_check, chart_box, check_splitting, chi, chi_checks,
    lift_on_pullback, non_idempotent_demo, splitting_pair,
)
from tanbun.corpus import bump_bundle, conjugated_bundle, trivial_bundle

CFG = CheckConfig(count=40, seed=5)
PASSED = Verdict.PASS_NUMERIC       # a universality verdict that passes


def _shear_bundle() -> BundleSpec:
    phi = parse_map("x0, x1, x2 + x1^2", 3)
    phi_inv = parse_map("x0, x1, x2 - x1^2", 3)
    lam_triv = parse_map("x0, 0, 0, 0, x1, x2", 3)
    lam = simplify_map(compose(tangent_map(phi, 1),
                               compose(lam_triv, phi_inv)))
    return BundleSpec(name="shear", base_dim=1, total_dim=3,
                      base_box=cube(1), total_box=cube(3),
                      q=parse_map("x0", 3), xi=parse_map("x0, 0, 0", 1),
                      lam=lam)


# --------------------------------------------------------------------------
# The vertical retraction


def test_chi_closed_forms():
    assert to_source(chi(trivial_bundle(1, 1))) == "x0, 0, x2"
    assert to_source(chi(conjugated_bundle())) == "x0, 0, x2 - 2*x0*x1"


def test_chi_is_idempotent_pointwise():
    ch = chi(conjugated_bundle())
    x = np.array([0.7, -1.2, 0.4])
    once = ch.eval_point(x)
    assert np.allclose(ch.eval_point(once), once, atol=1e-12)


def test_chi_checks_pass_on_conjugated():
    rep = chi_checks(conjugated_bundle(), CFG)
    assert [e.law_id for e in rep.entries] == [
        "chi-idempotent", "chi-linear", "chi-lift-compat", "chi-rank-trace"]
    assert rep.ok


# --------------------------------------------------------------------------
# Splitting pairs


def test_splitting_pair_closed_forms():
    into, back = splitting_pair(trivial_bundle(1, 1), PASSED)
    assert to_source(into) == "x0, 0, x1"
    assert to_source(back) == "x0, x2"
    into_c, back_c = splitting_pair(conjugated_bundle(), PASSED)
    assert to_source(into_c) == "x0, 0, x1 - x0^2"
    assert to_source(back_c) == "x0, x2 + x0^2 - 2*x0*x1"


def test_splitting_pair_recovers_chi():
    cb = conjugated_bundle()
    into, back = splitting_pair(cb, PASSED)
    ch = chi(cb)
    x = np.array([0.7, -1.2, 0.4])
    # back then into reproduces the retraction; into then back is the
    # identity on the carrier.
    assert np.allclose(into.eval_point(back.eval_point(x)), ch.eval_point(x),
                       atol=1e-12)
    e = np.array([0.7, -1.2])
    assert np.allclose(back.eval_point(into.eval_point(e)), e, atol=1e-12)


def test_check_splitting_passes_exactly_on_conjugated():
    rep = check_splitting(conjugated_bundle(), CFG, PASSED)
    assert [e.law_id for e in rep.entries] == [
        "retract-identity", "section-image", "uniqueness", "equalised"]
    assert rep.aggregate is Verdict.PASS_EXACT


def test_quadratic_fibre_forces_the_implicit_retraction():
    shear = _shear_bundle()
    into, back = splitting_pair(shear, PASSED)
    assert hasattr(into, "components")
    assert not hasattr(back, "components")
    rep = check_splitting(shear, CFG, PASSED)
    assert rep.ok


def test_bump_splitting_gates_on_universality():
    bump = bump_bundle()
    ros = universal.check_pullback(universal.rosicky_square(bump), CFG)
    rep = check_splitting(bump, CFG, ros)
    assert [e.law_id for e in rep.entries] == ["splitting-gate"]
    assert rep.entries[0].verdict is Verdict.FAIL


# --------------------------------------------------------------------------
# Biproduct structure


def test_biproduct_identities_hold_exactly():
    rep = biproduct_check(conjugated_bundle(), CFG, PASSED)
    assert [e.law_id for e in rep.entries] == [
        "pi0-iota0", "pi1-iota0", "pi0-iota1", "pi1-iota1",
        "idempotent-split"]
    assert rep.aggregate is Verdict.PASS_EXACT


def test_biproduct_identities_hold_on_trivial_rank_two():
    rep = biproduct_check(trivial_bundle(1, 2), CFG, PASSED)
    assert rep.ok


# --------------------------------------------------------------------------
# Pulled-back tangent data


def test_pulled_back_tangent_charts_have_expected_arities():
    cb = conjugated_bundle()
    iota = splitting._iota(cb)
    assert chart_box(cb).dim == 3
    assert iota.arity == 3 and iota.coarity == 4


def test_pulled_back_data_forms_a_lawful_bundle():
    cb = conjugated_bundle()
    spec = BundleSpec(name="pullback", base_dim=1, total_dim=3,
                      base_box=cb.base_box, total_box=cube(3),
                      q=projection(3, [0]), xi=parse_map("x0, 0, 0", 1),
                      lam=lift_on_pullback(cb))
    rep = check_predifferential(spec, CFG)
    assert rep.aggregate is Verdict.PASS_EXACT


# --------------------------------------------------------------------------
# The idempotent that is not one


def test_demo_morphism_is_lawful_but_never_splits():
    rep = non_idempotent_demo(CFG)
    got = {e.law_id: e.verdict for e in rep.entries}
    assert got["morphism-laws"].ok
    assert got["not-idempotent"] is Verdict.PASS_EXACT
    assert got["rank-nonconstant"] is Verdict.PASS_EXACT
    assert got["splitting-refused"] is Verdict.PASS_EXACT


def test_the_demo_checks_no_square_and_reads_unknown_as_unknown(monkeypatch):
    # the line bundle's declared addition serves the morphism laws, so no
    # gate checks rosicky for them
    calls = []
    real = universal.check_pullback
    monkeypatch.setattr(universal, "check_pullback",
                        lambda *a: calls.append(a) or real(*a))
    assert non_idempotent_demo(CFG)["morphism-laws"].verdict.ok
    assert calls == []
    # a morphism report that reads unknown refutes nothing
    unknown = CheckReport("m", [LawResult("mor-add", "", Verdict.UNKNOWN)])
    monkeypatch.setattr(splitting, "check_morphism", lambda *a, **k: unknown)
    assert non_idempotent_demo(CFG)["morphism-laws"].verdict is \
        Verdict.UNKNOWN


def test_a_nan_gap_fails_the_sampled_splitting_laws(monkeypatch):
    # a retraction that is inf - inf everywhere: no sample refutes either
    # sampled triangle law, and a NaN never passes, so both read unknown
    # with their first sample as witness
    spec = conjugated_bundle()
    section, K = splitting_pair(spec, PASSED)
    nan = "exp(1000*(x0^2 + 1)) - exp(999*(x0^2 + 1))*exp(x0^2 + 1)"
    poison = parse_map(", ".join(
        [f"x0 + {nan}"] + [f"x{i}" for i in range(1, K.arity)]), K.arity)
    # K after the poison, as a map that is not a SmoothMap
    poisoned = SimpleNamespace(
        eval_batch=lambda X: K.eval_batch(poison.eval_batch(X)))
    monkeypatch.setattr(splitting, "splitting_pair",
                        lambda *a: (section, poisoned))
    monkeypatch.setattr(splitting, "_uniqueness_probe", lambda *a: LawResult(
        "uniqueness", "not probed here", Verdict.PASS_NUMERIC))
    with np.errstate(over="ignore", invalid="ignore"):
        rep = check_splitting(spec, CFG, PASSED)
    rng = CFG.rng("splitting:samples")
    X = spec.total_box.sample(rng, CFG.count)
    Z = chart_box(spec).sample(rng, max(20, CFG.count // 4))
    for law, first in (("retract-identity", X[0]), ("section-image", Z[0])):
        assert rep[law].verdict is Verdict.UNKNOWN, law
        assert rep[law].note == "residual is not a number"
        assert rep[law].max_residual == 0.0
        assert rep[law].witness == (first.tolist(),)


def test_a_failing_rank_trace_names_its_worst_sample(monkeypatch):
    # a fibre matrix (1 + m^2) I: rank 2 and trace 2 + 2m^2, so the gap is
    # 2m^2 and the worst sample is the base point furthest from 0
    spec = trivial_bundle(1, 1)
    monkeypatch.setattr(splitting, "chi", lambda spec: parse_map(
        "x0, (1 + x0^2)*x1, (1 + x0^2)*x2", 3))
    law = chi_checks(spec, CFG)["chi-rank-trace"]
    M = spec.base_box.sample(CFG.rng("chi:rank"), 40)
    m = M[np.argmax(np.abs(M[:, 0]))]
    assert law.verdict is Verdict.FAIL
    assert law.witness == (m.tolist(),)
    assert law.max_residual == pytest.approx(2 * m[0] ** 2, rel=1e-12)


def test_a_failing_uniqueness_probe_names_its_probe():
    # y^2 = 1 has the roots -1 and 1, and the kicked starts reach both
    K = ImplicitMap(parse_map("x1^2 - 1 + 0*x0", 2), 1, 1,
                    lambda Z: np.zeros((len(Z), 1)))
    law = splitting._uniqueness_probe(SimpleNamespace(total_dim=1), K,
                                      cube(1), CFG)
    probes = cube(1).sample(CFG.rng("splitting:uniqueness"), 3)
    assert law.verdict is Verdict.FAIL
    assert law.provenance == {"seed": CFG.seed, "count": 3, "tol": 1e-7}
    assert law.max_residual == pytest.approx(2.0, abs=1e-9)
    assert law.witness[0] in probes.tolist()
    assert law.note.startswith("three Newton starts per probe, spread 2")


def test_a_probe_with_one_converged_start_reads_unknown(monkeypatch):
    # only the first start of each probe converges, so no spread was
    # measured: uniqueness is open, at the first probe
    real = splitting._solve_rows

    def one_start(F, J, Y):
        ok, errors = real(F, J, Y)
        return ok & np.tile([True, False, False], len(ok) // 3), errors
    monkeypatch.setattr(splitting, "_solve_rows", one_start)
    golden = Path(__file__).parent / "golden" / "cubic_lift.txt"
    spec, _ = parse_bundle_file(golden.read_text())
    law = check_splitting(spec, CFG, PASSED)["uniqueness"]
    probes = chart_box(spec).sample(CFG.rng("splitting:uniqueness"), 3)
    assert law.verdict is Verdict.UNKNOWN
    assert law.witness == (probes[0].tolist(),)
    assert law.note == ("1 of 3 Newton starts converged at the witness "
                        "probe, too few to compare")
