"""Translation between fibrewise-linear bundles and lift-presented
bundles, in both directions, with its refusal gates."""

from fractions import Fraction

import numpy as np
import pytest

from tanbun.expr import Box, CheckConfig, cube, equal_maps, parse_map
from tanbun.jet import Composite, apply_map
from tanbun.bundle import BundleSpec, Verdict
from tanbun.corpus import corpus_entry
from tanbun.vb import (
    ModuleLawsFailed, TranslationRefused, VectorBundleSpec, _compare,
    check_module_laws, del_map, morphism_transport_check, phi, psi,
    roundtrip_check, transport_demo_morphisms,
)

CFG = CheckConfig(count=50, seed=42)


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


def test_del_map_adjoins_a_unit_slot():
    dm = del_map()
    assert (dm.arity, dm.coarity) == (1, 2)
    assert np.allclose(apply_map(dm, [3.5]), [3.5, 1.0])


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
    assert {e.law_id for e in rep.failures()} == {"scalar-scalar-distrib"}


def _replay(vb, law_id, inputs):
    """The gap of one module law at a witness, read as the law reads its
    inputs: scalars first, then points."""
    d = vb.total_dim
    w = np.asarray(inputs, dtype=float)

    def act(r, a):
        return apply_map(vb.scalar, np.concatenate([[r], a]))

    def add(a, b):
        return apply_map(vb.add, np.concatenate([a, b]))

    def q(a):
        return apply_map(vb.q, a)

    r, s = w[0], w[1]
    lhs, rhs = {
        "scalar-unit": lambda: (act(1.0, w), w),
        "scalar-assoc": lambda: (act(r, act(s, w[2:])), act(r * s, w[2:])),
        "scalar-scalar-distrib": lambda: (
            act(r + s, w[2:]), add(act(r, w[2:]), act(s, w[2:]))),
        "scalar-add-distrib": lambda: (
            act(r, add(w[1:1 + d], w[1 + d:])),
            add(act(r, w[1:1 + d]), act(r, w[1 + d:]))),
        "scalar-zero": lambda: (act(0.0, w), apply_map(vb.xi, q(w))),
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
        assert len(rep.failures()) == n_fail, vb.name
        for e in rep.failures():
            (inputs,) = e.witness
            assert len(inputs) == widths[e.law_id]
            assert _replay(vb, e.law_id, inputs) > max(CFG.tol, 1e-9), \
                (vb.name, e.law_id)
        for e in rep.entries:
            assert (e.witness is None) == (e.verdict is not Verdict.FAIL)


def test_a_nan_gap_fails_its_module_law_with_a_witness():
    # exp(1000) overflows, so acting by one gives inf - inf in the fibre
    nan_at_one = VectorBundleSpec(
        name="nan", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map(
            "x1, x0*x2 + exp(1000*x0) - exp(999*x0)*exp(x0)", 3))
    with np.errstate(over="ignore", invalid="ignore"):
        unit = check_module_laws(nan_at_one, CFG)["scalar-unit"]
        assert unit.verdict is Verdict.FAIL
        (inputs,) = unit.witness
        assert np.isnan(_replay(nan_at_one, "scalar-unit", inputs))


# --------------------------------------------------------------------------
# vb -> db


def test_lift_built_from_the_scalar_action_line():
    db = psi(_line_vb(), CFG)
    v = equal_maps(db.lam, parse_map("x0, 0, 0, x1", 2), cube(2), CFG)
    assert v.is_exact


def test_lift_built_from_the_scalar_action_translated():
    db = psi(_translated_vb(), CFG)
    v = equal_maps(db.lam, parse_map("x0, x0^2, 0, x1 - x0^2", 2),
                   cube(2, -6, 6), CFG)
    assert v.is_exact


def test_psi_refuses_a_broken_module():
    bad = VectorBundleSpec(
        name="broken", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1, x0*x2 + 1", 3))
    with pytest.raises(ModuleLawsFailed):
        psi(bad, CFG)


def test_psi_unchecked_skips_the_gate():
    bad = VectorBundleSpec(
        name="broken", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1, x0*x2 + 1", 3))
    db = psi(bad, CFG, checked=False)
    assert db.lam is not None


# --------------------------------------------------------------------------
# db -> vb and round trips


def test_phi_recovers_the_scalar_action():
    vb = phi(_translated_db(), CFG)
    v = equal_maps(vb.scalar,
                   parse_map("x1, x0*x2 + x1^2 - x0*x1^2", 3),
                   cube(3, -6, 6), CFG)
    assert v.kind != "not-equal"


def test_phi_refuses_without_universality():
    with pytest.raises(TranslationRefused):
        phi(_bump_db(), CheckConfig(count=40, seed=42))


def test_roundtrip_from_vector_side():
    for vb in (_line_vb(), _translated_vb()):
        rep = roundtrip_check(vb, CFG)
        assert rep.ok, vb.name
        ids = {e.law_id for e in rep.entries}
        assert "roundtrip-scalar" in ids
        assert "untouched-projection" in ids


def test_roundtrip_from_lift_side():
    rep = roundtrip_check(_translated_db(), CFG)
    assert rep.ok
    assert "roundtrip-lift" in {e.law_id for e in rep.entries}


def test_roundtrip_reports_the_refusal():
    rep = roundtrip_check(_bump_db(), CheckConfig(count=40, seed=42))
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


def test_compare_keeps_the_worst_gap_and_witness_of_the_point_loop():
    # Both sides overflow to inf above x0 = 0.71, where their gap is NaN;
    # below it the gap is x0^2 or rounds to 0.  The loop it replaced kept
    # the first strict maximum above 0.0 and never took a NaN gap.
    f = Composite(parse_map("exp(1000*x0) + x0^2", 1))
    g = parse_map("exp(1000*x0)", 1)
    cfg = CheckConfig(count=60, seed=3)
    X = cube(1).sample(cfg.rng("roundtrip:probe"), 60)
    worst, wit = 0.0, None
    with np.errstate(over="ignore", invalid="ignore"):
        for x in X:
            gap = float(np.max(np.abs(apply_map(f, x) - apply_map(g, x))))
            if gap > worst:
                worst, wit = gap, (x.tolist(),)
        res = _compare("probe", "f = g", f, g, cube(1), cfg)
    assert np.any(X > 0.72) and worst > 1.0
    assert res.max_residual == worst
    assert res.witness == wit
    assert res.verdict is Verdict.FAIL
