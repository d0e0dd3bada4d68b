"""Jet-level pullback checks for the four universality squares."""

import numpy as np
import pytest

from tanbun import universal
from tanbun.expr import (
    CheckConfig, DenominatorNearZero, ExprError, compose, cube, parse_map,
    simplify_map,
)
from tanbun.jet import (
    StackMap, jac_point, solve_batch, solve_least_norm,
    tangent_map, tangent_of,
)
from tanbun.bundle import BundleSpec, Verdict, induce_addition
from tanbun.corpus import bump_bundle, conjugated_bundle, trivial_bundle
from tanbun.universal import (
    CommutingSquare, check_pullback, cockett_square, combined_square,
    cross_check_equivalence, rosicky_square, strong_square,
)

CFG = CheckConfig(count=30, seed=5)

ENTRY_IDS = ["commutes", "injective", "rank", "surjective"]


def _shear_bundle() -> BundleSpec:
    # Trivial bundle over a line with two fibre coordinates, conjugated
    # by the shear (m, a1, a2) -> (m, a1, a2 + a1^2).  The lift stays
    # polynomial but its fibre dependence is quadratic, so every induced
    # operation must go through the implicit solver.
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
# Positive cases


def test_all_four_squares_pass_on_trivial():
    tb = trivial_bundle(1, 1)
    add = induce_addition(tb, CFG)
    for sq in (rosicky_square(tb), cockett_square(tb, add),
               strong_square(tb), combined_square(tb)):
        pv = check_pullback(sq, t_depth=1, cfg=CFG)
        assert pv.ok, sq.name


def test_rosicky_square_entries_on_conjugated():
    pv = check_pullback(rosicky_square(conjugated_bundle()), t_depth=1,
                        cfg=CFG)
    assert pv.aggregate is Verdict.PASS_NUMERIC
    assert [e.law_id for e in pv.entries()] == ENTRY_IDS
    assert all(e.verdict.ok for e in pv.entries())
    assert pv.depth_checked == 1


def test_combined_square_caps_its_own_depth():
    # The combined cone already contains a second-order jet chart; its
    # pullback check refuses to iterate the tangent construction again.
    pv = check_pullback(combined_square(trivial_bundle(1, 1)), t_depth=1,
                        cfg=CFG)
    assert pv.ok
    assert pv.depth_checked == 0


def test_verdict_wraps_into_a_law_result():
    pv = check_pullback(rosicky_square(conjugated_bundle()), t_depth=0,
                        cfg=CFG)
    law = pv.as_result("square-rosicky")
    assert law.law_id == "square-rosicky"
    assert law.verdict.ok
    assert "conjugated_1_1" in law.anchor


def test_equivalence_cross_check_agrees_on_conjugated():
    rep = cross_check_equivalence(conjugated_bundle(), CFG, t_depth=1)
    assert rep.ok
    assert [e.law_id for e in rep.entries] == [
        "square-rosicky", "square-cockett", "square-strong",
        "square-combined", "equivalence"]


# --------------------------------------------------------------------------
# The counterexample


def test_bump_rosicky_fails_on_rank():
    pv = check_pullback(rosicky_square(bump_bundle()), t_depth=1,
                        cfg=CheckConfig(count=40, seed=5))
    assert pv.aggregate is Verdict.FAIL
    bad = {e.law_id: e for e in pv.entries() if e.verdict is Verdict.FAIL}
    assert set(bad) == {"rank"}
    # Witness search pins the degeneracy to the fibre seam over the
    # origin of the base.
    (w,) = bad["rank"].witness
    assert abs(w[0]) < 1e-3 and abs(w[1] - 1.0) < 1e-3


def test_bump_failure_is_shared_by_all_four_squares():
    rep = cross_check_equivalence(bump_bundle(),
                                  CheckConfig(count=40, seed=5), t_depth=1)
    verdicts = {e.law_id: e.verdict for e in rep.entries}
    for key in ("square-rosicky", "square-cockett", "square-strong",
                "square-combined"):
        assert verdicts[key] is Verdict.FAIL, key
    # The squares agree with each other even though each one fails.
    assert verdicts["equivalence"].ok


# --------------------------------------------------------------------------
# Implicit-solver path


def test_cockett_square_accepts_an_implicit_addition():
    shear = _shear_bundle()
    cfg = CheckConfig(count=10, seed=5)
    add = induce_addition(shear, cfg)
    assert not hasattr(add, "components")  # closed form is unavailable
    x = np.array([0.5, 1.0, 2.0, 0.5, -0.3, 0.7])
    assert np.allclose(add.eval_point(x), [0.5, 0.7, 2.1], atol=1e-7)
    pv = check_pullback(cockett_square(shear, add), t_depth=0, cfg=cfg)
    assert pv.ok


def test_shear_rosicky_passes_at_depth_one():
    pv = check_pullback(rosicky_square(_shear_bundle()), t_depth=1, cfg=CFG)
    assert pv.ok


# --------------------------------------------------------------------------
# The batched phases against the sample-by-sample loops they replaced.
# The _ref_* functions are those loops, kept here as the reference.


def _ref_sample_apex(sq, depth, cfg, count):
    rng = cfg.rng(f"{sq.name}:apex:{depth}")
    base = sq.apex_box.sample(rng, count)
    tang = rng.uniform(-1.0, 1.0, (count, ((1 << depth) - 1) * sq.apex_dim))
    raw = np.hstack([base, tang])
    if sq.constraint is None:
        return raw, 0
    g_t = tangent_map(sq.constraint, depth)
    kept, discarded = [], 0
    for z in raw:
        zz = solve_least_norm(g_t, np.zeros(g_t.coarity), z)
        if zz is None:
            discarded += 1
        else:
            kept.append(zz)
    return np.asarray(kept), discarded


def _ref_restricted_sv(top_t, left_t, g_t, z, apex_flat):
    if g_t is None:
        B = np.eye(apex_flat)
    else:
        _, s, vh = np.linalg.svd(jac_point(g_t, z))
        B = vh[universal._numeric_rank(s):].T
    k = B.shape[1]
    if k == 0:
        return np.empty(0), 0
    JF = np.vstack([jac_point(top_t, z), jac_point(left_t, z)])
    return np.linalg.svd(JF @ B, compute_uv=False), k


def _ref_rank_scan(sq, depth, Z, B_img, C_img, top_t, left_t, right_t,
                   bottom_t, g_t, cfg):
    apex_flat = Z.shape[1]
    fp_dims = []
    for b, c in zip(B_img, C_img):
        M = np.hstack([jac_point(right_t, b), -jac_point(bottom_t, c)])
        s = np.linalg.svd(M, compute_uv=False)
        fp_dims.append(M.shape[1] - universal._numeric_rank(s))
    vals, counts = np.unique(fp_dims, return_counts=True)
    modal = int(vals[np.argmax(counts)])
    outliers = int(np.sum(np.asarray(fp_dims) != modal))
    prov = universal._prov(cfg, depth, {"outliers": outliers})
    anchor = "cone Jacobian spans the fibre-product tangent"
    scored = []
    for i in range(len(Z)):
        if fp_dims[i] != modal:
            continue
        s, apex_tdim = _ref_restricted_sv(top_t, left_t, g_t, Z[i],
                                          apex_flat)
        if apex_tdim != modal:
            return universal.LawResult(
                "rank", anchor, Verdict.FAIL, witness=(Z[i].tolist(),),
                note=(f"apex tangent dim {apex_tdim} != fibre-product "
                      f"tangent dim {modal}"), provenance=prov), outliers, None
        if len(s) < apex_tdim or s[0] == 0:
            sigma, ratio = 0.0, 0.0
        else:
            sigma = float(s[apex_tdim - 1])
            ratio = float(s[apex_tdim - 1] / s[0])
        if ratio < universal.RANK_TOL:
            return universal.LawResult(
                "rank", anchor, Verdict.FAIL, witness=(Z[i].tolist(),),
                max_residual=ratio,
                note=f"restricted Jacobian collapse, ratio {ratio:.3g}",
                provenance=prov), outliers, None
        scored.append((sigma, ratio, i))
    scored.sort()
    min_ratio = min((r for _, r, _ in scored), default=1.0)
    res = universal.LawResult(
        "rank", anchor, Verdict.PASS_NUMERIC, max_residual=0.0,
        note=f"min conditioning ratio {min_ratio:.3g}" if scored
        else "no usable samples", provenance=prov)
    info = {"seeds": [i for _, _, i in scored[:4]],
            "min_sigma": scored[0][0] if scored else 1.0,
            "min_ratio": min_ratio}
    return res, outliers, info


def _ref_surjectivity(sq, depth, Z, B_img, C_img, top_t, left_t, right_t,
                      bottom_t, g_t, cfg):
    rng = cfg.rng(f"{sq.name}:surj:{depth}")
    n_try = min(len(Z), max(10, (cfg.count >> depth) // 2))
    fp_map = universal._fp_projector(right_t, bottom_t)
    cone = StackMap(top_t, left_t) if g_t is None \
        else StackMap(top_t, left_t, g_t)
    anchor = "perturbed cone points have preimages"
    stalls = 0
    for i in range(n_try):
        target_raw = np.concatenate([B_img[i], C_img[i]])
        target_raw += rng.normal(0.0, 0.05, target_raw.shape)
        target = solve_least_norm(fp_map, np.zeros(fp_map.coarity),
                                  target_raw)
        if target is None:
            stalls += 1
            continue
        full_target = np.concatenate([target, np.zeros(g_t.coarity)]) \
            if g_t is not None else target
        sols = []
        for s in range(3):
            z0 = Z[i] if s == 0 else Z[i] + rng.normal(0.0, 0.01, Z[i].shape)
            z_hat = solve_least_norm(cone, full_target, z0, tol=1e-10,
                                     max_iter=60)
            if z_hat is not None:
                sols.append(z_hat)
        if len(sols) < 3:
            stalls += 1
            continue
        spread = max(float(np.max(np.abs(a - b)))
                     for ii, a in enumerate(sols) for b in sols[ii + 1:])
        if spread > 1e-7:
            return universal.LawResult(
                "surjective", anchor, Verdict.FAIL,
                witness=(sols[0].tolist(), sols[1].tolist()),
                max_residual=spread,
                note="distinct preimages of one cone point",
                provenance=universal._prov(cfg, depth))
    if stalls:
        return universal.LawResult(
            "surjective", anchor, Verdict.UNKNOWN,
            note=f"{stalls}/{n_try} preimage solves stalled",
            provenance=universal._prov(cfg, depth, {"stalls": stalls}))
    return universal.LawResult(
        "surjective", anchor, Verdict.PASS_NUMERIC,
        note=f"{n_try}/{n_try} preimages recovered from 3 starts each",
        provenance=universal._prov(cfg, depth))


def _outcome(fn, *args):
    """fn's result, or the type and message of the ExprError it raised."""
    try:
        return fn(*args)
    except ExprError as err:
        return type(err), str(err)


def _phase_args(sq, depth, Z):
    top_t, left_t = tangent_of(sq.top, depth), tangent_map(sq.left, depth)
    g_t = tangent_map(sq.constraint, depth) if sq.constraint else None
    return (sq, depth, Z, top_t.eval_batch(Z), left_t.eval_batch(Z),
            top_t, left_t, tangent_of(sq.right, depth),
            tangent_of(sq.bottom, depth), g_t)


def _assert_phases_match(sq, depth, cfg, Z=None):
    if Z is None:
        count = max(20, cfg.count >> depth)
        Z, discarded = universal._sample_apex(sq, depth, cfg, count)
        Z_ref, discarded_ref = _ref_sample_apex(sq, depth, cfg, count)
        assert np.array_equal(Z, Z_ref)
        assert discarded == discarded_ref
    args = _phase_args(sq, depth, Z)
    for phase, ref in ((universal._rank_scan, _ref_rank_scan),
                       (universal._surjectivity, _ref_surjectivity)):
        assert _outcome(phase, *args, cfg) == _outcome(ref, *args, cfg)


def _squares():
    tb, conj = trivial_bundle(1, 1), conjugated_bundle()
    return [
        (rosicky_square(conj), 1), (strong_square(conj), 1),
        (cockett_square(tb, induce_addition(tb, CFG)), 1),
        (combined_square(tb), 0), (rosicky_square(bump_bundle()), 1),
    ]


@pytest.mark.parametrize("which", range(5))
def test_batched_phases_match_the_sample_loops(which):
    sq, depth = _squares()[which]
    for d in range(depth + 1):
        _assert_phases_match(sq, d, CFG)


def _toy_square(name, apex_dim, top, left, right, bottom, constraint=None):
    top, left = parse_map(top, apex_dim), parse_map(left, apex_dim)
    return CommutingSquare(
        name=name, apex_dim=apex_dim, apex_box=cube(apex_dim),
        constraint=constraint and parse_map(constraint, apex_dim),
        top=top, left=left, right=parse_map(right, top.coarity),
        bottom=parse_map(bottom, left.coarity))


# The fibre product of (bump, 1/2) is {b = 1/2}: Newton from a noisy b
# finds it inside the step of the bump and stalls on the flat parts, so
# some tries stall and the random stream must be rewound after each.
# With the cone (z0 + z2, z1) every preimage is a line, so the first
# try that does not stall fails with a witness read from that stream.
STALLING = ("stall", 2, "x0", "x1", "bump(x0)", "1/2")
STALL_THEN_FAIL = ("stall-fail", 3, "x0 + x2", "x1", "bump(x0)", "1/2")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_surjectivity_rewinds_the_stream_after_stalled_tries(seed,
                                                            monkeypatch):
    fp_rows = []

    def counting_solve_batch(f, targets, starts, **kw):
        if not isinstance(f, StackMap):      # the fibre-product solves
            fp_rows.append(len(starts))
        return solve_batch(f, targets, starts, **kw)

    monkeypatch.setattr(universal, "solve_batch", counting_solve_batch)
    cfg = CheckConfig(count=40, seed=seed)
    rng = np.random.default_rng(seed)
    sq = _toy_square(*STALLING)
    Z = np.column_stack([rng.choice([0.0, 0.5, 1.0, 1.5, -0.5], 40),
                         rng.uniform(-1, 1, 40)])
    res = universal._surjectivity(*_phase_args(sq, 0, Z), cfg)
    assert res == _ref_surjectivity(*_phase_args(sq, 0, Z), cfg)
    assert res.verdict is Verdict.UNKNOWN
    assert 0 < res.provenance["stalls"] < 20
    # the rewinds redo solves, but at most a few per try
    assert len(fp_rows) > 1 and sum(fp_rows) <= 4 * 20

    sq = _toy_square(*STALL_THEN_FAIL)
    Z = np.column_stack([[-1.0, 2.0, 0.0, 0.25] + [0.5] * 36,
                         rng.uniform(-1, 1, (40, 2))])
    res = universal._surjectivity(*_phase_args(sq, 0, Z), cfg)
    assert res == _ref_surjectivity(*_phase_args(sq, 0, Z), cfg)
    assert res.verdict is Verdict.FAIL


def test_rank_scan_reports_the_first_collapse_in_sample_order():
    # the cone loses rank where bump(x0) = 0, i.e. x0 <= 0
    sq = _toy_square("collapse", 2, "x0, x1*bump(x0)", "x0, x1*bump(x0)",
                     "x0, x1", "x0, x1")
    _assert_phases_match(sq, 0, CFG)
    res, _, _ = universal._rank_scan(*_phase_args(sq, 0, np.array(
        [[1.5, 0.3], [0.5, 0.2], [-0.5, 0.7], [-1.0, 0.1]])), CFG)
    assert res.verdict is Verdict.FAIL
    assert res.witness == ([-0.5, 0.7],)


def test_rank_scan_falls_back_to_sample_order_on_jacobian_errors():
    # the Jacobian of x1/x1 has a pole at x1 = 1e-7 where its value has
    # none: the scan fails before reaching that sample in the first
    # order, and raises there in the second, as the sample loop did
    sq = _toy_square("pole", 2, "x0, x1*bump(x0)", "x0, x1*bump(x0)*(x1/x1)",
                     "x0, x1", "x0, x1")
    good, pole, flat = [1.5, 0.3], [1.5, 1e-7], [-0.5, 0.7]
    for rows in ([good, flat, pole], [good, pole, flat]):
        args = _phase_args(sq, 0, np.array(rows))
        got = _outcome(universal._rank_scan, *args, CFG)
        assert got == _outcome(_ref_rank_scan, *args, CFG)
    assert got[0] is DenominatorNearZero


def test_apex_projection_discards_the_samples_the_loop_discards():
    sq = _toy_square("discard", 2, "x0", "x1", "x0", "x0",
                     constraint="bump(x0) - 1/2")
    Z, discarded = universal._sample_apex(sq, 0, CFG, 40)
    Z_ref, discarded_ref = _ref_sample_apex(sq, 0, CFG, 40)
    assert np.array_equal(Z, Z_ref)
    assert discarded == discarded_ref > 0


def test_collision_scan_finds_the_first_pair_in_order():
    Z = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    F = np.array([[5.0], [7.0], [6.0], [7.0], [6.0]])
    assert universal._collision(Z, F) == (1, 3)
    assert universal._collision(Z, Z) is None
    # one point listed twice is not a collision
    assert universal._collision(np.vstack([Z, Z[:1]]),
                                np.vstack([Z, Z[:1]])) is None
