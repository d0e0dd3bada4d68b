"""Jet-level pullback checks for the four universality squares."""

import dataclasses
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from tanbun import jet, universal
from tanbun.expr import (
    CheckConfig, DenominatorNearZero, ExprError, SmoothMap, Var, compose,
    cube, parse_map, simplify_map, substitute_vars,
)
from tanbun.jet import (
    jac_point, solve_least_norm, tangent_map, tangent_of,
)
from tanbun.bundle import (
    BundleSpec, Verdict, fibre_chart, induce_addition,
)
from tanbun.cli import parse_bundle_file
from tanbun.corpus import (
    bump_bundle, conjugated_bundle, corpus_entry, corpus_run, run_suites,
    trivial_bundle,
)
from tanbun.universal import (
    CommutingSquare, check_pullback, cockett_square, combined_square,
    cross_check_equivalence, rosicky_certificate, rosicky_square,
    strong_square,
)

CFG = CheckConfig(count=30, seed=5)
CFG0 = CheckConfig(count=30, seed=5, t_depth=0)
CFG1 = CheckConfig(count=30, seed=5, t_depth=1)
PASSED = Verdict.PASS_NUMERIC       # a universality verdict that passes

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
    add = induce_addition(tb, PASSED)
    for sq in (rosicky_square(tb), cockett_square(tb, add),
               strong_square(tb), combined_square(tb)):
        pv = check_pullback(sq, CFG1)
        assert pv.ok, sq.name


def test_rosicky_square_entries_on_conjugated():
    pv = check_pullback(rosicky_square(conjugated_bundle()), CFG1)
    assert pv.aggregate is Verdict.PASS_NUMERIC
    assert [e.law_id for e in pv.entries] == ENTRY_IDS
    assert all(e.verdict.ok for e in pv.entries)
    assert pv["commutes"].provenance["depth"] == 1


def test_combined_square_caps_its_own_depth():
    # The combined cone already contains a second-order jet chart; its
    # pullback check refuses to iterate the tangent construction again.
    pv = check_pullback(combined_square(trivial_bundle(1, 1)), CFG1)
    assert pv.ok
    assert pv["commutes"].provenance["depth"] == 0


def test_verdict_wraps_into_a_law_result():
    # a cross-check row is its square's own report reduced to one law:
    # the aggregate, the first witness, the largest residual, the notes
    # joined and the depth the commutes law reached
    for spec, ok in ((conjugated_bundle(), True), (bump_bundle(), False)):
        pv = check_pullback(rosicky_square(spec), CFG0)
        law = cross_check_equivalence(spec, CFG0)["square-rosicky"]
        assert law.verdict is pv.aggregate and law.verdict.ok is ok
        assert law.anchor == f"{spec.name}:rosicky is a jet-stable pullback"
        assert law.witness == (None if ok else pv["rank"].witness)
        assert law.max_residual == max(e.max_residual for e in pv.entries)
        assert law.note == "; ".join(e.note for e in pv.entries if e.note)
        assert law.provenance == {"depth": 0}


def test_equivalence_cross_check_agrees_on_conjugated():
    rep = cross_check_equivalence(conjugated_bundle(), CFG1)
    assert rep.ok
    assert [e.law_id for e in rep.entries] == [
        "square-rosicky", "square-cockett", "square-strong",
        "square-combined", "equivalence"]


# --------------------------------------------------------------------------
# The rosicky certificate: an explicit polynomial inverse of the cone map

POSITIVE = ("trivial_1_1", "trivial_2_3", "tangent_bundle_1",
            "tangent_bundle_2", "conjugated_1_1")


@pytest.mark.parametrize("seed", [42, 1, 23])
@pytest.mark.parametrize("name", POSITIVE)
def test_a_positive_entry_proves_rosicky_by_its_inverse(name, seed):
    cfg = CheckConfig(seed=seed)
    spec = corpus_entry(name).build()
    ros = run_suites(spec, cfg, suite="rosicky")["rosicky"]
    assert [(e.law_id, e.verdict) for e in ros.entries] == [
        (law_id, Verdict.PASS_EXACT) for law_id in ENTRY_IDS]
    inverse = "x0, x1 + x0^2" if name == "conjugated_1_1" \
        else ", ".join(f"x{i}" for i in range(spec.total_dim))
    for e in ros.entries:
        assert e.provenance == {"depth": 2, "inverse": inverse,
                                "certificate": "explicit polynomial inverse"}
    # the sampled check agrees on the square the certificate proved
    assert check_pullback(rosicky_square(spec), cfg).ok


def test_no_certificate_without_an_exact_polynomial_inverse(monkeypatch):
    assert rosicky_certificate(bump_bundle()) is None
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "bench"))
    import workloads
    for name, text in workloads.implicit_texts(1):   # lift not fibre-affine
        assert rosicky_certificate(parse_bundle_file(text, name)[0]) is None
    line = trivial_bundle(1, 1)
    # a builtin past the registry: the certificate neither differentiates
    # nor evaluates it, so it does not raise
    hi_bump = parse_map("x0, 0, 0, x1 + (1/100)*d12bump(x0)", 2)
    assert rosicky_certificate(dataclasses.replace(line, lam=hi_bump)) is None
    # affine over the fibre with A = (1, 0) of full rank, but the vertical
    # block A[k:] = (0) is singular
    singular = dataclasses.replace(line, lam=parse_map("x0, 0, x1, 0", 2))
    assert fibre_chart(singular) is not None
    assert rosicky_certificate(singular) is None


# --------------------------------------------------------------------------
# The counterexample


def test_bump_rosicky_fails_on_rank():
    pv = check_pullback(rosicky_square(bump_bundle()),
                        CheckConfig(count=40, seed=5, t_depth=1))
    assert pv.aggregate is Verdict.FAIL
    bad = {e.law_id: e for e in pv.entries if e.verdict is Verdict.FAIL}
    assert set(bad) == {"rank"}
    # Witness search pins the degeneracy to the fibre seam over the
    # origin of the base.
    (w,) = bad["rank"].witness
    assert abs(w[0]) < 1e-3 and abs(w[1] - 1.0) < 1e-3


def test_bump_failure_is_shared_by_all_four_squares():
    rep = cross_check_equivalence(bump_bundle(),
                                  CheckConfig(count=40, seed=5, t_depth=1))
    verdicts = {e.law_id: e.verdict for e in rep.entries}
    for key in ("square-rosicky", "square-cockett", "square-strong",
                "square-combined"):
        assert verdicts[key] is Verdict.FAIL, key
    # The squares agree with each other even though each one fails.
    assert verdicts["equivalence"].ok


def test_bump_rosicky_fails_on_rank_at_the_seam_at_seeds_1_to_75():
    sq = rosicky_square(bump_bundle())
    for seed in range(1, 76):
        pv = check_pullback(sq, CheckConfig(seed=seed))
        failed = {e.law_id for e in pv.entries if e.verdict is Verdict.FAIL}
        (w,) = pv["rank"].witness
        assert failed == {"rank"}, seed
        assert abs(w[0]) < 1e-3 and abs(w[1] - 1.0) < 1e-3, (seed, w)


# bump's seam moved to x1 = 1 + 793/6000, on the top edge of the fibre
# box; the sample streams are tagged by the name, seam_03
SEAM_03 = "\n".join([
    "name = seam_03", "base_dim = 1", "total_dim = 2", "base_box = -2..2",
    "total_box = -2..2, -2..6793/6000",
    "q = (1 - bump(x1 - (793/6000)))*x0 + bump(x1 - (793/6000))*x0^3",
    "xi = x0, 0",
    "lambda = (1 - bump(x1 - (793/6000)))*x0 + bump(x1 - (793/6000))*x0^3,"
    " 0, 0, x1", ""])


@pytest.mark.parametrize("seed", [12, 14, 27, 40])
def test_the_search_finds_the_seam_collapse_when_it_always_runs(
        monkeypatch, seed):
    # at seed 12 every sample is far enough from a collapse that the gate
    # skips the search, and rosicky passes; forced to run, the search
    # finds the collapse
    monkeypatch.setattr(universal, "SEARCH_GATE", np.inf)
    spec, _ = parse_bundle_file(SEAM_03, source="seam_03")
    reports = run_suites(spec, CheckConfig(seed=seed), "rosicky")
    assert reports["pre"].aggregate.ok
    rank = reports["rosicky"]["rank"]
    assert {e.law_id for e in reports["rosicky"].entries
            if e.verdict is Verdict.FAIL} == {"rank"}
    assert rank.provenance["search"] == "ran"
    (w,) = rank.witness
    assert abs(w[0]) < 1e-3 and w[1] == 6793 / 6000


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(1, 4)],
                         ids=["half", "quarter"])
def test_the_seam_fails_on_rank_in_some_square_at_seed_35(monkeypatch, s):
    # rosicky's search runs here and misses the collapse at (0, 1 + s);
    # today only the depth-0 cockett square refutes it, so the test names
    # no square, only that some rank law fails at the seam
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "bench"))
    import workloads
    spec, _ = parse_bundle_file(workloads.seam_text(s, "seam"), "seam")
    reports = run_suites(spec, CheckConfig(seed=35))
    assert Verdict.reduce(r.aggregate for r in reports.values()) \
        is Verdict.FAIL
    seams = [e.witness[0][:2] for r in reports.values() for e in r.entries
             if e.law_id == "rank" and e.verdict is Verdict.FAIL]
    assert any(abs(w[0]) < 1e-3 and abs(w[1] - (1 + s)) < 1e-3
               for w in seams), seams


# --------------------------------------------------------------------------
# Implicit-solver path


def test_cockett_square_accepts_an_implicit_addition():
    shear = _shear_bundle()
    cfg = CheckConfig(count=10, seed=5)
    add = induce_addition(shear, PASSED)
    assert not hasattr(add, "components")  # closed form is unavailable
    x = np.array([0.5, 1.0, 2.0, 0.5, -0.3, 0.7])
    assert np.allclose(add.eval_point(x), [0.5, 0.7, 2.1], atol=1e-7)
    pv = check_pullback(cockett_square(shear, add),
                        dataclasses.replace(cfg, t_depth=0))
    assert pv.ok


def test_shear_rosicky_passes_at_depth_one():
    pv = check_pullback(rosicky_square(_shear_bundle()), CFG1)
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
        B = vh[_ref_numeric_rank(s):].T
    k = B.shape[1]
    if k == 0:
        return np.empty(0), 0
    JF = np.vstack([jac_point(top_t, z), jac_point(left_t, z)])
    return np.linalg.svd(JF @ B, compute_uv=False), k


def _ref_restricted_svs(top_t, left_t, g_t, Zs, apex_flat):
    """universal._restricted_svs as it was before the restricted-Jacobian
    plan: every call takes each Jacobian and each SVD afresh, through
    jac_batch and np.linalg.svd."""
    if not len(Zs):
        return []
    if g_t is None:
        ranks = np.zeros(len(Zs), dtype=int)
    else:
        _, s, vh = np.linalg.svd(universal._finite(g_t.jac_batch(Zs)))
        ranks = np.array([_ref_numeric_rank(si) for si in s])
    out = [(np.empty(0), 0)] * len(Zs)
    live = np.flatnonzero(ranks < apex_flat)
    if not live.size:
        return out
    JF = universal._finite(np.concatenate([top_t.jac_batch(Zs[live]),
                                           left_t.jac_batch(Zs[live])],
                                          axis=1))
    for r in dict.fromkeys(ranks[live].tolist()):
        group = np.flatnonzero(ranks[live] == r)
        basis = np.eye(apex_flat) if g_t is None \
            else vh[live[group], r:].transpose(0, 2, 1)
        S = np.linalg.svd(np.matmul(JF[group], basis), compute_uv=False)
        for k, sk in zip(live[group], S):
            out[k] = (sk, apex_flat - r)
    return out


def _ref_numeric_rank(s):
    return int(np.sum(s >= universal.RANK_TOL * s[0])) \
        if s.size and s[0] > 0 else 0


def _ref_rank_scan(sq, depth, Z, B_img, C_img, top_t, left_t, right_t,
                   bottom_t, g_t, cfg):
    apex_flat = Z.shape[1]
    fp_dims = []
    for b, c in zip(B_img, C_img):
        M = np.hstack([jac_point(right_t, b), -jac_point(bottom_t, c)])
        s = np.linalg.svd(M, compute_uv=False)
        fp_dims.append(M.shape[1] - _ref_numeric_rank(s))
    vals, counts = np.unique(fp_dims, return_counts=True)
    modal = int(vals[np.argmax(counts)])
    outliers = int(np.sum(np.asarray(fp_dims) != modal))
    prov = {"tol": universal.RANK_TOL, "outliers": outliers}
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
                      f"tangent dim {modal}"), provenance=prov), None
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
                provenance=prov), None
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
    return res, info


def _ref_fp_projector(right_t, bottom_t):
    """The map on stacked (corner, leg) coordinates whose zero set is the
    fibre product of the cospan, which the references solve."""
    nb, nc = right_t.arity, bottom_t.arity
    rshift = {i: Var(i) for i in range(nb)}
    bshift = {i: Var(nb + i) for i in range(nc)}
    return SmoothMap(nb + nc, tuple(
        substitute_vars(r, rshift) - substitute_vars(bt, bshift)
        for r, bt in zip(right_t.components, bottom_t.components)))


def _ref_surjectivity(sq, depth, Z, B_img, C_img, top_t, left_t, right_t,
                      bottom_t, g_t, cfg):
    rng = cfg.rng(f"{sq.name}:surj:{depth}")
    n_try = min(len(Z), max(10, (cfg.count >> depth) // 2))
    fp_map = _ref_fp_projector(right_t, bottom_t)
    legs = (top_t, left_t) if g_t is None else (top_t, left_t, g_t)
    cone = SimpleNamespace(     # the legs' values and Jacobians, stacked
        eval_batch=lambda X: np.hstack([f.eval_batch(X) for f in legs]),
        jac_batch=lambda X: np.concatenate([f.jac_batch(X) for f in legs],
                                           axis=1))
    anchor = "perturbed cone points have preimages"
    stalls = 0
    for i in range(n_try):
        # every try draws its noise and both kicks, found or not
        target_raw = np.concatenate([B_img[i], C_img[i]])
        target_raw += rng.normal(0.0, 0.05, target_raw.shape)
        kicks = [rng.normal(0.0, 0.01, Z[i].shape) for _ in range(2)]
        target = solve_least_norm(fp_map, np.zeros(fp_map.coarity),
                                  target_raw)
        if target is None:
            stalls += 1
            continue
        full_target = np.concatenate([target, np.zeros(g_t.coarity)]) \
            if g_t is not None else target
        sols = []
        for s in range(3):
            z0 = Z[i] if s == 0 else Z[i] + kicks[s - 1]
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
                provenance={"count": n_try, "tol": 1e-7})
    if stalls:
        return universal.LawResult(
            "surjective", anchor, Verdict.UNKNOWN,
            note=f"{stalls}/{n_try} preimage solves stalled",
            provenance={"count": n_try, "tol": 1e-7, "stalls": stalls})
    return universal.LawResult(
        "surjective", anchor, Verdict.PASS_NUMERIC,
        note=f"{n_try}/{n_try} preimages recovered from 3 starts each",
        provenance={"count": n_try, "tol": 1e-7})


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


def _rank_scan(sq, depth, Z, B_img, C_img, top_t, left_t, right_t, bottom_t,
               g_t, cfg):
    """universal._rank_scan through the plan check_pullback builds."""
    plan = universal._RestrictedJacobian(top_t, left_t, g_t, Z.shape[1])
    return universal._rank_scan(Z, B_img, C_img, right_t, bottom_t, plan)


def _assert_phases_match(sq, depth, cfg, Z=None):
    if Z is None:
        count = max(20, cfg.count >> depth)
        Z, discarded = universal._sample_apex(sq, depth, cfg, count)
        Z_ref, discarded_ref = _ref_sample_apex(sq, depth, cfg, count)
        assert np.array_equal(Z, Z_ref)
        assert discarded == discarded_ref
    args = _phase_args(sq, depth, Z)
    for phase, ref in ((_rank_scan, _ref_rank_scan),
                       (universal._surjectivity, _ref_surjectivity)):
        assert _outcome(phase, *args, cfg) == _outcome(ref, *args, cfg)


def _squares():
    tb, conj = trivial_bundle(1, 1), conjugated_bundle()
    return [
        (rosicky_square(conj), 1), (strong_square(conj), 1),
        (cockett_square(tb, induce_addition(tb, PASSED)), 1),
        (combined_square(tb), 0), (rosicky_square(bump_bundle()), 1),
        # a constant constraint and a constant left leg; at depth 2 the
        # apex has 16 coordinates, where the strides of the kernel basis
        # change the bits of the product
        (cockett_square(conj, induce_addition(conj, PASSED)), 2),
        # a constraint whose Jacobian varies: q has the bump in it
        (combined_square(bump_bundle()), 0),
    ]


def _solved_rows_are_finite(F, J, Z, *args):
    """_solve_rows, asserting that the rows it reports solved are finite.
    _surjectivity takes the spreads of all tries in one array max, which
    orders a NaN unlike _ref_surjectivity's Python max; it reads only the
    spreads of solved rows, so these must be finite."""
    ok, errors = jet._solve_rows(F, J, Z, *args)
    assert np.isfinite(Z[ok]).all()
    return ok, errors


@pytest.mark.parametrize("which", range(7))
def test_batched_phases_match_the_sample_loops(which, monkeypatch):
    monkeypatch.setattr(universal, "_solve_rows", _solved_rows_are_finite)
    sq, depth = _squares()[which]
    for d in range(depth + 1):
        _assert_phases_match(sq, d, CFG)
        Z, _ = universal._sample_apex(sq, d, CFG, max(20, CFG.count >> d))
        _assert_restricted_svs_match(sq, d, Z)
    # a constraint whose rank drops at the origin: two kernel dimensions
    sq = _toy_square("kernels", 2, "x0, x1", "x0, x1", "x0, x1", "x0, x1",
                     constraint="x0*x1")
    _assert_restricted_svs_match(sq, 0, np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.3, 0.2], [0.0, 0.0], [0.0, 0.5]]))
    # a dense cone on 16 coordinates and a constraint of rank 4, constant
    # or not: here the strides of a kernel basis change the product's bits
    for g in (DENSE_CONSTRAINT, DENSE_CONSTRAINT.replace(", ", " + x0^2, ")):
        sq = _toy_square("dense", 16, DENSE_TOP, "x0 + x15", "x0, x1, x2",
                         "x0", constraint=g)
        _assert_restricted_svs_match(
            sq, 0, np.random.default_rng(which).uniform(-1, 1, (5, 16)))


DENSE_TOP = ", ".join(" + ".join(
    f"{(i * 7 + j) % 5 + 1}*x{j}*x{(j + i + 1) % 16}" for j in range(16))
    for i in range(3))
DENSE_CONSTRAINT = ", ".join(" + ".join(
    f"{(i * j) % 7 + 1}*x{j}" for j in range(16)) for i in range(4))


def _assert_restricted_svs_match(sq, depth, Z):
    """The plan's restricted singular values, of the whole stack and of
    each row alone, have the bits of the old batched call and of each
    row's own SVD."""
    args = _phase_args(sq, depth, Z)
    top_t, left_t, g_t = args[5], args[6], args[-1]
    plan = universal._RestrictedJacobian(top_t, left_t, g_t, Z.shape[1])
    got = plan(Z)
    assert len(got) == len(Z)
    old = _ref_restricted_svs(top_t, left_t, g_t, Z, Z.shape[1])
    for i, (z, (s, k)) in enumerate(zip(Z, got)):
        s_ref, k_ref = _ref_restricted_sv(top_t, left_t, g_t, z, Z.shape[1])
        assert k == k_ref == old[i][1]
        assert _bits(s) == _bits(s_ref) == _bits(old[i][0])
        s_one, k_one = plan(Z[i:i + 1])[0]
        assert k_one == k and _bits(s_one) == _bits(s)


def _bits(x):
    return None if x is None else np.asarray(x, dtype=float).tobytes()


def test_the_raw_svds_fail_as_np_linalg_svd(capfd):
    A = np.array([[[1.0, 2.0], [3.0, 4.0]], [[np.nan, 1.0], [1.0, 1.0]]])
    s = universal._svd(_umath_linalg.svd, A[:1], "d->d")
    assert _bits(s) == _bits(np.linalg.svd(A[:1], compute_uv=False))
    usv = universal._svd(_umath_linalg.svd_f, A[:1], "d->ddd")
    assert list(map(_bits, usv)) == list(map(_bits, np.linalg.svd(A[:1])))
    failed = "^SVD did not converge$"
    for gufunc, signature, full in ((_umath_linalg.svd, "d->d", False),
                                    (_umath_linalg.svd_f, "d->ddd", True)):
        with pytest.raises(np.linalg.LinAlgError, match=failed):
            np.linalg.svd(A, compute_uv=full)
        with pytest.raises(np.linalg.LinAlgError, match=failed):
            universal._svd(gufunc, A, signature)
    assert capfd.readouterr().out == ""


def test_an_equal_stack_has_one_svd_with_the_bits_of_each_matrix(capfd):
    rng = np.random.default_rng(4)
    for shape in ((50, 36, 48), (200, 18, 22), (3, 5, 2)):
        A = np.broadcast_to(rng.normal(size=shape[1:]), shape).copy()
        s = universal._svd(_umath_linalg.svd, A, "d->d")
        usv = universal._svd(_umath_linalg.svd_f, A, "d->ddd")
        for k in (0, len(A) - 1):
            assert _bits(s[k]) == _bits(np.linalg.svd(A[k],
                                                      compute_uv=False))
            assert [_bits(x[k]) for x in usv] == \
                list(map(_bits, np.linalg.svd(A[k])))
        assert s.shape == shape[:1] + s.shape[1:] and not s.flags.writeable
    # a stack of one NaN matrix fails as np.linalg.svd does
    A = np.full((4, 2, 2), np.nan)
    for gufunc, signature in ((_umath_linalg.svd, "d->d"),
                              (_umath_linalg.svd_f, "d->ddd")):
        with pytest.raises(np.linalg.LinAlgError,
                           match="^SVD did not converge$"):
            universal._svd(gufunc, A, signature)
    assert capfd.readouterr().out == ""


def _stripped(payload):
    for res in payload["results"]:
        del res["seconds"]
    return payload


def test_equal_stacks_leave_the_corpus_reports_as_they_were(monkeypatch):
    # the oracle: the same entries with every stack factored per matrix
    from tanbun.cli import corpus_payload
    cfg = CheckConfig(seed=23)
    names = ("trivial_2_3", "tangent_bundle_2", "mutant_morphism_shift")
    seen, repeats = [], jet._one_matrix

    def spy(A):
        seen.append(repeats(A))
        return seen[-1]

    def reports():
        # the rosicky squares of the two bundles are proved exactly in a
        # corpus run, so their sampled checks join the oracle here
        ros = [check_pullback(rosicky_square(corpus_entry(n).build()), cfg)
               for n in names[:2]]
        return _stripped(corpus_payload([corpus_run(n, cfg) for n in names],
                                        cfg)), ros
    for mod in (jet, universal):
        monkeypatch.setattr(mod, "_one_matrix", spy)
    fast = reports()
    assert sum(seen) > 50       # the entries run through equal stacks
    for mod in (jet, universal):
        monkeypatch.setattr(mod, "_one_matrix", lambda A: False)
    assert fast == reports()


def _toy_square(name, apex_dim, top, left, right, bottom, constraint=None):
    top, left = parse_map(top, apex_dim), parse_map(left, apex_dim)
    return CommutingSquare(
        name=name, apex_dim=apex_dim, apex_box=cube(apex_dim),
        constraint=constraint and parse_map(constraint, apex_dim),
        top=top, left=left, right=parse_map(right, top.coarity),
        bottom=parse_map(bottom, left.coarity))


# The fibre product of (bump, 1/2) is {b = 1/2}: Newton from a noisy b
# finds it inside the step of the bump and stalls on the flat parts, so
# some tries stall.  A stalled try still draws its two kicks, so the
# stream needs no rewind and one solve finds the targets of all tries.
# With the cone (z0 + z2, z1) every preimage is a line, so the first
# try that does not stall fails with a witness read from that stream.
STALLING = ("stall", 2, "x0", "x1", "bump(x0)", "1/2")
STALL_THEN_FAIL = ("stall-fail", 3, "x0 + x2", "x1", "bump(x0)", "1/2")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_surjectivity_rewinds_the_stream_after_stalled_tries(seed,
                                                            monkeypatch):
    solved_rows = []

    def counting_solve_rows(F, J, Z, *args):
        solved_rows.append(len(Z))
        return _solved_rows_are_finite(F, J, Z, *args)

    monkeypatch.setattr(universal, "_solve_rows", counting_solve_rows)
    cfg = CheckConfig(count=40, seed=seed)
    rng = np.random.default_rng(seed)
    sq = _toy_square(*STALLING)
    Z = np.column_stack([rng.choice([0.0, 0.5, 1.0, 1.5, -0.5], 40),
                         rng.uniform(-1, 1, 40)])
    res = universal._surjectivity(*_phase_args(sq, 0, Z), cfg)
    assert res == _ref_surjectivity(*_phase_args(sq, 0, Z), cfg)
    assert res.verdict is Verdict.UNKNOWN
    assert 0 < res.provenance["stalls"] < 20
    # one fibre-product solve of all tries, then one of their preimages
    assert len(solved_rows) == 2 and solved_rows[0] == 20

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
    res, _ = _rank_scan(*_phase_args(sq, 0, np.array(
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
        got = _outcome(_rank_scan, *args, CFG)
        assert got == _outcome(_ref_rank_scan, *args, CFG)
    assert got[0] is DenominatorNearZero


# Above x1 = 0.0066, exp(-exp(1000*x1)) underflows to 0 and
# exp(exp(1000*x1)) overflows: NAN_ABOVE is 0*inf there, NaN, and x1 up
# to rounding below 0.  NAN_JACOBIAN is finite everywhere, but above
# x1 = 0.71, where exp(1000*x1) overflows too, its derivative is 0*inf.
NAN_ABOVE = "x0, x1*exp(-exp(1000*x1))*exp(exp(1000*x1))"
NAN_JACOBIAN = "x0, x1*exp(-exp(1000*x1))"


def test_commutation_reads_unknown_on_a_nan_residual():
    sq = _toy_square("nan", 2, NAN_ABOVE, "x0, x1", "x0, x1", "x0, x1")
    pv = check_pullback(sq, CFG0)
    assert pv["commutes"].verdict is Verdict.UNKNOWN
    assert np.isnan(sq.top.eval_batch(np.array(pv["commutes"].witness))).any()
    assert pv.aggregate is Verdict.UNKNOWN
    # a finite row that refutes comes before the NaN rows
    sq = _toy_square("nan-fail", 2, "x0, x1 + exp(1000*x1) - exp(1000*x1)",
                     "x0, x1", "x0, x1", "x0, x1")
    assert check_pullback(sq, CFG0)["commutes"].verdict is Verdict.FAIL


def test_laws_after_the_one_that_stopped_the_check_read_skipped():
    sq = _toy_square("nan", 2, NAN_ABOVE, "x0, x1", "x0, x1", "x0, x1")
    pv = check_pullback(sq, CFG1)
    assert pv["commutes"].verdict is Verdict.UNKNOWN
    # the depth reached, not the cap
    assert pv["commutes"].provenance["depth"] == 0
    for law in (pv["injective"], pv["rank"], pv["surjective"]):
        assert law.verdict is Verdict.SKIPPED
        assert law.note == "not run: commutes stopped the check at depth 0"
        assert law.provenance == {}
    assert pv.aggregate is Verdict.UNKNOWN

    # the rank search stops bump's rosicky square at depth 0 of 2; the
    # laws before it ran there and say so
    pv = check_pullback(rosicky_square(bump_bundle()), CFG)
    assert pv["rank"].verdict is Verdict.FAIL
    assert pv["commutes"].provenance["depth"] == 0
    assert pv["injective"].verdict is Verdict.PASS_NUMERIC
    assert pv["injective"].provenance["depth"] == 0
    assert pv["surjective"].verdict is Verdict.SKIPPED
    assert pv["surjective"].note == "not run: rank stopped the check at depth 0"


def test_no_law_reads_pass_without_provenance(corpus):
    results, _ = corpus
    laws = [e for res in results.values() for rep in res.reports.values()
            for e in rep.entries]
    sq = _toy_square("nan", 2, NAN_ABOVE, "x0, x1", "x0, x1", "x0, x1")
    laws += check_pullback(sq, CFG0).entries
    assert [e.law_id for e in laws
            if e.verdict is Verdict.PASS_NUMERIC and not e.provenance] == []


def test_rank_scan_reads_unknown_where_a_jacobian_is_not_finite():
    Z = np.array([[0.3, -0.5], [0.3, 0.8], [0.2, 0.9]])
    for sq, part in (
            (_toy_square("cone", 2, NAN_JACOBIAN, NAN_JACOBIAN,
                         "x0, x1", "x0, x1"), "cone"),
            (_toy_square("cospan", 2, "x0, x1", "x0, x1",
                         NAN_JACOBIAN, NAN_JACOBIAN), "cospan")):
        res, info = _rank_scan(*_phase_args(sq, 0, Z), CFG)
        assert res.verdict is Verdict.UNKNOWN and info is None
        assert res.witness == ([0.3, 0.8],)
        assert res.note == f"{part} Jacobian is not finite"


def _two_basins(z):
    """A collapse at x0 = -5 and a floor of 0.01 around x0 = 5."""
    return min(abs(z[0] - 5.0) + 0.01, abs(z[0] + 5.0))


def _batch_of(score, calls=None):
    """A score_batch from a one-point score, noting each batch's points."""
    def score_batch(P):
        if calls is not None:
            calls.append(P.copy())
        return [score(p) for p in P]
    return score_batch


def test_each_poll_scores_the_compass_of_every_live_start_in_one_call():
    def score(z):       # no collapse: sigma 1 plus the distance to a line
        return 1.0 + abs(z[0] + z[1] - 0.4), z
    starts = [np.array([0.0, 0.0]), np.array([1.0, -0.3]),
              np.array([0.3, 0.1])]
    calls = []
    universal.collapse_search(_batch_of(score, calls), starts, -50.0)
    # the first call scores the starts, the second the four compass
    # points of each, in start order, at the first step 0.05: scoring
    # the starts expands no step
    assert np.array_equal(calls[0], starts)
    compass = 0.05 * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])
    assert np.array_equal(calls[1], np.vstack([z + compass for z in starts]))
    # the first two starts move to their first best poll point and double
    # their step; the third lies on the line: no poll point improves on
    # it, so its step shrinks to 1/8
    assert np.array_equal(calls[2][:4], calls[1][0] + 2 * compass)
    assert np.array_equal(calls[2][4:8], calls[1][5] + 2 * compass)
    assert np.array_equal(calls[2][8:], starts[2] + compass / 8)
    # every later call holds 2n points per live start; starts only leave:
    # the third after its 12 polls, the first two together 6 polls later
    sizes = [len(P) for P in calls[1:]]
    assert sizes == [12] * 12 + [8] * 6


def test_a_start_stops_below_the_smallest_step_or_after_400_polls():
    # on a flat score no poll improves: 12 steps of 1/8 take 0.05 below
    # 1e-12
    calls = []
    universal.collapse_search(_batch_of(lambda z: (1.0, z), calls),
                              [np.array([0.2])], -50.0)
    assert len(calls) == 1 + 12
    assert np.array_equal(calls[-1][:, 0], 0.2 + 0.05 / 8 ** 11 * np.array(
        [1.0, -1.0]))
    # on a slope every poll improves, until the polls run out; the step
    # doubles from 0.05 after the first poll, not after the starts, and
    # stops at 0.4, so 400 polls go down 0.05 + 0.1 + 0.2 + 397 * 0.4
    calls = []
    best = universal.collapse_search(
        _batch_of(lambda z: (np.exp(z[0]), z), calls), [np.array([0.0])],
        -1000.0)
    x = [0.0, -0.05, -0.05 - 0.1, -0.05 - 0.1 - 0.2]
    x.append(x[-1] - 0.4)
    steps = [0.05, 0.1, 0.2, 0.4, 0.4]
    for P, z, h in zip(calls[1:], x, steps):
        assert np.array_equal(P[:, 0], [z + h, z - h])
    assert len(calls) == 1 + 400 and abs(best[0] + 159.15) < 1e-9


def test_conjugated_searches_make_at_most_half_the_calls_of_halving(
        monkeypatch):
    # a search that halved its step on failure and never expanded it made
    # 40 score_batch calls on the sampled rosicky square, and 87, 102 and
    # 75 on the cockett, strong and combined squares of a corpus pass
    cfg = CheckConfig(seed=42)
    corpus_run("conjugated_1_1", cfg)       # warm
    counts = []
    search = universal.collapse_search

    def counted(score_batch, starts, deep):
        counts.append(0)

        def batch(P):
            counts[-1] += 1
            return score_batch(P)
        return search(batch, starts, deep)
    monkeypatch.setattr(universal, "collapse_search", counted)
    assert check_pullback(rosicky_square(conjugated_bundle()), cfg).ok
    assert corpus_run("conjugated_1_1", cfg).expectation_met
    assert len(counts) == 4
    assert all(n <= halving // 2
               for n, halving in zip(counts, (40, 87, 102, 75)))


def test_the_first_hitting_call_ends_the_search_at_its_lowest_start():
    deep = float(np.log(1e-3))

    def score(z):
        return _two_basins(z), z
    # the first start never hits, the second and third both hit at their
    # first poll, the second at its first point and the third at its
    # second
    starts = [np.array([4.0]), np.array([-5.05]), np.array([-4.95])]
    calls = []
    best = universal.collapse_search(_batch_of(score, calls), starts, deep)
    assert len(calls) == 2
    assert _bits(best) == _bits(calls[1][2])
    best = universal.collapse_search(_batch_of(score), starts[::-1], deep)
    assert _bits(best) == _bits(calls[1][5])
    # a later start that hits at once wins over an earlier start that
    # would hit later
    starts = [np.array([-3.0]), np.array([-5.0 + 1e-5])]
    calls = []
    best = universal.collapse_search(_batch_of(score, calls), starts, deep)
    assert len(calls) == 1 and _bits(best) == _bits(starts[1])


def test_a_start_moves_on_the_poll_point_and_returns_the_scored_point():
    # the score stands each row for its point rounded to 1/8: the search
    # moves in raw coordinates and returns what a row stood for
    def score(z):
        return 1.0 + abs(z[0] - 0.3), np.round(8 * z) / 8
    calls = []
    best = universal.collapse_search(_batch_of(score, calls),
                                     [np.array([0.0])], -50.0)
    assert np.array_equal(calls[1][:, 0], [0.05, -0.05])
    # from 0.05, which stood for 0.0, at the doubled step 0.1
    assert np.array_equal(calls[2][:, 0], [0.05 + 0.1, 0.05 - 0.1])
    assert best[0] == 0.25


def test_without_a_hit_the_first_best_point_of_the_earliest_start_wins():
    def score(z):
        # a flat floor of sigma 1 on |x0| <= 0.1, never below exp(deep)
        return 1.0 + max(abs(z[0]) - 0.1, 0.0), z
    # both starts reach the floor: the second at once, the first at -0.02
    # after 4 polls, at steps 0.05, 0.1, 0.2 and 0.4, and then at other
    # points
    starts = [np.array([0.73]), np.array([0.05])]
    calls = []
    best = universal.collapse_search(_batch_of(score, calls), starts, -50.0)
    assert calls[4][1, 0] == 0.73 - 0.05 - 0.1 - 0.2 - 0.4
    assert abs(best[0] + 0.02) < 1e-12


def test_an_expr_error_scores_only_its_row_as_none():
    def score(z):
        if 0.5 < z[0] < 2.0:
            raise DenominatorNearZero("pole")
        return _two_basins(z), z

    def score_batch(P):
        return [score(p) for p in P]   # the whole batch raises
    P = np.array([[0.0], [1.0], [3.0]])
    scored = universal._scored(score_batch, P)
    assert scored[1] == (None, None)
    assert [s for s, _ in scored[::2]] == [5.0, 2.01]
    # the first start climbs to the floor at 5; the second stops below
    # the pole, which it never enters
    starts = [np.array([3.0]), np.array([0.3])]
    best = universal.collapse_search(score_batch, starts,
                                     float(np.log(1e-3)))
    assert abs(best[0] - 5.0) < 1e-9
    # a row that scores none is 1e6, which a scored poll point improves
    # on, and is never the best point: with no scored row there is none
    best = universal.collapse_search(score_batch, [np.array([1.97])], -50.0)
    assert abs(best[0] - 5.0) < 1e-9
    assert universal.collapse_search(score_batch, [np.array([1.0])],
                                     -50.0) is None


def test_an_error_that_is_not_an_expr_error_escapes_the_search():
    def score_batch(P):
        raise np.linalg.LinAlgError("SVD did not converge")
    with pytest.raises(np.linalg.LinAlgError):
        universal.collapse_search(score_batch, [np.array([1.0])], -20.0)


def test_face_push_moves_a_plateau_point_onto_the_face_at_its_sigma():
    # sigma is flat at 0 for x1 >= 0.9, where an underflowing builtin
    # would leave a search at any point; every other face raises it
    def score(z):
        return abs(z[0]) + max(0.9 - z[1], 0.0), z
    calls = []
    lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
    z = universal.face_push(_batch_of(score, calls), lo, hi,
                            np.array([0.0, 0.95]))
    assert z.tolist() == [0.0, 1.0] and score(z)[0] == 0.0
    assert [len(P) for P in calls] == [1] * 5

    def pole(z):        # a row that raises is not a candidate
        if z[1] == 1.0:
            raise DenominatorNearZero("pole")
        return score(z)
    z = universal.face_push(_batch_of(pole), lo, hi, np.array([0.0, 0.95]))
    assert z.tolist() == [0.0, 0.95]


def test_the_rank_witness_is_face_pushed_before_its_check(monkeypatch):
    # bump's rosicky witness lies on the seam over the base origin, at
    # the top face of the fibre box, where the search alone stops on the
    # bump's underflow plateau short of it
    pushed = []

    def recorded(score_batch, lo, hi, z):
        pushed.append((z, face_push(score_batch, lo, hi, z)))
        return pushed[-1][1]
    face_push = universal.face_push
    monkeypatch.setattr(universal, "face_push", recorded)
    pv = check_pullback(rosicky_square(bump_bundle()),
                        CheckConfig(count=40, seed=5, t_depth=1))
    (before, after), = pushed
    (w,) = pv["rank"].witness
    assert w == after.tolist() and after[1] == 1.0 != before[1]


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


def _dense_collision(Z, F):
    """The scan over all n x n pairs, one max-norm matrix per array."""
    def gaps(X):
        return np.abs(X[:, None, :] - X[None, :, :]).max(axis=2)
    with np.errstate(invalid="ignore"):
        bad = np.triu((gaps(F) < universal.MATCH_TOL)
                      & (gaps(Z) > universal.DISTINCT_TOL), 1)
    i, j = np.nonzero(bad)
    return (int(i[0]), int(j[0])) if i.size else None


def test_collision_scan_finds_the_pair_of_the_dense_scan():
    rng = np.random.default_rng(9)
    for trial in range(300):
        n, dz, df = rng.integers(0, 25), rng.integers(1, 4), rng.integers(1, 5)
        Z = rng.integers(0, 3, (n, dz)) * rng.choice([1.0, 1e-7, 1e-5])
        F = rng.integers(0, 3, (n, df)) * rng.choice([1.0, 3e-9, 1e10])
        F = F + rng.choice([0.0, 1e-9, 5e-9, 2e-8], F.shape)
        if n and trial % 3 == 0:    # a non-finite image never collides
            F[rng.integers(n), rng.integers(df)] = rng.choice(
                [np.nan, np.inf, -np.inf])
        assert universal._collision(Z, F) == _dense_collision(Z, F), trial
    # degenerate: one constant image column, or every image equal
    Z = rng.normal(size=(200, 3))
    F = np.hstack([np.ones((200, 1)), rng.normal(size=(200, 2))])
    F[150, 1:] = F[60, 1:]
    assert universal._collision(Z, F) == _dense_collision(Z, F) == (60, 150)
    assert universal._collision(Z, np.ones((200, 4))) == (0, 1)
