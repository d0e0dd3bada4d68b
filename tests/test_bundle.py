"""Bundle data, the four structural laws, induced fibre operations, and
bundle morphisms."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from tanbun import jet
from tanbun.expr import (
    CheckConfig, Const, DEFAULT_CONFIG, DenominatorNearZero, ExprError,
    SmoothMap, Var, _poly_forms, compose, con, cube, equal_maps,
    eval_batch, identity_map, normalize, parse_map, projection,
    simplify_map, smooth_map, substitute_vars, sum_of,
    symbolic_derivative_expr, to_source,
)
from tanbun.jet import ImplicitMap, NewtonDiverged, solve_least_norm
from tanbun.bundle import (
    BundleMorphism, BundleSpec, Verdict, _implicit_fibre_op, _pairwise,
    check_additive_laws, check_morphism, check_predifferential,
    fibre_chart, fibre_matched_tuples, induce_addition,
    scale_through_lambda, vert_lambda,
)
from tanbun.corpus import (
    bump_bundle, conjugated_bundle, corpus_entry, run_suites, trivial_bundle,
)
from tanbun.report import Refused
from tanbun.splitting import chi, splitting_pair
from tanbun.universal import (
    check_pullback, rosicky_certificate, rosicky_square,
)

CFG = CheckConfig(count=40, seed=5)
PASSED = Verdict.PASS_NUMERIC       # a universality verdict that passes


def _with(spec, **kw):
    return dataclasses.replace(spec, **kw)


# --------------------------------------------------------------------------
# The four structural laws


def test_predifferential_laws_pass_exactly_on_trivial():
    rep = check_predifferential(trivial_bundle(1, 1), CFG)
    assert [e.law_id for e in rep.entries] == ["pre-1", "pre-2", "pre-3",
                                               "pre-4"]
    assert rep.aggregate is Verdict.PASS_EXACT


def test_predifferential_laws_pass_exactly_on_conjugated():
    rep = check_predifferential(conjugated_bundle(), CFG)
    assert rep.aggregate is Verdict.PASS_EXACT


def test_predifferential_passes_numerically_on_nonpolynomial():
    rep = check_predifferential(bump_bundle(), CFG)
    assert rep.ok
    assert rep.aggregate is Verdict.PASS_NUMERIC


def test_offset_lift_breaks_the_expected_laws():
    spec = _with(trivial_bundle(1, 1),
                 lam=parse_map("x0, 0, 0, x1 + 1", 2))
    rep = check_predifferential(spec, CFG)
    assert {e.law_id for e in rep.entries
            if e.verdict is Verdict.FAIL} == {"pre-2", "pre-4"}


def test_cubed_projection_breaks_section_law_first():
    spec = _with(trivial_bundle(1, 1), q=parse_map("x0^3", 2))
    rep = check_predifferential(spec, CFG)
    assert {e.law_id for e in rep.entries
            if e.verdict is Verdict.FAIL} == {"pre-1", "pre-3"}


def test_failure_report_carries_a_witness():
    spec = _with(trivial_bundle(1, 1),
                 lam=parse_map("x0, 0, 0, x1 + 1", 2))
    rep = check_predifferential(spec, CFG)
    bad = rep["pre-4"]
    assert bad.witness is not None


# --------------------------------------------------------------------------
# Induced fibre operations


def test_induced_addition_closed_form_trivial():
    add = induce_addition(trivial_bundle(1, 1), PASSED)
    assert to_source(add) == "x0, x1 + x3"


def test_induced_addition_closed_form_conjugated():
    add = induce_addition(conjugated_bundle(), PASSED)
    assert to_source(add) == "x0, x1 + x3 - x0^2"


def test_the_addition_starts_at_its_root_on_a_fibre_affine_chart(
        monkeypatch):
    # on conjugated_1_1 the chart sum a + b - xi(q(a)) is the closed-form
    # sum, so Newton stops before its first step
    cb = conjugated_bundle()
    (a, b), _ = fibre_matched_tuples(cb.q, cb.total_box, CFG, width=2,
                                     tag=f"{cb.name}:pairs")
    want = eval_batch(induce_addition(cb, PASSED), np.hstack([a, b]))
    steps = []
    monkeypatch.setattr(jet, "_lstsq_stack",
                        lambda *args: steps.append(args))
    got = _implicit_fibre_op(cb, "add").eval_batch(np.hstack([a, b]))
    assert steps == []
    assert np.abs(got - want).max() <= ImplicitMap.tol


def _old_start(imp):
    """The addition as it was started before the chart sum: at a."""
    return ImplicitMap(imp.residual, imp.arity, imp.coarity,
                       lambda X: X[:, :imp.coarity], imp.name)


def test_rows_without_a_chart_sum_start_at_a():
    # the zero section has a pole at x0 = 1 and is not finite at NaN; a
    # sum may overflow.  Those rows start at a, as the old start did: the
    # same rows are solved, to the same values, with the same first error.
    spec = BundleSpec(
        name="pole", base_dim=1, total_dim=2, base_box=cube(1),
        total_box=cube(2), q=parse_map("x0", 2),
        xi=parse_map("x0, 1/(x0 - 1)", 1),
        lam=parse_map("x0, 0, 0, x1 + x1^3/4", 2))
    good = [[0.5, 0.3, 0.5, -0.2], [-1.5, 1.0, -1.5, 0.7]]
    pole = [[1.0, 0.4, 1.0, 0.1], [1.0, -0.3, 1.0, -0.6]]
    nan = [[np.nan, 0.2, np.nan, 0.1]]
    huge = [[0.5, 1e308, 0.5, 1e308]]
    imp = _implicit_fibre_op(spec, "add")
    X = np.array(good + pole)
    assert np.array_equal(imp.init(X)[2:], X[2:, :2])
    assert not np.array_equal(imp.init(X)[:2], X[:2, :2])
    assert np.array_equal(imp.init(np.array(nan + huge)),
                          np.array(nan + huge)[:, :2], equal_nan=True)
    ref = _old_start(imp)
    got = imp.eval_batch(X)
    assert np.array_equal(got[2:], ref.eval_batch(X)[2:])
    assert np.abs(got - ref.eval_batch(X)).max() <= ImplicitMap.tol
    for rows in (good + huge + pole, pole + nan + good, huge + nan):
        imp, ref = _implicit_fibre_op(spec, "add"), _old_start(imp)
        outcomes = []
        for f in (imp, ref):
            with pytest.raises((NewtonDiverged, DenominatorNearZero,
                                np.linalg.LinAlgError)) as exc:
                f.eval_batch(np.array(rows))
            outcomes.append((type(exc.value), str(exc.value),
                             sorted(f._seen)))
        assert outcomes[0] == outcomes[1]
        assert np.allclose([imp._seen[k] for k in outcomes[0][2]],
                           [ref._seen[k] for k in outcomes[0][2]],
                           rtol=0, atol=ImplicitMap.tol)


def test_scale_through_lambda_closed_forms():
    assert to_source(scale_through_lambda(trivial_bundle(1, 1))) == \
        "x1, x0*x2"
    assert to_source(scale_through_lambda(conjugated_bundle())) == \
        "x1, x0*x2 + x1^2 - x0*x1^2"


def test_induced_addition_refuses_after_failed_universality():
    bump = bump_bundle()
    bad = check_pullback(rosicky_square(bump),
                         dataclasses.replace(CFG, t_depth=0))
    assert bad.aggregate is Verdict.FAIL
    with pytest.raises(Refused):
        induce_addition(bump, bad)


def test_additive_laws_pass_with_matching_declared_addition():
    cb = conjugated_bundle()
    add = induce_addition(cb, PASSED)
    rep = check_additive_laws(cb, add, CFG, declared=cb.add)
    assert rep.ok
    assert "add-declared" in {e.law_id for e in rep.entries}


def test_mismatched_declared_addition_is_flagged_alone():
    tb = trivial_bundle(1, 1)
    add = induce_addition(tb, PASSED)
    wrong = parse_map("x0, x1 + x3 + 1", 4)
    rep = check_additive_laws(tb, add, CFG, declared=wrong)
    assert {e.law_id for e in rep.entries
            if e.verdict is Verdict.FAIL} == {"add-declared"}


def test_twisted_addition_fails_commutativity():
    twisted = parse_map("x0, x1 + x5, x2 + x6, x3 + x7 + x1*x6", 8)
    rep = check_additive_laws(trivial_bundle(1, 3), twisted, CFG)
    assert {e.law_id for e in rep.entries
            if e.verdict is Verdict.FAIL} == {"add-comm"}


# --------------------------------------------------------------------------
# Sampling helpers and decompositions


def test_well_typed_tuples_share_a_projection():
    cb = conjugated_bundle()
    (a, b), discarded = fibre_matched_tuples(cb.q, cb.total_box, CFG,
                                             width=2, tag=f"{cb.name}:pairs")
    assert a.shape == b.shape == (CFG.count, cb.total_dim)
    assert discarded == 0
    qa, qb = eval_batch(cb.q, a), eval_batch(cb.q, b)
    assert np.allclose(qa, qb, atol=1e-9)


def test_fibre_matched_tuples_work_from_a_raw_projection():
    bump = bump_bundle()
    (a, b), _ = fibre_matched_tuples(bump.q, bump.total_box, CFG, width=2)
    qa, qb = eval_batch(bump.q, a), eval_batch(bump.q, b)
    assert np.allclose(qa, qb, atol=1e-7)
    box = bump.total_box
    assert np.all((a >= box.lo() - 1e-9) & (a <= box.hi() + 1e-9))


def _row_loop_tuples(q, box, cfg, width, tag="pairs"):
    """fibre_matched_tuples as a loop over rows, one solve at a time: the
    reference for the batched version."""
    rng = cfg.rng(tag)
    first = box.sample(rng, cfg.count)
    rest = [box.sample(rng, cfg.count) for _ in range(width - 1)]
    targets = eval_batch(q, first)
    cols = [[] for _ in range(width)]
    for i in range(cfg.count):
        members = [first[i]]
        for raw in rest:
            z = solve_least_norm(q, targets[i], raw[i])
            if z is None or not np.all((z >= box.lo() - 0.5)
                                       & (z <= box.hi() + 0.5)):
                break
            members.append(z)
        else:
            for col, m in zip(cols, members):
                col.append(m)
    return [np.asarray(c) for c in cols], cfg.count - len(cols[0])


@pytest.mark.parametrize("src", ["exp(x0) - x1^2", "x0*x1"])
def test_fibre_matched_tuples_keep_the_rows_of_the_row_loop(src):
    q = parse_map(src, 2)
    for width in (2, 3):
        got, discarded = fibre_matched_tuples(q, cube(2), CFG, width=width)
        ref, ref_discarded = _row_loop_tuples(q, cube(2), CFG, width)
        assert discarded == ref_discarded > 0
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_affine_decomposition_found_for_polynomial_lifts():
    assert fibre_chart(trivial_bundle(1, 2)) is not None
    assert fibre_chart(conjugated_bundle()) is not None


def test_affine_decomposition_refused_for_bump():
    # The fibre of the bump projection enters through a cubic blend, so
    # no fibre-affine splitting of the lift exists.
    assert fibre_chart(bump_bundle()) is None


# --------------------------------------------------------------------------
# The fibre chart against the triple-based builders it replaced


def _ref_inverse(M):
    """M^-1 over exact rationals by Gauss-Jordan elimination, or None."""
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
           for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _ref_decomposition(spec):
    """The (A, pinv(A), beta) triple of vert lam = A a + beta(m), from
    which the closed forms were once built; None where it did not exist."""
    d, k = spec.total_dim, spec.base_dim
    if spec.q != projection(d, range(k)):
        return None
    A = []
    for comp in vert_lambda(spec).components:
        row = [normalize(symbolic_derivative_expr(comp, j))
               for j in range(k, d)]
        if any(not isinstance(a, Const) for a in row):
            return None
        A.append([a.value for a in row])
    zero_fibre = {j: con(0) for j in range(k, d)}
    beta = [normalize(substitute_vars(c, zero_fibre))
            for c in vert_lambda(spec).components]
    ata = [[sum(r[i] * r[j] for r in A) for j in range(d - k)]
           for i in range(d - k)]
    inv = _ref_inverse(ata)
    if inv is None:
        return None
    pinv = [[sum(inv[i][t] * r[t] for t in range(d - k)) for r in A]
            for i in range(d - k)]
    return A, pinv, beta


def _ref_offsets(pinv, beta):
    return [normalize(sum_of([con(c) * b for c, b in zip(row, beta)]))
            for row in pinv]


def _ref_addition(spec, decomp):
    d, k = spec.total_dim, spec.base_dim
    offs = _ref_offsets(*decomp[1:])
    return simplify_map(smooth_map(2 * d, [Var(i) for i in range(k)] + [
        sum_of([Var(k + j), Var(d + k + j), offs[j]]) for j in range(d - k)]))


def _ref_scaling(spec, decomp):
    d, k = spec.total_dim, spec.base_dim
    shift = {i: Var(1 + i) for i in range(k)}
    offs = [substitute_vars(o, shift) for o in _ref_offsets(*decomp[1:])]
    r = Var(0)
    return simplify_map(smooth_map(1 + d, [Var(1 + i) for i in range(k)] + [
        sum_of([r * Var(1 + k + j), (r - con(1)) * offs[j]])
        for j in range(d - k)]))


def _ref_retraction(spec, decomp):
    d, k = spec.total_dim, spec.base_dim
    _, pinv, beta = decomp
    chi_w = chi(spec).components[k:]
    comps = [Var(i) for i in range(k)] + [
        sum((con(c) * (cw - be) for c, cw, be in zip(row, chi_w, beta)),
            con(0)) for row in pinv]
    return simplify_map(SmoothMap(k + d, comps))


def _ref_certified_inverse(spec, decomp):
    """The rosicky certificate's inverse as source, or None where the
    certificate refused."""
    d, k = spec.total_dim, spec.base_dim
    if any(_poly_forms(f) is None for f in (spec.q, spec.xi, spec.lam)):
        return None
    inv = _ref_inverse(decomp[0][k:])
    if inv is None:
        return None
    beta = decomp[2]
    w = [Var(k + t) - beta[k + t] for t in range(d - k)]
    v = simplify_map(smooth_map(d, [Var(i) for i in range(k)] + [
        sum_of([con(c) * x for c, x in zip(row, w)]) for row in inv]))
    u = SmoothMap(d, spec.q.components + vert_lambda(spec).components[k:])
    sq = rosicky_square(spec)
    if any(equal_maps(f, g, sq.apex_box, CFG).kind != "equal" for f, g in (
            (compose(sq.right, sq.top), compose(sq.bottom, sq.left)),
            (compose(u, v), identity_map(d)),
            (compose(v, u), identity_map(d)))):
        return None
    return to_source(v)


def _fibre_translates():
    """The ten fibre_translate_* lifts of acceptance criterion 05."""
    rng = np.random.default_rng(77)
    for idx in range(10):
        c = rng.integers(-3, 4, 3)
        beta = f"({int(c[0])} + {int(c[1])}*x0 + {int(c[2])}*x0^2)"
        yield BundleSpec(
            name=f"fibre_translate_{idx}", base_dim=1, total_dim=2,
            base_box=cube(1), total_box=cube(2, -40, 40),
            q=parse_map("x0", 2), xi=parse_map(f"x0, {beta}", 1),
            lam=parse_map(f"x0, {beta}, 0, x1 - {beta}", 2))


def _chart_changes(seed: int, count: int):
    """Lifts whose section is the chart change (m, a) -> (m, M a + b(m)):
    M an invertible rational matrix, b quadratic in m.  One in four also
    gets a nonzero base block in its tangent part, which breaks the
    rosicky square's commutation."""
    rng = random.Random(seed)

    def coef():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    for idx in range(count):
        k, n = rng.choice((1, 2)), rng.choice((1, 2, 3))
        d = k + n
        M = None
        while M is None or _ref_inverse(M) is None:
            M = [[coef() for _ in range(n)] for _ in range(n)]
        m = [Var(i) for i in range(k)]
        quad = [con(1)] + m + [m[i] * m[j] for i in range(k)
                               for j in range(i, k)]

        def b():
            return sum_of([con(coef()) * t for t in quad])

        fibre = [sum_of([con(c) * Var(k + j) for j, c in enumerate(row)]
                        + [b()]) for row in M]
        base = [sum_of([con(coef()) * Var(k + j) for j in range(n)])
                if idx % 4 == 3 else con(0) for _ in range(k)]
        yield BundleSpec(
            name=f"chart_change_{idx}", base_dim=k, total_dim=d,
            base_box=cube(k), total_box=cube(d),
            q=projection(d, range(k)), xi=smooth_map(k, m + [con(0)] * n),
            lam=smooth_map(d, m + [con(0)] * n + base + fibre))


def test_the_fibre_chart_gives_the_maps_of_the_triple_based_builders():
    specs = [corpus_entry(name).build() for name in (
        "trivial_1_1", "trivial_2_3", "tangent_bundle_1",
        "tangent_bundle_2", "conjugated_1_1")]
    specs += list(_fibre_translates()) + list(_chart_changes(11, 60))
    refused = 0
    for spec in specs:
        decomp = _ref_decomposition(spec)
        assert decomp is not None and fibre_chart(spec) is not None
        assert induce_addition(spec, PASSED) == _ref_addition(spec, decomp)
        assert scale_through_lambda(spec) == _ref_scaling(spec, decomp)
        assert splitting_pair(spec, PASSED)[1] == \
            _ref_retraction(spec, decomp)
        cert = rosicky_certificate(spec, CFG)
        inverse = None if cert is None \
            else cert.entries[0].provenance["inverse"]
        assert inverse == _ref_certified_inverse(spec, decomp), spec.name
        # a nonzero base block breaks the square's commutation
        base_block = vert_lambda(spec).components[:spec.base_dim]
        assert (cert is None) == any(c != con(0) for c in base_block)
        refused += cert is None
    assert refused >= 10


def _offset_lift(offset: str) -> BundleSpec:
    return BundleSpec(
        name="offset", base_dim=1, total_dim=2, base_box=cube(1),
        total_box=cube(2), q=parse_map("x0", 2),
        xi=parse_map(f"x0, {offset}", 1),
        lam=parse_map(f"x0, {offset}, 0, x1 - ({offset})", 2))


@pytest.mark.parametrize("offset", ["sin(x0)", "x0*exp(x0)/4"])
def test_a_fibre_affine_lift_with_a_builtin_offset_is_newton_defined(offset):
    # the chart is exact only on polynomial lifts: composing it here would
    # leave beta - beta uncancelled in the closed forms
    spec = _offset_lift(offset)
    assert fibre_chart(spec) is None
    assert isinstance(induce_addition(spec, PASSED), ImplicitMap)
    assert isinstance(scale_through_lambda(spec), ImplicitMap)
    assert isinstance(splitting_pair(spec, PASSED)[1], ImplicitMap)
    reports = run_suites(spec, DEFAULT_CONFIG)
    assert all(rep.aggregate is Verdict.PASS_NUMERIC
               for rep in reports.values())
    assert reports["split"]["uniqueness"].verdict is Verdict.PASS_NUMERIC


def test_no_fibre_chart_for_a_builtin_past_the_registry():
    # the chart neither differentiates nor evaluates d12bump, so it does
    # not raise
    spec = _with(trivial_bundle(1, 1),
                 lam=parse_map("x0, 0, 0, x1 + (1/100)*d12bump(x0)", 2))
    with pytest.raises(ExprError, match="registry"):
        vert_lambda(spec).jacobian([0.0, 0.0])
    assert fibre_chart(spec) is None


def test_lambda_parts_recombine():
    cb = conjugated_bundle()
    assert to_source(vert_lambda(cb)) == "0, x1 - x0^2"


# --------------------------------------------------------------------------
# Morphisms


def test_identity_morphism_passes_all_three_laws():
    cb = conjugated_bundle()
    add = induce_addition(cb, PASSED)
    mor = BundleMorphism(cb, cb, parse_map("x0, x1", 2))
    rep = check_morphism(mor, CFG, source_add=add, target_add=add)
    assert rep.ok
    assert {e.law_id for e in rep.entries} == {"mor-base", "mor-lift",
                                               "mor-add"}


def test_fibre_shift_morphism_fails_lift_and_addition():
    tb = trivial_bundle(1, 1)
    add = induce_addition(tb, PASSED)
    mor = BundleMorphism(tb, tb, parse_map("x0, x1 + 1", 2))
    rep = check_morphism(mor, CFG, source_add=add, target_add=add)
    assert {e.law_id for e in rep.entries
            if e.verdict is Verdict.FAIL} == {"mor-lift", "mor-add"}


def test_base_map_is_extracted_from_the_total_map():
    tb = trivial_bundle(1, 1)
    mor = BundleMorphism(tb, tb, parse_map("x0, 3*x1", 2))
    base = mor.base_map
    assert np.allclose(eval_batch(base, np.array([[0.3], [-1.1]])),
                       [[0.3], [-1.1]])


def test_chart_change_morphism_between_presentations():
    # Conjugation by m + a^2 carries the trivial bundle onto the
    # conjugated presentation; the identity-on-points map is then a
    # morphism in both directions.
    tb = trivial_bundle(1, 1)
    cb = conjugated_bundle()
    add_t = induce_addition(tb, PASSED)
    add_c = induce_addition(cb, PASSED)
    fwd = BundleMorphism(tb, cb, parse_map("x0, x1 + x0^2", 2))
    rep = check_morphism(fwd, CFG, source_add=add_t, target_add=add_c)
    assert rep.ok


def test_pairwise_sums_raise_the_error_of_the_first_failing_pair():
    # Pair 1 meets the pole of its second component and pair 2 that of
    # its first.  The whole batch meets pair 2's pole first; the
    # pair-by-pair loop stops at pair 1, and so must the batched sums.
    add = parse_map("x0 + 1/(x1 - 1), x1 + 1/(x0 - 2)", 2)
    X, Y = np.array([[0.0], [2.0], [4.0]]), np.array([[3.0], [5.0], [1.0]])
    with pytest.raises(DenominatorNearZero) as batch:
        eval_batch(add, np.hstack([X, Y]))
    with pytest.raises(DenominatorNearZero) as loop:
        for x, y in zip(X, Y):
            add.eval_point(np.concatenate([x, y]))
    assert str(batch.value) != str(loop.value)
    with pytest.raises(DenominatorNearZero) as got:
        _pairwise(add, X, Y)
    assert str(got.value) == str(loop.value)
    assert np.array_equal(_pairwise(add, X[:1], Y[:1]),
                          add.eval_point([0.0, 3.0])[None, :])
