"""Bundle data, the four structural laws, induced fibre operations, and
bundle morphisms."""

import dataclasses

import numpy as np
import pytest

from tanbun import jet
from tanbun.expr import (
    CheckConfig, DenominatorNearZero, cube, eval_batch, eval_map,
    parse_map, to_source,
)
from tanbun.jet import ImplicitMap, NewtonDiverged, solve_least_norm
from tanbun.bundle import (
    AdditionUnavailable, BundleMorphism, BundleSpec, Verdict,
    _implicit_fibre_op, _pairwise,
    check_additive_laws, check_morphism, check_predifferential,
    fibre_affine_decomposition, fibre_matched_tuples, induce_addition,
    scale_through_lambda, vert_lambda, well_typed_tuples,
)
from tanbun.corpus import bump_bundle, conjugated_bundle, trivial_bundle
from tanbun.universal import check_pullback, rosicky_square

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
    assert {e.law_id for e in rep.failures()} == {"pre-2", "pre-4"}


def test_cubed_projection_breaks_section_law_first():
    spec = _with(trivial_bundle(1, 1), q=parse_map("x0^3", 2))
    rep = check_predifferential(spec, CFG)
    assert {e.law_id for e in rep.failures()} == {"pre-1", "pre-3"}


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
    (a, b), _ = well_typed_tuples(cb, CFG, width=2)
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
    with pytest.raises(AdditionUnavailable):
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
    assert {e.law_id for e in rep.failures()} == {"add-declared"}


def test_twisted_addition_fails_commutativity():
    twisted = parse_map("x0, x1 + x5, x2 + x6, x3 + x7 + x1*x6", 8)
    rep = check_additive_laws(trivial_bundle(1, 3), twisted, CFG)
    assert {e.law_id for e in rep.failures()} == {"add-comm"}


# --------------------------------------------------------------------------
# Sampling helpers and decompositions


def test_well_typed_tuples_share_a_projection():
    cb = conjugated_bundle()
    (a, b), discarded = well_typed_tuples(cb, CFG, width=2)
    assert a.shape == b.shape == (CFG.count, cb.total_dim)
    assert discarded == 0
    qa, qb = eval_batch(cb.q, a), eval_batch(cb.q, b)
    assert np.allclose(qa, qb, atol=1e-9)


def test_fibre_matched_tuples_work_from_a_raw_projection():
    bump = bump_bundle()
    (a, b), _ = fibre_matched_tuples(bump.q, bump.total_box, CFG, width=2)
    qa, qb = eval_batch(bump.q, a), eval_batch(bump.q, b)
    assert np.allclose(qa, qb, atol=1e-7)
    assert all(bump.total_box.contains(row) for row in a)


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
            if z is None or not box.contains(z, slack=0.5):
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
    assert fibre_affine_decomposition(trivial_bundle(1, 2)) is not None
    assert fibre_affine_decomposition(conjugated_bundle()) is not None


def test_affine_decomposition_refused_for_bump():
    # The fibre of the bump projection enters through a cubic blend, so
    # no fibre-affine splitting of the lift exists.
    assert fibre_affine_decomposition(bump_bundle()) is None


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
    assert {e.law_id for e in rep.failures()} == {"mor-lift", "mor-add"}


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
            eval_map(add, np.concatenate([x, y]))
    assert str(batch.value) != str(loop.value)
    with pytest.raises(DenominatorNearZero) as got:
        _pairwise(add, X, Y)
    assert str(got.value) == str(loop.value)
    assert np.array_equal(_pairwise(add, X[:1], Y[:1]),
                          eval_map(add, [0.0, 3.0])[None, :])
