"""Jets, truncated algebra, tangent maps, structure maps, and
procedurally defined maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tanbun.expr import (
    CheckConfig, DenominatorNearZero, ExprError, Var, compose, con, cube,
    equal_maps, eval_batch, eval_map, parse_map, smooth_map,
)
from tanbun.jet import (
    AXIOM_CATALOG, Composite, ImplicitMap, JetPoint, JetView,
    NewtonDiverged, STANDARD_STRUCTS, StackMap, TruncElem, apply_batch,
    apply_map, check_all_axioms, check_axiom, jac_batch, jac_point,
    naturality_square, prolong_implicit, pushforward, solve_batch,
    solve_least_norm, struct_map, tangent_map, tangent_of,
)

CFG = CheckConfig(count=30, seed=11)

coeff_arrays = st.lists(
    st.floats(min_value=-4, max_value=4, allow_nan=False,
              allow_infinity=False),
    min_size=4, max_size=4).map(np.array)


# --------------------------------------------------------------------------
# Truncated nilpotent algebra


@given(coeff_arrays, coeff_arrays)
@settings(max_examples=60, deadline=None)
def test_trunc_mul_commutes(a, b):
    x, y = TruncElem(2, a), TruncElem(2, b)
    assert np.allclose((x * y).coeffs, (y * x).coeffs, atol=1e-12)


@given(coeff_arrays, coeff_arrays, coeff_arrays)
@settings(max_examples=60, deadline=None)
def test_trunc_mul_associates_and_distributes(a, b, c):
    x, y, z = TruncElem(2, a), TruncElem(2, b), TruncElem(2, c)
    assert np.allclose(((x * y) * z).coeffs, (x * (y * z)).coeffs,
                       atol=1e-10)
    assert np.allclose((x * (y + z)).coeffs, (x * y + x * z).coeffs,
                       atol=1e-10)


def test_trunc_directions_are_nilpotent():
    eps = TruncElem(1, np.array([0.0, 1.0]))
    sq = eps * eps
    assert np.allclose(sq.coeffs, 0.0)


def test_pushforward_first_order_is_the_derivative():
    f = parse_map("x0^2*x1, sin(x0)", 2)
    x = np.array([0.7, -1.3])
    v = np.array([1.0, 2.0])
    jp = JetPoint(1, 2, np.stack([x, v]))
    out = pushforward(f, 1, jp)
    J = np.array([[2 * x[0] * x[1], x[0] ** 2], [np.cos(x[0]), 0.0]])
    assert np.allclose(out.blocks[0], eval_map(f, x))
    assert np.allclose(out.blocks[1], J @ v)


def test_pushforward_second_order_mixed_term():
    # For f(x) = x^2 the corner block of a second-order jet picks up the
    # bilinear term 2*v1*v2 on top of the pushed corner.
    f = parse_map("x0^2", 1)
    blocks = np.array([[3.0], [1.0], [2.0], [0.0]])
    out = pushforward(f, 2, JetPoint(2, 1, blocks))
    assert np.allclose(out.to_flat(), [9.0, 6.0, 12.0, 4.0])


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_pushforward_matches_symbolic_tangent(a, b):
    f = smooth_map(2, (Var(0) * Var(1) + con(a) * Var(0) ** 2,
                       con(b) * Var(1) ** 3 - Var(0)))
    tf = tangent_map(f, 1)
    rng = CFG.rng(f"push{a}{b}")
    flat = rng.uniform(-1.5, 1.5, 4)
    out = pushforward(f, 1, JetPoint.from_flat(flat, 1, 2))
    assert np.allclose(out.to_flat(), eval_map(tf, flat), atol=1e-10)


def test_pushforward_functorial_in_composition():
    f = parse_map("x0^3 - x0", 1)
    g = parse_map("2*x0 + 1", 1)
    flat = np.array([0.4, 1.7])
    jp = JetPoint.from_flat(flat, 1, 1)
    via_pair = pushforward(f, 1, pushforward(g, 1, jp))
    direct = pushforward(compose(f, g), 1, jp)
    assert np.allclose(via_pair.to_flat(), direct.to_flat(), atol=1e-12)


# --------------------------------------------------------------------------
# Structure maps and the axiom catalog


def test_struct_maps_level_zero_shapes():
    p = struct_map("proj", 0, 2)
    z = struct_map("zero", 0, 2)
    l = struct_map("lift", 0, 2)
    c = struct_map("flip", 0, 2)
    assert (p.arity, p.coarity) == (4, 2)
    assert (z.arity, z.coarity) == (2, 4)
    assert (l.arity, l.coarity) == (4, 8)
    assert (c.arity, c.coarity) == (8, 8)
    assert np.allclose(eval_map(l, [1, 2, 3, 4]), [1, 2, 0, 0, 0, 0, 3, 4])
    assert np.allclose(eval_map(c, [1, 2, 3, 4, 5, 6, 7, 8]),
                       [1, 2, 5, 6, 3, 4, 7, 8])


def test_axiom_catalog_has_fourteen_entries_with_unique_ids():
    ids = [name for name, _, _ in AXIOM_CATALOG]
    assert len(ids) == 14
    assert len(set(ids)) == 14


def test_single_axiom_check_passes_exactly():
    res = check_axiom("flip-invol", 2, "exact", STANDARD_STRUCTS, CFG)
    assert res.verdict.value == "pass-exact"


def test_broken_lift_trips_exactly_the_expected_axioms():
    def broken(k):
        xs = [Var(i) for i in range(k)]
        vs = [Var(k + i) for i in range(k)]
        return smooth_map(2 * k, xs + [con(0)] * k + vs + vs)

    rep = check_all_axioms((1,), STANDARD_STRUCTS.with_override(
        "lift", broken), CFG)
    failed = {e.law_id for e in rep.failures()}
    assert failed == {"lift-add@k=1", "flip-lift@k=1", "lift-coassoc@k=1"}


def test_naturality_squares_commute_for_all_kinds():
    f = parse_map("x0^2 + x1, x0*x1, x1^3", 2)
    for kind in ("proj", "zero", "add", "neg", "lift", "flip"):
        lhs, rhs = naturality_square(kind, f)
        v = equal_maps(lhs, rhs, cube(lhs.arity), CFG)
        assert v.is_exact, kind


# --------------------------------------------------------------------------
# Implicit maps


def _inverse_cubic() -> ImplicitMap:
    # y defined by y + y^3 = x; single chart, globally solvable.
    residual = parse_map("x1 + x1^3 - x0", 2)
    return ImplicitMap(residual, 1, 1, init=lambda x: np.zeros(1),
                       name="inverse-cubic")


def test_implicit_eval_and_jacobian():
    imp = _inverse_cubic()
    y = imp.eval_point(np.array([10.0]))
    assert np.allclose(y, [2.0], atol=1e-9)
    J = imp.jacobian(np.array([10.0]))
    assert np.allclose(J, [[1.0 / 13.0]], atol=1e-8)


def test_implicit_jet_view_pushes_first_order():
    imp = _inverse_cubic()
    view = tangent_of(imp, 1)
    out = view.eval_point(np.array([10.0, 13.0]))
    assert np.allclose(out, [2.0, 1.0], atol=1e-7)


def test_prolonged_implicit_matches_jet_view():
    imp = _inverse_cubic()
    prol = prolong_implicit(imp, 1)
    jv = JetView(imp, 1)
    for x in ([10.0, 13.0], [0.5, -2.0], [-3.0, 1.0]):
        a = prol.eval_point(np.array(x))
        b = jv.eval_point(np.array(x))
        assert np.allclose(a, b, atol=1e-7), x


def test_prolonged_implicit_second_order():
    imp = _inverse_cubic()
    prol = prolong_implicit(imp, 2)
    x = np.array([10.0, 1.0, 2.0, 0.0])
    out = prol.eval_point(x)
    # dy/dx = 1/13 and d2y/dx2 = -6 y (dy/dx)^3 at y = 2
    dy = 1.0 / 13.0
    d2 = -12.0 * dy ** 3
    assert np.allclose(out, [2.0, dy, 2 * dy, d2 * 2.0], atol=1e-7)


def test_jac_point_dispatches_consistently():
    f = parse_map("x0*x1 + x1^2", 2)
    x = np.array([1.2, -0.7])
    J_sym = jac_point(f, x)
    assert np.allclose(J_sym, [[-0.7, 1.2 - 1.4]], atol=1e-12)
    imp = _inverse_cubic()
    assert np.allclose(jac_point(imp, np.array([10.0])), [[1.0 / 13.0]],
                       atol=1e-8)


def test_newton_divergence_is_reported():
    # No real solution: y^2 = -1 - x^2 has empty fibre everywhere.
    residual = parse_map("x1^2 + 1 + x0^2", 2)
    imp = ImplicitMap(residual, 1, 1, init=lambda x: np.zeros(1),
                      name="empty")
    with pytest.raises(NewtonDiverged):
        imp.eval_point(np.array([0.0]))


def test_jet_builtin_overflow_is_an_expr_error():
    # the float kind gives inf here; math.exp in the jet algebra raises
    f = parse_map("exp(x0)", 1)
    with pytest.raises(ExprError, match=r"exp\(1000\.0\)"):
        pushforward(f, 1, JetPoint(1, 1, [[1000.0], [1.0]]))
    with np.errstate(over="ignore"):
        assert np.isinf(eval_batch(f, [[1000.0]])[0, 0])


# --------------------------------------------------------------------------
# Composite and stacked maps


def test_composite_applies_right_to_left():
    f = parse_map("x0 + 1", 1)
    imp = _inverse_cubic()
    pipe = Composite(f, imp)
    assert np.allclose(pipe.eval_point(np.array([10.0])), [3.0], atol=1e-8)


def test_tangent_of_distributes_over_composite():
    f = parse_map("2*x0", 1)
    imp = _inverse_cubic()
    pipe = Composite(f, imp)
    t = tangent_of(pipe, 1)
    assert isinstance(t, Composite)
    out = t.eval_point(np.array([10.0, 13.0]))
    assert np.allclose(out, [4.0, 2.0], atol=1e-7)


def test_stack_map_concatenates_outputs_on_one_input():
    imp = _inverse_cubic()
    stacked = StackMap(imp, parse_map("x0 - 1", 1))
    assert (stacked.arity, stacked.coarity) == (1, 2)
    out = stacked.eval_point(np.array([10.0]))
    assert np.allclose(out, [2.0, 9.0], atol=1e-8)
    J = stacked.jacobian(np.array([10.0]))
    assert np.allclose(J, [[1.0 / 13.0], [1.0]], atol=1e-8)


def test_batch_evaluation_matches_point_evaluation():
    imp = _inverse_cubic()
    X = np.array([[10.0], [2.0], [-3.0]])
    for f in (StackMap(imp, parse_map("x0 - 1, x0^2", 1)),
              Composite(parse_map("x0 + 1", 1), imp),
              JetView(parse_map("x0^3", 1), 0)):
        assert np.array_equal(apply_batch(f, X),
                              np.stack([apply_map(f, x) for x in X]))
        assert np.array_equal(jac_batch(f, X),
                              np.stack([jac_point(f, x) for x in X]))


def test_solve_least_norm_hits_target():
    f = parse_map("x0 + x1", 2)
    z = solve_least_norm(f, np.array([4.0]), np.zeros(2))
    assert z is not None
    assert np.allclose(z, [2.0, 2.0], atol=1e-8)


def _one_row_newton(f, target, z0, tol=1e-11, max_iter=40):
    """The one-point Gauss-Newton loop the batched solver replaced; its
    rows must come out bit for bit the same."""
    z = np.asarray(z0, dtype=float).copy()
    target = np.asarray(target, dtype=float)
    for _ in range(max_iter):
        try:
            r = apply_map(f, z) - target
        except ExprError:
            return None
        if np.max(np.abs(r)) < tol:
            return z
        J = jac_point(f, z)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            return None
        z = z + step
    return None


def _row_outcome(f, target, z0, **kw):
    try:
        return _one_row_newton(f, target, z0, **kw)
    except ExprError as err:
        return err


# (map, targets, starts, solver options).  Rows that converge (also
# linearly, at double roots), rows with no solution that run out of
# iterations, a value that overflows into a non-finite step, and a start
# on a pole (only that row is lost).
SOLVER_CASES = (
    ("x0^2 + x1^2, x0 - x1", [[2, 0], [-1, 0], [2, 0], [8, 0], [-1, 0]],
     [[1.3, 0.7], [1.0, 0.5], [0.0, 0.0], [3.0, -1.0], [0.2, 0.1]], {}),
    ("x0^2 + x1^2, x0 - x1", [[2, 0], [5, 1], [2, 0]],
     [[1.3, 0.7], [9.0, -4.0], [50.0, 0.5]], {"max_iter": 6}),
    ("x0^2, x1^2", [[0, 0], [0, 0], [-1, 0]],
     [[1.483, 1.483], [0.3, 2.0], [1.0, 1.0]], {}),
    ("x0^3", [[0], [8], [1]], [[1e103], [1.5], [-2.0]], {}),
    ("1/(x0 - 2) + x1, x1*x0", [[1, 3], [1, 3], [0, 1], [1, 3]],
     [[1.0, 1.0], [2.0, 1.0], [3.0, 0.5], [0.5, 0.5]], {"tol": 1e-10}),
)


@pytest.mark.parametrize("case", range(len(SOLVER_CASES) + 1))
def test_batched_solver_matches_the_one_row_loop(case):
    if case < len(SOLVER_CASES):
        src, T, Z0, kw = SOLVER_CASES[case]
        f = parse_map(src, len(Z0[0]))
    else:        # a stacked map with an implicit part
        f = StackMap(_inverse_cubic(), parse_map("x0^2", 1))
        T, Z0, kw = [[2.0, 4.0], [3.0, 1.0], [1.0, 1.0]], [[7.0], [20.0],
                                                           [1.5]], {}
    T, Z0 = np.asarray(T, dtype=float), np.asarray(Z0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        Z, ok, errors = solve_batch(f, T, Z0, **kw)
        ref = [_row_outcome(f, t, z0, **kw) for t, z0 in zip(T, Z0)]
    assert not errors
    assert list(ok) == [z is not None for z in ref]
    assert 0 < sum(ok) < len(ok) or case == len(SOLVER_CASES)
    for k, z in enumerate(ref):
        if z is not None:
            assert np.array_equal(Z[k], z), k
    # solve_least_norm is the one-row case: arrays and None as before
    for t, z0, z in zip(T, Z0, ref):
        with np.errstate(over="ignore", invalid="ignore"):
            got = solve_least_norm(f, t, z0, **kw)
        assert (got is None) == (z is None)
        assert got is None or np.array_equal(got, z)


def test_batched_solver_raises_jacobian_errors_in_row_order():
    # Row 1 hits the pole of d(x1/x0) and row 3 that of d(x0/x1), while
    # the values themselves stay away from the guard.  The batched
    # Jacobian meets row 3's entry first; the row-by-row loop raises row
    # 1's, and so must a caller that raises the first row's error.
    f = parse_map("x0/x1, x1/x0", 2)
    T = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.5], [1.0, 1.0]])
    Z0 = np.array([[1.5, 1.2], [1e-7, 1.0], [1.0, 1.0], [1.0, 1e-7]])
    Z, ok, errors = solve_batch(f, T, Z0)
    ref = [_row_outcome(f, t, z0) for t, z0 in zip(T, Z0)]
    assert sorted(errors) == [1, 3]
    assert list(ok) == [True, False, True, False]
    for k in (1, 3):
        assert isinstance(ref[k], DenominatorNearZero)
        assert type(errors[k]) is type(ref[k])
        assert str(errors[k]) == str(ref[k])
    assert str(errors[1]) != str(errors[3])
    for k in (0, 2):
        assert np.array_equal(Z[k], ref[k])
    with pytest.raises(DenominatorNearZero) as got:
        solve_least_norm(f, T[1], Z0[1])
    assert str(got.value) == str(ref[1])


def test_apply_map_accepts_smooth_and_procedural():
    f = parse_map("x0^2", 1)
    assert np.allclose(apply_map(f, [3.0]), [9.0])
    assert np.allclose(apply_map(_inverse_cubic(), [10.0]), [2.0],
                       atol=1e-8)


def test_tangent_map_chain_rule_symbolically():
    f = parse_map("x0^2", 1)
    g = parse_map("x0 + 3", 1)
    lhs = tangent_map(compose(f, g), 1)
    rhs = compose(tangent_map(f, 1), tangent_map(g, 1))
    v = equal_maps(lhs, rhs, cube(2), CFG)
    assert v.is_exact
