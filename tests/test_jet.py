"""Jets, truncated algebra, tangent maps, structure maps, and
procedurally defined maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tanbun.expr import (
    CheckConfig, DenominatorNearZero, ExprError, Var, compose, con, cube,
    equal_maps, eval_batch, eval_map, jac_eval_batch, parse_map, smooth_map,
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
    return ImplicitMap(residual, 1, 1, init=lambda X: np.zeros((len(X), 1)),
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
    imp = ImplicitMap(residual, 1, 1, init=lambda X: np.zeros((len(X), 1)),
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
# Implicit maps over a batch


def _old_eval_point(imp, x, init):
    """ImplicitMap.eval_point before batching, without its cache; init
    takes one point.  Every row of a batch must come out of the batched
    Newton loop with the same bits, or with the same error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(init(x), dtype=float).copy()
    for _ in range(imp.max_iter):
        r = eval_map(imp.residual, np.concatenate([x, y]))
        if np.max(np.abs(r)) < imp.tol:
            return y
        J = jac_eval_batch(imp.residual, np.concatenate([x, y])[None, :])[0]
        step, *_ = np.linalg.lstsq(J[:, imp.arity:], -r, rcond=None)
        if not np.all(np.isfinite(step)):
            raise NewtonDiverged(f"{imp.name}: non-finite Newton step")
        y = y + step
    r = eval_map(imp.residual, np.concatenate([x, y]))
    if np.max(np.abs(r)) < 1e-9:
        return y
    raise NewtonDiverged(f"{imp.name}: no convergence at {x.tolist()}")


def _old_jacobian(imp, x, init):
    x = np.asarray(x, dtype=float)
    y = _old_eval_point(imp, x, init)
    J = jac_eval_batch(imp.residual, np.concatenate([x, y])[None, :])[0]
    sol, *_ = np.linalg.lstsq(J[:, imp.arity:], -J[:, :imp.arity],
                              rcond=None)
    return sol


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ExprError as err:
        return err


def _same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)


# (residual, arity, coarity, start or None for the parameters themselves,
# options, rows).  y^2 = x converges quadratically at 4 and 2.25, takes
# the loose accept at the double root 0 (repeated), has no real root at
# -1 and overflows into a non-finite step at 1e300; the no-convergence
# row comes first but fails last.  The third residual's value has a pole
# at x0 = 2; in the fourth only the Jacobian -1/y^2 meets the guard, at
# the start y = 1e-7.
IMPLICIT_CASES = (
    ("x1^2 - x0", 1, 1, 1.0, {"max_iter": 20},
     [[4.0], [0.0], [-1.0], [1e300], [2.25], [0.0]]),
    ("x2^2 + x1 - x0, x1 - x2", 1, 2, 1.0, {"max_iter": 20},
     [[6.0], [-0.25], [-1.0], [1e300], [2.0]]),
    ("x1 - 1/(x0 - 2)", 1, 1, 0.5, {}, [[3.0], [2.0], [1.0]]),
    ("1/x1 - 2", 1, 1, None, {}, [[1.0], [1e-7], [0.3]]),
)


def _case(k):
    src, a, c, start, kw, rows = IMPLICIT_CASES[k]
    if start is None:
        init, point_init = (lambda X: X.copy()), (lambda x: x)
    else:
        init = lambda X: np.full((len(X), c), start)
        point_init = lambda x: np.full(c, start)
    imp = ImplicitMap(parse_map(src, a + c), a, c, init=init, name=f"case{k}",
                      **kw)
    return imp, point_init, np.array(rows, dtype=float)


def _count_solves(monkeypatch, imp) -> list:
    """The bytes of every row the map starts a Newton solve from."""
    rows, init = [], imp.init
    monkeypatch.setattr(imp, "init",
                        lambda X: rows.extend(x.tobytes() for x in X)
                        or init(X))
    return rows


@pytest.mark.parametrize("case", range(len(IMPLICIT_CASES)))
def test_implicit_batch_matches_the_point_loop(case, monkeypatch):
    imp, point_init, X = _case(case)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = [_outcome(_old_eval_point, imp, x, point_init) for x in X]
        ok = np.array([not isinstance(r, ExprError) for r in ref])
        assert 0 < ok.sum() < len(X)
        want = next(r for r in ref if isinstance(r, ExprError))
        with pytest.raises(ExprError) as got:
            imp.eval_batch(X)
        _same_error(got.value, want)
        # the failing batch solved and remembered every other row
        solves = _count_solves(monkeypatch, imp)
        assert np.array_equal(imp.eval_batch(X[ok]),
                              np.stack([r for r, g in zip(ref, ok) if g]))
        assert np.array_equal(
            imp.jac_batch(X[ok]),
            np.stack([_old_jacobian(imp, x, point_init) for x in X[ok]]))
        assert solves == []
        # Jacobians raise the first failing row's error too, and one row
        # is the one-row case
        fresh = _case(case)[0]
        with pytest.raises(ExprError) as got:
            fresh.jac_batch(X)
        _same_error(got.value, want)
        for x, r in zip(X, ref):
            if isinstance(r, ExprError):
                with pytest.raises(ExprError) as got:
                    _case(case)[0].eval_point(x)
                _same_error(got.value, r)
            else:
                assert np.array_equal(_case(case)[0].eval_point(x), r)


@pytest.mark.parametrize("order", (1, 2))
def test_prolonged_implicit_matches_the_point_loop(order, monkeypatch):
    imp = _inverse_cubic()
    prol = prolong_implicit(imp, order)
    zero = lambda x: np.zeros(1)

    def point_init(xf):      # the prolonged start before batching
        y = np.zeros(1 << order)
        y[0] = _old_eval_point(imp, xf[:1], zero)[0]
        return y

    rows = {1: [[10.0, 13.0], [0.5, -2.0], [-3.0, 1.0], [10.0, 13.0]],
            2: [[10.0, 1.0, 2.0, 0.0], [0.5, -2.0, 1.0, 3.0],
                [-3.0, 1.0, 0.5, -1.0]]}
    X = np.array(rows[order])
    calls = []
    batch = imp.eval_batch
    monkeypatch.setattr(imp, "eval_batch",
                        lambda Z: calls.append(len(Z)) or batch(Z))
    assert np.array_equal(prol.eval_batch(X), np.stack(
        [_old_eval_point(prol, x, point_init) for x in X]))
    assert calls == [3]      # one start for the whole batch, repeats once
    assert np.array_equal(prol.jac_batch(X), np.stack(
        [_old_jacobian(prol, x, point_init) for x in X]))


def test_composite_batch_matches_the_point_chain():
    # h, then the square root y^2 = x (no root below 0), then g
    sqrt = ImplicitMap(parse_map("x1^2 - x0", 2), 1, 1,
                       init=lambda X: np.ones((len(X), 1)), name="sqrt")
    h = parse_map("x0*x1 + 1/(x1 - 1)", 2)
    g = parse_map("x0^2, sin(x0)*x0", 1)
    pipe = Composite(g, sqrt, h)
    one = lambda x: np.ones(1)

    def old_chain(x):        # Composite.eval_point and .jacobian before
        J = None
        for s in (h, sqrt, g):
            if s is sqrt:
                Js, y = _old_jacobian(s, x, one), _old_eval_point(s, x, one)
            else:
                Js, y = jac_eval_batch(s, x[None, :])[0], eval_map(s, x)
            J = Js if J is None else Js @ J
            x = y
        return x, J

    X = np.array([[2.0, 3.0], [0.5, 2.5], [1.25, 2.0], [-1.0, -2.0]])
    ref = [old_chain(x) for x in X]
    assert np.array_equal(pipe.eval_batch(X), np.stack([v for v, _ in ref]))
    assert np.array_equal(pipe.jac_batch(X), np.stack([J for _, J in ref]))
    assert np.array_equal(jac_batch(pipe, X[:1])[0], jac_point(pipe, X[0]))
    # the stages meet h's pole in row 2 first, but a row-by-row loop
    # stops at row 1, where the square root has no real value
    bad = np.array([[2.0, 3.0], [-2.0, 3.0], [1.0, 1.0]])
    for fn in (pipe.eval_batch, pipe.jac_batch):
        with pytest.raises(NewtonDiverged, match=r"sqrt: no convergence "
                           r"at \[-5\.5\]"):
            fn(bad)


def test_values_then_jacobians_solve_each_row_once(monkeypatch):
    # more rows than the cache's floor of 64: the Jacobians of a batch,
    # and the Jacobian step of a solve, find the values just solved
    imp = _inverse_cubic()
    solves = _count_solves(monkeypatch, imp)
    X = np.linspace(-5.0, 5.0, 100)[:, None]
    apply_batch(imp, X)
    jac_batch(imp, X)
    assert len(solves) == 100
    solves.clear()
    pipe = Composite(parse_map("2*x0 + 1", 1), imp)
    Z, ok, errors = solve_batch(pipe, np.linspace(-3.0, 5.0, 80)[:, None],
                                np.full((80, 1), 0.5))
    assert ok.all() and not errors
    assert len(solves) == len(set(solves)) > 80


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
