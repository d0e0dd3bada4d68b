"""Jets, truncated algebra, tangent maps, structure maps, and
procedurally defined maps."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tanbun import expr, jet, universal, vb
from tanbun.bundle import induce_addition
from tanbun.cli import main, parse_bundle_file
from tanbun.corpus import corpus_list, corpus_run
from tanbun.expr import (
    CheckConfig, DenominatorNearZero, ExprError, MAX_BUMP_ORDER, SmoothMap,
    Var, compose, con, cube, equal_maps, eval_batch, eval_map,
    jac_eval_batch, jacobian_exprs, parse_map, smooth_map,
)
from tanbun.jet import (
    AXIOM_CATALOG, ImplicitMap, JetPoint, NewtonDiverged, STANDARD_STRUCTS,
    TruncElem, apply_map, check_all_axioms, check_axiom, jac_point,
    prolong_implicit, pushforward, solve_batch, solve_least_norm, struct_map,
    tangent_after, tangent_map, tangent_of,
)
from tanbun.universal import cockett_square
from tanbun.jet import _each_row, _gauss_newton, _lstsq_stack
from numpy.linalg import _umath_linalg

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
    res = check_axiom("flip-invol", 2, STANDARD_STRUCTS, CFG)
    assert res.verdict.value == "pass-exact"


def test_broken_lift_trips_exactly_the_expected_axioms():
    def broken(k):
        xs = [Var(i) for i in range(k)]
        vs = [Var(k + i) for i in range(k)]
        return smooth_map(2 * k, xs + [con(0)] * k + vs + vs)

    rep = check_all_axioms((1,), {**STANDARD_STRUCTS, "lift": broken}, CFG)
    failed = {e.law_id for e in rep.failures()}
    assert failed == {"lift-add@k=1", "flip-lift@k=1", "lift-coassoc@k=1"}


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


@pytest.mark.parametrize("n", [1, 2])
def test_prolonged_implicit_matches_implicit_push(n):
    # the prolonged residual against the jet algebra, block by block
    imp = _inverse_cubic()
    prol = prolong_implicit(imp, n)
    rng = np.random.default_rng(n)
    for base in (10.0, 0.5, -3.0):
        x = np.concatenate([[base], rng.uniform(-2, 2, (1 << n) - 1)])
        a = prol.eval_point(x)
        b = imp.push(n, JetPoint.from_flat(x, n, 1)).to_flat()
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


def test_values_then_jacobians_solve_each_row_once(monkeypatch):
    # more rows than the cache's floor of 64: the Jacobians of a batch,
    # and the Jacobian step of a solve, find the values just solved
    imp = _inverse_cubic()
    solves = _count_solves(monkeypatch, imp)
    X = np.linspace(-5.0, 5.0, 100)[:, None]
    imp.eval_batch(X)
    imp.jac_batch(X)
    assert len(solves) == 100
    solves.clear()
    Z, ok, errors = solve_batch(imp, np.linspace(-2.0, 2.0, 80)[:, None],
                                np.full((80, 1), 0.5))
    assert ok.all() and not errors
    assert len(solves) == len(set(solves)) > 80


# --------------------------------------------------------------------------
# T(f) . g of an implicit f


def test_tangent_after_an_implicit_map_is_implicit():
    # at x = 2, g is (10, 4) and y^3 + y = 10 at y = 2, where dy/dx = 1/13
    imp = _inverse_cubic()
    t = tangent_after(imp, parse_map("x0^2 + 6, 2*x0", 1))
    assert isinstance(t, ImplicitMap) and (t.arity, t.coarity) == (1, 2)
    assert np.allclose(t.eval_point([2.0]), [2.0, 4.0 / 13.0], atol=1e-9)
    assert np.allclose(t.jacobian([2.0]),
                       [[4.0 / 13.0], [2.0 / 13.0 - 192.0 / 13.0 ** 3]],
                       atol=1e-9)
    # the start meets g's pole in row 2 first, but a row-by-row loop
    # stops at row 1, where the square root has no real value
    sqrt = ImplicitMap(parse_map("x1^2 - x0", 2), 1, 1,
                       init=lambda X: np.ones((len(X), 1)), name="sqrt")
    t = tangent_after(sqrt, parse_map("x0*x1 + 1/(x1 - 1), x0", 2))
    bad = np.array([[2.0, 3.0], [-2.0, 3.0], [1.0, 1.0]])
    for fn in (t.eval_batch, t.jac_batch):
        with pytest.raises(NewtonDiverged, match=r"sqrt: no convergence "
                           r"at \[-5\.5\]"):
            fn(bad)


def test_batch_evaluation_matches_point_evaluation():
    imp = _inverse_cubic()
    X = np.array([[10.0], [2.0], [-3.0]])
    for f in (imp, tangent_after(imp, parse_map("x0, x0^2", 1))):
        assert np.array_equal(f.eval_batch(X),
                              np.stack([apply_map(f, x) for x in X]))
        assert np.array_equal(f.jac_batch(X),
                              np.stack([jac_point(f, x) for x in X]))


def _stage_loop(stages, X):
    """Values and Jacobians of stages applied right to left, with the
    Jacobians chained by one stacked product per stage: how T(add) . pre
    was evaluated before it became one implicit map."""
    J = None
    for s in reversed(stages):
        Js = s.jac_batch(X)
        J = Js if J is None else np.matmul(Js, J)
        X = s.eval_batch(X)
    return X, J


def _implicit_texts(monkeypatch):
    """The implicit workload's bundle files at seed 1, from the
    benchmark's generator."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    return workloads.implicit_texts(1)


def test_the_folded_cockett_top_matches_the_stage_loop(monkeypatch):
    cfg = CheckConfig(count=20, seed=1)
    built = []
    monkeypatch.setattr(universal, "tangent_after",
                        lambda f, g: built.append((f, g)) or tangent_after(f, g))
    for name, text in _implicit_texts(monkeypatch):
        spec, _ = parse_bundle_file(text, name)
        sq = cockett_square(spec, induce_addition(spec, cfg))
        add, pre = built[-1]
        again = cockett_square(spec, induce_addition(spec, cfg))
        # one residual, by value, for both squares
        assert isinstance(sq.top, ImplicitMap) and again.top is not sq.top
        assert again.top.residual is sq.top.residual
        for depth in (0, 1):
            Z, _ = universal._sample_apex(sq, depth, cfg, 20)
            want, want_J = _stage_loop(
                (tangent_of(tangent_of(add, 1), depth),
                 tangent_of(pre, depth)), Z)
            top = tangent_of(sq.top, depth)
            assert np.abs(top.eval_batch(Z) - want).max() <= 1e-12, name
            assert np.abs(top.jac_batch(Z) - want_J).max() <= 1e-10, name


def test_tangents_are_of_the_two_kinds(monkeypatch, tmp_path, capsys):
    kinds = set()

    def recording(fn):
        def wrapped(*args):
            out = fn(*args)
            kinds.add(type(out))
            return out
        return wrapped

    originals = {name: getattr(jet, name)
                 for name in ("tangent_after", "tangent_of")}
    for module in (jet, universal, vb):
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, recording(fn))
    cfg = CheckConfig(count=30, seed=1)
    for entry in corpus_list():
        corpus_run(entry.name, cfg)
    for name, text in _implicit_texts(monkeypatch):
        path = tmp_path / name
        path.write_text(text)
        assert main(["check", str(path), "--seed", "1",
                     "--format", "json"]) == 0
    capsys.readouterr()
    assert kinds == {SmoothMap, ImplicitMap}


def test_solve_least_norm_hits_target():
    f = parse_map("x0 + x1", 2)
    z = solve_least_norm(f, np.array([4.0]), np.zeros(2))
    assert z is not None
    assert np.allclose(z, [2.0, 2.0], atol=1e-8)


class _Stacked:
    """The outputs of maps on one input, concatenated: a map that is
    not a SmoothMap."""

    def __init__(self, *parts):
        self.parts = parts

    def eval_batch(self, X):
        return np.hstack([p.eval_batch(X) for p in self.parts])

    def jac_batch(self, X):
        return np.concatenate([p.jac_batch(X) for p in self.parts], axis=1)

    def eval_point(self, x):
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def jacobian(self, x):
        return self.jac_batch(np.asarray(x, dtype=float)[None, :])[0]


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
        f = _Stacked(_inverse_cubic(), parse_map("x0^2", 1))
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


# --------------------------------------------------------------------------
# One stacked least-squares call per Newton iteration


def _lstsq_loop(A, B):
    """np.linalg.lstsq per row: each row's solution or its LinAlgError."""
    out = []
    for a, b in zip(A, B):
        try:
            out.append(np.linalg.lstsq(a, b, rcond=None)[0])
        except np.linalg.LinAlgError as err:
            out.append(err)
    return out


def _assert_stack_matches_the_loop(A, B):
    errors = {}
    kept, X = _lstsq_stack(A, B, errors)
    ref = _lstsq_loop(A, B)
    assert list(kept) == [k for k, r in enumerate(ref)
                          if not isinstance(r, Exception)]
    assert sorted(errors) == [k for k, r in enumerate(ref)
                              if isinstance(r, Exception)]
    assert X.shape == (len(kept), A.shape[2]) + B.shape[2:]
    for k, x in zip(kept, X):
        assert np.array_equal(x, ref[k], equal_nan=True), k
    for k, err in errors.items():
        assert type(err) is type(ref[k]) and str(err) == str(ref[k])
    return kept, X, errors


def test_the_gelsd_gufunc_keeps_its_signature():
    # _lstsq_stack calls numpy's private gufunc: an upgrade that changes
    # it must fail here, not round differently
    assert _umath_linalg.lstsq.signature == \
        "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"
    assert "ddd->ddid" in _umath_linalg.lstsq.types


def test_the_svd_gufuncs_keep_their_signatures():
    # universal's restricted-Jacobian plan calls these two directly, as
    # np.linalg.svd does: the values alone, and the full factorization
    assert _umath_linalg.svd.signature == "(m,n)->(p)"
    assert "d->d" in _umath_linalg.svd.types
    assert _umath_linalg.svd_f.signature == "(m,n)->(m,m),(p),(n,n)"
    assert "d->ddd" in _umath_linalg.svd_f.types


@pytest.mark.parametrize("shape", [(500, 2, 3), (500, 4, 4), (300, 6, 3),
                                   (300, 3, 8), (200, 1, 5)])
def test_stacked_lstsq_has_the_bits_of_the_per_row_call(shape):
    rng = np.random.default_rng(sum(shape))
    n, m, k = shape
    A = rng.normal(size=shape)
    # every fifth row rank-deficient: a repeated column, or all zero
    A[::5, :, -1] = A[::5, :, 0]
    A[3::50] = 0.0
    B = rng.normal(size=(n, m))
    kept, _, _ = _assert_stack_matches_the_loop(A, B)
    assert len(kept) == n
    # a matrix right-hand side, and a non-contiguous stack
    _assert_stack_matches_the_loop(A, rng.normal(size=(n, m, 3)))
    _assert_stack_matches_the_loop(A[::2, :, ::-1], B[::2])


def test_stacked_lstsq_of_an_empty_stack_or_matrix():
    kept, X = _lstsq_stack(np.empty((0, 3, 2)), np.empty((0, 3)))
    assert kept.size == 0 and X.shape == (0, 2)
    # no equations: np.linalg.lstsq returns zeros
    _assert_stack_matches_the_loop(np.empty((4, 0, 2)), np.empty((4, 0)))


def test_stacked_lstsq_redoes_a_failing_stack_row_by_row():
    rng = np.random.default_rng(7)
    A, B = rng.normal(size=(6, 3, 2)), rng.normal(size=(6, 3))
    A[2, 1, 1], A[4, 0, 0] = np.nan, np.inf
    _, X, errors = _assert_stack_matches_the_loop(A, B)
    assert sorted(errors) == [2, 4] and len(X) == 4
    assert all(isinstance(e, np.linalg.LinAlgError) for e in errors.values())
    # without an errors dict, the first failing row raises
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _lstsq_stack(A, B)
    # a NaN on the right-hand side alone does not fail the SVD
    B[1, 0] = np.nan
    _, X, errors = _assert_stack_matches_the_loop(A, B)
    assert np.isnan(X[1]).all()


def _equal_stack(rng, n, m, k, rank=None):
    a = rng.normal(size=(m, k))
    if rank is not None:    # a rank-deficient matrix
        a = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, k))
    return np.broadcast_to(a, (n, m, k)).copy()


@pytest.mark.parametrize("shape, rank", [
    ((75, 20, 8), None), ((25, 36, 48), None), ((75, 48, 20), None),
    ((300, 24, 10), 6), ((40, 3, 2), None), ((2, 1, 5), None)])
def test_an_equal_stack_is_one_solve_with_the_rows_of_their_own(shape,
                                                                rank):
    # one gelsd call with many right-hand sides rounds as a backward-
    # stable solve of each row does: to a few ulps of the row's largest
    # |x|, times the condition number of the matrix
    rng = np.random.default_rng(sum(shape))
    A = _equal_stack(rng, *shape, rank=rank)
    s = np.linalg.svd(A[0], compute_uv=False)
    cond = s[0] / s[s > s[0] * 1e-10][-1]
    for B in (rng.normal(size=shape[:2]), rng.normal(size=shape[:2] + (3,))):
        B[1] = 0.0      # a zero right-hand side still solves to +0.0
        B[-1] *= 1e-280
        kept, X = _lstsq_stack(A, B)
        assert kept.tolist() == list(range(len(A)))
        assert X.shape == (len(A), shape[2]) + B.shape[2:]
        for x, ref in zip(X, _lstsq_loop(A, B)):
            scale = np.abs(ref).max(initial=0.0)
            assert np.all(np.abs(x - ref) <= 8 * cond * np.spacing(scale))
        assert _bits(X[1]) == _bits(np.zeros_like(X[1]))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("edit", ["nonfinite-b", "b-outside-gelsd-range",
                                  "nonfinite-matrix"])
def test_an_equal_stack_gelsd_would_rescale_keeps_the_per_row_bits(edit):
    rng = np.random.default_rng(3)
    A = _equal_stack(rng, 30, 20, 8)
    B = rng.normal(size=(30, 20))
    if edit == "nonfinite-b":
        B[4, 2], B[9, 0] = np.nan, -np.inf
    elif edit == "b-outside-gelsd-range":
        B[7] *= 1e-300      # below SMLNUM, about 1e-292
        B[8] *= 1e300       # above BIGNUM
    else:
        A[:, 3, 1] = np.nan
    kept, _, errors = _assert_stack_matches_the_loop(A, B)
    assert len(errors) == (30 if edit == "nonfinite-matrix" else 0)
    _assert_stack_matches_the_loop(A, np.repeat(B[:, :, None], 2, axis=2))


def test_a_matrix_that_is_not_finite_never_reaches_lapack(capfd):
    # LAPACK's error handler prints to standard output
    A, B = np.ones((3, 2, 2)), np.ones((3, 2))
    A[1, 0, 1] = np.nan
    errors = {}
    kept, _ = _lstsq_stack(A, B, errors)
    assert kept.tolist() == [0, 2] and list(errors) == [1]
    assert str(errors[1]) == "SVD did not converge in Linear Least Squares"
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _lstsq_stack(A[1:2], B[1:2])
    assert capfd.readouterr().out == ""


def test_an_implicit_push_keeps_lapack_off_stdout(capfd):
    # at x0 = 1e200 the residual is 0 at y = 1, the start, but its
    # derivative in y is 1 + x0*x0 = inf
    imp = ImplicitMap(parse_map("x1 - 1 + (x1 - 1)*x0*x0", 2), 1, 1,
                      init=lambda X: np.ones((len(X), 1)))
    with pytest.raises(np.linalg.LinAlgError,
                       match="^SVD did not converge in Linear Least Squares$"):
        with np.errstate(over="ignore"):
            imp.push(1, JetPoint(1, 1, [[1e200], [1.0]]))
    assert capfd.readouterr().out == ""


def _ref_gauss_newton(F, J, Z, live, tol, max_iter, errors, value_errors=None,
                      diverged=None):
    """jet._gauss_newton as it was with one np.linalg.lstsq per row."""
    converged = []
    for _ in range(max_iter):
        if not live.size:
            break
        kept, R = _each_row(F, live, value_errors)
        live = live[kept]
        if not live.size:
            break
        done = np.max(np.abs(R), axis=1) < tol
        converged.extend(live[done])
        live, R = live[~done], R[~done]
        if not live.size:
            break
        kept, Js = _each_row(J, live, errors)
        running = []
        for k, Jk, r in zip(live[kept], Js, R[kept]):
            try:
                step, *_ = np.linalg.lstsq(Jk, -r, rcond=None)
            except np.linalg.LinAlgError as err:
                errors[int(k)] = err
                continue
            if np.all(np.isfinite(step)):
                Z[k] = Z[k] + step
                running.append(k)
            elif diverged is not None:
                errors[int(k)] = NewtonDiverged(diverged)
        live = np.array(running, dtype=int)
    return np.array(converged, dtype=int), live


@pytest.mark.parametrize("diverged", [None, "non-finite step"])
def test_gauss_newton_matches_the_per_row_loop(diverged):
    # x0^2 + x1^2 = t0, x0*x1 = t1: converging rows, rows with no
    # solution, a start at the singular origin, a start whose step
    # overflows, a Jacobian with a NaN (its SVD fails) and a row whose
    # Jacobian raises
    f = parse_map("x0^2 + x1^2, x0*x1", 2)
    T = np.array([[2.0, 1.0], [5.0, 2.0], [-1.0, 0.0], [2.0, 1.0],
                  [1e308, 0.0], [2.0, 1.0], [2.0, 0.5], [3.0, 1.0]])
    Z0 = np.array([[1.5, 0.5], [3.0, 1.0], [1.0, 0.5], [0.0, 0.0],
                   [1e200, 1.0], [1.2, 0.9], [0.4, 0.3], [2.0, 0.1]])

    def J(Z, rows):
        if 7 in rows:
            raise DenominatorNearZero("row 7")
        Js = f.jac_batch(Z[rows])
        Js[rows == 5] = np.nan
        return Js

    outs = []
    for gn in (_gauss_newton, _ref_gauss_newton):
        Z, errors, value_errors = Z0.copy(), {}, {}
        with np.errstate(over="ignore", invalid="ignore"):
            conv, live = gn(lambda rows: f.eval_batch(Z[rows]) - T[rows],
                            lambda rows: J(Z, rows), Z, np.arange(len(Z)),
                            1e-11, 30, errors, value_errors, diverged)
        outs.append((Z, conv, live, errors, value_errors))
    (Z, conv, live, errors, v_err), (Z_r, conv_r, live_r, err_r, v_r) = outs
    assert np.array_equal(Z, Z_r, equal_nan=True)
    assert list(conv) == list(conv_r) and list(live) == list(live_r)
    assert len(conv) and len(live)
    assert sorted(errors) == sorted(err_r) and {5, 7} <= set(errors)
    for k in errors:
        assert type(errors[k]) is type(err_r[k])
        assert str(errors[k]) == str(err_r[k])
    assert list(v_err) == list(v_r)
    assert (4 in errors) == (diverged is not None)


def test_stacked_jacobians_have_the_bits_of_the_row_loops():
    X = np.random.default_rng(3).uniform(0.5, 2.0, (40, 2))
    imp = ImplicitMap(parse_map("x2^3 + x2 - x0*x1, x3 - x2*x0", 4), 2, 2,
                      init=lambda X: np.ones((len(X), 2)))
    J = jac_eval_batch(imp.residual, np.hstack([X, imp.eval_batch(X)]))
    assert np.array_equal(imp.jac_batch(X), np.stack(
        [np.linalg.lstsq(Jk[:, 2:], -Jk[:, :2], rcond=None)[0] for Jk in J]))


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


# --------------------------------------------------------------------------
# The value-keyed memo of symbolic derivations


MEMOS = (expr.jacobian_exprs, jet._tangent_once, jet._smooth_tangent_after,
         jet._prolonged_residual, jet._residual_after)

# bump terms, quotients and exp
MEMO_MAPS = (
    "bump(x0)*x1 + d3bump(x1), (x0 - x1^2)/(2 + x0*x1)",
    "exp(x0*x1) - x1/(1 + x0^2), d2bump(x0/4 + 1/2)*exp(x1)",
)


def _same_bits(f, g, seed):
    # equal values whose Jacobian plans were compiled apart
    X = cube(f.arity, -1, 1).sample(CFG.rng(seed), 9)
    assert f == g
    assert np.array_equal(f.eval_batch(X), g.eval_batch(X))
    assert np.array_equal(f.jac_batch(X), g.jac_batch(X))


@pytest.mark.parametrize("src", MEMO_MAPS)
def test_memoized_derivations_have_the_bits_of_fresh_ones(src):
    for memo in MEMOS:
        memo.cache_clear()
    f = parse_map(src, 2)
    rows = jacobian_exprs(f)
    assert rows == expr.jacobian_exprs.__wrapped__(f)
    assert type(rows) is tuple and {type(r) for r in rows} == {tuple}
    assert jacobian_exprs(parse_map(src, 2)) is rows
    fresh = f
    for n in (1, 2):
        fresh = jet._tangent_once.__wrapped__(fresh)
        shared = tangent_map(parse_map(src, 2), n)
        assert tangent_map(f, n) is shared
        _same_bits(shared, fresh, f"memo{n}")
    g = parse_map("x0 + x1^2, x0*x1", 2)
    after = tangent_after(f, tangent_map(g, 1))
    assert tangent_after(parse_map(src, 2), tangent_map(g, 1)) is after
    _same_bits(after, jet._smooth_tangent_after.__wrapped__(
        f, jet._tangent_once.__wrapped__(g)), "memo-after")


def test_prolonged_implicit_maps_share_one_residual():
    jet._prolonged_residual.cache_clear()
    one, two = prolong_implicit(_inverse_cubic(), 2), \
        prolong_implicit(_inverse_cubic(), 2)
    assert one is not two and one.residual is two.residual
    _same_bits(one.residual, jet._prolonged_residual.__wrapped__(
        _inverse_cubic().residual, 1, 2), "memo-prolong")


def test_a_derivation_that_raises_is_not_remembered():
    f = parse_map(f"x1*d{MAX_BUMP_ORDER}bump(x0)", 2)
    sizes = [memo.cache_info().currsize for memo in MEMOS]
    for _ in range(3):
        for derive in (jacobian_exprs, lambda f: tangent_map(f, 1),
                       lambda f: jac_eval_batch(f, [[0.5, 0.5]])):
            with pytest.raises(ExprError, match="registry limit"):
                derive(f)
    assert [memo.cache_info().currsize for memo in MEMOS] == sizes


def test_the_shared_jacobian_template_is_read_only():
    f = parse_map("3*x0 + x1^2, x0", 2)
    template, _ = f._jac_plan
    with pytest.raises(ValueError):
        template[0, 0] = 1.0
    J = jac_eval_batch(f, [[1.0, 2.0]])
    J[:] = 7.0
    assert template.tolist() == [[3.0, 0.0], [1.0, 0.0]]


def test_a_corpus_entry_differentiates_each_map_once(monkeypatch):
    derived = []

    def counting(f, var, _derive=expr.symbolic_derivative):
        derived.append((f, var))
        return _derive(f, var)

    monkeypatch.setattr(expr, "symbolic_derivative", counting)
    for memo in MEMOS:
        memo.cache_clear()
    corpus_run("tangent_bundle_2")
    assert derived and len(set(derived)) == len(derived)
    derived.clear()
    corpus_run("tangent_bundle_2")
    assert derived == []
