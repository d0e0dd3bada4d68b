"""Parser, exact evaluation, canonical forms, and map comparison."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tanbun.expr import (
    Box, Call, CheckConfig, Const, DenominatorNearZero, DimensionMismatch,
    ExprError, ParseError, Pow, Product, Quot, SmoothMap, Sum, Var, compose,
    con, concat_maps, cube, equal_maps, eval_batch, eval_exact, eval_map,
    eval_mp, identity_map, jac_eval_batch, jacobian_exprs, parse_map,
    projection, simplify_map, smooth_map, to_source,
)
from tanbun import expr, jet
from tanbun.bundle import check_predifferential
from tanbun.cli import parse_bundle_file
from tanbun.corpus import corpus_list, corpus_run
from tanbun.jet import JetPoint, check_all_axioms, pushforward
from tanbun.report import Verdict, law_from_verdict

CFG = CheckConfig(count=40, seed=7)


# --------------------------------------------------------------------------
# Parsing


def test_parse_basic_arithmetic():
    f = parse_map("x0 + 2*x1, x0*x1 - 3", 2)
    assert f.arity == 2 and f.coarity == 2
    assert np.allclose(eval_map(f, [1.0, 2.0]), [5.0, -1.0])


def test_parse_powers_and_unary_minus():
    f = parse_map("-x0^3 + (-2)^2", 1)
    assert np.allclose(eval_map(f, [2.0]), [-4.0])


def test_parse_quotient():
    f = parse_map("1 / (2 + x0^2)", 1)
    assert np.allclose(eval_map(f, [1.0]), [1.0 / 3.0])


def test_parse_builtins():
    f = parse_map("sin(x0) + cos(x0), exp(2*x0)", 1)
    x = 0.37
    assert np.allclose(eval_map(f, [x]),
                       [np.sin(x) + np.cos(x), np.exp(2 * x)])


def test_bump_is_flat_outside_and_monotone_inside():
    f = parse_map("bump(x0)", 1)
    xs = np.linspace(-1.0, 2.0, 61)[:, None]
    ys = eval_batch(f, xs)[:, 0]
    # left flat is exactly zero; right flat is one up to a rounding ulp
    assert np.all(ys[xs[:, 0] <= 0.0] == 0.0)
    assert np.allclose(ys[xs[:, 0] >= 1.0], 1.0, rtol=0, atol=5e-16)
    inside = ys[(xs[:, 0] > 0.02) & (xs[:, 0] < 0.98)]
    assert np.all(np.diff(inside) > 0)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse_map("x0 + ", 1)
    assert err.value.line == 1


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(ParseError):
        parse_map("x3", 2)


def test_parse_rejects_unknown_function():
    with pytest.raises(ParseError):
        parse_map("sinh(x0)", 1)


@pytest.mark.parametrize("text, message, line, column", [
    ("x0 +\n  x1 $", "unexpected character '$'", 2, 6),
    ("x0\t+ @", "unexpected character '@'", 1, 6),
    ("x0 + é1 $", "unexpected character '$'", 1, 9),
    ("x0 + .", "malformed number", 1, 6),
    ("x0 + 1..5", "unexpected token '.5'", 1, 8),
    ("x0 +\n", "unexpected end of input", 2, 1),
    ("x0,\n\n  sin(x0", "expected ')'", 3, 9),
    ("x0 + sinh(x0)", "unknown builtin 'sinh'", 1, 6),
    ("x0^1.5", "exponent must be a nonnegative integer", 1, 4),
    ("x0 ^\n x1", "exponent must be a nonnegative integer", 2, 2),
    ("x0 x1", "unexpected token 'x1'", 1, 4),
])
def test_parse_errors_name_their_line_and_column(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_map(text, 2)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"{message} (line {line}, column {column})"


class _RefLexer:
    """expr._Lexer as it was: one character at a time, with str.isdigit
    and str.isalnum, so any Unicode digit read as a digit."""

    def __init__(self, text):
        self.text, self.pos, self.line, self.col = text, 0, 1, 1
        self.tokens = []
        self._run()

    def _error(self, msg):
        raise ParseError(msg, self.line, self.col)

    def _advance(self, n):
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _run(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch.isspace():
                self._advance(1)
                continue
            start = (self.line, self.col)
            if ch in "+-*/^(),":
                self.tokens.append(("op", ch, start))
                self._advance(1)
            elif ch.isdigit() or ch == ".":
                j = self.pos
                seen_dot = False
                while j < len(text) and (text[j].isdigit() or
                                         (text[j] == "." and not seen_dot)):
                    seen_dot = seen_dot or text[j] == "."
                    j += 1
                lit = text[self.pos:j]
                if lit == ".":
                    self._error("malformed number")
                self.tokens.append(("num", lit, start))
                self._advance(j - self.pos)
            elif ch.isalpha() or ch == "_":
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[self.pos:j], start))
                self._advance(j - self.pos)
            else:
                self._error(f"unexpected character {ch!r}")
        self.tokens.append(("end", "", (self.line, self.col)))


def _lex(cls, text):
    try:
        return cls(text).tokens
    except ParseError as err:
        return str(err)


# a superscript, a fullwidth and an Arabic-Indic digit, a vulgar fraction
# and a Roman numeral: not ASCII digits, yet isdigit or isalnum
NON_ASCII_NUMERALS = "²１٣½Ⅷ"


@given(st.text(alphabet=" \t\n\xa0x0179._+-*/^(),$éλ" + NON_ASCII_NUMERALS,
               max_size=20))
@settings(max_examples=500, deadline=None)
def test_the_lexer_reads_text_as_before_but_for_non_ascii_numerals(text):
    got = _lex(expr._Lexer, text)
    first = min((text.index(ch) for ch in NON_ASCII_NUMERALS if ch in text),
                default=None)
    if first is None:
        assert got == _lex(_RefLexer, text)
        return
    assert isinstance(got, str)     # an error, and the first one in order
    before = _lex(_RefLexer, text[:first])
    if isinstance(before, str):
        assert got == before


# superscript and fullwidth digits: see tests/test_cli.py
@pytest.mark.parametrize("text, column", [
    ("x٣ + 1", 2), ("λ½", 2), ("1.²", 3), ("x0 + Ⅷ", 6),
])
def test_a_digit_that_is_not_ascii_is_an_unexpected_character(text, column):
    with pytest.raises(ParseError) as err:
        parse_map(text, 2)
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value).startswith(
        f"unexpected character {text[column - 1]!r}")


@given(st.integers(min_value=-40, max_value=40),
       st.integers(min_value=-40, max_value=40))
@settings(max_examples=50, deadline=None)
def test_print_parse_round_trip(a, b):
    f = smooth_map(2, (con(a) * Var(0) + con(b) * Var(1) ** 2,
                       Var(0) * Var(1) + con(Fraction(a, 7))))
    g = parse_map(to_source(f), 2)
    x = np.array([[0.6, -1.2]])
    assert np.allclose(eval_batch(f, x), eval_batch(g, x))


# --------------------------------------------------------------------------
# Evaluation paths agree


def test_eval_exact_matches_float():
    f = parse_map("x0^2/4 + 3*x1 - 1/2", 2)
    got = eval_exact(f, [Fraction(1, 2), Fraction(-2, 3)])
    assert got == [Fraction(1, 16) + Fraction(-2) - Fraction(1, 2)]


def test_eval_exact_refuses_builtins():
    f = parse_map("sin(x0)", 1)
    with pytest.raises(ExprError):
        eval_exact(f, [Fraction(0)])


def test_eval_mp_matches_numpy_to_high_precision():
    f = parse_map("exp(x0)*sin(x1) + x0^3", 2)
    x = [0.3, -0.8]
    hi = [float(v) for v in eval_mp(f, x, dps=50)]
    assert np.allclose(hi, eval_map(f, x), rtol=1e-14, atol=1e-14)


# (DSL source, exact value at (1/2, -2/3) or None, a point where a
# denominator vanishes or None)
EVAL_CASES = {
    "polynomial": ("x0^3 - 2*x1 + 1/3, x0*x1^2 - x1",
                   [Fraction(43, 24), Fraction(8, 9)], None),
    "quotient": ("(x0 - x1^2)/(2 + x0*x1)", None, (2.0, -1.0)),
    "analytic": ("exp(x0) - sin(x1)*cos(x0)", None, None),
    "bump": ("bump(x0)/(1 - x1) - dbump(x1)^2, dbump(x0)", None, (0.5, 1.0)),
    "constant": ("3/4, exp(1), exp(1)*x0 - x1", None, None),
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_number_kinds_agree_on_every_node_kind(case):
    src, exact, pole = EVAL_CASES[case]
    f = parse_map(src, 2)
    X = np.array([[0.25, 0.75], [0.6, 0.3], [0.9, 0.1]])
    batch = eval_batch(f, X)
    assert batch.dtype == np.float64 and batch.shape == (len(X), f.coarity)
    for x, row in zip(X, batch):
        jet = pushforward(f, 0, JetPoint(0, 2, x[None, :])).blocks[0]
        hi = [float(v) for v in eval_mp(f, x)]
        assert np.allclose(jet, row, rtol=0, atol=1e-12)
        assert np.allclose(hi, row, rtol=0, atol=1e-12)
    point = [Fraction(1, 2), Fraction(-2, 3)]
    if exact is None:
        with pytest.raises(ExprError):
            eval_exact(f, point)
    else:
        assert eval_exact(f, point) == exact
    if pole is not None:
        x = np.array(pole)
        with pytest.raises(DenominatorNearZero):
            eval_batch(f, x[None, :])
        with pytest.raises(DenominatorNearZero):
            eval_mp(f, x)
        with pytest.raises(DenominatorNearZero):
            pushforward(f, 0, JetPoint(0, 2, x[None, :]))


def test_eval_batch_matches_pointwise():
    f = parse_map("x0*x1, cos(x0) - x1^2", 2)
    X = cube(2).sample(CFG.rng("batch"), 25)
    batch = eval_batch(f, X)
    for i in range(len(X)):
        assert np.allclose(batch[i], eval_map(f, X[i]))


# --------------------------------------------------------------------------
# Simplification and symbolic derivatives


@given(st.integers(min_value=-5, max_value=5),
       st.integers(min_value=-5, max_value=5),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=50, deadline=None)
def test_simplify_preserves_values(a, b, k):
    f = smooth_map(2, ((Var(0) + con(a)) * (Var(0) - con(a))
                       + con(b) * Var(1) ** k,))
    g = simplify_map(f)
    X = cube(2).sample(CFG.rng(f"simp{a}{b}{k}"), 20)
    assert np.allclose(eval_batch(f, X), eval_batch(g, X))


def test_simplify_cancels_to_zero():
    f = parse_map("(x0 + 1)^2 - x0^2 - 2*x0 - 1", 1)
    assert to_source(simplify_map(f)) == "0"


def test_jacobian_exprs_polynomial():
    f = parse_map("x0^2*x1, x0 + x1^3", 2)
    rows = jacobian_exprs(f)
    J = smooth_map(2, tuple(rows[0]) + tuple(rows[1]))
    assert np.allclose(eval_map(J, [2.0, 3.0]), [12.0, 4.0, 1.0, 27.0])


def test_jac_eval_batch_matches_finite_differences():
    f = parse_map("sin(x0*x1), exp(x0) - x1^2", 2)
    X = cube(2).sample(CFG.rng("jac"), 10)
    J = jac_eval_batch(f, X)
    h = 1e-6
    for i, x in enumerate(X):
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (eval_map(f, x + e) - eval_map(f, x - e)) / (2 * h)
            assert np.allclose(J[i][:, j], fd, atol=1e-7)
    for bad in ([[1.0, 2.0, 99.0]], [[1.0]], [1.0, 2.0]):
        for evaluate in (eval_batch, jac_eval_batch):
            with pytest.raises(DimensionMismatch):
                evaluate(f, bad)


class _FilledFloats(expr._Floats):
    """The float kind with every constant filled to an array."""

    def const(self, c):
        return np.full(self.n, float(c.value))


# Jacobians with zero and non-zero constant entries, quotients, builtins,
# bumps and builtins of constants; numpy's scalar power differs from its
# array power at exp(9/8)^4.
PLAN_MAPS = (
    "x0*x1 + 3*x0, 2*x1, x0^2 - 5",
    "(x0 - x1^2)/(2 + x0*x1), sin(x0)*x1, bump(x0) + dbump(x1)",
    "exp(1)*x0 + exp(9/8)^4*x1^2, cos(2)/(x0^2 + 1), 1/exp(x1)",
)


@pytest.mark.parametrize("src", PLAN_MAPS)
def test_jacobian_plan_matches_entrywise_evaluation(src, monkeypatch):
    differentiated = []

    def counting_jacobian_exprs(f):
        differentiated.append(f)
        return jacobian_exprs(f)

    monkeypatch.setattr(expr, "jacobian_exprs", counting_jacobian_exprs)
    f = parse_map(src, 2)
    X = cube(2).sample(CFG.rng("plan"), 7)
    num, cols = _FilledFloats(len(X)), list(X.T)
    ref = np.empty((len(X), f.coarity, f.arity))
    for i, row in enumerate(jacobian_exprs(f)):
        for j, e in enumerate(row):
            ref[:, i, j] = expr._evaluate(e, cols, num)
    for _ in range(3):
        assert np.array_equal(jac_eval_batch(f, X), ref)
        assert np.array_equal(jac_eval_batch(f, X[:1]), ref[:1])
    assert differentiated == [f]
    values = [expr._evaluate(c, cols, num) for c in f.components]
    assert np.array_equal(eval_batch(f, X), np.stack(values, axis=1))


def test_jacobian_plan_guards_live_quotients():
    # entries (0, 1) and (1, 0) are quotients with poles at (2, -2); the
    # message prints the quotient, so it names the entry that raised first
    f = parse_map("x0^2 + 1/(2 + x1), 1/(x0 - 2) + x1", 2)
    X = np.array([[0.5, 0.5], [2.0, -2.0]])
    with pytest.raises(DenominatorNearZero) as ref:
        for row in jacobian_exprs(f):
            for e in row:
                expr._evaluate(e, list(X.T), _FilledFloats(len(X)))
    with pytest.raises(DenominatorNearZero) as got:
        jac_eval_batch(f, X)
    assert str(got.value) == str(ref.value)


# --------------------------------------------------------------------------
# Map combinators


def test_compose_is_right_to_left():
    f = parse_map("x0 + 1", 1)
    g = parse_map("2*x0", 1)
    assert np.allclose(eval_map(compose(f, g), [3.0]), [7.0])


def test_compose_dimension_check():
    with pytest.raises(DimensionMismatch):
        compose(parse_map("x0, x1", 2), parse_map("x0", 1))


def test_identity_projection_concat_fanout_juxtapose():
    idm = identity_map(3)
    assert np.allclose(eval_map(idm, [1, 2, 3]), [1, 2, 3])
    pr = projection(3, (2, 0))
    assert np.allclose(eval_map(pr, [1, 2, 3]), [3, 1])
    cc = concat_maps(parse_map("x0", 1), parse_map("x0^2", 1))
    assert np.allclose(eval_map(cc, [3]), [3, 9])


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_compose_associative_on_samples(a, b):
    f = smooth_map(1, (Var(0) ** 2 + con(a),))
    g = smooth_map(1, (con(2) * Var(0) - con(b),))
    h = smooth_map(1, (Var(0) + con(1),))
    lhs = compose(compose(f, g), h)
    rhs = compose(f, compose(g, h))
    X = cube(1).sample(CFG.rng(f"assoc{a}{b}"), 15)
    assert np.allclose(eval_batch(lhs, X), eval_batch(rhs, X))


# --------------------------------------------------------------------------
# equal_maps verdicts


def test_equal_maps_exact_on_polynomials():
    f = parse_map("(x0 + x1)^2", 2)
    g = parse_map("x0^2 + 2*x0*x1 + x1^2", 2)
    v = equal_maps(f, g, cube(2), CFG)
    assert v.kind == "equal" and v.is_exact


def test_equal_maps_compares_the_memoized_forms_unsorted(monkeypatch):
    # dict equality ignores order, so no canonical form is sorted or copied
    monkeypatch.setattr(expr, "poly_normalize", None)
    monkeypatch.setattr(expr, "_grlex_key", None)
    f = parse_map("(x0 + x1)^2, x1", 2)
    g = parse_map("x1^2 + 2*x0*x1 + x0^2, x1", 2)
    assert equal_maps(f, g, cube(2), CFG).is_exact
    assert equal_maps(f, parse_map("x0^2, x1", 2), cube(2),
                      CFG).kind == "not-equal"


def test_equal_maps_refutes_with_witness():
    f = parse_map("x0^2", 1)
    g = parse_map("x0^2 + x0^4", 1)
    v = equal_maps(f, g, cube(1), CFG)
    assert v.kind == "not-equal"
    assert v.witness is not None
    x = np.asarray(v.witness[0], dtype=float)
    assert abs(eval_map(f, x)[0] - eval_map(g, x)[0]) > CFG.tol


def test_equal_maps_numeric_pass_for_builtin_maps():
    f = parse_map("sin(x0)^2", 1)
    g = parse_map("1 - cos(x0)^2", 1)
    v = equal_maps(f, g, cube(1), CFG)
    assert v.kind == "numeric" and not v.is_exact


# inf - inf above x0 = 0.71, where exp(1000*x0) overflows, and large
# rounding errors below it
INF_MINUS_INF = "x0 + exp(1000*x0) - exp(999*x0)*exp(x0)"
# 0*inf, NaN, above x0 = 0.0066, and x0 up to rounding below 0
ZERO_TIMES_INF = "x0*exp(-exp(1000*x0))*exp(exp(1000*x0))"


def test_equal_maps_never_counts_a_nan_as_agreement():
    f = parse_map(ZERO_TIMES_INF, 1)
    v = equal_maps(f, parse_map("x0", 1), cube(1))
    assert v.kind == "unknown"
    X = cube(1).sample(CheckConfig().rng("equal_maps"), CheckConfig().count)
    first = X[np.isnan(f.eval_batch(X)[:, 0])][0]
    assert v.reason == f"residual is NaN at sample {first.tolist()}"
    point, lhs, rhs = v.witness
    assert point.tolist() == first.tolist() and np.isnan(lhs[0]) \
        and rhs[0] == first[0]
    res = law_from_verdict("x", "a", v)
    assert res.verdict is Verdict.UNKNOWN and "NaN" in res.note
    assert res.witness is v.witness


def test_equal_maps_refutes_on_a_finite_row_beside_nan_rows():
    v = equal_maps(parse_map(INF_MINUS_INF, 1), parse_map("x0", 1), cube(1))
    assert v.kind == "not-equal" and v.max_residual > 1.0
    assert np.isfinite(np.hstack(v.witness)).all()


def test_the_comparison_samples_are_drawn_once_and_read_only(monkeypatch):
    expr._comparison_samples.cache_clear()
    box, cfg = cube(2), CheckConfig(count=30, seed=5)
    X = expr._comparison_samples(box, cfg)
    fresh = box.sample(cfg.rng("equal_maps"), cfg.count)
    assert X.shape == fresh.shape and X.tobytes() == fresh.tobytes()
    assert not X.flags.writeable
    with pytest.raises(ValueError):
        X[0, 0] = 0.0
    draws = []
    rng = CheckConfig.rng
    monkeypatch.setattr(CheckConfig, "rng",
                        lambda self, tag: draws.append(tag) or rng(self, tag))
    v = equal_maps(parse_map("x0", 2), parse_map("x1", 2),
                   Box(((-2, 2), (Fraction(-4, 2), 2))), CheckConfig(30, seed=5))
    assert draws == [] and v.kind == "not-equal"
    assert any((row == v.witness[0]).all() for row in X)
    assert all(w.flags.writeable for w in v.witness)


# --------------------------------------------------------------------------
# Normal-form marks, cached hashes and the polynomial memo


def _rebuilt(e):
    """An equal copy of e built by the dataclasses alone: no node of it
    carries a mark or a cached hash."""
    if isinstance(e, (Const, Var)):
        return e
    return type(e)(*(
        tuple(map(_rebuilt, v)) if isinstance(v, tuple)
        else _rebuilt(v) if isinstance(v, expr.Expr) else v
        for v in (getattr(e, f.name) for f in dataclasses.fields(e))))


def _reference_normalize(e):
    """normalize as it was before smart constructors marked their output:
    every node is walked and rebuilt, marked or not."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, Sum):
        return expr.sum_of(e.terms)
    if isinstance(e, Product):
        return expr.product_of(e.factors)
    if isinstance(e, Pow):
        return expr.power(e.base, e.exponent)
    if isinstance(e, Quot):
        return expr.quotient(e.num, e.den)
    if isinstance(e, Call):
        return expr.call(e.name, e.arg)
    raise TypeError(f"not an Expr: {e!r}")


def _old_normalize(e, monkeypatch):
    # the smart constructors normalize their arguments through the
    # module's normalize: send them to the reference
    with monkeypatch.context() as m:
        m.setattr(expr, "normalize", _reference_normalize)
        return _reference_normalize(e)


def _compound_nodes(e, acc):
    if not isinstance(e, (Const, Var)) and e not in acc:
        acc.add(e)
        for v in (getattr(e, f.name) for f in dataclasses.fields(e)):
            for u in (v if isinstance(v, tuple) else (v,)):
                if isinstance(u, expr.Expr):
                    _compound_nodes(u, acc)
    return acc


def _refute_inputs(monkeypatch):
    """The refute workload's inputs at seed 1, from the benchmark's
    generator."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    return workloads.refute_inputs(1)


def test_every_built_node_is_marked_and_normal_as_before(monkeypatch):
    built = []
    init = SmoothMap.__post_init__

    def recording(self):
        init(self)
        built.append(self)

    inputs = _refute_inputs(monkeypatch)
    cfg = CheckConfig(count=10, seed=1, t_depth=1)
    for memo in (expr.jacobian_exprs, expr._comparison_samples,
                 jet._tangent_once, jet._smooth_tangent_after,
                 jet._prolonged_residual, jet._residual_after):
        memo.cache_clear()   # so that every derived map is built here
    monkeypatch.setattr(SmoothMap, "__post_init__", recording)
    for entry in corpus_list():
        corpus_run(entry.name, cfg)
    for kind, name, payload in inputs:
        if kind == "catalog":
            check_all_axioms((payload,), cfg=cfg)
        else:
            spec, _ = parse_bundle_file(payload, source=name)
            check_predifferential(spec, cfg)
    monkeypatch.setattr(SmoothMap, "__post_init__", init)
    comps = {c for f in built for c in f.components}
    nodes = set()
    for c in comps:
        _compound_nodes(c, nodes)
    assert len(comps) > 1000 and len(nodes) > 2000
    for node in nodes:
        assert "_normal" in node.__dict__
        assert expr.normalize(node) is node
    for c in comps:
        assert expr.normalize(_rebuilt(c)) == c
        assert _old_normalize(c, monkeypatch) == c


def _raw_tree(children):
    some = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(Sum, some), st.builds(Product, some),
        st.builds(Pow, children, st.integers(0, 3)),
        st.builds(Quot, children, children),
        st.builds(Call, st.sampled_from(["exp", "sin", "bump"]), children))


RAW_TREES = st.recursive(
    st.one_of(st.builds(Var, st.integers(0, 1)),
              st.builds(Const, st.fractions(-2, 2, max_denominator=3))),
    _raw_tree, max_leaves=10)


@given(RAW_TREES)
@settings(max_examples=200, deadline=None)
def test_normalize_of_an_unmarked_tree_is_as_before(raw):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            want = _old_normalize(raw, monkeypatch)
        except ExprError:
            with pytest.raises(ExprError):
                expr.normalize(raw)
            return
    got = expr.normalize(raw)
    assert got == want and repr(got) == repr(want)
    assert expr.normalize(got) is got


POLY_MEMO_MAPS = [
    "x0^2*x1 + 3*x1 - 1/2, (x0 + x1)^3 - (x1 + x0)^3",
    "x0/(1 + x1^2) + x0^2, exp(x0)*x1 + (x0 - x1)^2",
    "x1*bump(x0) + x0*x1, (1 - bump(x1))*x0 + bump(x1)*x0^3",
]


@pytest.mark.parametrize("src", POLY_MEMO_MAPS)
def test_the_polynomial_memo_has_the_fresh_results(src):
    expr._poly_of.cache_clear()
    f = parse_map(src, 2)
    nodes = set()
    for c in f.components:
        _compound_nodes(c, nodes)
    for e in sorted(nodes | set(f.components), key=repr) + [Var(1), con(3)]:
        memo = expr._poly_of(e, 2)
        fresh = expr._poly_of.__wrapped__(_rebuilt(e), 2)
        assert (memo is None) == (fresh is None)
        if memo is not None:
            assert list(memo.items()) == list(fresh.items())
            assert expr._poly_of(_rebuilt(e), 2) is memo
    assert expr._poly_of.cache_info().hits > 0


def test_the_polynomial_memo_is_read_only():
    f = parse_map("x0^2 + x0*x1, x1 - 2", 2)
    p = expr._poly_of(f.components[0], 2)
    with pytest.raises(TypeError):
        p[(0, 0)] = Fraction(1)
    canon = expr.poly_normalize(f)
    canon[0][(0, 0)] = Fraction(5)
    assert expr.poly_normalize(f) != canon
    assert expr.poly_normalize(parse_map("x0^2 + x0*x1, x1 - 2", 2)) == \
        expr.poly_normalize(f)


def test_a_cached_hash_is_the_field_hash_of_a_fresh_equal_node():
    f = parse_map("x0*exp(x1)/(1 + x0^2) - sin(x1)^3, bump(x0 - x1)", 2)
    nodes = set()
    for c in f.components:
        _compound_nodes(c, nodes)
    assert {type(n) for n in nodes} == {Sum, Product, Pow, Quot, Call}
    for node in nodes:
        assert "_hash" in node.__dict__
        fresh = _rebuilt(node)
        assert "_hash" not in fresh.__dict__
        assert hash(node) == hash(fresh) == hash(tuple(
            getattr(node, fd.name) for fd in dataclasses.fields(node)))


class SimpleMap:
    """The two fields SmoothMap's arity check reads."""

    def __init__(self, arity, components):
        self.arity, self.components = arity, components


def _ref_free_vars(e, acc=None):
    """expr._free_vars as it was, one isinstance branch per node type."""
    if acc is None:
        acc = set()
    if isinstance(e, Var):
        acc.add(e.index)
    elif isinstance(e, Sum):
        for t in e.terms:
            _ref_free_vars(t, acc)
    elif isinstance(e, Product):
        for f in e.factors:
            _ref_free_vars(f, acc)
    elif isinstance(e, Pow):
        _ref_free_vars(e.base, acc)
    elif isinstance(e, Quot):
        _ref_free_vars(e.num, acc)
        _ref_free_vars(e.den, acc)
    elif isinstance(e, Call):
        _ref_free_vars(e.arg, acc)
    return acc


def _ref_arity_error(f):
    """The message of SmoothMap's arity check as it was: every component
    walked, whatever its bound."""
    for c in f.components:
        bad = [i for i in _ref_free_vars(c) if i >= f.arity or i < 0]
        if bad:
            return f"variable x{bad[0]} out of range for arity {f.arity}"
    return None


@given(RAW_TREES, st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_the_variable_bound_decides_the_arity_check_as_the_walk(raw, arity):
    walked = _ref_free_vars(raw)
    assert list(expr._free_vars(raw)) == list(walked)
    assert expr._var_bound(raw) == max(walked, default=-1)
    try:
        norm = expr.normalize(raw)
    except ExprError:
        return
    want = _ref_arity_error(SimpleMap(arity, (norm,)))
    try:
        SmoothMap(arity, (raw,))
    except DimensionMismatch as err:
        assert str(err) == want
    else:
        assert want is None


def test_the_arity_check_walks_only_a_tree_out_of_range(monkeypatch):
    walks = []
    free_vars = expr._free_vars

    def counting(e, acc=None):
        if acc is None:
            walks.append(e)
        return free_vars(e, acc)

    monkeypatch.setattr(expr, "_free_vars", counting)
    f = parse_map("x0*exp(x1)/(1 + x0^2) - sin(x1)^3, bump(x0 - x1)", 2)
    SmoothMap(2, f.components)
    assert walks == [] and all("_bound" in c.__dict__ for c in f.components)
    for comps, arity in ((f.components, 1),
                         ((f.components[0] + Var(-1),), 3)):
        walks.clear()
        with pytest.raises(DimensionMismatch) as err:
            SmoothMap(arity, comps)
        assert len(walks) == 1      # the first component out of range
        assert str(err.value) == _ref_arity_error(SimpleMap(arity, comps))
    assert "x-1 out of range for arity 3" in str(err.value)


def test_memo_attributes_change_neither_equality_nor_repr():
    marked = parse_map("x0*exp(x1)/(1 + x0^2) + x1^2", 2).components[0]
    hash(marked)    # caches the hash
    bare = _rebuilt(marked)
    assert {"_normal", "_hash", "_bound"} <= set(marked.__dict__)
    assert not {"_normal", "_hash", "_bound"} & set(bare.__dict__)
    assert marked == bare and bare == marked
    assert repr(marked) == repr(bare)
    assert hash(marked) == hash(bare)


# --------------------------------------------------------------------------
# The exact kernel against its reference.  The _ref_* functions are
# sum_of, product_of and _poly_of as they were when every constant and
# every coefficient started from a seed Fraction.


def _ref_parts(e, cls):
    """The terms (cls Sum) or factors (cls Product) of normalize(e)."""
    e = expr.normalize(e)
    if isinstance(e, cls):
        return e.terms if cls is Sum else e.factors
    return (e,)


def _ref_sum_of(terms):
    flat = []
    const = Fraction(0)
    for t in terms:
        for u in _ref_parts(t, Sum):
            if isinstance(u, Const):
                const += u.value
            else:
                flat.append(u)
    if const != 0:
        flat.append(Const(const))
    if not flat:
        return expr.ZERO
    if len(flat) == 1:
        return flat[0]
    return expr._normal(Sum(tuple(flat)))


def _ref_product_of(factors):
    flat = []
    const = Fraction(1)
    for f in factors:
        for u in _ref_parts(f, Product):
            if isinstance(u, Const):
                const *= u.value
            else:
                flat.append(u)
    if const == 0:
        return expr.ZERO
    if const != 1:
        flat.insert(0, Const(const))
    if not flat:
        return expr.ONE
    if len(flat) == 1:
        return flat[0]
    return expr._normal(Product(tuple(flat)))


def _ref_poly_of(e, arity):
    if isinstance(e, Const):
        acc = {} if e.value == 0 else {(0,) * arity: e.value}
    elif isinstance(e, Var):
        key = tuple(1 if i == e.index else 0 for i in range(arity))
        acc = {key: Fraction(1)}
    elif isinstance(e, Sum):
        acc = {}
        for t in e.terms:
            p = _ref_poly_of(t, arity)
            if p is None:
                return None
            for k, v in p.items():
                nv = acc.get(k, Fraction(0)) + v
                if nv == 0:
                    acc.pop(k, None)
                else:
                    acc[k] = nv
    elif isinstance(e, Product):
        acc = {(0,) * arity: Fraction(1)}
        for t in e.factors:
            p = _ref_poly_of(t, arity)
            if p is None:
                return None
            acc = _ref_poly_mul(acc, p)
    elif isinstance(e, Pow):
        base = _ref_poly_of(e.base, arity)
        if base is None:
            return None
        acc = {(0,) * arity: Fraction(1)}
        for _ in range(e.exponent):
            acc = _ref_poly_mul(acc, base)
    else:
        return None
    return acc


def _ref_poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            nv = out.get(k, Fraction(0)) + va * vb
            if nv == 0:
                out.pop(k, None)
            else:
                out[k] = nv
    return out


def _ref_poly_normalize(f):
    out = []
    for c in f.components:
        p = _ref_poly_of(c, f.arity)
        if p is None:
            return None
        out.append(dict(sorted(p.items(),
                               key=lambda kv: expr._grlex_key(kv[0]))))
    return out


def _items(polys):
    return None if polys is None else [list(p.items()) for p in polys]


def _same_tree(got, want):
    """Equal, with the same node types and the same constant values."""
    return got == want and repr(got) == repr(want)


def _with_ref_kernel(fn, *args):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(expr, "sum_of", _ref_sum_of)
        m.setattr(expr, "product_of", _ref_product_of)
        return fn(*args)


def _assert_polynomial_as_reference(e, arity):
    got = expr._poly_of.__wrapped__(e, arity)
    want = _ref_poly_of(e, arity)
    assert (got is None) == (want is None)
    if got is not None:
        assert list(got.items()) == list(want.items())
        assert all(type(v) is Fraction and v != 0 for v in got.values())


@given(RAW_TREES)
@settings(max_examples=300, deadline=None)
def test_the_kernel_folds_and_expands_as_its_reference(raw):
    _assert_polynomial_as_reference(raw, 2)
    try:
        want = _with_ref_kernel(expr.normalize, raw)
    except ExprError as err:
        with pytest.raises(ExprError) as got:
            expr.normalize(raw)
        assert str(got.value) == str(err)
        return
    got = expr.normalize(raw)
    assert _same_tree(got, want)
    _assert_polynomial_as_reference(got, 2)
    f = SmoothMap(2, (got, raw))
    assert _items(expr.poly_normalize(f)) == _items(_ref_poly_normalize(f))


def test_the_kernel_agrees_with_its_reference_on_a_refute_pass(monkeypatch):
    """Every sum_of and product_of call of a seed-1 refute pass, as the
    benchmark runs it, gives the reference's tree; every map it builds
    normalizes and expands as under the reference."""
    calls, built = [], []

    def recording(fn, ref):
        def wrapped(args):
            args = list(args)
            out = fn(args)
            calls.append((ref, args, out))
            return out
        return wrapped

    init = SmoothMap.__post_init__

    def building(self):
        init(self)
        built.append(self)

    inputs = _refute_inputs(monkeypatch)
    import workloads
    for memo in (expr.jacobian_exprs, expr._poly_of,
                 expr._comparison_samples, jet._tangent_once,
                 jet._smooth_tangent_after, jet._prolonged_residual,
                 jet._residual_after):
        memo.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(expr, "sum_of", recording(expr.sum_of, _ref_sum_of))
        m.setattr(expr, "product_of",
                  recording(expr.product_of, _ref_product_of))
        m.setattr(SmoothMap, "__post_init__", building)
        for item in workloads.refute_items(1, inputs):
            assert workloads.run_item(item, lambda: 0.0).error is None
    assert len(calls) > 10000 and len(built) > 1000
    for ref, args, out in calls:
        assert _same_tree(out, ref(args))
    for f in built:
        assert _items(expr.poly_normalize(f)) == \
            _items(_ref_poly_normalize(f))
        for c in f.components:
            assert _same_tree(_with_ref_kernel(expr.normalize, _rebuilt(c)),
                              c)


def test_a_constant_caches_its_field_hash():
    c = con(Fraction(-7, 3))
    assert c.__dict__["_hash"] is None
    assert hash(c) == hash((Fraction(-7, 3),)) == hash(Const(-Fraction(7, 3)))
    assert c.__dict__["_hash"] == hash(c)
    assert expr._var_bound(c) == -1 and "_bound" not in c.__dict__


def test_integer_literals_parse_to_the_same_constants():
    f = parse_map("007*x0 + 12 - 3.1 + 0", 1)
    assert _same_tree(f.components[0], Sum((
        Product((Const(Fraction(7)), Var(0))), Const(Fraction(89, 10)))))


# --------------------------------------------------------------------------
# Boxes and configuration


def test_box_sampling_stays_inside():
    box = Box(((Fraction(-1), Fraction(2)), (Fraction(0), Fraction(1))))
    X = box.sample(CFG.rng("box"), 200)
    assert X.shape == (200, 2)
    assert all(box.contains(x) for x in X)
    assert not box.contains([3.0, 0.5])


def test_box_clip():
    box = cube(2)
    assert np.allclose(box.clip(np.array([5.0, -7.0])), [2.0, -2.0])


def test_config_rng_is_tagged_and_deterministic():
    a = CFG.rng("tag").random(4)
    b = CFG.rng("tag").random(4)
    c = CFG.rng("other").random(4)
    assert np.allclose(a, b)
    assert not np.allclose(a, c)
