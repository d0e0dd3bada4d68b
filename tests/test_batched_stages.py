"""The batched Newton stages give, law for law, what one call per law or
per start gave: the additive laws (two calls of the addition), the
uniqueness probe (one solve per probe) and the two triangle laws of
check_splitting (one batch solved by the retraction).  Each reference below is
the sequential loop as it was before the stages were batched."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tanbun import jet, splitting
from tanbun.bundle import (
    BundleSpec, CheckReport, _pairwise,
    check_additive_laws, induce_addition, well_typed_tuples,
)
from tanbun.cli import parse_bundle_file
from tanbun.corpus import corpus_list
from tanbun.expr import (
    DEFAULT_CONFIG, CheckConfig, ExprError, SmoothMap, Var, compose, con,
    eval_batch, substitute_vars,
)
from tanbun.jet import ImplicitMap, row_ordered, solve_least_norm
from tanbun.report import LawResult, Verdict, sampled_law
from tanbun.splitting import (
    chart_box, check_splitting, chi, splitting_pair,
)

PASSED = Verdict.PASS_NUMERIC       # a universality verdict that passes


def _ref_check_additive_laws(spec, add, cfg, declared=None):
    rep = CheckReport(f"{spec.name}: fibrewise addition laws")
    (a, b, c), discarded = well_typed_tuples(spec, cfg, width=3, tag="add3")
    zero = eval_batch(compose(spec.xi, spec.q), a)

    def op(x, y):
        return _pairwise(add, x, y)

    ab, ba, bc = op(a, b), op(b, a), op(b, c)
    checks = [
        ("add-assoc", "(a + b) + c = a + (b + c)", op(ab, c), op(a, bc)),
        ("add-comm", "a + b = b + a", ab, ba),
        ("add-unit-r", "a + xi(q(a)) = a", op(a, zero), a),
        ("add-unit-l", "xi(q(a)) + a = a", op(zero, a), a),
        ("add-base", "q(a + b) = q(a)",
         eval_batch(spec.q, ab), eval_batch(spec.q, a)),
    ]
    if declared is not None:
        checks.append(("add-declared", "declared addition = induced addition",
                       ab, _pairwise(declared, a, b)))
    for law_id, anchor, lhs, rhs in checks:
        prov = {"seed": cfg.seed, "count": len(a), "tol": cfg.tol}
        if law_id != "add-declared":
            prov["discarded"] = discarded
        rep.add(sampled_law(law_id, anchor,
                            np.max(np.abs(lhs - rhs), axis=1),
                            np.hstack([a, b, c]), cfg.tol, prov))
    return rep


def _ref_uniqueness_probe(spec, K, box, cfg):
    rng = cfg.rng("splitting:uniqueness")
    Z = box.sample(rng, 3)
    spread = 0.0
    for z in Z:
        sub = {i: con(Fraction(v)) for i, v in enumerate(z)}
        fixed = SmoothMap(K.residual.arity, tuple(
            substitute_vars(e, sub) for e in K.residual.components))
        fixed = SmoothMap(
            spec.total_dim,
            tuple(substitute_vars(e, {
                len(z) + i: Var(i) for i in range(spec.total_dim)
            }) for e in fixed.components))
        sols = []
        for trial in range(3):
            start = np.asarray(K.init(z[None, :]), dtype=float)[0] \
                + 0.3 * rng.standard_normal(spec.total_dim) * (trial > 0)
            got = solve_least_norm(fixed, np.zeros(fixed.coarity), start)
            if got is not None:
                sols.append(got)
        if len(sols) > 1:
            stack = np.stack(sols)
            spread = max(spread, float(np.max(stack.max(0) - stack.min(0))))
    ok = spread <= 1e-7
    return LawResult("uniqueness", "the retraction value is unique",
                     Verdict.PASS_NUMERIC if ok else Verdict.FAIL,
                     max_residual=spread,
                     note=f"three Newton starts per probe, spread {spread:.3g}")


def _ref_retraction_laws(spec, section, K, cfg):
    ch, box, tol = chi(spec), chart_box(spec), max(cfg.tol, 1e-9)
    rng = cfg.rng("splitting:samples")
    X = spec.total_box.sample(rng, cfg.count)
    out = [sampled_law(
        "retract-identity", "retraction after section is the identity",
        row_ordered(lambda X: np.max(np.abs(
            K.eval_batch(section.eval_batch(X)) - X), axis=1), X),
        X, tol, {"samples": len(X)})]
    Z = box.sample(rng, max(20, cfg.count // 4))
    out.append(sampled_law(
        "section-image", "section after retraction is the projector",
        row_ordered(lambda Z: np.max(np.abs(
            section.eval_batch(K.eval_batch(Z)) - ch.eval_batch(Z)),
            axis=1), Z),
        Z, tol, {"samples": len(Z)}))
    return out


def _retraction_laws(spec, cfg):
    return check_splitting(spec, cfg, universality=PASSED).entries[:2]


def _outcome(fn, *args):
    """repr of what fn returns, or the type and message of what it
    raises: repr keeps every float bit and compares NaN to NaN."""
    try:
        return "returned", repr(fn(*args))
    except (ExprError, np.linalg.LinAlgError) as err:
        return "raised", type(err), str(err)


def _implicit_specs(monkeypatch, seed):
    """The implicit workload's 14 bundles at a seed, from the benchmark's
    generator, with the config its files set."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    cfg = CheckConfig(count=20, seed=seed, t_depth=1)
    return [(parse_bundle_file(text, name)[0], cfg)
            for name, text in workloads.implicit_texts(seed)]


def _corpus_specs():
    return [(spec, DEFAULT_CONFIG) for spec in
            (e.build() for e in corpus_list() if e.build is not None)
            if isinstance(spec, BundleSpec)]


def _inputs(monkeypatch, where):
    if where == "corpus":
        return _corpus_specs()
    return _implicit_specs(monkeypatch, int(where.split()[-1]))


WHERE = ["implicit seed 1", "implicit seed 23", "corpus"]


@pytest.mark.parametrize("where", WHERE)
def test_additive_laws_match_the_law_by_law_calls(monkeypatch, where):
    # the batching of the laws is under test, not the gate: every spec is
    # given a passing verdict, so the bundles that are not universal
    # (bump_counterexample and three mutants) are compared too
    specs = _inputs(monkeypatch, where)
    for spec, cfg in specs:
        add = induce_addition(spec, cfg, universality=PASSED)
        assert _outcome(check_additive_laws, spec, add, cfg, spec.add) == \
            _outcome(_ref_check_additive_laws, spec, add, cfg, spec.add), \
            spec.name
    assert len(specs) == (11 if where == "corpus" else 14)


@pytest.mark.parametrize("where", WHERE)
def test_retraction_stages_match_the_one_call_per_start_loops(monkeypatch,
                                                              where):
    implicit = 0
    for spec, cfg in _inputs(monkeypatch, where):
        section, K = splitting_pair(spec, cfg, universality=PASSED)
        if not isinstance(K, ImplicitMap):
            continue
        implicit += 1
        box = chart_box(spec)
        assert _outcome(splitting._uniqueness_probe, spec, K, box, cfg) == \
            _outcome(_ref_uniqueness_probe, spec, K, box, cfg), spec.name
        assert _outcome(_retraction_laws, spec, cfg) == \
            _outcome(_ref_retraction_laws, spec, section, K, cfg), spec.name
    # the corpus has two Newton-defined retractions: bump and the cubed q
    assert implicit == (2 if where == "corpus" else 14)


class _Raising:
    """An addition that raises for the pairs in bad, naming the first such
    row of a batch, as ImplicitMap.eval_batch names its first failing
    row."""

    def __init__(self, add, bad):
        self.add, self.bad = add, bad

    def eval_batch(self, X):
        for x in X:
            if x.tobytes() in self.bad:
                raise ExprError(f"bad pair {x.tolist()}")
        return self.add.eval_batch(X)


def _sums(spec, add, cfg):
    """The pairs each of the seven sums of the additive laws adds, in the
    order the laws were written."""
    (a, b, c), _ = well_typed_tuples(spec, cfg, width=3, tag="add3")
    zero = eval_batch(compose(spec.xi, spec.q), a)
    ab = add.eval_batch(np.hstack([a, b]))
    bc = add.eval_batch(np.hstack([b, c]))
    return [np.hstack(p) for p in ((a, b), (b, a), (b, c), (ab, c), (a, bc),
                                   (a, zero), (zero, a))]


@pytest.mark.parametrize("first, second", [
    (0, 1), (0, 2), (2, 3), (3, 4), (3, 6), (4, 5), (5, 6), (1, 6)])
def test_a_failing_sum_raises_what_the_law_by_law_calls_raise(
        monkeypatch, first, second):
    spec, _ = _implicit_specs(monkeypatch, 1)[0]
    cfg = CheckConfig(count=10, seed=1, t_depth=1)
    add = induce_addition(spec, cfg)
    sums = _sums(spec, add, cfg)
    bad = {sums[first][5].tobytes(), sums[second][2].tobytes()}
    got = _outcome(check_additive_laws, spec, _Raising(add, bad), cfg)
    want = _outcome(_ref_check_additive_laws, spec, _Raising(add, bad), cfg)
    assert got == want
    assert got == ("raised", ExprError,
                   f"bad pair {sums[first][5].tolist()}")


def test_a_failing_retraction_raises_what_the_two_laws_raise(monkeypatch):
    spec, cfg = _implicit_specs(monkeypatch, 1)[0]
    section, K = splitting_pair(spec, cfg, universality=PASSED)
    rng = cfg.rng("splitting:samples")
    X = spec.total_box.sample(rng, cfg.count)
    Z = chart_box(spec).sample(rng, 20)
    for bad in ({Z[3].tobytes()},
                {Z[3].tobytes(), section.eval_batch(X)[7].tobytes()}):
        raising = _Raising(K, bad)
        monkeypatch.setattr(splitting, "splitting_pair",
                            lambda *args: (section, raising))
        got = _outcome(_retraction_laws, spec, cfg)
        assert got[0] == "raised"
        assert got == _outcome(_ref_retraction_laws, spec, section, raising,
                               cfg)


def _counting(calls, fn):
    def wrapped(*args, **kwargs):
        calls.append(fn)
        return fn(*args, **kwargs)
    return wrapped


def test_each_newton_stage_is_one_call(monkeypatch):
    # counted, not timed: a return to one solve per law or per start
    # fails here
    spec, cfg = _implicit_specs(monkeypatch, 1)[0]
    add = induce_addition(spec, cfg)
    adds = []
    add.eval_batch = _counting(adds, add.eval_batch)
    check_additive_laws(spec, add, cfg)
    assert len(adds) == 2

    section, K = splitting_pair(spec, cfg, universality=PASSED)
    solves, one_row = [], []
    monkeypatch.setattr(splitting, "solve_batch",
                        _counting(solves, splitting.solve_batch))
    monkeypatch.setattr(jet, "solve_least_norm",
                        _counting(one_row, jet.solve_least_norm))
    assert splitting._uniqueness_probe(spec, K, chart_box(spec),
                                      cfg).verdict.ok
    assert (len(solves), one_row) == (3, [])
    assert not hasattr(splitting, "solve_least_norm")

    # the retraction solves one batch for both triangle laws
    solved = []
    K._remember = _counting(solved, K._remember)
    monkeypatch.setattr(splitting, "splitting_pair",
                        lambda *args: (section, K))
    assert check_splitting(spec, cfg, universality=PASSED).ok
    assert len(solved) == 1
