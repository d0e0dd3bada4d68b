"""The batched Newton stages give, law for law, what one call per law or
per start gave: the additive laws (two calls of the addition), the
uniqueness probe (one solve per probe) and the two triangle laws of
check_splitting (one batch solved by the retraction).  Each reference below is
the sequential loop as it was before the stages were batched.

The preimages of the surjectivity check solve each implicit cone leg's own
residual; _ref_surjectivity is the nested solve they replace, where every
outer Gauss-Newton step evaluated the implicit leg by an inner one.

The Newton-defined addition starts at the chart sum a + b - xi(q(a)); the
old start a is the reference that every verdict must match."""

from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tanbun import bundle, corpus, jet, splitting, universal
from tanbun.bundle import (
    BundleSpec, CheckReport, _pairwise,
    check_additive_laws, induce_addition, well_typed_tuples,
)
from tanbun.cli import parse_bundle_file
from tanbun.corpus import corpus_list, run_suites
from tanbun.expr import (
    DEFAULT_CONFIG, Box, CheckConfig, ExprError, SmoothMap, Var, compose,
    con, eval_batch, parse_map, substitute_vars,
)
from tanbun.jet import ImplicitMap, row_ordered, solve_batch, solve_least_norm
from tanbun.report import LawResult, Verdict, sampled_law
from tanbun.splitting import (
    chart_box, check_splitting, chi, splitting_pair,
)
from tanbun.universal import (
    CommutingSquare, check_pullback, cockett_square, combined_square,
    rosicky_square, strong_square,
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
    spread, short = 0.0, None   # short: the first probe with < 2 solutions
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
        elif short is None:
            short = (z, len(sols))
    ok = spread <= 1e-7
    prov = {"samples": 9, "seed": cfg.seed}     # 3 starts at 3 probes
    if ok and short is not None:
        return LawResult("uniqueness", "the retraction value is unique",
                         Verdict.UNKNOWN, witness=(short[0].tolist(),),
                         max_residual=spread, provenance=prov,
                         note=f"{short[1]} of 3 Newton starts converged at "
                         "the witness probe, too few to compare")
    return LawResult("uniqueness", "the retraction value is unique",
                     Verdict.PASS_NUMERIC if ok else Verdict.FAIL,
                     max_residual=spread, provenance=prov,
                     note=f"three Newton starts per probe, "
                     f"spread {spread:.3g}")


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
    noisy = np.hstack([B_img[:n_try], C_img[:n_try]])
    starts = np.repeat(Z[:n_try, None], 3, axis=1)
    for t in range(n_try):
        noisy[t] += rng.normal(0.0, 0.05, noisy.shape[1])
        starts[t, 1:] += rng.normal(0.0, 0.01, (2, Z.shape[1]))
    targets, found, fp_errors = solve_batch(
        fp_map, np.zeros((n_try, fp_map.coarity)), noisy)
    tries = np.nonzero(found)[0]
    full = targets[tries] if g_t is None else np.hstack(
        [targets[tries], np.zeros((len(tries), g_t.coarity))])
    sols, ok, errors = solve_batch(
        cone, np.repeat(full, 3, axis=0),
        starts[tries].reshape(-1, Z.shape[1]), tol=1e-10, max_iter=60)
    triples = sols.reshape(len(tries), 3, Z.shape[1])
    spreads = np.abs(triples[:, [0, 0, 1]] - triples[:, [1, 2, 2]]).max(
        axis=(1, 2))
    solved = ok.reshape(-1, 3).all(axis=1).tolist()
    stalls, k = 0, -1
    for t, hit in enumerate(found.tolist()):
        if t in fp_errors:
            raise fp_errors[t]
        if not hit:
            stalls += 1
            continue
        k += 1
        for row in range(3 * k, 3 * k + 3):
            if row in errors:
                raise errors[row]
        if not solved[k]:
            stalls += 1
            continue
        spread = float(spreads[k])
        if spread > 1e-7:
            a, b = sols[3 * k:3 * k + 2]
            return universal._law(
                "surjective", Verdict.FAIL, witness=(a.tolist(), b.tolist()),
                max_residual=spread,
                note="distinct preimages of one cone point",
                provenance=universal._prov(cfg, depth))
    if stalls:
        return universal._law(
            "surjective", Verdict.UNKNOWN,
            note=f"{stalls}/{n_try} preimage solves stalled",
            provenance=universal._prov(cfg, depth, {"stalls": stalls}))
    return universal._law(
        "surjective", Verdict.PASS_NUMERIC,
        note=f"{n_try}/{n_try} preimages recovered from 3 starts each",
        provenance=universal._prov(cfg, depth))


def _ref_retraction_laws(spec, section, K, cfg):
    ch, box, tol = chi(spec), chart_box(spec), max(cfg.tol, 1e-9)
    rng = cfg.rng("splitting:samples")
    X = spec.total_box.sample(rng, cfg.count)
    out = [sampled_law(
        "retract-identity", "retraction after section is the identity",
        row_ordered(lambda X: np.max(np.abs(
            K.eval_batch(section.eval_batch(X)) - X), axis=1), X),
        X, tol, {"samples": len(X), "seed": cfg.seed})]
    Z = box.sample(rng, max(20, cfg.count // 4))
    out.append(sampled_law(
        "section-image", "section after retraction is the projector",
        row_ordered(lambda Z: np.max(np.abs(
            section.eval_batch(K.eval_batch(Z)) - ch.eval_batch(Z)),
            axis=1), Z),
        Z, tol, {"samples": len(Z), "seed": cfg.seed}))
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


def _squares(spec, cfg):
    """The four squares of a bundle; cockett's addition is induced on a
    passing verdict, so that the bundles that are not universal give
    their cockett square too."""
    add = induce_addition(spec, cfg, universality=PASSED)
    return [rosicky_square(spec), cockett_square(spec, add),
            strong_square(spec), combined_square(spec)]


@pytest.mark.parametrize("where", WHERE)
def test_preimages_match_the_nested_solve(monkeypatch, where):
    # every square at every depth its check reaches: the law that the
    # residual solve gives has the repr of the nested solve's
    real, legs = universal._surjectivity, []

    def both(*args):
        legs.append(isinstance(args[5], ImplicitMap))
        assert _outcome(real, *args) == _outcome(_ref_surjectivity, *args), \
            (args[0].name, args[1])
        return real(*args)

    monkeypatch.setattr(universal, "_surjectivity", both)
    for spec, cfg in _inputs(monkeypatch, where):
        for sq in _squares(spec, cfg):
            try:
                check_pullback(sq, cfg)
            except ExprError:   # the cockett square of a bundle that is
                pass            # not universal, before its preimages
    # each implicit file's cockett square at depths 0 and 1; no corpus
    # bundle has an implicit cone leg
    assert legs.count(True) == (0 if where == "corpus" else 28)
    assert len(legs) > legs.count(True)


@pytest.mark.parametrize("name", ["implicit_05", "implicit_08"])
def test_implicit_rows_solve_to_the_implicit_tolerance(monkeypatch, name):
    # stopped at the cone's 1e-10 instead of the map's 1e-12, the residual
    # rows of these two files leave their leg 1e-10 or more from its
    # target at seed 1, and the branch guard reads the check unknown
    spec, cfg = next((s, c) for s, c in _implicit_specs(monkeypatch, 1)
                     if s.name == name)
    pv = check_pullback(cockett_square(spec, induce_addition(spec, cfg)), cfg)
    assert pv["surjective"].verdict is Verdict.PASS_NUMERIC
    assert pv.depth_checked == 1


def _root_square(residual, right, init):
    """The cone (y, x) on [1/2, 2] over the cospan (right, identity),
    whose top leg is the ImplicitMap residual(x, y) = 0 started at
    init."""
    top = ImplicitMap(parse_map(residual, 2), 1, 1, init, name="root")
    x = parse_map("x0", 1)
    return CommutingSquare(
        name="root", apex_dim=1, apex_box=Box(((Fraction(1, 2), 2),)),
        constraint=None, top=top, left=x, right=parse_map(right, 1),
        bottom=x)


def _surjectivity_args(sq, cfg, top=None):
    Z, _ = universal._sample_apex(sq, 0, cfg, cfg.count)
    return (sq, 0, Z, sq.top.eval_batch(Z), Z, top or sq.top, sq.left,
            sq.right, sq.bottom, None, cfg)


def _ones(X):
    return np.ones((len(X), 1))


def _raise_at(X):
    raise ExprError("no start")


@pytest.mark.parametrize("seed", [1, 3, 6, 10])
def test_preimages_match_the_nested_solve_over_a_curved_cospan(seed):
    # y = sqrt(x) over (b^2, c): the fibre-product target is solved only
    # to NEWTON_TOL, and unweighted, the residual rows of the leg took
    # half of that misfit, above their 1e-12, and stalled
    sq = _root_square("x1^2 - x0", "x0^2", _ones)
    args = _surjectivity_args(sq, CheckConfig(count=20, seed=seed))
    law = universal._surjectivity(*args)
    assert law.verdict is Verdict.PASS_NUMERIC
    assert repr(law) == repr(_ref_surjectivity(*args))


def test_a_preimage_on_another_branch_never_passes():
    # y^2 = x^2 is y = x from the start 1 and y = -x from -1
    sq = _root_square("x1^2 - x0^2", "x0", _ones)
    cfg = CheckConfig(count=20, seed=1, t_depth=0)
    assert check_pullback(sq, cfg).ok
    # the joint solve finds z = t on the branch y = x; the guard's leg
    # starts on the branch y = -x, or cannot start at all
    for init in (lambda X: -_ones(X), _raise_at):
        far = ImplicitMap(sq.top.residual, 1, 1, init, name="far")
        law = universal._surjectivity(*_surjectivity_args(sq, cfg, far))
        assert law.verdict is Verdict.UNKNOWN
        assert law.note == ("10/10 preimage solves stalled, "
                            "implicit branch mismatch")


def test_surjectivity_evaluates_an_implicit_leg_only_in_the_guard(
        monkeypatch):
    # counted per call: no inner Newton runs in the solve, so the only
    # ImplicitMap call is the guard's one eval_batch of the leg (its init
    # solves the maps it is built from, inside that call)
    spec, cfg = _implicit_specs(monkeypatch, 1)[0]
    sq = cockett_square(spec, induce_addition(spec, cfg))
    real, leg, calls, depth = universal._surjectivity, [], [], []

    def spy(name):
        method = getattr(ImplicitMap, name)

        def wrapped(self, X):
            if leg and not depth:
                calls[-1].append((name, self is leg[-1]))
            depth.append(name)
            try:
                return method(self, X)
            finally:
                depth.pop()
        return wrapped

    def counted(*args):
        leg.append(args[5])
        calls.append([])
        try:
            return real(*args)
        finally:
            leg.pop()

    for name in ("eval_batch", "jac_batch"):
        monkeypatch.setattr(ImplicitMap, name, spy(name))
    monkeypatch.setattr(universal, "_surjectivity", counted)
    assert check_pullback(sq, cfg).ok
    assert calls == [[("eval_batch", True)]] * 2     # depths 0 and 1


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

    # the three probes solve K's own residual in one Newton call, and
    # build no map: K's compiled Jacobian serves every probe
    section, K = splitting_pair(spec, cfg, universality=PASSED)
    splitting._uniqueness_probe(spec, K, chart_box(spec), cfg)   # compiles
    solves, one_row, maps = [], [], []
    monkeypatch.setattr(splitting, "_solve_rows",
                        _counting(solves, splitting._solve_rows))
    monkeypatch.setattr(jet, "solve_least_norm",
                        _counting(one_row, jet.solve_least_norm))
    monkeypatch.setattr(SmoothMap, "__post_init__",
                        _counting(maps, SmoothMap.__post_init__))
    assert splitting._uniqueness_probe(spec, K, chart_box(spec),
                                      cfg).verdict.ok
    assert (len(solves), one_row, maps) == (1, [], [])
    assert not hasattr(splitting, "solve_least_norm")
    assert not hasattr(splitting, "solve_batch")

    # the retraction solves one batch for both triangle laws
    solved = []
    K._remember = _counting(solved, K._remember)
    monkeypatch.setattr(splitting, "splitting_pair",
                        lambda *args: (section, K))
    assert check_splitting(spec, cfg, universality=PASSED).ok
    assert len(solved) == 1


# --------------------------------------------------------------------------
# The start of the Newton-defined addition


def _verdicts(reports):
    """Each suite's verdict and the verdict of each of its laws."""
    return [(sid, rep.aggregate, [(e.law_id, e.verdict) for e in rep.entries])
            for sid, rep in reports.items()]


def test_verdicts_do_not_depend_on_the_start_of_the_addition(monkeypatch):
    # the chart sum a + b - xi(q(a)) against the old start a: every law
    # reads the same verdict, and the chart sum takes fewer Newton steps
    cubic = (Path(__file__).resolve().parent / "golden"
             / "cubic_lift.txt").read_text()
    inputs = _implicit_specs(monkeypatch, 1) + _implicit_specs(monkeypatch, 23)
    for text in (cubic, cubic.replace("(1/4)*x1^3", "10*x1^3")):
        spec, over = parse_bundle_file(text, "cubic_lift")
        inputs.append((spec, CheckConfig(count=over["samples"], seed=42,
                                         t_depth=over["depth"])))
    assert len(inputs) == 30
    steps = []
    monkeypatch.setattr(jet, "_lstsq_stack",
                        _counting(steps, jet._lstsq_stack))
    for spec, cfg in inputs:
        del steps[:]
        got = _verdicts(run_suites(spec, cfg))
        new_steps = len(steps)
        with monkeypatch.context() as old:
            old.setattr(bundle, "_chart_sum", lambda zero, X, d: X[:, :d])
            del steps[:]
            want = _verdicts(run_suites(spec, cfg))
        assert got == want, spec.name
        assert new_steps < len(steps), spec.name


# --------------------------------------------------------------------------
# The laws of the Newton-defined addition, derived from their hypotheses

CUBIC = (Path(__file__).resolve().parent / "golden" / "cubic_lift.txt")
DERIVED = ("add-assoc", "add-comm", "add-unit-r", "add-unit-l", "add-base")


def _cubic(lines=()):
    """cubic_lift.txt with the lines of some keys replaced, and its
    config at seed 42."""
    text = CUBIC.read_text()
    for key, value in dict(lines).items():
        text = "\n".join(f"{key} = {value}" if ln.startswith(f"{key} =")
                         else ln for ln in text.splitlines())
    spec, over = parse_bundle_file(text, "cubic_lift")
    return spec, CheckConfig(count=over["samples"], seed=42,
                             t_depth=over["depth"])


def _hypotheses(spec, cfg):
    return (bundle.check_predifferential(spec, cfg),
            check_pullback(rosicky_square(spec), cfg))


def test_the_newton_defined_addition_derives_its_laws():
    # every hypothesis passes, pre-1, pre-3 and pre-4 exactly; each law
    # names its own, and the a + b solve keeps it a numeric pass
    spec, cfg = _cubic()
    pre, ros = _hypotheses(spec, cfg)
    assert pre.aggregate is Verdict.PASS_EXACT and ros.ok
    add = induce_addition(spec, cfg, universality=ros)
    rep = check_additive_laws(spec, add, cfg, hypotheses=(pre, ros))
    known = {e.law_id for e in pre.entries + ros.entries}
    assert [e.law_id for e in rep.entries] == list(DERIVED)
    for e in rep.entries:
        hyps = e.provenance["derived_from"]
        assert {"pre-1", "pre-3"} <= set(hyps) <= known
        assert e.verdict is Verdict.PASS_NUMERIC, e.law_id
        assert 0 < e.max_residual <= cfg.tol
        assert "first-order bound" in e.note
    assert {e.law_id for e in rep.entries
            if "injective" in e.provenance["derived_from"]} == \
        set(DERIVED) - {"add-base"}


@pytest.mark.parametrize("case", ["hypothesis unknown", "bound above tol",
                                  "closed form", "no hypotheses"])
def test_the_derived_laws_fall_back_to_the_sampled_check(case):
    spec, cfg = _cubic({"lambda": "x0, 0, 0, x1"} if case == "closed form"
                       else {})
    pre, ros = _hypotheses(spec, cfg)
    add = induce_addition(spec, cfg, universality=ros)
    hyps = () if case == "no hypotheses" else (pre, ros)
    if case == "hypothesis unknown":
        hyps = (pre, CheckReport("rosicky", [
            e if e.law_id != "injective" else LawResult(
                e.law_id, e.anchor, Verdict.UNKNOWN) for e in ros.entries]))
    if case == "bound above tol":
        add.tol = 1e-6      # sums accepted at 1e-6 are not within 1e-9
    assert isinstance(add, ImplicitMap) == (case != "closed form")
    got = _outcome(check_additive_laws, spec, add, cfg, None, hyps)
    assert got == _outcome(_ref_check_additive_laws, spec, add, cfg)
    assert "derived_from" not in got[1]


@pytest.mark.parametrize("lam", ["x0, 0, 0, x1",
                                 "x0, 0, 0, x1 + (1/4)*x1^3"])
def test_a_section_off_by_1e_12_sends_the_suite_to_the_sampled_check(lam):
    # pre-3 and pre-4 are false by the constant 1e-12, below tol, and read
    # unknown; rosicky passes, so the addition suite runs, on samples
    spec, cfg = _cubic({"xi": "x0, 1/1000000000000", "lambda": lam})
    out = run_suites(spec, cfg, suite="addition")
    assert [out["pre"][law].verdict for law in ("pre-3", "pre-4")] == \
        [Verdict.UNKNOWN] * 2
    assert out["rosicky"].ok
    add = induce_addition(spec, cfg, universality=PASSED)
    assert repr(out["addition"]) == repr(
        _ref_check_additive_laws(spec, add, cfg, spec.add))


@pytest.mark.parametrize("seed", [1, 23])
def test_a_derived_bound_covers_the_gap_the_sampled_check_measures(
        monkeypatch, seed):
    for spec, cfg in _implicit_specs(monkeypatch, seed):
        hyps = _hypotheses(spec, cfg)
        add = induce_addition(spec, cfg, universality=hyps[1])
        derived = check_additive_laws(spec, add, cfg, hypotheses=hyps)
        sampled = _ref_check_additive_laws(spec, add, cfg)
        for law in DERIVED:
            assert "derived_from" in derived[law].provenance
            assert derived[law].verdict is sampled[law].verdict
            assert derived[law].max_residual >= sampled[law].max_residual, \
                (spec.name, law)


def _steps_in_the_addition_suite(monkeypatch, run):
    """The _lstsq_stack calls made inside check_additive_laws by run(),
    after one run to warm the caches."""
    steps, inside = [], []
    real = corpus.check_additive_laws

    def counted(*args, **kwargs):
        inside.append(True)
        try:
            return real(*args, **kwargs)
        finally:
            inside.pop()

    def lstsq(*args, **kwargs):
        if inside:
            steps.append(True)
        return real_lstsq(*args, **kwargs)

    real_lstsq = jet._lstsq_stack
    monkeypatch.setattr(corpus, "check_additive_laws", counted)
    monkeypatch.setattr(jet, "_lstsq_stack", lstsq)
    run()
    del steps[:]
    run()
    return len(steps)


def test_the_derived_laws_solve_only_a_plus_b(monkeypatch):
    # counted, not timed: 12 steps when all seven sums were solved
    spec, cfg = _cubic()
    assert _steps_in_the_addition_suite(
        monkeypatch, lambda: run_suites(spec, cfg)) == 7
    # a given addition is checked on samples, as before
    twisted = next(e for e in corpus_list() if e.name == "mutant_add_twisted")
    assert _steps_in_the_addition_suite(
        monkeypatch, lambda: twisted.runner(DEFAULT_CONFIG)) == 2
