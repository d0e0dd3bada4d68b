"""Vector-bundle structures and the translations to and from lifts.

A VectorBundleSpec carries a fibrewise addition and a scalar action.
The forward translation builds the lift by pushing the scalar action
through the tangent functor at the jet (0, 1) over the zero scalar; the
reverse translation recovers the scalar action by conjugating tangent
scaling through the lift, and takes its addition from the induced
fibrewise sum.  Round trips reproduce the inputs, and a morphism is
compatible with the lifts exactly when it is compatible with the scalar
actions; both facts are checked here rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, DimensionMismatch, SmoothMap, Var,
    compose, con, cube, equal_maps, parse_map, row_gaps,
)
from .jet import (
    NewtonDiverged, apply_map, row_ordered, tangent_after, tangent_map,
)
from .bundle import (
    BundleMorphism, BundleSpec, NotWellTyped, fibre_matched_tuples,
    induce_addition, scale_through_lambda,
)
from .report import (
    CheckReport, LawResult, Refused, Verdict, law_from_verdict, sampled_law,
)

__all__ = [
    "VectorBundleSpec", "TranslationRefused",
    "check_module_laws", "psi", "phi", "roundtrip_check",
    "morphism_transport_check", "transport_demo_morphisms",
]


class TranslationRefused(Refused):
    pass


@dataclass(frozen=True)
class VectorBundleSpec:
    """A chart-local vector bundle: projection, zero section, fibrewise
    addition, and a scalar action on the chart (r, e)."""

    name: str
    base_dim: int
    total_dim: int
    base_box: Box
    total_box: Box
    q: SmoothMap
    xi: SmoothMap
    add: object
    scalar: object

    def __post_init__(self):
        d, k = self.total_dim, self.base_dim
        checks = [
            (self.q, d, k, "projection"),
            (self.xi, k, d, "zero section"),
            (self.add, 2 * d, d, "addition"),
            (self.scalar, 1 + d, d, "scalar action"),
        ]
        for f, arity, coarity, what in checks:
            if f.arity != arity or f.coarity != coarity:
                raise DimensionMismatch(
                    f"{self.name}: {what} must be {arity} -> {coarity}, "
                    f"got {f.arity} -> {f.coarity}")


def _scalar_box(vb) -> Box:
    return Box(((Fraction(-2), Fraction(2)),) + tuple(vb.total_box.intervals))


def check_module_laws(vb: VectorBundleSpec,
                      cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    """The six module laws of the scalar action, on sampled points and
    fibre-matched pairs."""
    rep = CheckReport(f"{vb.name}: module laws")
    tol = max(cfg.tol, 1e-9)
    rng = cfg.rng(f"{vb.name}:module")
    n = min(cfg.count, 120)
    A = vb.total_box.sample(rng, n)
    R = rng.uniform(-2.0, 2.0, (n, 1))
    S = rng.uniform(-2.0, 2.0, (n, 1))

    def act(r, P):
        # r: one scalar, or a column of one scalar per row of P
        return vb.scalar.eval_batch(
            np.hstack([np.broadcast_to(r, (len(P), 1)), P]))

    def fibre_sum(P, Q):
        return vb.add.eval_batch(np.hstack([P, Q]))

    def law(law_id, anchor, parts, sides):
        # parts: the samples' inputs as column blocks, in the order the law
        # reads them, scalars first; sides(*blocks) gives both sides over a
        # batch of rows, each row evaluated as a one-sample loop would
        cuts = np.cumsum([p.shape[1] for p in parts])[:-1]

        def gaps(X):
            return row_gaps(*sides(*np.split(X, cuts, axis=1)))

        X = np.hstack(parts)
        rep.add(sampled_law(law_id, anchor, row_ordered(gaps, X), X, tol,
                            {"samples": n, "seed": cfg.seed}))

    law("scalar-unit", "acting by one changes nothing",
        [A], lambda a: (act(1.0, a), a))
    law("scalar-assoc", "nested actions multiply the scalars",
        [R, S, A], lambda r, s, a: (act(r, act(s, a)), act(r * s, a)))
    law("scalar-scalar-distrib", "a scalar sum acts as the fibre sum",
        [R, S, A], lambda r, s, a: (act(r + s, a),
                                    fibre_sum(act(r, a), act(s, a))))
    try:
        (first, second), _ = fibre_matched_tuples(
            vb.q, vb.total_box, cfg, width=2, count=n,
            tag=f"{vb.name}:module-pairs")
        law("scalar-add-distrib", "the action distributes over fibre sums",
            [R[:len(first)], first, second],
            lambda r, a, b: (act(r, fibre_sum(a, b)),
                             fibre_sum(act(r, a), act(r, b))))
    except NotWellTyped as exc:
        rep.add(LawResult("scalar-add-distrib",
                          "the action distributes over fibre sums",
                          Verdict.UNKNOWN, note=str(exc)))

    law("scalar-zero", "acting by zero lands on the zero section",
        [A], lambda a: (act(0.0, a), vb.xi.eval_batch(vb.q.eval_batch(a))))
    law("scalar-base", "the action preserves the fibre",
        [R, A], lambda r, a: (vb.q.eval_batch(act(r, a)),
                              vb.q.eval_batch(a)))
    return rep


def psi(vb: VectorBundleSpec) -> BundleSpec:
    """Bundle with the lift generated from the scalar action.

    The lift evaluates the tangent of the action at scalar jet (0, 1)
    and point jet (e, 0); a closed-form action gives a closed-form lift.
    A Newton-defined action is refused with TranslationRefused.  The
    module laws are not checked here: a suite reports them
    (check_module_laws) and translates only a structure that passes.
    """
    lam = _generated_lift(vb)
    if not isinstance(lam, SmoothMap):
        raise TranslationRefused(
            f"{vb.name}: the generated lift is Newton-defined, and a bundle "
            "needs a lift given by formulas")
    return BundleSpec(
        name=f"{vb.name}:as-lift", base_dim=vb.base_dim,
        total_dim=vb.total_dim, base_box=vb.base_box,
        total_box=vb.total_box, q=vb.q, xi=vb.xi, lam=lam, add=vb.add,
        scalar=vb.scalar,
    )


def _generated_lift(vb: VectorBundleSpec):
    """T(scalar) at scalar jet (0, 1) and point jet (e, 0): a SmoothMap
    for an action given by formulas, an ImplicitMap for a Newton-defined
    one."""
    d = vb.total_dim
    embed = SmoothMap(
        d,
        (con(0),) + tuple(Var(i) for i in range(d))
        + (con(1),) + (con(0),) * d,
    )
    return tangent_after(vb.scalar, embed)


def phi(db: BundleSpec, universality) -> VectorBundleSpec:
    """Vector bundle with the scalar action recovered from the lift.

    Gated on the rosicky square's verdict; the recovered action
    conjugates tangent-block scaling through the lift, and the addition
    is induced the same way, on the same verdict."""
    TranslationRefused.gate(universality, f"{db.name}: scalar recovery")
    add = db.add if db.add is not None else induce_addition(db, universality)
    # The action is always recomputed from the lift; a declared action on
    # the bundle is advisory and must not short-circuit the translation.
    scalar = scale_through_lambda(db)
    return VectorBundleSpec(
        name=f"{db.name}:as-action", base_dim=db.base_dim,
        total_dim=db.total_dim, base_box=db.base_box,
        total_box=db.total_box, q=db.q, xi=db.xi, add=add, scalar=scalar,
    )


def _compare(law_id, anchor, f, g, box, cfg) -> LawResult:
    if isinstance(f, SmoothMap) and isinstance(g, SmoothMap):
        return law_from_verdict(law_id, anchor, equal_maps(f, g, box, cfg))
    rng = cfg.rng(f"roundtrip:{law_id}")
    X = box.sample(rng, min(cfg.count, 100))
    gaps = row_ordered(lambda X: row_gaps(f.eval_batch(X), g.eval_batch(X)),
                       X)
    return sampled_law(law_id, anchor, gaps, X, max(cfg.tol, 1e-9),
                       {"samples": len(X), "seed": cfg.seed})


def _identical(law_id, anchor, a, b) -> LawResult:
    same = a is b
    return LawResult(law_id, anchor,
                     Verdict.PASS_EXACT if same else Verdict.FAIL,
                     note="carried through unchanged" if same else
                     "object was rebuilt")


def roundtrip_check(obj, cfg: CheckConfig, universality) -> CheckReport:
    """Both translation round trips on the given structure."""
    rep = CheckReport(f"{obj.name}: translation round trip")
    if isinstance(obj, VectorBundleSpec):
        db = psi(obj)
        try:
            back = phi(db, universality)
        except TranslationRefused as exc:
            rep.add(exc.law("phi-gate", "reverse translation accepts the "
                            "generated bundle"))
            return rep
        rep.add(_compare("roundtrip-scalar",
                         "recovered action matches the input action",
                         back.scalar, obj.scalar, _scalar_box(obj), cfg))
        rep.add(_identical("untouched-projection",
                           "projection passes through unchanged",
                           back.q, obj.q))
        rep.add(_identical("untouched-section",
                           "zero section passes through unchanged",
                           back.xi, obj.xi))
        rep.add(_identical("untouched-addition",
                           "addition passes through unchanged",
                           back.add, obj.add))
        return rep

    db = obj
    try:
        vb = phi(db, universality)
    except TranslationRefused as exc:
        rep.add(exc.law("phi-gate", "translation accepts verified bundles "
                        "only"))
        return rep
    # psi carries q and xi through and refuses a Newton-defined lift,
    # which is still compared here by sampling
    rep.add(_compare("roundtrip-lift",
                     "regenerated lift matches the input lift",
                     _generated_lift(vb), db.lam, db.total_box, cfg))
    rep.add(_identical("untouched-projection",
                       "projection passes through unchanged", vb.q, db.q))
    rep.add(_identical("untouched-section",
                       "zero section passes through unchanged",
                       vb.xi, db.xi))
    return rep


def morphism_transport_check(mor: BundleMorphism,
                             cfg: CheckConfig = DEFAULT_CONFIG
                             ) -> CheckReport:
    """Lift compatibility against scalar compatibility for one morphism.

    The two property entries report whether each side holds; the
    agreement entry records that the two characterizations coincide and
    passes exactly when they match."""
    rep = CheckReport("morphism transport")
    src, tgt = mor.source, mor.target
    lift_v = equal_maps(compose(tgt.lam, mor.f),
                        compose(tangent_map(mor.f, 1), src.lam),
                        src.total_box, cfg)
    lift = law_from_verdict("lift-linear", "the lifts intertwine the "
                            "morphism", lift_v)
    rep.add(lift)

    s_src = src.scalar if src.scalar is not None else scale_through_lambda(src)
    s_tgt = tgt.scalar if tgt.scalar is not None else scale_through_lambda(tgt)
    rng = cfg.rng("transport:scalar")
    n = min(cfg.count, 100)
    X = src.total_box.sample(rng, n)
    R = rng.uniform(-2.0, 2.0, n)

    def gap(r, a):
        lhs = apply_map(mor.f, apply_map(s_src, np.concatenate([[r], a])))
        rhs = apply_map(s_tgt, np.concatenate([[r], apply_map(mor.f, a)]))
        return row_gaps(lhs, rhs)

    anchor = "the morphism commutes with the actions"
    try:
        scalar = sampled_law(
            "scalar-preserving", anchor, list(map(gap, R, X)),
            np.column_stack([R, X]), max(cfg.tol, 1e-9),
            {"samples": n, "seed": cfg.seed})
    except NewtonDiverged as exc:
        scalar = LawResult("scalar-preserving", anchor, Verdict.UNKNOWN,
                           note=str(exc))
    rep.add(scalar)
    lift_ok, scalar_ok = lift.verdict.ok, scalar.verdict.ok
    if scalar.verdict is Verdict.UNKNOWN:
        verdict, note = Verdict.UNKNOWN, "scalar side inconclusive"
    elif lift.verdict is Verdict.UNKNOWN:
        verdict, note = Verdict.UNKNOWN, "lift side inconclusive"
    else:
        verdict = Verdict.PASS_NUMERIC if lift_ok == scalar_ok \
            else Verdict.FAIL
        note = (f"lift side {'holds' if lift_ok else 'fails'}, "
                f"scalar side {'holds' if scalar_ok else 'fails'}")
    rep.add(LawResult("transport-agreement",
                      "lift compatibility matches scalar compatibility",
                      verdict, note=note))
    return rep


def transport_demo_morphisms():
    """Ten morphisms exercising the transport equivalence: five
    compatible with the lifts and five not.  Returns tuples of
    (name, morphism, expected_compatible)."""
    trivial = BundleSpec(
        name="line", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        lam=parse_map("x0, 0, 0, x1", 2),
    )
    conj = BundleSpec(
        name="translated", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2, -6, 6),
        q=parse_map("x0", 2), xi=parse_map("x0, x0^2", 1),
        lam=parse_map("x0, x0^2, 0, x1 - x0^2", 2),
    )

    def on(src, tgt, text):
        return BundleMorphism(src, tgt, parse_map(text, 2))

    return [
        ("identity", on(trivial, trivial, "x0, x1"), True),
        ("doubling", on(trivial, trivial, "x0, 2*x1"), True),
        ("negated-thirds", on(trivial, trivial, "x0, -3*x1"), True),
        ("base-coefficient", on(trivial, trivial, "x0, (1 + x0^2)*x1"),
         True),
        ("chart-translation", on(trivial, conj, "x0, x1 + x0^2"), True),
        ("fibre-shift", on(trivial, trivial, "x0, x1 + 1"), False),
        ("fibre-square", on(trivial, trivial, "x0, x1^2"), False),
        ("cubic-mix", on(trivial, trivial, "x0, x1 + x1^3"), False),
        ("base-shift", on(trivial, trivial, "x0, x1 + x0^2"), False),
        ("mixed-quadratic", on(trivial, trivial, "x0, x1 + x0*x1^2"),
         False),
    ]
