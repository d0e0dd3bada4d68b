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
    Box, CheckConfig, DEFAULT_CONFIG, DimensionMismatch, ExprError,
    SmoothMap, Var, compose, con, cube, equal_maps, parse_map,
    simplify_map, smooth_map,
)
from .jet import (
    NewtonDiverged, apply_map, row_ordered, tangent_after, tangent_map,
)
from .bundle import (
    AdditionUnavailable, BundleMorphism, BundleSpec, NotWellTyped,
    fibre_matched_tuples, induce_addition, scale_through_lambda,
)
from .report import (
    CheckReport, LawResult, Verdict, law_from_verdict, universality_refusal,
)

__all__ = [
    "VectorBundleSpec", "ModuleLawsFailed", "TranslationRefused",
    "del_map", "check_module_laws", "psi", "phi", "roundtrip_check",
    "morphism_transport_check", "transport_demo_morphisms",
]


class ModuleLawsFailed(ExprError):
    pass


class TranslationRefused(ExprError):
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


def del_map() -> SmoothMap:
    """The unit-speed jet constructor x -> (x, 1)."""
    return smooth_map(1, [Var(0), con(1)])


def _scalar_box(vb, width: Fraction = Fraction(2)) -> Box:
    return Box(((-width, width),) + tuple(vb.total_box.intervals))


def check_module_laws(vb: VectorBundleSpec,
                      cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    """The six module laws of the scalar action, on sampled points and
    fibre-matched pairs."""
    rep = CheckReport(f"{vb.name}: module laws")
    tol = max(cfg.tol, 1e-9)
    rng = cfg.rng(f"{vb.name}:module")
    n = min(cfg.count, 120)
    A = vb.total_box.sample(rng, n)
    R = rng.uniform(-2.0, 2.0, n)
    S = rng.uniform(-2.0, 2.0, n)

    def act(r, a):
        return apply_map(vb.scalar, np.concatenate([[r], a]))

    def fibre_sum(a, b):
        return apply_map(vb.add, np.concatenate([a, b]))

    def gap(u, v):
        return np.max(np.abs(u - v))

    def law(law_id, anchor, cases):
        # cases: (inputs, gap) per sample, the inputs in the order the law
        # reads them, scalars first; the witness is the first gap not <= tol
        gaps = [g for _, g in cases]
        worst = float(np.max(gaps)) if gaps else 0.0
        wit = next(((np.hstack(x).tolist(),) for x, g in cases
                    if not g <= tol), None)
        rep.add(LawResult(
            law_id, anchor,
            Verdict.PASS_NUMERIC if worst <= tol else Verdict.FAIL,
            witness=wit, max_residual=worst,
            provenance={"samples": n, "seed": cfg.seed}))

    law("scalar-unit", "acting by one changes nothing",
        [((a,), gap(act(1.0, a), a)) for a in A])
    law("scalar-assoc", "nested actions multiply the scalars",
        [((r, s, a), gap(act(r, act(s, a)), act(r * s, a)))
         for r, s, a in zip(R, S, A)])
    law("scalar-scalar-distrib", "a scalar sum acts as the fibre sum",
        [((r, s, a), gap(act(r + s, a), fibre_sum(act(r, a), act(s, a))))
         for r, s, a in zip(R, S, A)])
    try:
        (first, second), _ = fibre_matched_tuples(
            vb.q, vb.total_box, cfg, width=2, count=n,
            tag=f"{vb.name}:module-pairs")
        law("scalar-add-distrib", "the action distributes over fibre sums",
            [((r, a, b), gap(act(r, fibre_sum(a, b)),
                             fibre_sum(act(r, a), act(r, b))))
             for r, a, b in zip(R, first, second)])
    except NotWellTyped as exc:
        rep.add(LawResult("scalar-add-distrib",
                          "the action distributes over fibre sums",
                          Verdict.UNKNOWN, note=str(exc)))

    law("scalar-zero", "acting by zero lands on the zero section",
        [((a,), gap(act(0.0, a), apply_map(vb.xi, apply_map(vb.q, a))))
         for a in A])
    law("scalar-base", "the action preserves the fibre",
        [((r, a), gap(apply_map(vb.q, act(r, a)), apply_map(vb.q, a)))
         for r, a in zip(R, A)])
    return rep


def psi(vb: VectorBundleSpec, cfg: CheckConfig = DEFAULT_CONFIG, *,
        checked: bool = True) -> BundleSpec:
    """Bundle with the lift generated from the scalar action.

    The lift evaluates the tangent of the action at scalar jet (0, 1)
    and point jet (e, 0); a closed-form action gives a closed-form lift.
    """
    if checked:
        laws = check_module_laws(vb, cfg)
        if not laws.ok:
            bad = ", ".join(e.law_id for e in laws.failures())
            raise ModuleLawsFailed(f"{vb.name}: module laws failed: {bad}")
    d = vb.total_dim
    embed = SmoothMap(
        d,
        (con(0),) + tuple(Var(i) for i in range(d))
        + (con(1),) + (con(0),) * d,
    )
    lam = tangent_after(vb.scalar, embed)
    negate = None
    if isinstance(vb.scalar, SmoothMap):
        neg_embed = SmoothMap(
            d, (con(-1),) + tuple(Var(i) for i in range(d)))
        negate = simplify_map(compose(vb.scalar, neg_embed))
    return BundleSpec(
        name=f"{vb.name}:as-lift", base_dim=vb.base_dim, total_dim=d,
        base_box=vb.base_box, total_box=vb.total_box,
        q=vb.q, xi=vb.xi, lam=lam, add=vb.add, scalar=vb.scalar,
        negate=negate,
    )


def phi(db: BundleSpec, cfg: CheckConfig = DEFAULT_CONFIG,
        universality=None) -> VectorBundleSpec:
    """Vector bundle with the scalar action recovered from the lift.

    Refused unless the universality verdict is a pass; the recovered
    action conjugates tangent-block scaling through the lift, and the
    addition is induced the same way."""
    from .universal import check_pullback, rosicky_square
    refusal = universality_refusal(
        universality,
        lambda: check_pullback(rosicky_square(db), cfg.t_depth, cfg))
    if refusal is not None:
        raise TranslationRefused(
            f"{db.name}: scalar recovery refused, universality verdict is "
            f"{refusal}")
    add = db.add if db.add is not None else induce_addition(
        db, cfg, universality=universality)
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
    # a NaN gap never becomes the worst, as in a running max from 0.0
    gaps = np.fmax(row_ordered(lambda X: np.max(np.abs(
        f.eval_batch(X) - g.eval_batch(X)), axis=1), X), 0.0)
    worst = float(np.max(gaps, initial=0.0))
    wit = (X[int(np.argmax(gaps))].tolist(),) if worst > 0.0 else None
    tol = max(cfg.tol, 1e-9)
    return LawResult(
        law_id, anchor,
        Verdict.PASS_NUMERIC if worst <= tol else Verdict.FAIL,
        witness=wit if worst > tol else None, max_residual=worst,
        provenance={"samples": len(X), "seed": cfg.seed})


def _identical(law_id, anchor, a, b) -> LawResult:
    same = a is b
    return LawResult(law_id, anchor,
                     Verdict.PASS_EXACT if same else Verdict.FAIL,
                     note="carried through unchanged" if same else
                     "object was rebuilt")


def roundtrip_check(obj, cfg: CheckConfig = DEFAULT_CONFIG,
                    universality=None) -> CheckReport:
    """Both translation round trips on the given structure."""
    rep = CheckReport(f"{obj.name}: translation round trip")
    if isinstance(obj, VectorBundleSpec):
        db = psi(obj, cfg)
        try:
            back = phi(db, cfg, universality)
        except (TranslationRefused, AdditionUnavailable) as exc:
            rep.add(LawResult("phi-gate", "reverse translation accepts the "
                              "generated bundle", Verdict.FAIL,
                              note=str(exc)))
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
        vb = phi(db, cfg, universality)
    except (TranslationRefused, AdditionUnavailable) as exc:
        rep.add(LawResult("phi-gate", "translation accepts verified "
                          "bundles only", Verdict.FAIL, note=str(exc)))
        return rep
    back = psi(vb, cfg, checked=False)
    rep.add(_compare("roundtrip-lift",
                     "regenerated lift matches the input lift",
                     back.lam, db.lam, db.total_box, cfg))
    rep.add(_identical("untouched-projection",
                       "projection passes through unchanged", back.q, db.q))
    rep.add(_identical("untouched-section",
                       "zero section passes through unchanged",
                       back.xi, db.xi))
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
    lift_ok = lift_v.is_exact or lift_v.is_numeric_pass
    rep.add(LawResult(
        "lift-linear", "the lifts intertwine the morphism",
        Verdict.PASS_EXACT if lift_v.kind == "equal" else
        (Verdict.PASS_NUMERIC if lift_ok else Verdict.FAIL),
        witness=lift_v.witness, max_residual=lift_v.max_residual))

    s_src = src.scalar if src.scalar is not None else scale_through_lambda(src)
    s_tgt = tgt.scalar if tgt.scalar is not None else scale_through_lambda(tgt)
    rng = cfg.rng("transport:scalar")
    n = min(cfg.count, 100)
    X = src.total_box.sample(rng, n)
    R = rng.uniform(-2.0, 2.0, n)
    tol = max(cfg.tol, 1e-9)
    worst, wit, unknown = 0.0, None, None
    for r, a in zip(R, X):
        try:
            lhs = apply_map(mor.f, apply_map(s_src, np.concatenate([[r], a])))
            fa = apply_map(mor.f, a)
            rhs = apply_map(s_tgt, np.concatenate([[r], fa]))
        except NewtonDiverged as exc:
            unknown = str(exc)
            break
        gap = float(np.max(np.abs(lhs - rhs)))
        if gap > worst:
            worst, wit = gap, ([float(r)] + a.tolist(),)
    if unknown is not None:
        rep.add(LawResult("scalar-preserving",
                          "the morphism commutes with the actions",
                          Verdict.UNKNOWN, note=unknown))
        rep.add(LawResult("transport-agreement",
                          "lift compatibility matches scalar compatibility",
                          Verdict.UNKNOWN, note="scalar side inconclusive"))
        return rep
    scalar_ok = worst <= tol
    rep.add(LawResult(
        "scalar-preserving", "the morphism commutes with the actions",
        Verdict.PASS_NUMERIC if scalar_ok else Verdict.FAIL,
        witness=wit if not scalar_ok else None, max_residual=worst,
        provenance={"samples": n, "seed": cfg.seed}))

    agree = lift_ok == scalar_ok
    rep.add(LawResult(
        "transport-agreement",
        "lift compatibility matches scalar compatibility",
        Verdict.PASS_NUMERIC if agree else Verdict.FAIL,
        note=f"lift side {'holds' if lift_ok else 'fails'}, "
             f"scalar side {'holds' if scalar_ok else 'fails'}"))
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
