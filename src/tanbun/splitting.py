"""The pulled-back tangent chart and the retract splitting through it.

For a verified bundle (q, xi, lam) the chart T_M(E) carries base
coordinates m with a tangent block w at xi(m).  The idempotent
chi(m, w) = (m, w - D(xi.q)|_{xi(m)} w) cuts out the vertical
directions; the pair (section, K) splits it through E, exhibiting q as
a retract of the tangent projection over the base.  The biproduct
identities of the strong decomposition live on the companion chart
(e, v), and the non-idempotent demo shows why a fibrewise-linear
endomorphism with rank jumps cannot be split the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, ExprError, SmoothMap, Var,
    compose, con, concat_maps, cube, equal_maps, eval_batch, eval_map,
    identity_map, jac_eval_batch, parse_map, projection, simplify_map,
    row_gaps, smooth_map, substitute_vars,
)
from .jet import ImplicitMap, _solve_rows, row_ordered, tangent_map
from .bundle import (
    BundleMorphism, BundleSpec, check_morphism, fibre_affine_decomposition,
    vert_lambda,
)
from .report import (
    CheckReport, LawResult, Refused, Verdict, law_from_verdict, sampled_law,
)
from .universal import RANK_TOL, _numeric_rank

__all__ = [
    "PulledBackTangent", "SplittingRefused", "pulled_back_tangent",
    "chart_box", "chi", "lift_on_pullback", "chi_checks", "splitting_pair",
    "check_splitting", "biproduct_check", "non_idempotent_demo",
]


class SplittingRefused(Refused):
    pass


@dataclass(frozen=True)
class PulledBackTangent:
    """Chart for T_M(E): base point m plus a tangent block w at xi(m),
    with the inclusion iota into T(E) coordinates and the projection to
    the base."""

    spec: BundleSpec
    iota: SmoothMap
    pi: SmoothMap

    @property
    def dim(self) -> int:
        return self.spec.base_dim + self.spec.total_dim


def pulled_back_tangent(spec: BundleSpec) -> PulledBackTangent:
    d, k = spec.total_dim, spec.base_dim
    iota = SmoothMap(
        k + d,
        spec.xi.components + tuple(Var(k + i) for i in range(d)),
    )
    return PulledBackTangent(spec=spec, iota=iota,
                             pi=projection(k + d, range(k)))


def chart_box(spec: BundleSpec) -> Box:
    """Sampling box for the T_M(E) chart: the base box with the block
    [-2, 2] for each free tangent coordinate."""
    w = ((Fraction(-2), Fraction(2)),) * spec.total_dim
    return Box(tuple(spec.base_box.intervals) + w)


def _vertical_complement(spec: BundleSpec) -> SmoothMap:
    """The map (m, w) -> D(xi.q)|_{xi(m)} w, built symbolically."""
    d, k = spec.total_dim, spec.base_dim
    xiq = compose(spec.xi, spec.q)
    pushed = compose(tangent_map(xiq, 1), pulled_back_tangent(spec).iota)
    return SmoothMap(k + d, pushed.components[d:])


def chi(spec: BundleSpec) -> SmoothMap:
    """The linear idempotent on the T_M(E) chart: identity on the base,
    w minus its horizontal part on the tangent block."""
    d, k = spec.total_dim, spec.base_dim
    horiz = _vertical_complement(spec)
    comps = tuple(Var(i) for i in range(k)) + tuple(
        Var(k + i) - horiz.components[i] for i in range(d)
    )
    return simplify_map(SmoothMap(k + d, comps))


def lift_on_pullback(spec: BundleSpec) -> SmoothMap:
    """The lift of the T_M(E) chart seen as a bundle over the base:
    (m, w) -> ((m, 0), (0, w))."""
    d, k = spec.total_dim, spec.base_dim
    comps = (tuple(Var(i) for i in range(k)) + (con(0),) * d
             + (con(0),) * k + tuple(Var(k + i) for i in range(d)))
    return SmoothMap(k + d, comps)


def chi_checks(spec: BundleSpec, cfg: CheckConfig = DEFAULT_CONFIG
               ) -> CheckReport:
    """Idempotence, fibrewise linearity, lift compatibility, and the
    rank-equals-trace property of the idempotent's fibre matrix."""
    d, k = spec.total_dim, spec.base_dim
    rep = CheckReport(f"{spec.name}: pulled-back idempotent")
    ch = chi(spec)
    box = chart_box(spec)

    rep.add(law_from_verdict(
        "chi-idempotent", "the vertical projector squares to itself",
        equal_maps(compose(ch, ch), ch, box, cfg)))

    # fibrewise linearity with fixed rational weights on a doubled block
    a, b = Fraction(2, 3), Fraction(-5)
    wide = Box(tuple(spec.base_box.intervals)
               + ((Fraction(-2), Fraction(2)),) * (2 * d))
    mix = SmoothMap(
        k + 2 * d,
        tuple(Var(i) for i in range(k))
        + tuple(con(a) * Var(k + i) + con(b) * Var(k + d + i)
                for i in range(d)),
    )
    first = projection(k + 2 * d, list(range(k + d)))
    second = SmoothMap(
        k + 2 * d,
        tuple(Var(i) for i in range(k))
        + tuple(Var(k + d + i) for i in range(d)),
    )
    chi_w = SmoothMap(k + d, ch.components[k:])
    lhs = compose(chi_w, mix)
    rhs = SmoothMap(
        k + 2 * d,
        tuple(con(a) * ce + con(b) * se for ce, se in zip(
            compose(chi_w, first).components,
            compose(chi_w, second).components)),
    )
    rep.add(law_from_verdict(
        "chi-linear", "the projector is linear on each tangent block",
        equal_maps(lhs, rhs, wide, cfg)))

    lam_m = lift_on_pullback(spec)
    rep.add(law_from_verdict(
        "chi-lift-compat", "the projector commutes with the chart lift",
        equal_maps(compose(lam_m, ch), compose(tangent_map(ch, 1), lam_m),
                   box, cfg)))

    # rank of the idempotent fibre matrix equals its trace
    rng = cfg.rng("chi:rank")
    M = spec.base_box.sample(rng, min(cfg.count, 50))
    F = jac_eval_batch(chi_w, np.hstack([M, np.zeros((len(M), d))]))[:, :, k:]
    rank = _numeric_rank(np.linalg.svd(F, compute_uv=False))
    rep.add(sampled_law(
        "chi-rank-trace", "idempotent fibre rank equals its trace",
        np.abs(np.trace(F, axis1=1, axis2=2) - rank), M, RANK_TOL,
        {"samples": len(M), "seed": cfg.seed}))
    return rep


def splitting_pair(spec: BundleSpec, universality):
    """The section (q, vertical lam) into the T_M(E) chart and the
    retraction K back onto E.

    K inverts lam on the image of the projector: closed form when the
    lift is fibre-affine with constant matrix, otherwise a Newton solve
    of lam(e) = iota(chi(m, w)).  Gated on the rosicky square's
    verdict."""
    SplittingRefused.gate(universality, f"{spec.name}: splitting")
    d, k = spec.total_dim, spec.base_dim
    section = concat_maps(spec.q, vert_lambda(spec))
    ch = chi(spec)
    chi_w = ch.components[k:]

    decomp = fibre_affine_decomposition(spec)
    if decomp is not None:
        _, pinv, beta = decomp
        comps = list(Var(i) for i in range(k))
        for row in pinv:
            comps.append(sum(
                (con(c) * (cw - be) for c, cw, be in zip(row, chi_w, beta)),
                con(0),
            ))
        return section, simplify_map(SmoothMap(k + d, comps))

    shift = {i: Var(k + d + i) for i in range(d)}
    pbt = pulled_back_tangent(spec)
    target = compose(pbt.iota, ch)
    resid = tuple(
        substitute_vars(le, shift) - te
        for le, te in zip(spec.lam.components, target.components)
    )

    def init(Z):
        return eval_batch(spec.xi, Z[:, :k])

    K = ImplicitMap(SmoothMap(k + 2 * d, resid), k + d, d, init,
                    name=f"{spec.name}:retraction")
    return section, K


def check_splitting(spec: BundleSpec, cfg: CheckConfig,
                    universality) -> CheckReport:
    """Triangle identities of the retract through the T_M(E) chart."""
    rep = CheckReport(f"{spec.name}: splitting")
    try:
        section, K = splitting_pair(spec, universality)
    except SplittingRefused as exc:
        rep.add(exc.law("splitting-gate",
                        "retract construction requires universality"))
        return rep
    d, k = spec.total_dim, spec.base_dim
    ch = chi(spec)
    box = chart_box(spec)
    tol = max(cfg.tol, 1e-9)

    if isinstance(K, SmoothMap):
        rep.add(law_from_verdict(
            "retract-identity", "retraction after section is the identity",
            equal_maps(compose(K, section), identity_map(d),
                       spec.total_box, cfg)))
        rep.add(law_from_verdict(
            "section-image", "section after retraction is the projector",
            equal_maps(compose(section, K), ch, box, cfg)))
        rep.add(LawResult(
            "uniqueness", "the retraction value is unique",
            Verdict.PASS_EXACT, note="closed form"))
    else:
        rng = cfg.rng("splitting:samples")
        X = spec.total_box.sample(rng, cfg.count)
        Z = box.sample(rng, max(20, cfg.count // 4))
        # one Newton call for both laws: K remembers the batch it solved,
        # and a row that fails fails again below, in the laws' own order
        try:
            K.eval_batch(np.vstack([section.eval_batch(X), Z]))
        except ExprError:
            pass
        rep.add(sampled_law(
            "retract-identity", "retraction after section is the identity",
            row_ordered(lambda X: row_gaps(
                K.eval_batch(section.eval_batch(X)), X), X),
            X, tol, {"samples": len(X), "seed": cfg.seed}))
        rep.add(sampled_law(
            "section-image", "section after retraction is the projector",
            row_ordered(lambda Z: row_gaps(
                section.eval_batch(K.eval_batch(Z)), ch.eval_batch(Z)), Z),
            Z, tol, {"samples": len(Z), "seed": cfg.seed}))

        rep.add(_uniqueness_probe(spec, K, box, cfg))

    rep.add(law_from_verdict(
        "equalised", "the section lands in the projector's fixed points",
        equal_maps(compose(ch, section), section, spec.total_box, cfg)))
    return rep


def _uniqueness_probe(spec: BundleSpec, K: ImplicitMap, box: Box,
                      cfg: CheckConfig) -> LawResult:
    """Newton from spread starts must land on one point (the lift is a
    monomorphism on verified bundles).  Three starts at each of three
    probes solve K's residual, the probe as parameters, in one call."""
    rng = cfg.rng("splitting:uniqueness")
    Z = box.sample(rng, 3)
    PY = np.hstack([np.repeat(Z, 3, axis=0), 0.3 * rng.standard_normal(
        (9, spec.total_dim)) * np.tile([False, True, True], 3)[:, None]
        + np.repeat(K.init(Z), 3, axis=0)])
    Y = PY[:, K.arity:]     # a view: the Newton steps move PY's rows
    # the error raised is the first failing start's, as one solve per
    # start would raise it
    solved, errors = _solve_rows(
        lambda r: eval_batch(K.residual, PY[r]),
        lambda r: jac_eval_batch(K.residual, PY[r])[:, :, K.arity:], Y)
    if errors:
        raise errors[min(errors)]
    # a probe with fewer than two converged starts compared nothing
    solved = solved.reshape(3, 3)
    spreads = [np.ptp(y[ok], axis=0).max() if ok.sum() > 1 else np.nan
               for y, ok in zip(Y.reshape(3, 3, -1), solved)]
    law = sampled_law("uniqueness", "the retraction value is unique",
                      spreads, Z, 1e-7,
                      {"samples": len(PY), "seed": cfg.seed})
    if law.verdict is Verdict.UNKNOWN:
        n = solved[np.argmax(np.isnan(spreads))].sum()
        return replace(law, note=f"{n} of 3 Newton starts converged at the "
                       "witness probe, too few to compare")
    return replace(law, note="three Newton starts per probe, "
                   f"spread {law.max_residual:.3g}")


def biproduct_check(spec: BundleSpec, cfg: CheckConfig,
                    universality) -> CheckReport:
    """The four projection/injection identities on the chart (e, v) plus
    the idempotent split off by the first pair; gated on the strong
    square's verdict."""
    rep = CheckReport(f"{spec.name}: biproduct")
    try:
        SplittingRefused.gate(universality, f"{spec.name}: biproduct chart")
    except SplittingRefused as exc:
        rep.add(exc.law("strong-gate",
                        "biproduct chart requires the strong square"))
        return rep

    d, k = spec.total_dim, spec.base_dim
    box = Box(tuple(spec.total_box.intervals)
              + ((Fraction(-2), Fraction(2)),) * k)
    iota0 = SmoothMap(d, tuple(Var(i) for i in range(d)) + (con(0),) * k)
    iota1 = SmoothMap(2 * k, spec.xi.components
                      + tuple(Var(k + i) for i in range(k)))
    pi0 = projection(d + k, range(d))
    pi1 = SmoothMap(d + k, spec.q.components
                    + tuple(Var(d + i) for i in range(k)))

    rep.add(law_from_verdict(
        "pi0-iota0", "first projection after first injection is identity",
        equal_maps(compose(pi0, iota0), identity_map(d),
                   spec.total_box, cfg)))
    rep.add(law_from_verdict(
        "pi1-iota0", "second projection kills the first injection",
        equal_maps(compose(pi1, iota0),
                   concat_maps(spec.q, SmoothMap(d, (con(0),) * k)),
                   spec.total_box, cfg)))
    rep.add(law_from_verdict(
        "pi0-iota1", "first projection sends second injection to the section",
        equal_maps(compose(pi0, iota1),
                   compose(spec.xi, projection(2 * k, range(k))),
                   cube(2 * k), cfg)))
    rep.add(law_from_verdict(
        "pi1-iota1", "second projection after second injection is identity",
        equal_maps(compose(pi1, iota1), identity_map(2 * k),
                   cube(2 * k), cfg)))
    idem = compose(iota0, pi0)
    rep.add(law_from_verdict(
        "idempotent-split", "the composite injection-projection squares "
        "to itself",
        equal_maps(compose(idem, idem), idem, box, cfg)))
    return rep


def non_idempotent_demo(cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    """A fibrewise-linear endomorphism whose square differs from itself
    and whose fibre rank jumps, so no splitting chart exists."""
    rep = CheckReport("non-idempotent endomorphism")
    trivial = BundleSpec(
        name="line", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        lam=parse_map("x0, 0, 0, x1", 2), add=parse_map("x0, x1 + x3", 4),
    )
    phi = smooth_map(2, [Var(0), Var(1) * Var(0)])
    mor = check_morphism(BundleMorphism(trivial, trivial, phi), cfg,
                         source_add=trivial.add, target_add=trivial.add)
    rep.add(LawResult(
        "morphism-laws", "the endomorphism is a linear bundle morphism",
        Verdict.PASS_NUMERIC if mor.ok else mor.aggregate,
        note="; ".join(f"{e.law_id}={e.verdict.value}" for e in mor.entries),
        provenance={"seed": cfg.seed, "count": cfg.count, "tol": cfg.tol}))

    twice = compose(phi, phi)
    verdict = equal_maps(twice, phi, cube(2), cfg)
    wit_in = [2.0, 1.0]
    wit = (wit_in, eval_map(twice, wit_in).tolist(),
           eval_map(phi, wit_in).tolist())
    rep.add(LawResult(
        "not-idempotent", "the square of the endomorphism differs",
        Verdict.PASS_EXACT if verdict.kind == "not-equal" else Verdict.FAIL,
        witness=wit,
        note=f"at {wit[0]}: squared {wit[1]} vs once {wit[2]}"))

    ranks = {}
    for x in (1.0, 0.0):
        F = jac_eval_batch(phi, np.array([[x, 0.0]]))[0][1:, 1:]
        ranks[x] = int(_numeric_rank(np.linalg.svd(F, compute_uv=False)))
    ok = ranks[1.0] == 1 and ranks[0.0] == 0
    rep.add(LawResult(
        "rank-nonconstant", "the fibre rank jumps across the base",
        Verdict.PASS_EXACT if ok else Verdict.FAIL,
        note=f"fibre rank {ranks[1.0]} at x=1 and {ranks[0.0]} at x=0"))

    rep.add(LawResult(
        "splitting-refused", "no subbundle chart for the image",
        Verdict.PASS_EXACT if ok else Verdict.FAIL,
        note="splitting a fibrewise image needs locally constant rank; "
             "the jump above is the refusal reason"))
    return rep
