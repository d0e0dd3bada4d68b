"""Pre-differential bundles on coordinate charts.

A bundle here is a triple of chart maps (q, xi, lam): the projection
q from the total chart to the base chart, its zero section xi, and
the vertical lift lam into the tangent chart of the total space.
Four equational laws are checked; when they hold, a fibrewise
addition and scaling are derived from lam alone (closed form when
lam is affine over the fibre coordinates, Gauss-Newton otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import (
    Box, CheckConfig, Const, DEFAULT_CONFIG, ExprError, SmoothMap, Var,
    compose, con, equal_maps, eval_batch, identity_map, jac_eval_batch,
    normalize, projection, row_gaps, simplify_map, smooth_map,
    substitute_vars, sum_of, symbolic_derivative_expr,
)
from .jet import (
    ImplicitMap, NewtonDiverged, _each_row, row_ordered, solve_batch,
    struct_map, tangent_map,
)
from .report import (
    CheckReport, LawResult, Refused, Verdict, law_from_verdict, sampled_law,
)

__all__ = [
    "BundleSpec", "BundleMorphism", "CheckReport", "LawResult", "Verdict",
    "AdditionUnavailable", "NotWellTyped",
    "check_predifferential", "induce_addition", "check_additive_laws",
    "check_morphism", "vert_lambda", "scale_through_lambda",
    "well_typed_tuples", "fibre_matched_tuples", "fibre_affine_decomposition",
]


class AdditionUnavailable(Refused):
    pass


class NotWellTyped(ExprError):
    pass


@dataclass(frozen=True)
class BundleSpec:
    """A chart-local bundle candidate (q, xi, lam) with sample boxes."""

    name: str
    base_dim: int
    total_dim: int
    base_box: Box
    total_box: Box
    q: SmoothMap
    xi: SmoothMap
    lam: SmoothMap
    add: object = None
    scalar: object = None

    def __post_init__(self):
        d, k = self.total_dim, self.base_dim
        if not (0 < k <= d):
            raise ExprError(f"bad dims base={k} total={d}")
        checks = [
            (self.q, d, k), (self.xi, k, d), (self.lam, d, 2 * d),
        ]
        for m, ar, co in checks:
            if m.arity != ar or m.coarity != co:
                raise ExprError(
                    f"{self.name}: map of type {m.arity}->{m.coarity}, "
                    f"expected {ar}->{co}"
                )
        if self.base_box.dim != k or self.total_box.dim != d:
            raise ExprError(f"{self.name}: box dims do not match chart dims")


def vert_lambda(spec: BundleSpec) -> SmoothMap:
    """Tangent part of lam (last total_dim components)."""
    return SmoothMap(spec.total_dim, spec.lam.components[spec.total_dim:])


# --------------------------------------------------------------------------
# The four defining laws and the idempotent they induce


def check_predifferential(spec: BundleSpec,
                          cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    d = spec.total_dim
    rep = CheckReport(f"{spec.name}: structural laws")
    lift_E = struct_map("lift", 0, d)
    proj_E = struct_map("proj", 0, d)
    zero_E = struct_map("zero", 0, d)

    pairs = [
        ("pre-1", "q . xi = id",
         compose(spec.q, spec.xi), identity_map(spec.base_dim),
         spec.base_box),
        ("pre-2", "lift . lam = T(lam) . lam",
         compose(lift_E, spec.lam),
         compose(tangent_map(spec.lam, 1), spec.lam), spec.total_box),
        ("pre-3", "proj . lam = xi . q",
         compose(proj_E, spec.lam), compose(spec.xi, spec.q),
         spec.total_box),
        ("pre-4", "lam . xi = zero . xi",
         compose(spec.lam, spec.xi), compose(zero_E, spec.xi),
         spec.base_box),
    ]
    for law_id, anchor, lhs, rhs, box in pairs:
        v = equal_maps(lhs, rhs, box, cfg)
        rep.add(law_from_verdict(law_id, anchor, v,
                                 provenance=_prov(cfg)))
    return rep


def _prov(cfg: CheckConfig) -> dict:
    return {"seed": cfg.seed, "count": cfg.count, "tol": cfg.tol}


# --------------------------------------------------------------------------
# Sampling well-typed tuples (points sharing a base image)


def well_typed_tuples(spec: BundleSpec, cfg: CheckConfig, width: int = 2,
                      tag: str = "pairs"):
    """Sample tuples of total-chart points with equal q-images.

    The first member is drawn from the box; the others are drawn and
    then projected onto the first member's fibre by Gauss-Newton.
    Returns (list of arrays (n, total_dim), discarded count).
    """
    return fibre_matched_tuples(spec.q, spec.total_box, cfg, width=width,
                                tag=f"{spec.name}:{tag}")


def fibre_matched_tuples(q: SmoothMap, total_box: Box, cfg: CheckConfig,
                         width: int = 2, count: int | None = None,
                         tag: str = "pairs"):
    """The sampling core of well_typed_tuples for a bare projection."""
    n = count if count is not None else cfg.count
    rng = cfg.rng(tag)
    first = total_box.sample(rng, n)
    rest_raw = [total_box.sample(rng, n) for _ in range(width - 1)]
    base_targets = eval_batch(q, first)

    # one batched solve per member, on the rows whose earlier members
    # were all found inside the box
    alive = np.arange(n)
    members = [first]
    errors = {}
    lo, hi = total_box.lo() - 0.5, total_box.hi() + 0.5
    for raw in rest_raw:
        Z, ok, errs = solve_batch(q, base_targets[alive], raw[alive])
        errors.update((int(alive[k]), err) for k, err in errs.items())
        member = np.empty_like(raw)
        member[alive] = Z
        members.append(member)
        alive = alive[ok & np.all((Z >= lo) & (Z <= hi), axis=1)]
    if errors:
        raise errors[min(errors)]   # the first row a row-by-row loop meets
    if not alive.size:
        raise NotWellTyped(f"{tag}: no well-typed {width}-tuples found")
    return [m[alive] for m in members], n - len(alive)


# --------------------------------------------------------------------------
# Deriving the fibrewise algebra from lam


def fibre_affine_decomposition(spec: BundleSpec):
    """When q is the leading-coordinate projection and the tangent part
    of lam is affine over the fibre coordinates with constant matrix,
    return (A: list of Fraction rows, pinv_A, beta: list of Expr in the
    base variables); otherwise None.  This is the closed-form gateway
    for addition, scalar recovery, and the retraction.
    """
    d, k = spec.total_dim, spec.base_dim
    if spec.q != projection(d, range(k)):
        return None
    vl = vert_lambda(spec)
    A = []
    for comp in vl.components:
        row = []
        for j in range(k, d):
            dd = normalize(symbolic_derivative_expr(comp, j))
            if not isinstance(dd, Const):
                return None
            row.append(dd.value)
        A.append(row)
    zero_fibre = {j: con(0) for j in range(k, d)}
    beta = [normalize(substitute_vars(c, zero_fibre)) for c in vl.components]
    pinv = _fraction_pinv(A)
    if pinv is None:
        return None
    return A, pinv, beta


def _fraction_pinv(A):
    """(A^T A)^{-1} A^T over exact rationals; None when A^T A is singular."""
    rows, cols = len(A), len(A[0]) if A else 0
    if cols == 0:
        return []
    ata = [[sum(A[r][i] * A[r][j] for r in range(rows)) for j in range(cols)]
           for i in range(cols)]
    inv = _fraction_inverse(ata)
    if inv is None:
        return None
    return [[sum(inv[i][t] * A[r][t] for t in range(cols)) for r in range(rows)]
            for i in range(cols)]


def _fraction_inverse(M):
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(int(i == j))
           for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _pinv_beta_exprs(spec: BundleSpec, decomp):
    """The fibre-chart offset pinv(A) . beta as expressions in base vars."""
    _, pinv, beta = decomp
    return [normalize(sum_of([con(c) * b for c, b in zip(row, beta)]))
            for row in pinv]


def induce_addition(spec: BundleSpec, universality):
    """Derive the fibrewise addition from lam.

    The sum of a and b is the unique e with lam(e) equal to lam(a) and
    lam(b) fibre-added in the tangent chart.  Exposed on the free pair
    chart (a, b) of dimension 2*total_dim; callers feed well-typed
    pairs.  Gated on the rosicky square's verdict (AdditionUnavailable).
    """
    AdditionUnavailable.gate(universality, f"{spec.name}: addition")
    d, k = spec.total_dim, spec.base_dim
    decomp = fibre_affine_decomposition(spec)
    if decomp is not None:
        offs = _pinv_beta_exprs(spec, decomp)
        comps = [Var(i) for i in range(k)]
        comps += [
            sum_of([Var(k + j), Var(d + k + j), offs[j]])
            for j in range(d - k)
        ]
        return simplify_map(smooth_map(2 * d, comps))
    return _implicit_fibre_op(spec, mode="add")


def _implicit_fibre_op(spec: BundleSpec, mode: str):
    """Newton-defined addition or scaling through lam.  The addition
    starts at the chart sum a + b - xi(q(a)), the root itself where lam
    is affine in the fibre; scaling starts at e."""
    d = spec.total_dim
    lam = spec.lam
    if mode == "add":
        n_par = 2 * d
        a_sub = {i: Var(i) for i in range(d)}
        b_sub = {i: Var(d + i) for i in range(d)}
        zero = compose(spec.xi, spec.q)
        init = lambda X: _chart_sum(zero, X, d)
    else:  # scale: params (r, e)
        n_par = 1 + d
        a_sub = {i: Var(1 + i) for i in range(d)}
        init = lambda X: X[:, 1:]
    e_sub = {i: Var(n_par + i) for i in range(d)}

    comps = []
    for i in range(d):
        comps.append(substitute_vars(lam.components[i], e_sub)
                     - substitute_vars(lam.components[i], a_sub))
    for i in range(d, 2 * d):
        target = substitute_vars(lam.components[i], a_sub)
        if mode == "add":
            target = target + substitute_vars(lam.components[i], b_sub)
        else:
            target = Var(0) * target
        comps.append(substitute_vars(lam.components[i], e_sub) - target)
    residual = simplify_map(smooth_map(n_par + d, comps))
    return ImplicitMap(residual, n_par, d, init=init,
                       name=f"{spec.name}:{mode}")


def _chart_sum(zero: SmoothMap, X: np.ndarray, d: int) -> np.ndarray:
    """a + b - zero(a) for the pairs (a, b) in the rows of X; a row whose
    zero(a) raises, or whose sum is not finite, keeps a."""
    A = X[:, :d]
    start = A.copy()
    kept, Z = _each_row(lambda rows: eval_batch(zero, A[rows]),
                        np.arange(len(A)))
    if kept.size:
        with np.errstate(over="ignore", invalid="ignore"):
            S = A[kept] + X[kept, d:] - Z
        finite = np.isfinite(S).all(axis=1)
        start[kept[finite]] = S[finite]
    return start


def scale_through_lambda(spec: BundleSpec):
    """Fibre scaling derived from lam: lam(r . e) = r * tangent part.

    Chart (r, e) of dimension 1 + total_dim.
    """
    d, k = spec.total_dim, spec.base_dim
    decomp = fibre_affine_decomposition(spec)
    if decomp is not None:
        shift = {i: Var(1 + i) for i in range(k)}
        offs = [substitute_vars(o, shift)
                for o in _pinv_beta_exprs(spec, decomp)]
        r = Var(0)
        comps = [Var(1 + i) for i in range(k)]
        comps += [
            sum_of([r * Var(1 + k + j), (r - con(1)) * offs[j]])
            for j in range(d - k)
        ]
        return simplify_map(smooth_map(1 + d, comps))
    return _implicit_fibre_op(spec, mode="scale")


# --------------------------------------------------------------------------
# Additive-law verification


# law id -> (anchor, the sums its sampled check compares, the hypotheses
# it follows from for a Newton-defined addition).  The root e of
# lam(e) = lam(a) +_T lam(b) has point part xi(q(a)) by pre-3, so
# q(e) = q(a) by pre-1; lam(xi(q(a))) is zero by pre-4, so a solves both
# unit sums; sums with one image under (q, lam) are one point where the
# rosicky cone map is injective, and where it is surjective the inner
# sums of associativity have roots.
_ADD_LAWS = {
    "add-assoc": ("(a + b) + c = a + (b + c)", 4,
                  ("pre-1", "pre-3", "injective", "surjective")),
    "add-comm": ("a + b = b + a", 2, ("pre-1", "pre-3", "injective")),
    "add-unit-r": ("a + xi(q(a)) = a", 1,
                   ("pre-1", "pre-3", "pre-4", "injective")),
    "add-unit-l": ("xi(q(a)) + a = a", 1,
                   ("pre-1", "pre-3", "pre-4", "injective")),
    "add-base": ("q(a + b) = q(a)", 1, ("pre-1", "pre-3")),
}


def check_additive_laws(spec: BundleSpec, add,
                        cfg: CheckConfig = DEFAULT_CONFIG,
                        declared=None, hypotheses=()) -> CheckReport:
    """Associativity, commutativity, both unit laws, and base
    compatibility of a candidate addition, on sampled well-typed
    tuples.  When `declared` is given it is compared against `add`.

    `hypotheses`, given with the add induce_addition derives, are reports
    holding pre-1, pre-3, pre-4 and rosicky's injective and surjective.
    When add is Newton-defined and they all pass, the laws are derived
    and only a + b is solved, unless the bound exceeds tol."""
    rep = CheckReport(f"{spec.name}: fibrewise addition laws")
    (a, b, c), discarded = well_typed_tuples(spec, cfg, width=3, tag="add3")
    inputs = np.hstack([a, b, c])
    prov = {**_prov(cfg), "discarded": discarded, "count": len(a)}
    derived = _derived_laws(spec, add, cfg.tol, a, b, hypotheses, prov)
    if derived is not None:
        ab, laws = derived
        for law in laws:
            rep.add(law)
    else:
        zero = eval_batch(compose(spec.xi, spec.q), a)
        # the seven sums in two calls, in the order of one call per sum
        ab, ba, bc = _pairwise_blocks(add, [(a, b), (b, a), (b, c)])
        ab_c, a_bc, a_zero, zero_a = _pairwise_blocks(
            add, [(ab, c), (a, bc), (a, zero), (zero, a)])
        sides = [(ab_c, a_bc), (ab, ba), (a_zero, a), (zero_a, a),
                 (eval_batch(spec.q, ab), eval_batch(spec.q, a))]
        for (law_id, (anchor, *_)), (lhs, rhs) in zip(_ADD_LAWS.items(),
                                                      sides):
            rep.add(sampled_law(law_id, anchor, row_gaps(lhs, rhs), inputs,
                                cfg.tol, dict(prov)))
    if declared is not None:
        rep.add(sampled_law(
            "add-declared", "declared addition = induced addition",
            row_gaps(ab, _pairwise(declared, a, b)), inputs,
            cfg.tol, {**_prov(cfg), "count": len(a)}))
    return rep


def _derived_laws(spec: BundleSpec, add, tol: float, a, b, hypotheses,
                  prov: dict):
    """(a + b, the five laws derived from their passing hypotheses), or
    None when the sampled check must run.  A law reads the weakest of its
    hypotheses, which all pass, and of the a + b solve, which is numeric:
    a numeric pass.  Its bound is first order: a sum accepted at residual
    R lies within |R| / sigma_min(dR/de) of its root, and a sampled check
    accepts each sum at |R|_inf < add.tol, so a law comparing k sums is
    bounded by k times the worst such radius over the solved rows (q's
    slope in place of k for add-base)."""
    if not isinstance(add, ImplicitMap):
        return None
    passed = {e.law_id for r in hypotheses for e in r.entries
              if e.verdict.ok}
    if not {"pre-1", "pre-3", "pre-4", "injective", "surjective"} <= passed:
        return None
    ab = _pairwise(add, a, b)
    XE = np.hstack([a, b, ab])
    floor = add.tol * np.sqrt(add.residual.coarity)
    try:
        R = eval_batch(add.residual, XE)
        J = jac_eval_batch(add.residual, XE)[:, :, add.arity:]
        slope = np.linalg.norm(jac_eval_batch(spec.q, ab), ord=2,
                               axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            radius = np.maximum(np.linalg.norm(R, axis=1), floor) \
                / np.linalg.svd(J, compute_uv=False)[:, -1]
    except (ExprError, np.linalg.LinAlgError):
        return None
    laws = []
    for law_id, (anchor, sums, hyps) in _ADD_LAWS.items():
        base = law_id == "add-base"
        bound = float(np.max((slope if base else sums) * radius))
        if not bound <= tol:
            return None
        laws.append(LawResult(
            law_id, anchor, Verdict.PASS_NUMERIC, max_residual=bound,
            provenance={**prov, "derived_from": list(hyps)},
            note=f"derived from {', '.join(hyps)}; max_residual is a "
            "first-order bound from the a + b solve: "
            f"{'|dq|' if base else sums} x worst "
            f"max(|R|, {floor:.2g}) / sigma_min(dR/de)"))
    return ab, laws


def _pairwise(add, X, Y):
    return row_ordered(add.eval_batch, np.hstack([X, Y]))


def _pairwise_blocks(add, pairs):
    """[_pairwise(add, X, Y) for X, Y in pairs] from one call.  The rows
    of a batch are solved independently, and row_ordered raises the
    error of the first failing row in block order, as the calls one
    block at a time would."""
    out = _pairwise(add, np.vstack([X for X, _ in pairs]),
                    np.vstack([Y for _, Y in pairs]))
    return np.split(out, np.cumsum([len(X) for X, _ in pairs[:-1]]))


# --------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class BundleMorphism:
    source: BundleSpec
    target: BundleSpec
    f: SmoothMap

    def __post_init__(self):
        if self.f.arity != self.source.total_dim \
                or self.f.coarity != self.target.total_dim:
            raise ExprError("morphism map does not match bundle charts")

    @property
    def base_map(self) -> SmoothMap:
        """Derived base-chart action: q' . f . xi."""
        return simplify_map(
            compose(self.target.q, compose(self.f, self.source.xi)))


def check_morphism(mor: BundleMorphism, cfg: CheckConfig, source_add,
                   target_add) -> CheckReport:
    """Base compatibility, lift compatibility, and sampled additivity
    against the additions of the source and the target."""
    src, tgt = mor.source, mor.target
    rep = CheckReport(f"{src.name} -> {tgt.name}: morphism laws")
    f0 = mor.base_map

    v1 = equal_maps(compose(tgt.q, mor.f), compose(f0, src.q),
                    src.total_box, cfg)
    rep.add(law_from_verdict("mor-base", "q' . f = f0 . q", v1,
                             provenance=_prov(cfg)))
    v2 = equal_maps(compose(tgt.lam, mor.f),
                    compose(tangent_map(mor.f, 1), src.lam),
                    src.total_box, cfg)
    rep.add(law_from_verdict("mor-lift", "lam' . f = T(f) . lam", v2,
                             provenance=_prov(cfg)))

    try:
        (a, b), discarded = well_typed_tuples(src, cfg, width=2, tag="mor")
        fa = eval_batch(mor.f, a)
        fb = eval_batch(mor.f, b)
        lhs = eval_batch(mor.f, _pairwise(source_add, a, b))
        rhs = _pairwise(target_add, fa, fb)
        rep.add(sampled_law("mor-add", "f(a + b) = f(a) + f(b)",
                            row_gaps(lhs, rhs), np.hstack([a, b]), cfg.tol,
                            {**_prov(cfg), "discarded": discarded,
                             "count": len(a)}))
    except (NewtonDiverged, NotWellTyped) as exc:
        rep.add(LawResult("mor-add", "f(a + b) = f(a) + f(b)",
                          Verdict.SKIPPED, note=str(exc)))
    return rep
