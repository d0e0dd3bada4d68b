"""Pre-differential bundles on coordinate charts.

A bundle here is a triple of chart maps (q, xi, lam): the projection
q from the total chart to the base chart, its zero section xi, and
the vertical lift lam into the tangent chart of the total space.
Four equational laws are checked; when they hold, a fibrewise
addition and negation are derived from lam alone (closed form when
lam is affine over the fibre coordinates, Gauss-Newton otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .expr import (
    Box, CheckConfig, Const, DEFAULT_CONFIG, ExprError, SmoothMap, Var,
    compose, con, equal_maps, eval_batch, identity_map, normalize,
    projection, simplify_map, smooth_map, substitute_vars, sum_of,
    symbolic_derivative_expr,
)
from .jet import (
    ImplicitMap, NewtonDiverged, row_ordered, solve_batch, struct_map,
    tangent_map,
)
from .report import (
    CheckReport, LawResult, Verdict, law_from_verdict, universality_refusal,
)

__all__ = [
    "BundleSpec", "BundleMorphism", "CheckReport", "LawResult", "Verdict",
    "AdditionUnavailable", "NotWellTyped",
    "check_predifferential", "check_coalgebra_splitting",
    "induce_addition", "induce_negation", "check_additive_laws",
    "check_morphism", "vert_lambda", "lambda_base",
    "well_typed_tuples", "fibre_matched_tuples", "fibre_affine_decomposition",
]


class AdditionUnavailable(ExprError):
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
    negate: object = None

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

    @property
    def fibre_dim(self) -> int:
        return self.total_dim - self.base_dim


def lambda_base(spec: BundleSpec) -> SmoothMap:
    """Point part of lam (first total_dim components)."""
    return SmoothMap(spec.total_dim, spec.lam.components[: spec.total_dim])


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


def check_coalgebra_splitting(spec: BundleSpec,
                              cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    d = spec.total_dim
    rep = CheckReport(f"{spec.name}: idempotent splitting through the base")
    proj_E = struct_map("proj", 0, d)
    e_map = compose(proj_E, spec.lam)          # candidate idempotent on E
    xi_q = compose(spec.xi, spec.q)

    checks = [
        ("idem", "(proj . lam)^2 = proj . lam",
         compose(e_map, e_map), e_map, spec.total_box),
        ("split-section", "q . xi = id", compose(spec.q, spec.xi),
         identity_map(spec.base_dim), spec.base_box),
        ("split-retract", "xi . q = proj . lam", xi_q, e_map,
         spec.total_box),
    ]
    for law_id, anchor, lhs, rhs, box in checks:
        v = equal_maps(lhs, rhs, box, cfg)
        rep.add(law_from_verdict(law_id, anchor, v, provenance=_prov(cfg)))
    return rep


def _prov(cfg: CheckConfig) -> dict:
    return {"seed": cfg.seed, "count": cfg.count, "tol": cfg.tol}


# --------------------------------------------------------------------------
# Sampling well-typed tuples (points sharing a base image)


def well_typed_tuples(spec: BundleSpec, cfg: CheckConfig, width: int = 2,
                      count: int | None = None, tag: str = "pairs"):
    """Sample tuples of total-chart points with equal q-images.

    The first member is drawn from the box; the others are drawn and
    then projected onto the first member's fibre by Gauss-Newton.
    Returns (list of arrays (n, total_dim), discarded count).
    """
    return fibre_matched_tuples(spec.q, spec.total_box, cfg, width=width,
                                count=count, tag=f"{spec.name}:{tag}")


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
    for raw in rest_raw:
        Z, ok, errs = solve_batch(q, base_targets[alive], raw[alive])
        errors.update((int(alive[k]), err) for k, err in errs.items())
        inside = [ok[k] and total_box.contains(z, slack=0.5)
                  for k, z in enumerate(Z)]
        member = np.empty_like(raw)
        member[alive] = Z
        members.append(member)
        alive = alive[np.asarray(inside, dtype=bool)]
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
    for addition, negation, scalar recovery, and the retraction.
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


def _gate_universality(universality, what: str):
    refusal = universality_refusal(universality)
    if refusal is not None:
        raise AdditionUnavailable(
            f"{what} refused: universality verdict is {refusal}")


def induce_addition(spec: BundleSpec, cfg: CheckConfig = DEFAULT_CONFIG,
                    universality=None):
    """Derive the fibrewise addition from lam.

    The sum of a and b is the unique e with lam(e) equal to lam(a) and
    lam(b) fibre-added in the tangent chart.  Exposed on the free pair
    chart (a, b) of dimension 2*total_dim; callers feed well-typed
    pairs.  Raises AdditionUnavailable when a failing universality
    verdict is supplied.
    """
    _gate_universality(universality, "addition")
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


def induce_negation(spec: BundleSpec, cfg: CheckConfig = DEFAULT_CONFIG,
                    universality=None):
    """Derive fibrewise negation: lam(-a) is lam(a) with the tangent
    part negated."""
    _gate_universality(universality, "negation")
    d, k = spec.total_dim, spec.base_dim
    decomp = fibre_affine_decomposition(spec)
    if decomp is not None:
        offs = _pinv_beta_exprs(spec, decomp)
        comps = [Var(i) for i in range(k)]
        comps += [
            sum_of([-Var(k + j), con(-2) * offs[j]]) for j in range(d - k)
        ]
        return simplify_map(smooth_map(d, comps))
    return _implicit_fibre_op(spec, mode="neg")


def _implicit_fibre_op(spec: BundleSpec, mode: str):
    """Newton-defined addition/negation/scaling through lam."""
    d = spec.total_dim
    lam = spec.lam
    if mode == "add":
        n_par = 2 * d
        a_sub = {i: Var(i) for i in range(d)}
        b_sub = {i: Var(d + i) for i in range(d)}
        extra = [(b_sub, 1.0)]
        name = f"{spec.name}:add"
    elif mode == "neg":
        n_par = d
        a_sub = {i: Var(i) for i in range(d)}
        extra = []
        name = f"{spec.name}:neg"
    else:  # scale: params (r, e)
        n_par = 1 + d
        a_sub = {i: Var(1 + i) for i in range(d)}
        extra = []
        name = f"{spec.name}:scale"
    e_sub = {i: Var(n_par + i) for i in range(d)}

    comps = []
    for i in range(d):
        comps.append(substitute_vars(lam.components[i], e_sub)
                     - substitute_vars(lam.components[i], a_sub))
    for i in range(d, 2 * d):
        target = substitute_vars(lam.components[i], a_sub)
        for sub, _w in extra:
            target = target + substitute_vars(lam.components[i], sub)
        if mode == "neg":
            target = -target
        if mode == "scale":
            target = Var(0) * target
        comps.append(substitute_vars(lam.components[i], e_sub) - target)
    residual = simplify_map(smooth_map(n_par + d, comps))

    if mode == "scale":
        init = lambda X: X[:, 1:]
    else:
        init = lambda X: X[:, :d]
    return ImplicitMap(residual, n_par, d, init=init, name=name)


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
# Additive-law verification on samples


def check_additive_laws(spec: BundleSpec, add,
                        cfg: CheckConfig = DEFAULT_CONFIG,
                        declared=None) -> CheckReport:
    """Associativity, commutativity, both unit laws, and base
    compatibility of a candidate addition, on sampled well-typed
    tuples.  When `declared` is given it is compared against `add`.
    """
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
    for law_id, anchor, lhs, rhs in checks:
        rep.add(_law_from_arrays(law_id, anchor, a, lhs, rhs, cfg,
                                 extra={"discarded": discarded}))
    if declared is not None:
        rep.add(_law_from_arrays(
            "add-declared", "declared addition = induced addition",
            a, ab, _pairwise(declared, a, b), cfg))
    return rep


def _pairwise(add, X, Y):
    return row_ordered(add.eval_batch, np.hstack([X, Y]))


def _law_from_arrays(law_id, anchor, points, lhs, rhs, cfg,
                     extra=None) -> LawResult:
    resid = np.abs(lhs - rhs)
    worst = float(np.max(resid)) if resid.size else 0.0
    prov = _prov(cfg)
    if extra:
        prov.update(extra)
    prov["count"] = len(points)
    if worst <= cfg.tol:
        return LawResult(law_id, anchor, Verdict.PASS_NUMERIC,
                         max_residual=worst, provenance=prov)
    i = int(np.unravel_index(np.argmax(resid), resid.shape)[0])
    return LawResult(law_id, anchor, Verdict.FAIL,
                     witness=(points[i].tolist(), lhs[i].tolist(),
                              rhs[i].tolist()),
                     max_residual=worst, provenance=prov)


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


def check_morphism(mor: BundleMorphism, cfg: CheckConfig = DEFAULT_CONFIG,
                   source_add=None, target_add=None) -> CheckReport:
    """Base compatibility, lift compatibility, and sampled additivity."""
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
        if source_add is None:
            source_add = induce_addition(src, cfg)
        if target_add is None:
            target_add = induce_addition(tgt, cfg)
        (a, b), discarded = well_typed_tuples(src, cfg, width=2, tag="mor")
        fa = eval_batch(mor.f, a)
        fb = eval_batch(mor.f, b)
        lhs = eval_batch(mor.f, _pairwise(source_add, a, b))
        rhs = _pairwise(target_add, fa, fb)
        rep.add(_law_from_arrays("mor-add", "f(a + b) = f(a) + f(b)",
                                 a, lhs, rhs, cfg,
                                 extra={"discarded": discarded}))
    except (AdditionUnavailable, NewtonDiverged, NotWellTyped) as exc:
        rep.add(LawResult("mor-add", "f(a + b) = f(a) + f(b)",
                          Verdict.SKIPPED, note=str(exc)))
    return rep
