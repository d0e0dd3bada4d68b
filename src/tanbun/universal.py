"""Pullback checking for the universality squares of a bundle.

Each square packs an apex chart (optionally cut out by a constraint
map), a cone (top, left), and a cospan (right, bottom).  The checker
tests, at every jet depth up to the configured cap, that the induced
map from the apex into the fibre product of the cospan is bijective:
sampled injectivity, Jacobian-rank equality against the fibre-product
tangent dimension, and Newton-recovered preimages of perturbed cone
points.  A Fail always carries a concrete witness; Pass is sampled
evidence, not proof.  The rosicky square of a polynomial lift affine over
the fibre is instead proved, at every depth, by rosicky_certificate: the
cone map's explicit polynomial inverse, checked on canonical forms.

The same rank machinery decides whether a chart map is a submersion on
a box: its derivative's smallest singular value over samples, with the
rank law's collapse hunt run wherever no sample collapses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, DimensionMismatch, ExprError,
    SmoothMap, Var, _poly_forms, compose, concat_maps, con, cube, equal_maps,
    eval_batch, eval_mp, identity_map, jac_eval_batch, jacobian_exprs,
    projection, row_gaps, simplify_map, smooth_map, sum_of, to_source,
)
from .bundle import (
    BundleSpec, CheckReport, LawResult, Verdict, _fraction_inverse,
    fibre_affine_decomposition, induce_addition, vert_lambda,
)
from .report import Refused, sampled_law
from .jet import (
    ImplicitMap, _each_row, _one_matrix, _solve_rows, row_ordered,
    solve_batch, struct_map, tangent_after, tangent_map, tangent_of,
)

__all__ = [
    "CommutingSquare", "RankDeficientCospan",
    "rosicky_square", "rosicky_certificate", "cockett_square",
    "strong_square", "combined_square",
    "check_pullback", "collapse_search", "face_push",
    "cross_check_equivalence", "is_submersion_on",
]

RANK_TOL = 1e-7           # singular values below this (relative) are zero
SEARCH_GATE = 0.05        # a collapse search runs below this sigma or ratio
MATCH_TOL = 1e-8          # image agreement threshold for collision scan
DISTINCT_TOL = 1e-6       # apex points further apart than this are distinct
STEP_EXPAND = 2.0         # a compass step's factor after a poll improves
STEP_MAX = 0.4            # the largest compass step
STEP_CONTRACT = 0.125     # a compass step's factor after a poll that fails


def __getattr__(name):
    # No search calls scipy: collapse_search is a compass search of its own.
    # universal.minimize stays, loaded on first read, because
    # bench/tracer.py:67 wraps it and bench/test_bench.py:114 checks that
    # it is scipy's minimize.
    if name != "minimize":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global minimize
    from scipy.optimize import minimize
    return minimize


class RankDeficientCospan(ExprError):
    pass


@dataclass(frozen=True)
class CommutingSquare:
    """Cone (top, left) over cospan (right, bottom) with apex chart."""

    name: str
    apex_dim: int
    apex_box: Box
    constraint: SmoothMap | None
    top: SmoothMap | ImplicitMap
    left: SmoothMap
    right: SmoothMap | ImplicitMap
    bottom: SmoothMap | ImplicitMap
    max_depth: int = 2


# --------------------------------------------------------------------------
# Square builders


def _pi_first(spec: BundleSpec) -> SmoothMap:
    return projection(2 * spec.total_dim, range(spec.total_dim))


def _pi_second(spec: BundleSpec) -> SmoothMap:
    return projection(2 * spec.total_dim,
                      range(spec.total_dim, 2 * spec.total_dim))


def _pair_constraint(spec: BundleSpec) -> SmoothMap:
    """q(first) - q(second) on the free pair chart."""
    qa = compose(spec.q, _pi_first(spec))
    qb = compose(spec.q, _pi_second(spec))
    comps = tuple(a - b for a, b in zip(qa.components, qb.components))
    return simplify_map(SmoothMap(2 * spec.total_dim, comps))


def _pair_box(spec: BundleSpec) -> Box:
    return Box(spec.total_box.intervals * 2)


def rosicky_square(spec: BundleSpec) -> CommutingSquare:
    """Cone (lam, q) against cospan ((T(q), proj), (zero, xi))."""
    d, k = spec.total_dim, spec.base_dim
    right = concat_maps(tangent_map(spec.q, 1), struct_map("proj", 0, d))
    bottom = concat_maps(struct_map("zero", 0, k), spec.xi)
    return CommutingSquare(
        name=f"{spec.name}:rosicky", apex_dim=d, apex_box=spec.total_box,
        constraint=None, top=spec.lam, left=spec.q, right=right,
        bottom=bottom)


def rosicky_certificate(spec: BundleSpec,
                        cfg: CheckConfig = DEFAULT_CONFIG):
    """The rosicky square proved a jet-stable pullback, as a CheckReport
    whose four laws read pass-exact, or None, and then check_pullback
    samples it.  It is proved when q, xi and lam are polynomial, the
    fibre_affine_decomposition (A, pinv, beta) of lam exists, its
    vertical block A[k:] is invertible, and three identities hold on
    canonical polynomial forms: right . top = bottom . left, u . v = id
    and v . u = id, for the cone map u = (q, vert lam[k:]) and v(m, w) =
    (m, A[k:]^-1 (w - beta[k:](m))).  Commutation charts the fibre
    product by (m, w) -> ((xi(m), (0, w)), m), where the cone map is u;
    then T^n(v) inverts T^n(u) at every depth n."""
    if any(_poly_forms(f) is None for f in (spec.q, spec.xi, spec.lam)):
        return None         # no builtin is differentiated or evaluated
    decomp = fibre_affine_decomposition(spec)
    d, k = spec.total_dim, spec.base_dim
    inv = None if decomp is None else _fraction_inverse(decomp[0][k:])
    if inv is None:
        return None
    beta = decomp[2]
    w = [Var(k + t) - beta[k + t] for t in range(d - k)]
    v = simplify_map(smooth_map(d, [Var(i) for i in range(k)] + [
        sum_of([con(c) * x for c, x in zip(row, w)]) for row in inv]))
    u = SmoothMap(d, spec.q.components + vert_lambda(spec).components[k:])
    sq = rosicky_square(spec)
    if any(equal_maps(f, g, sq.apex_box, cfg).kind != "equal" for f, g in (
            (compose(sq.right, sq.top), compose(sq.bottom, sq.left)),
            (compose(u, v), identity_map(d)),
            (compose(v, u), identity_map(d)))):
        return None
    prov = {"depth": min(sq.max_depth, cfg.t_depth),
            "certificate": "explicit polynomial inverse",
            "inverse": to_source(v)}
    return CheckReport(sq.name, [_law(law_id, Verdict.PASS_EXACT,
                                      provenance=dict(prov))
                                 for law_id in _ANCHORS])


def cockett_square(spec: BundleSpec, add) -> CommutingSquare:
    """Cone (lam on the first leg plus zero on the second, fibre-added
    in the tangent of the derived addition) against (T(q), zero)."""
    d, k = spec.total_dim, spec.base_dim
    pre = concat_maps(
        compose(spec.xi, compose(spec.q, _pi_first(spec))),
        _pi_second(spec),
        compose(vert_lambda(spec), _pi_first(spec)),
        smooth_map(2 * d, [con(0)] * d),
    )
    return CommutingSquare(
        name=f"{spec.name}:cockett", apex_dim=2 * d,
        apex_box=_pair_box(spec), constraint=_pair_constraint(spec),
        top=tangent_after(add, pre), left=compose(spec.q, _pi_first(spec)),
        right=tangent_map(spec.q, 1), bottom=struct_map("zero", 0, k))


def strong_square(spec: BundleSpec) -> CommutingSquare:
    """Cone mixing lam with the pushed zero section against (proj, xi);
    the apex chart is a total point plus a base tangent block."""
    d, k = spec.total_dim, spec.base_dim
    pi_e = projection(d + k, range(d))
    base_part = compose(spec.xi, compose(spec.q, pi_e))
    vl = compose(vert_lambda(spec), pi_e)
    emb = concat_maps(compose(spec.q, pi_e), projection(d + k, range(d, d + k)))
    txi = compose(tangent_map(spec.xi, 1), emb)
    comps = base_part.components + tuple(
        sum_of([vl.components[i], txi.components[d + i]]) for i in range(d)
    )
    top = simplify_map(SmoothMap(d + k, comps))
    return CommutingSquare(
        name=f"{spec.name}:strong", apex_dim=d + k,
        apex_box=Box(spec.total_box.intervals + cube(k).intervals),
        constraint=None, top=top, left=compose(spec.q, pi_e),
        right=struct_map("proj", 0, d), bottom=spec.xi)


def combined_square(spec: BundleSpec) -> CommutingSquare:
    """The two-level cone into the double tangent chart, built from the
    free tangent-pair addition so no derived addition is needed; checked
    at depth 0 only since it already sits two jet levels up."""
    d, k = spec.total_dim, spec.base_dim
    Tlam = tangent_map(spec.lam, 1)
    z1 = compose(compose(Tlam, spec.lam), _pi_first(spec))
    z2 = compose(compose(Tlam, struct_map("zero", 0, d)), _pi_second(spec))
    c1, c2 = z1.components, z2.components
    pre = SmoothMap(2 * d, (
        c1[0:d] + c1[d:2 * d] + c2[d:2 * d]
        + c1[2 * d:3 * d] + c1[3 * d:4 * d] + c2[3 * d:4 * d]
    ))
    top = simplify_map(compose(tangent_map(struct_map("add", 0, d), 1), pre))
    right = concat_maps(tangent_map(spec.q, 2), tangent_map(struct_map("proj", 0, d), 1))
    bot_comps = (
        tuple(Var(i) for i in range(k)) + (con(0),) * (3 * k)
        + spec.xi.components + (con(0),) * d
    )
    bottom = SmoothMap(k, bot_comps)
    return CommutingSquare(
        name=f"{spec.name}:combined", apex_dim=2 * d,
        apex_box=_pair_box(spec), constraint=_pair_constraint(spec),
        top=top, left=compose(spec.q, _pi_first(spec)),
        right=right, bottom=bottom, max_depth=0)


# --------------------------------------------------------------------------
# The checker


def _numeric_rank(s: np.ndarray):
    """Numeric ranks from descending singular values on the last axis."""
    top = s[..., :1]
    return np.sum((s >= RANK_TOL * top) & (top > 0), axis=-1)


def _sample_apex(sq: CommutingSquare, depth: int, cfg: CheckConfig,
                 count: int):
    """Flat jet samples on the depth-level apex, constraint-projected."""
    rng = cfg.rng(f"{sq.name}:apex:{depth}")
    n_blocks = 1 << depth
    base = sq.apex_box.sample(rng, count)
    tang = rng.uniform(-1.0, 1.0, (count, (n_blocks - 1) * sq.apex_dim))
    raw = np.hstack([base, tang])
    if sq.constraint is None:
        return raw, 0
    Zp, ok = _onto(tangent_map(sq.constraint, depth), raw)
    if not ok.any():
        raise RankDeficientCospan(f"{sq.name}: apex projection found no samples")
    return Zp[ok], count - int(ok.sum())


def _onto(g_t, P):
    """(Q, ok): the rows of P moved onto g_t = 0 by one solve_batch, ok
    False where a solve fails; the error of the first row that raised is
    raised, as a solve in row order would."""
    Q, ok, errors = solve_batch(g_t, np.zeros((len(P), g_t.coarity)), P)
    if errors:
        raise errors[min(errors)]
    return Q, ok


def _prov(cfg, depth, extra=None):
    p = {"seed": cfg.seed, "count": cfg.count, "tol": cfg.tol, "depth": depth}
    if extra:
        p.update(extra)
    return p


# the equation each pullback law checks
_ANCHORS = {
    "commutes": "right . top = bottom . left",
    "injective": "cone map is one-to-one on samples",
    "rank": "cone Jacobian spans the fibre-product tangent",
    "surjective": "perturbed cone points have preimages",
}


def _law(law_id: str, verdict: Verdict, **kw) -> LawResult:
    return LawResult(law_id, _ANCHORS[law_id], verdict, **kw)


def check_pullback(sq: CommutingSquare,
                   cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    """A square's check: its four laws, titled with the square's name, in
    the order commutes, injective, rank, surjective.  Each law records
    the depth it ran at; commutes runs first at every depth, so its depth
    is where the check stopped, else its cap."""
    depth_cap = min(sq.max_depth, cfg.t_depth)
    comm = inj = rank = surj = None     # None: the law has not run yet
    search = {}
    stopped_by = None

    for depth in range(depth_cap + 1):
        top_t = tangent_of(sq.top, depth)
        left_t = tangent_map(sq.left, depth)
        right_t = tangent_of(sq.right, depth)
        bottom_t = tangent_of(sq.bottom, depth)
        g_t = tangent_map(sq.constraint, depth) if sq.constraint else None

        count = max(20, cfg.count >> depth)
        Z, _ = _sample_apex(sq, depth, cfg, count)

        B_img = top_t.eval_batch(Z)
        C_img = left_t.eval_batch(Z)
        F_img = np.hstack([B_img, C_img])

        # (pre) commutation of the square, its residual the max over depths
        gaps = row_gaps(right_t.eval_batch(B_img), bottom_t.eval_batch(C_img))
        here = sampled_law("commutes", _ANCHORS["commutes"], gaps, Z,
                           max(cfg.tol, 1e-8), _prov(cfg, depth))
        comm = replace(here, max_residual=max(
            comm.max_residual if comm else 0.0, here.max_residual))
        if not comm.verdict.ok:
            stopped_by = "commutes"
            break

        # (a) injectivity on sample pairs
        hit = _collision(Z, F_img)
        if hit is not None:
            i, j = hit
            inj = _law("injective", Verdict.FAIL,
                       witness=(Z[i].tolist(), Z[j].tolist()),
                       max_residual=float(np.max(np.abs(F_img[i] - F_img[j]))),
                       note="distinct apex points share an image",
                       provenance=_prov(cfg, depth))
            stopped_by = "injective"
            break
        inj = _law("injective", Verdict.PASS_NUMERIC,
                   provenance=_prov(cfg, depth))

        # (b) infinitesimal bijectivity: rank vs fibre-product tangent dim
        plan = _RestrictedJacobian(top_t, left_t, g_t, Z.shape[1])
        rank, scan_info = _rank_scan(
            sq, depth, Z, B_img, C_img, right_t, bottom_t, plan, cfg)
        if scan_info is None:      # a collapse, or a Jacobian not finite
            stopped_by = "rank"
            break

        # (b') targeted witness search for a rank defect (cheap level
        # only), skipped when every sample is comfortably full-rank
        if depth == 0 and scan_info["min_sigma"] > SEARCH_GATE \
                and scan_info["min_ratio"] > SEARCH_GATE:
            search = {"search": "skipped",
                      "search_min_sigma": scan_info["min_sigma"],
                      "search_min_ratio": scan_info["min_ratio"]}
        elif depth == 0:
            search = {"search": "ran"}
            found = _rank_witness_search(sq, Z, scan_info, plan, cfg)
            if found is not None:
                rank = found
                stopped_by = "rank"
                break

        # (c) surjectivity: Newton preimages of perturbed cone points
        surj = _surjectivity(sq, depth, Z, B_img, C_img,
                             top_t, left_t, right_t, bottom_t, g_t, cfg)
        if surj.verdict in (Verdict.FAIL, Verdict.UNKNOWN):
            stopped_by = "surjective"
            break

    if search:      # the depth-0 search's outcome, on the last rank law
        rank = replace(rank, provenance={**rank.provenance, **search})
    laws = [law or _law(law_id, Verdict.SKIPPED, note=f"not run: {stopped_by} "
                        f"stopped the check at depth {depth}")
            for law_id, law in zip(_ANCHORS, (comm, inj, rank, surj))]
    return CheckReport(sq.name, laws)


def _collision(Z: np.ndarray, F: np.ndarray):
    """The first pair i < j, in lexicographic order, of distinct apex
    points with the same finite image; the pairs compared are those within
    2 MATCH_TOL in the sorted image column whose windows hold fewest."""
    rows = np.flatnonzero(np.isfinite(F).all(axis=1))
    order = np.argsort(F[rows], axis=0, kind="stable")
    ends = [np.searchsorted(col, col + 2 * MATCH_TOL, "right")
            for col in np.take_along_axis(F[rows], order, axis=0).T]
    c = int(np.argmin([e.sum() for e in ends]))
    w = ends[c] - np.arange(1, len(rows) + 1)     # the window after a row
    lo = np.repeat(np.arange(len(rows)), w)
    hi = lo + 1 + np.arange(len(lo)) - np.repeat(np.cumsum(w) - w, w)
    lo, hi = rows[order[lo, c]], rows[order[hi, c]]
    i, j = np.minimum(lo, hi), np.maximum(lo, hi)
    gaps = [np.zeros(len(i)), np.zeros(len(i))]
    for d, X in zip(gaps, (F, Z)):      # column by column, each contiguous
        for col in np.ascontiguousarray(X.T):
            np.maximum(d, np.abs(col[i] - col[j]), out=d)
    bad = np.flatnonzero((gaps[0] < MATCH_TOL) & (gaps[1] > DISTINCT_TOL))
    k = bad[np.argmin(i[bad] * len(F) + j[bad])] if bad.size else None
    return None if k is None else (int(i[k]), int(j[k]))


class JacobianNotFinite(ExprError):
    """Matrix args[0] of a stack of Jacobians has an entry that is not
    finite, which a stacked SVD cannot take."""


def _finite(J: np.ndarray) -> np.ndarray:
    """J, or JacobianNotFinite for its first matrix that is not finite."""
    if not np.isfinite(J).all():
        raise JacobianNotFinite(int(np.argmin(np.isfinite(J).all((1, 2)))))
    return J


def _fp_tangent_dims(right_t, bottom_t, B_img, C_img) -> list:
    """Fibre-product tangent dimension at each sample: the nullity of
    [J_right | -J_bottom], from one stacked SVD."""
    nb = B_img.shape[1]
    M = _finite(row_ordered(lambda X: np.concatenate(
        [right_t.jac_batch(X[:, :nb]), -bottom_t.jac_batch(X[:, nb:])],
        axis=2), np.hstack([B_img, C_img])))
    s = _svd(_umath_linalg.svd, M, "d->d")
    return (M.shape[2] - _numeric_rank(s)).tolist()


def _svd(gufunc, A: np.ndarray, signature: str):
    """A numpy SVD gufunc on a float64 stack, as np.linalg.svd calls it."""
    one = _one_matrix(A)
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore",
                         under="ignore"):
            out = gufunc(A[:1] if one else A, signature=signature)
    except FloatingPointError:      # what np.linalg.svd raises instead
        raise np.linalg.LinAlgError("SVD did not converge") from None
    if one and isinstance(out, tuple):     # read-only views of one SVD
        return tuple(np.broadcast_to(x, A.shape[:1] + x.shape[1:])
                     for x in out)
    return np.broadcast_to(out, A.shape[:1] + out.shape[1:]) if one else out


class _RestrictedJacobian:
    """The cone Jacobian of a square at one depth, restricted to the apex
    tangent space (the kernel of the constraint's Jacobian): per row of a
    batch, its singular values and that space's dimension.  Without a
    constraint, or with a constant constraint Jacobian, one rank and one
    kernel basis, found once, serve every row."""

    def __init__(self, top_t, left_t, g_t, apex_flat: int):
        self.legs, self.g_t, self.apex_flat = (top_t, left_t), g_t, apex_flat

    @cached_property
    def _fixed_kernel(self):
        """(rank, kernel basis) shared by every row, or None."""
        if self.g_t is None:
            return 0, np.eye(self.apex_flat)
        template, live = self.g_t._jac_plan
        if live:
            return None
        _, s, vh = _svd(_umath_linalg.svd_f, template[None], "d->ddd")
        r = int(_numeric_rank(s[0]))
        return r, vh[0, r:].T       # the strides of a row's basis below

    def _cone(self, X: np.ndarray) -> np.ndarray:
        """The stacked (top, left) Jacobians at the rows of X."""
        return _finite(np.concatenate([f.jac_batch(X) for f in self.legs],
                                      axis=1))

    def __call__(self, Zs: np.ndarray) -> list:
        """[(singular values, apex tangent dim)] per row of Zs."""
        if not len(Zs):
            return []
        out = [(np.empty(0), 0)] * len(Zs)
        fixed = self._fixed_kernel
        if fixed is not None:       # one rank, one basis: a single group
            r, basis = fixed
            if r < self.apex_flat:
                JF = self._cone(np.ascontiguousarray(Zs))
                S = _svd(_umath_linalg.svd, np.matmul(JF, basis), "d->d")
                out = [(sk, self.apex_flat - r) for sk in S]
            return out
        _, s, vh = _svd(_umath_linalg.svd_f, _finite(self.g_t.jac_batch(Zs)),
                        "d->ddd")
        ranks = _numeric_rank(s)
        live = np.flatnonzero(ranks < self.apex_flat)
        JF = self._cone(Zs[live]) if live.size else None
        for r in dict.fromkeys(ranks[live].tolist()):   # one group per kernel
            group = np.flatnonzero(ranks[live] == r)
            # each row's kernel basis is v[r:].T, with the strides of a row
            basis = vh[live[group], r:].transpose(0, 2, 1)
            S = _svd(_umath_linalg.svd, np.matmul(JF[group], basis), "d->d")
            for k, sk in zip(live[group], S):
                out[k] = (sk, self.apex_flat - r)
        return out


def _collapse(sv) -> tuple:
    """(sigma_min, sigma_min/sigma_max) from a (singular values, apex
    tangent dim) of the plan: 0.0 on a collapse, ratio 1.0 at k=0."""
    s, k = sv
    if k == 0 or len(s) < k or s[0] == 0:
        return 0.0, float(k == 0)
    return float(s[k - 1]), float(s[k - 1] / s[0])


def _rank_scan(sq, depth, Z, B_img, C_img, right_t, bottom_t, plan, cfg):
    """The rank law over the samples, in sample order; returns (law,
    info), info None where the scan stopped the check."""
    outliers = 0

    def stop(verdict, i, note, ratio=0.0):
        return _law("rank", verdict, witness=(Z[i].tolist(),),
                    max_residual=ratio, note=note,
                    provenance=_prov(cfg, depth, {"outliers": outliers})), None

    try:
        fp_dims = _fp_tangent_dims(right_t, bottom_t, B_img, C_img)
    except JacobianNotFinite as err:
        return stop(Verdict.UNKNOWN, err.args[0],
                    "cospan Jacobian is not finite")
    vals, counts = np.unique(fp_dims, return_counts=True)
    modal = int(vals[np.argmax(counts)])
    outliers = int(np.sum(np.asarray(fp_dims) != modal))

    # where the cospan is not transversal the sample is discarded
    rows = [i for i in range(len(Z)) if fp_dims[i] == modal]
    try:
        svs = plan(Z[rows])
    except ExprError:
        svs = None       # evaluated per sample below, in sample order
    scored = []      # (sigma_min, ratio, index) for the witness search
    for pos, i in enumerate(rows):
        try:
            sv = svs[pos] if svs is not None else plan(Z[i:i + 1])[0]
        except JacobianNotFinite:
            return stop(Verdict.UNKNOWN, i, "cone Jacobian is not finite")
        if sv[1] != modal:
            return stop(Verdict.FAIL, i, f"apex tangent dim {sv[1]} != "
                        f"fibre-product tangent dim {modal}")
        sigma, ratio = _collapse(sv)
        if ratio < RANK_TOL:
            return stop(Verdict.FAIL, i, "restricted Jacobian collapse, "
                        f"ratio {ratio:.3g}", ratio)
        scored.append((sigma, ratio, i))

    scored.sort()
    min_ratio = min((r for _, r, _ in scored), default=1.0)
    res = _law("rank", Verdict.PASS_NUMERIC, max_residual=0.0,
               note=f"min conditioning ratio {min_ratio:.3g}" if scored
               else "no usable samples",
               provenance=_prov(cfg, depth, {"outliers": outliers}))
    info = {"seeds": [i for _, _, i in scored[:4]],
            "min_sigma": scored[0][0] if scored else 1.0,
            "min_ratio": min_ratio}
    return res, info


def _scored(score_batch, P) -> list:
    """score_batch(P), or, when it raises an ExprError, each row of P
    alone, a row that raises scoring as none."""
    try:
        return score_batch(P)
    except ExprError:
        if len(P) == 1:
            return [(None, None)]
    out = []
    for k in range(len(P)):
        out += _scored(score_batch, P[k:k + 1])
    return out


def collapse_search(score_batch, starts, deep: float):
    """Compass search on log sigma from every start at once, the one
    search for a rank collapse that sampling missed (Torczon, SIAM J.
    Optim. 7(1), 1997).  score_batch(P) gives a (sigma, the point the row
    stands for) per row of P; a point None, or an ExprError for the row,
    scores 1e6 and is never the best point.

    Each start keeps a point x and a step h, first 0.05.  The first call
    scores the starts and changes no step; every later call scores
    x + h e_i and x - h e_i, for each coordinate i, of every live start,
    in start order.  A start moves to its best poll point that improves
    on its value, the first on a tie, and doubles h, to at most 0.4;
    otherwise it multiplies h by 1/8 (Kolda, Lewis & Torczon, SIAM Rev.
    45(3), 2003, allow any such factors).  It stops when h is below 1e-12
    or after 400 polls.  It moves to the raw poll point, while the search
    keeps the point each row stands for.

    The first call that scores a sigma below exp(deep) ends the search:
    the lowest start that hit in it wins, with its first such point.
    With no hit, the best point seen wins, the first within a start and
    the earlier start on a tie.  Returns None when no point scored."""
    X = np.array(starts, dtype=float)
    compass = np.kron(np.eye(X.shape[1]), [[1.0], [-1.0]])
    step, value = np.full(len(X), 0.05), np.full(len(X), np.inf)
    best = [(np.inf, None)] * len(X)
    live, P = np.arange(len(X)), X[:, None]
    for call in range(401):        # the starts, then at most 400 polls
        rows = iter(_scored(score_batch, P.reshape(-1, X.shape[1])))
        for j, poll in zip(live, P):
            vals = []
            for sigma, point in itertools.islice(rows, len(poll)):
                if point is None:
                    vals.append(1e6)
                    continue
                vals.append(float(np.log(max(sigma, 1e-300))))
                if vals[-1] < deep:
                    return point
                if vals[-1] < best[j][0]:
                    best[j] = vals[-1], point
            k = int(np.argmin(vals))
            if vals[k] < value[j]:
                X[j], value[j] = poll[k], vals[k]
                if call:        # a poll, not the starts' scores
                    step[j] = min(step[j] * STEP_EXPAND, STEP_MAX)
            else:
                step[j] *= STEP_CONTRACT
        live = live[step[live] >= 1e-12]
        if not live.size:
            break
        P = X[live, None] + step[live, None, None] * compass
    return min(best, key=lambda b: b[0])[1]


def face_push(score_batch, lo, hi, z):
    """z slid onto the faces of the box [lo, hi], one coordinate and one
    face at a time, wherever the sigma of score_batch rises by at most
    1e-15; the point returned is the one its row stands for.  Where an
    underflowing builtin makes sigma flat, a search stops at an arbitrary
    point of the plateau: this moves it to the face the plateau meets."""
    (cur, point), = _scored(score_batch, z[None])
    if point is None:
        cur = np.inf
    for j in range(len(z)):
        for face in (lo[j], hi[j]):
            cand = z.copy()
            cand[j] = face
            (sigma, point), = _scored(score_batch, cand[None])
            if point is not None and sigma <= cur + 1e-15:
                z, cur = point, sigma
    return z


def _hunt(score_batch, seeds, pool, pool_sigmas, lo, hi, deep: float):
    """The collapse hunt: collapse_search from the seeds and the two pool
    points of lowest sigma (the first on a tie), its result pushed onto
    the faces of the box [lo, hi]; None when no point scored."""
    starts = list(seeds) + list(
        pool[np.argsort(pool_sigmas, kind="stable")[:2]])
    z = collapse_search(score_batch, starts, deep)
    return None if z is None else face_push(score_batch, lo, hi, z)


def _rank_witness_search(sq, Z, info, plan, cfg):
    """Minimize the smallest restricted singular value to hunt for a
    rank-collapse point that sampling missed.

    The conditioning ratio is the wrong search objective: it also drops
    where the largest singular value grows, which pulls the simplex into
    healthy regions.  sigma_min only vanishes at genuine collapses."""
    apex_flat, g_t = Z.shape[1], plan.g_t
    box_lo, box_hi = sq.apex_box.lo(), sq.apex_box.hi()

    def project(P):
        """(Q, ok): the rows of P clipped to the box and moved onto the
        constraint, ok False where a solve fails."""
        Q = np.clip(P, box_lo, box_hi)
        if g_t is None:
            return Q, np.ones(len(Q), dtype=bool)
        return _onto(g_t, Q)

    def sigmas(P):
        return np.array([_collapse(sv)[0] for sv in plan(P)])

    def score_batch(P):
        Q, ok = project(P)
        S = np.zeros(len(Q))
        S[ok] = sigmas(Q[ok])
        return [(s, q if good else None) for s, q, good in zip(S, Q, ok)]

    rng = cfg.rng(f"{sq.name}:witness")
    extra = rng.uniform(box_lo, box_hi, size=(40 * apex_flat, apex_flat))
    # the extra samples, projected in one solve and scored in one stacked
    # SVD; one by one when that raises, skipping the samples that do
    P, ok = project(extra)
    P = P[ok]
    kept, pool = _each_row(lambda rows: sigmas(P[rows]), np.arange(len(P)))
    best_z = _hunt(score_batch, [Z[i] for i in info["seeds"]], P[kept], pool,
                   box_lo, box_hi, float(np.log(1e-10)))
    if best_z is None:
        return None
    try:        # the search's point, projected again as it was scored
        Q, ok = project(best_z[None])
    except ExprError:
        return None
    if not ok[0]:
        return None
    best_z = Q[0]
    _, ratio = _collapse(plan(best_z[None])[0])
    if ratio >= RANK_TOL:
        return None
    return _law(
        "rank", Verdict.FAIL, witness=(best_z.tolist(),), max_residual=ratio,
        note=f"search located Jacobian collapse, ratio {ratio:.3g}",
        provenance=_prov(cfg, 0, {"via": "witness search"}))


def is_submersion_on(f: SmoothMap, box: Box,
                     cfg: CheckConfig = DEFAULT_CONFIG) -> LawResult:
    """Full row rank of the derivative over the box.  A Fail carries a
    witness point; a Pass is sampling evidence only, and says so."""
    anchor = "derivative is onto at every point of the box"
    if box.dim != f.arity:
        raise DimensionMismatch("box dimension does not match map arity")
    if f.arity < f.coarity:
        return LawResult(
            "submersion", anchor, Verdict.FAIL,
            witness=(box.lo().tolist(),),
            note="arity below coarity: no derivative is onto")
    lo, hi = box.lo(), box.hi()

    def svd(X):
        return _svd(_umath_linalg.svd, jac_eval_batch(f, X), "d->d")

    def score_batch(P):
        Q = np.clip(P, lo, hi)
        return list(zip(svd(Q)[:, f.coarity - 1], Q))

    X = box.sample(cfg.rng("submersion"), cfg.count)
    svals = svd(X)
    smin = svals[:, f.coarity - 1]
    scale = max(float(np.max(svals[:, 0])), 1e-30)
    thresh = RANK_TOL * max(scale, 1.0)
    prov = {"samples": len(X), "seed": cfg.seed, "scale": scale}

    order = np.argsort(smin)
    if smin[order[0]] < thresh:
        witness = face_push(score_batch, lo, hi, X[order[0]])
    else:
        pool = box.sample(cfg.rng("submersion:search"), 40 * box.dim)
        witness = _hunt(score_batch, X[order[:4]], pool,
                        svd(pool)[:, f.coarity - 1], lo, hi,
                        float(np.log(1e-14)))
    if witness is not None:
        val = float(svd(witness[None])[0, f.coarity - 1])
        if val < thresh:
            return LawResult(
                "submersion", anchor, Verdict.FAIL,
                witness=(witness.tolist(),), max_residual=val,
                note=(f"rank drop: smallest singular value {val:.3g} "
                      f"against box scale {scale:.3g}; at 40 digits "
                      f"{_mp_sigma_min(f, witness):.3g}"),
                provenance=prov)
    return LawResult(
        "submersion", anchor, Verdict.PASS_NUMERIC,
        max_residual=0.0,
        note=(f"smallest sampled singular value {float(smin[order[0]]):.3g}"
              f" at box scale {scale:.3g}; sampling evidence only"),
        provenance=prov)


def _mp_sigma_min(f: SmoothMap, z: np.ndarray) -> float:
    """The derivative's smallest singular value at z, recomputed at 40
    digits, as independent confirmation that a witness is a genuine rank
    drop and not float cancellation or underflow."""
    import mpmath as mp

    rows = jacobian_exprs(f)
    flat = SmoothMap(f.arity, tuple(e for row in rows for e in row))
    with mp.workdps(40):
        J = mp.matrix(f.coarity, f.arity)
        for n, v in enumerate(eval_mp(flat, z, dps=40)):
            J[n // f.arity, n % f.arity] = v
        return float(min(mp.svd_r(J, compute_uv=False)))


def _surjectivity(sq, depth, Z, B_img, C_img, top_t, left_t, right_t,
                  bottom_t, g_t, cfg):
    """Newton preimages of perturbed cone points.  Every try draws its
    target noise, then its two start kicks, found or not; one solve finds
    the fibre-product targets of all tries, and one their preimages.

    In the preimage solve each cone leg f meets its slice t of the
    targets: f(z) - t to 1e-10 or, for an ImplicitMap, its own residual
    R(z, t) to its tol, with no inner solve (Haftka, AIAA J. 23(7),
    1985).  R is weighted by 1e-10 / tol, which also leaves the misfit
    of a target solved to NEWTON_TOL on the explicit rows.  A branch
    guard then evaluates each implicit leg once, from its init: a row
    that it puts 1e-10 or more off t, or cannot evaluate, is a stall."""
    rng = cfg.rng(f"{sq.name}:surj:{depth}")
    n_try = min(len(Z), max(10, (cfg.count >> depth) // 2))
    # three Newton starts per try: the sample and two kicked copies
    targets = np.hstack([B_img[:n_try], C_img[:n_try]])
    starts = np.repeat(Z[:n_try, None], 3, axis=1)
    # each try's draws in the order of rng.normal(0, 0.05, m) and then
    # rng.normal(0, 0.01, (2, d)), one row of one call, bit for bit
    m, d = targets.shape[1], Z.shape[1]
    noise = rng.standard_normal((n_try, m + 2 * d))
    targets += 0.0 + 0.05 * noise[:, :m]
    starts[:, 1:] += 0.0 + 0.01 * noise[:, m:].reshape(n_try, 2, d)
    # the noisy targets moved onto the fibre product, right(b) = bottom(c)
    nb = B_img.shape[1]
    found, fp_errors = _solve_rows(
        lambda r: right_t.eval_batch(targets[r, :nb])
        - bottom_t.eval_batch(targets[r, nb:]),
        lambda r: np.concatenate([right_t.jac_batch(targets[r, :nb]),
                                  -bottom_t.jac_batch(targets[r, nb:])],
                                 axis=2), targets)

    tries = np.nonzero(found)[0]
    T = np.repeat(targets[tries], 3, axis=0)
    sols = starts[tries].reshape(-1, Z.shape[1])
    legs = [(top_t, T[:, :nb]), (left_t, T[:, nb:])] + (
        [] if g_t is None else [(g_t, np.zeros((len(T), g_t.coarity)))])

    def system(rows, jac=False):
        X, out = sols[rows], []
        for f, tgt in legs:
            if isinstance(f, ImplicitMap):
                XT, w = np.hstack([X, tgt[rows]]), 1e-10 / f.tol
                out.append(w * jac_eval_batch(f.residual, XT)[:, :, :f.arity]
                           if jac else w * eval_batch(f.residual, XT))
            else:
                out.append(f.jac_batch(X) if jac
                           else f.eval_batch(X) - tgt[rows])
        return np.concatenate(out, axis=1)

    ok, errors = _solve_rows(system, lambda rows: system(rows, True), sols,
                             1e-10, 60)
    rows = np.flatnonzero(ok)
    for f, tgt in legs:     # the branch guard
        if isinstance(f, ImplicitMap):
            kept, gaps = _each_row(lambda r: np.abs(
                f.eval_batch(sols[r]) - tgt[r]).max(axis=1), rows)
            ok[np.delete(rows, kept[gaps < 1e-10])] = False
    mismatch = ok.sum() < len(rows)
    # the largest coordinate gap between the three preimages of each try
    triples = sols.reshape(len(tries), 3, Z.shape[1])
    spreads = np.abs(triples[:, [0, 0, 1]] - triples[:, [1, 2, 2]]).max(
        axis=(1, 2))

    # tries in order: an error is raised, a spread fails the law, and
    # every try not found or not solved is a stall
    solved = ok.reshape(-1, 3).all(axis=1)
    for t, k in enumerate((np.cumsum(found) - 1).tolist()):
        if t in fp_errors:
            raise fp_errors[t]
        if not found[t]:
            continue
        for row in range(3 * k, 3 * k + 3):
            if row in errors:
                raise errors[row]
        if solved[k] and spreads[k] > 1e-7:
            a, b = sols[3 * k:3 * k + 2]
            return _law("surjective", Verdict.FAIL,
                        witness=(a.tolist(), b.tolist()),
                        max_residual=float(spreads[k]),
                        note="distinct preimages of one cone point",
                        provenance=_prov(cfg, depth))
    stalls = n_try - int(solved.sum())
    if stalls:
        return _law("surjective", Verdict.UNKNOWN,
                    note=f"{stalls}/{n_try} preimage solves stalled"
                    + (", implicit branch mismatch" if mismatch else ""),
                    provenance=_prov(cfg, depth, {"stalls": stalls}))
    return _law("surjective", Verdict.PASS_NUMERIC,
                note=f"{n_try}/{n_try} preimages recovered from 3 starts each",
                provenance=_prov(cfg, depth))


# --------------------------------------------------------------------------
# The four-way equivalence


def cross_check_equivalence(spec: BundleSpec,
                            cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    """Run all four squares and assert their verdicts agree: one row per
    square, its verdict the square's aggregate, its witness the first
    one, its residual the largest and its depth where the check stopped."""
    ros = check_pullback(rosicky_square(spec), cfg)
    try:
        cockett = check_pullback(
            cockett_square(spec, induce_addition(spec, ros)), cfg)
    except Refused as exc:
        cockett = exc.law("square-cockett",
                          "cone against (T(q), zero) is a pullback")
    squares = {"rosicky": ros, "cockett": cockett,
               "strong": check_pullback(strong_square(spec), cfg),
               "combined": check_pullback(combined_square(spec), cfg)}

    rep = CheckReport(f"{spec.name}: universality cross-check")
    for name, sq in squares.items():
        if isinstance(sq, LawResult):       # the refused cockett square
            rep.add(sq)
            continue
        rep.add(LawResult(
            f"square-{name}", f"{sq.title} is a jet-stable pullback",
            sq.aggregate,
            witness=next((e.witness for e in sq.entries if e.witness), None),
            max_residual=max(e.max_residual for e in sq.entries),
            note="; ".join(e.note for e in sq.entries if e.note),
            provenance={"depth": sq["commutes"].provenance["depth"]}))

    verdicts = [e.verdict for e in rep.entries]
    agreed = len(set(verdicts)) == 1
    rep.add(LawResult(
        "equivalence", "all four squares give one verdict",
        Verdict.PASS_NUMERIC if agreed else Verdict.FAIL,
        note=f"agreed on {verdicts[0].value}" if agreed
        else "; ".join(v.value for v in verdicts)))
    return rep
