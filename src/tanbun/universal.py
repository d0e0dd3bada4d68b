"""Pullback checking for the universality squares of a bundle.

Each square packs an apex chart (optionally cut out by a constraint
map), a cone (top, left), and a cospan (right, bottom).  The checker
tests, at every jet depth up to the configured cap, that the induced
map from the apex into the fibre product of the cospan is bijective:
sampled injectivity, Jacobian-rank equality against the fibre-product
tangent dimension, and Newton-recovered preimages of perturbed cone
points.  A Fail always carries a concrete witness; Pass is sampled
evidence, not proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, ExprError, SmoothMap, Var, compose,
    concat_maps, con, cube, projection, simplify_map, smooth_map, sum_of,
)
from .bundle import (
    AdditionUnavailable, BundleSpec, CheckReport, LawResult, Verdict,
    induce_addition, vert_lambda,
)
from .jet import (
    StackMap, solve_batch, solve_least_norm, struct_map, tangent_after,
    tangent_map, tangent_of,
)

__all__ = [
    "CommutingSquare", "PullbackVerdict", "RankDeficientCospan",
    "rosicky_square", "cockett_square", "strong_square", "combined_square",
    "check_pullback", "cross_check_equivalence",
]

RANK_TOL = 1e-7           # singular values below this (relative) are zero
MATCH_TOL = 1e-8          # image agreement threshold for collision scan
DISTINCT_TOL = 1e-6       # apex points further apart than this are distinct


class RankDeficientCospan(ExprError):
    pass


@dataclass(frozen=True)
class CommutingSquare:
    """Cone (top, left) over cospan (right, bottom) with apex chart."""

    name: str
    apex_dim: int
    apex_box: Box
    constraint: SmoothMap | None
    top: object
    left: SmoothMap
    right: object
    bottom: object
    max_depth: int = 2


@dataclass(frozen=True)
class PullbackVerdict:
    square: str
    commutation: LawResult
    injectivity: LawResult
    rank: LawResult
    surjectivity: LawResult
    depth_checked: int
    aggregate: Verdict
    discarded: int = 0
    cospan_outliers: int = 0

    @property
    def ok(self) -> bool:
        return self.aggregate.ok

    def entries(self):
        return (self.commutation, self.injectivity, self.rank,
                self.surjectivity)

    def describe(self) -> str:
        head = (f"{self.square}: {self.aggregate.value} "
                f"(depth {self.depth_checked}, discarded {self.discarded}, "
                f"cospan outliers {self.cospan_outliers})")
        return "\n".join([head] + ["  " + e.describe() for e in self.entries()])

    def as_result(self, law_id: str) -> LawResult:
        worst = max(e.max_residual for e in self.entries())
        wit = next((e.witness for e in self.entries() if e.witness), None)
        notes = "; ".join(e.note for e in self.entries() if e.note)
        return LawResult(law_id, f"{self.square} is a jet-stable pullback",
                         self.aggregate, witness=wit, max_residual=worst,
                         note=notes,
                         provenance={"depth": self.depth_checked,
                                     "discarded": self.discarded})


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


def _numeric_rank(s: np.ndarray) -> int:
    if s.size == 0:
        return 0
    top = s[0]
    if top <= 0:
        return 0
    return int(np.sum(s >= RANK_TOL * top))


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
    g_t = tangent_map(sq.constraint, depth)
    Zp, ok, errors = solve_batch(g_t, np.zeros((count, g_t.coarity)), raw)
    if errors:
        raise errors[min(errors)]
    if not ok.any():
        raise RankDeficientCospan(f"{sq.name}: apex projection found no samples")
    return Zp[ok], count - int(ok.sum())


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


def check_pullback(sq: CommutingSquare, t_depth: int | None = None,
                   cfg: CheckConfig = DEFAULT_CONFIG) -> PullbackVerdict:
    depth_cap = min(sq.max_depth, cfg.t_depth if t_depth is None else t_depth)
    comm, inj, rank, surj = (_law(law_id, Verdict.PASS_NUMERIC)
                             for law_id in _ANCHORS)
    total_discard = 0
    total_outliers = 0

    for depth in range(depth_cap + 1):
        top_t = tangent_of(sq.top, depth)
        left_t = tangent_map(sq.left, depth)
        right_t = tangent_of(sq.right, depth)
        bottom_t = tangent_of(sq.bottom, depth)
        g_t = tangent_map(sq.constraint, depth) if sq.constraint else None

        count = max(20, cfg.count >> depth)
        Z, discarded = _sample_apex(sq, depth, cfg, count)
        total_discard += discarded

        B_img = top_t.eval_batch(Z)
        C_img = left_t.eval_batch(Z)
        F_img = np.hstack([B_img, C_img])

        # (pre) commutation of the square itself
        comm_res = np.abs(right_t.eval_batch(B_img)
                          - bottom_t.eval_batch(C_img))
        worst = float(np.max(comm_res))
        if worst > max(cfg.tol, 1e-8):
            i = int(np.unravel_index(np.argmax(comm_res), comm_res.shape)[0])
            comm = _law("commutes", Verdict.FAIL, witness=(Z[i].tolist(),),
                        max_residual=worst, provenance=_prov(cfg, depth))
            break
        comm = _law("commutes", Verdict.PASS_NUMERIC,
                    max_residual=max(comm.max_residual, worst),
                    provenance=_prov(cfg, depth))

        # (a) injectivity on sample pairs
        hit = _collision(Z, F_img)
        if hit is not None:
            i, j = hit
            inj = _law("injective", Verdict.FAIL,
                       witness=(Z[i].tolist(), Z[j].tolist()),
                       max_residual=float(np.max(np.abs(F_img[i] - F_img[j]))),
                       note="distinct apex points share an image",
                       provenance=_prov(cfg, depth))
            break

        # (b) infinitesimal bijectivity: rank vs fibre-product tangent dim
        rank_out = _rank_scan(sq, depth, Z, B_img, C_img,
                              top_t, left_t, right_t, bottom_t, g_t, cfg)
        rank, outliers, scan_info = rank_out
        total_outliers += outliers
        if rank.verdict is Verdict.FAIL:
            break

        # (b') targeted witness search for a rank defect (cheap level only)
        if depth == 0:
            found = _rank_witness_search(sq, Z, scan_info, top_t, left_t,
                                         g_t, cfg)
            if found is not None:
                rank = found
                break

        # (c) surjectivity: Newton preimages of perturbed cone points
        surj = _surjectivity(sq, depth, Z, B_img, C_img,
                             top_t, left_t, right_t, bottom_t, g_t, cfg)
        if surj.verdict in (Verdict.FAIL, Verdict.UNKNOWN):
            break

    agg = Verdict.reduce(e.verdict for e in (comm, inj, rank, surj))
    return PullbackVerdict(
        square=sq.name, commutation=comm, injectivity=inj, rank=rank,
        surjectivity=surj, depth_checked=depth_cap, aggregate=agg,
        discarded=total_discard, cospan_outliers=total_outliers)


def _pairwise_max(X: np.ndarray) -> np.ndarray:
    """(n, n) max-norm distances between the rows of X, one coordinate
    at a time."""
    d = np.zeros((len(X), len(X)))
    for col in X.T:
        np.maximum(d, np.abs(col[None, :] - col[:, None]), out=d)
    return d


def _collision(Z: np.ndarray, F: np.ndarray):
    """The first pair i < j, in lexicographic order, of distinct apex
    points with the same image."""
    bad = (_pairwise_max(F) < MATCH_TOL) & (_pairwise_max(Z) > DISTINCT_TOL)
    i, j = np.nonzero(np.triu(bad, 1))
    return (int(i[0]), int(j[0])) if i.size else None


def _fp_tangent_dims(right_t, bottom_t, B_img, C_img) -> list:
    """Fibre-product tangent dimension at each sample: the nullity of
    [J_right | -J_bottom], from one stacked SVD."""
    try:
        Jr, Jb = right_t.jac_batch(B_img), bottom_t.jac_batch(C_img)
    except ExprError:
        for b, c in zip(B_img, C_img):   # raise the first sample's error
            right_t.jac_batch(b[None])
            bottom_t.jac_batch(c[None])
        raise
    M = np.concatenate([Jr, -Jb], axis=2)
    s = np.linalg.svd(M, compute_uv=False)
    return [M.shape[2] - _numeric_rank(si) for si in s]


def _restricted_svs(top_t, left_t, g_t, Zs: np.ndarray, apex_flat: int):
    """Per row of Zs: the singular values of the cone Jacobian restricted
    to the apex tangent space (ker of the constraint's Jacobian), and
    that space's dimension.  Stacked SVDs, one per shape."""
    if not len(Zs):
        return []
    if g_t is None:
        bases = [np.eye(apex_flat)] * len(Zs)
    else:
        _, s, vh = np.linalg.svd(g_t.jac_batch(Zs))
        bases = [v[_numeric_rank(si):].T for si, v in zip(s, vh)]
    out = [(np.empty(0), 0)] * len(Zs)
    live = [k for k, B in enumerate(bases) if B.shape[1]]
    if not live:
        return out
    JF = np.concatenate([top_t.jac_batch(Zs[live]),
                         left_t.jac_batch(Zs[live])], axis=1)
    by_dim = {}
    for J, k in zip(JF, live):
        by_dim.setdefault(bases[k].shape[1], []).append((k, J @ bases[k]))
    for group in by_dim.values():
        S = np.linalg.svd(np.stack([P for _, P in group]), compute_uv=False)
        for (k, P), sk in zip(group, S):
            out[k] = (sk, P.shape[1])
    return out


def _restricted_ratio(top_t, left_t, g_t, z: np.ndarray, apex_flat: int):
    """(sigma_min/sigma_max of the restricted cone Jacobian, apex tangent
    dim); the ratio is 0.0 for a collapsed direction."""
    (s, k), = _restricted_svs(top_t, left_t, g_t, z[None], apex_flat)
    if k == 0:
        return 1.0, 0
    if len(s) < k or s[0] == 0:
        return 0.0, k
    return float(s[k - 1] / s[0]), k


def _rank_scan(sq, depth, Z, B_img, C_img, top_t, left_t, right_t, bottom_t,
               g_t, cfg):
    apex_flat = Z.shape[1]
    fp_dims = _fp_tangent_dims(right_t, bottom_t, B_img, C_img)
    vals, counts = np.unique(fp_dims, return_counts=True)
    modal = int(vals[np.argmax(counts)])
    outliers = int(np.sum(np.asarray(fp_dims) != modal))

    # where the cospan is not transversal the sample is discarded
    rows = [i for i in range(len(Z)) if fp_dims[i] == modal]
    try:
        svs = _restricted_svs(top_t, left_t, g_t, Z[rows], apex_flat)
    except ExprError:
        svs = None       # evaluated per sample below, in sample order
    scored = []      # (sigma_min, ratio, index) for the witness search
    for pos, i in enumerate(rows):
        s, apex_tdim = svs[pos] if svs is not None else _restricted_svs(
            top_t, left_t, g_t, Z[i:i + 1], apex_flat)[0]
        if apex_tdim != modal:
            res = _law("rank", Verdict.FAIL, witness=(Z[i].tolist(),),
                       note=(f"apex tangent dim {apex_tdim} != "
                             f"fibre-product tangent dim {modal}"),
                       provenance=_prov(cfg, depth, {"outliers": outliers}))
            return res, outliers, None
        if len(s) < apex_tdim or s[0] == 0:
            sigma, ratio = 0.0, 0.0
        else:
            sigma, ratio = float(s[apex_tdim - 1]), float(s[apex_tdim - 1] / s[0])
        if ratio < RANK_TOL:
            res = _law("rank", Verdict.FAIL, witness=(Z[i].tolist(),),
                       max_residual=ratio,
                       note=f"restricted Jacobian collapse, ratio {ratio:.3g}",
                       provenance=_prov(cfg, depth, {"outliers": outliers}))
            return res, outliers, None
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
    return res, outliers, info


class _CollapseFound(Exception):
    """Internal signal: the search hit a singular value small enough that
    further polishing cannot change the verdict."""


def _rank_witness_search(sq, Z, info, top_t, left_t, g_t, cfg):
    """Minimize the smallest restricted singular value to hunt for a
    rank-collapse point that sampling missed.

    The conditioning ratio is the wrong search objective: it also drops
    where the largest singular value grows, which pulls the simplex into
    healthy regions.  sigma_min only vanishes at genuine collapses."""
    if info is None:
        return None
    if info["min_sigma"] > 0.05 and info["min_ratio"] > 0.05:
        return None      # every sample is comfortably full-rank
    apex_flat = Z.shape[1]
    box_lo = np.array([float(a) for a, _ in sq.apex_box.intervals])
    box_hi = np.array([float(b) for _, b in sq.apex_box.intervals])

    def project(z):
        z = np.clip(z, box_lo, box_hi)
        if g_t is not None:
            z = solve_least_norm(g_t, np.zeros(g_t.coarity), z)
        return z

    def sigma_min(sv):
        s, k = sv
        return 0.0 if k == 0 or len(s) < k else float(s[k - 1])

    def sigma_at(z):
        return sigma_min(
            _restricted_svs(top_t, left_t, g_t, z[None], apex_flat)[0])

    deep = float(np.log(1e-10))
    state = {"val": np.inf, "z": None}

    def objective(z):
        z = project(z)
        if z is None:
            return 1e6
        try:
            val = float(np.log(max(sigma_at(z), 1e-300)))
        except ExprError:
            return 1e6
        if val < state["val"]:
            state["val"], state["z"] = val, z
        if val < deep:
            raise _CollapseFound
        return val

    rng = cfg.rng(f"{sq.name}:witness")
    extra = rng.uniform(box_lo, box_hi, size=(40 * apex_flat, apex_flat))
    cands = [Z[i] for i in info["seeds"]]
    # the extra samples, projected in one solve and scored in one stacked
    # SVD; one by one when that raises, skipping the samples that do
    P = np.clip(extra, box_lo, box_hi)
    if g_t is not None:
        P, ok, errors = solve_batch(g_t, np.zeros((len(P), g_t.coarity)), P)
        if errors:
            raise errors[min(errors)]
        P = P[ok]
    try:
        pool = [(sigma_min(sv), z) for sv, z in zip(
            _restricted_svs(top_t, left_t, g_t, P, apex_flat), P)]
    except ExprError:
        pool = []
        for z in P:
            try:
                pool.append((sigma_at(z), z))
            except ExprError:
                continue
    pool.sort(key=lambda t: t[0])
    cands.extend(z for _, z in pool[:2])

    for z0 in cands:
        try:
            minimize(objective, z0, method="Nelder-Mead",
                     options={"maxiter": 400, "xatol": 1e-12,
                              "fatol": 1e-12})
        except _CollapseFound:
            break
    best_z = state["z"]
    if best_z is None:
        return None
    best_z = project(best_z)
    if best_z is None:
        return None
    ratio, _ = _restricted_ratio(top_t, left_t, g_t, best_z, apex_flat)
    if ratio >= RANK_TOL:
        return None
    return _law(
        "rank", Verdict.FAIL, witness=(best_z.tolist(),), max_residual=ratio,
        note=f"search located Jacobian collapse, ratio {ratio:.3g}",
        provenance=_prov(cfg, 0, {"via": "witness search"}))


def _fp_projector(right_t, bottom_t):
    """Map on stacked (corner, leg) coordinates whose zero set is the
    fibre product of the cospan; both legs are symbolic here."""
    nb, nc = right_t.arity, bottom_t.arity
    rshift = {i: Var(i) for i in range(nb)}
    bshift = {i: Var(nb + i) for i in range(nc)}
    from .expr import substitute_vars
    comps = tuple(
        substitute_vars(r, rshift) - substitute_vars(bt, bshift)
        for r, bt in zip(right_t.components, bottom_t.components)
    )
    return SmoothMap(nb + nc, comps)


def _fp_targets(fp_map, raw, apex_flat, rng):
    """Fibre-product targets for the surjectivity tries, with the start
    kicks drawn for them.

    A try draws its target noise and, once its target is found, two
    start kicks.  The draws here assume every target is found and solve
    a stretch of tries in one batch; at the first try whose target
    stalls the generator is rewound to just past that try's noise, and
    the next stretch starts after it, so the stream is the one a
    try-by-try loop reads.  The solves after a stall are wasted, so a
    stretch is at most twice as long as the run of tries before it.
    Returns (targets, found, kicks, error): error is the first try whose
    target solve raised, with its exception, or None; the tries after
    it are not drawn."""
    n_try = len(raw)
    targets = np.empty_like(raw)
    found = np.zeros(n_try, dtype=bool)
    kicks = np.empty((n_try, 2, apex_flat))
    t0, size = 0, n_try
    while t0 < n_try:
        noisy = raw[t0:t0 + size].copy()
        states = []
        for k in range(len(noisy)):
            noisy[k] += rng.normal(0.0, 0.05, raw.shape[1])
            states.append(rng.bit_generator.state)
            kicks[t0 + k] = rng.normal(0.0, 0.01, (2, apex_flat))
        sol, ok, errors = solve_batch(
            fp_map, np.zeros((len(noisy), fp_map.coarity)), noisy)
        k = int(np.argmin(ok)) if not ok.all() else len(noisy)
        targets[t0:t0 + k] = sol[:k]
        found[t0:t0 + k] = True
        if k < len(noisy):
            if k in errors:
                return targets, found, kicks, (t0 + k, errors[k])
            rng.bit_generator.state = states[k]
            k += 1          # the stalled try
        t0 += k
        size = 2 * k
    return targets, found, kicks, None


def _surjectivity(sq, depth, Z, B_img, C_img, top_t, left_t, right_t,
                  bottom_t, g_t, cfg):
    rng = cfg.rng(f"{sq.name}:surj:{depth}")
    n_try = min(len(Z), max(10, (cfg.count >> depth) // 2))
    fp_map = _fp_projector(right_t, bottom_t)
    cone = StackMap(top_t, left_t) if g_t is None \
        else StackMap(top_t, left_t, g_t)
    targets, found, kicks, fp_error = _fp_targets(
        fp_map, np.hstack([B_img[:n_try], C_img[:n_try]]), Z.shape[1], rng)

    # three Newton starts per try whose target was found: the sample and
    # two kicked copies
    tries = np.nonzero(found)[0]
    full = targets[tries] if g_t is None else np.hstack(
        [targets[tries], np.zeros((len(tries), g_t.coarity))])
    starts = np.repeat(Z[tries], 3, axis=0)
    starts[1::3] += kicks[tries, 0]
    starts[2::3] += kicks[tries, 1]
    sols, ok, errors = solve_batch(cone, np.repeat(full, 3, axis=0), starts,
                                   tol=1e-10, max_iter=60)
    first_row = {t: 3 * k for k, t in enumerate(tries)}

    stalls = 0
    for t in range(n_try):
        if fp_error is not None and fp_error[0] == t:
            raise fp_error[1]
        if not found[t]:
            stalls += 1
            continue
        r = first_row[t]
        for row in range(r, r + 3):
            if row in errors:
                raise errors[row]
        if not ok[r:r + 3].all():
            stalls += 1
            continue
        a, b, c = sols[r:r + 3]
        spread = max(float(np.max(np.abs(u - v)))
                     for u, v in ((a, b), (a, c), (b, c)))
        if spread > 1e-7:
            return _law("surjective", Verdict.FAIL,
                        witness=(a.tolist(), b.tolist()), max_residual=spread,
                        note="distinct preimages of one cone point",
                        provenance=_prov(cfg, depth))
    if stalls:
        return _law("surjective", Verdict.UNKNOWN,
                    note=f"{stalls}/{n_try} preimage solves stalled",
                    provenance=_prov(cfg, depth, {"stalls": stalls}))
    return _law("surjective", Verdict.PASS_NUMERIC,
                note=f"{n_try}/{n_try} preimages recovered from 3 starts each",
                provenance=_prov(cfg, depth))


# --------------------------------------------------------------------------
# The four-way equivalence


def cross_check_equivalence(spec: BundleSpec,
                            cfg: CheckConfig = DEFAULT_CONFIG,
                            t_depth: int | None = None) -> CheckReport:
    """Run all four squares and assert their verdicts agree."""
    rep = CheckReport(f"{spec.name}: universality cross-check")
    ros = check_pullback(rosicky_square(spec), t_depth, cfg)
    rep.add(ros.as_result("square-rosicky"))

    try:
        add = induce_addition(spec, cfg, universality=ros)
        cockett = check_pullback(cockett_square(spec, add), t_depth, cfg)
        rep.add(cockett.as_result("square-cockett"))
        cockett_agg = cockett.aggregate
    except AdditionUnavailable as exc:
        rep.add(LawResult(
            "square-cockett", "cone against (T(q), zero) is a pullback",
            Verdict.FAIL, note=str(exc)))
        cockett_agg = Verdict.FAIL

    strong = check_pullback(strong_square(spec), t_depth, cfg)
    rep.add(strong.as_result("square-strong"))
    comb = check_pullback(combined_square(spec), t_depth, cfg)
    rep.add(comb.as_result("square-combined"))

    verdicts = [ros.aggregate, cockett_agg, strong.aggregate, comb.aggregate]
    if len(set(verdicts)) == 1:
        rep.add(LawResult(
            "equivalence", "all four squares give one verdict",
            Verdict.PASS_NUMERIC,
            note=f"agreed on {verdicts[0].value}"))
    else:
        rep.add(LawResult(
            "equivalence", "all four squares give one verdict",
            Verdict.FAIL,
            note="; ".join(v.value for v in verdicts)))
    return rep
