"""Submersion detection, horizontal lifts, and closure properties.

A chart map is a submersion where its derivative has full row rank.
Detection samples the box and then, whenever any sample looks marginal,
runs a descent on the smallest singular value so that an isolated rank
drop hiding between samples is still found.  A Fail carries an explicit
witness point; a Pass is sampling evidence only, and the report says so.

The horizontal lift is fixed to the minimum-norm (pseudoinverse)
solution, which is smooth wherever the rank is locally constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, DimensionMismatch, ExprError,
    SmoothMap, Var, compose, cube, equal_maps, eval_map, eval_mp,
    jac_eval_batch, jacobian_exprs, projection, smooth_map,
)
from .jet import JetPoint, _lstsq_stack, pushforward, struct_map
from .report import CheckReport, LawResult, Verdict, sampled_law
from .universal import RANK_TOL, SEARCH_GATE, collapse_search, face_push

__all__ = [
    "JacobianSample", "RankDeficient", "DerivativePathsDisagree",
    "jacobian", "is_submersion_on", "horizontal_lift", "lift_section_map",
    "check_lift_section", "closure_harness", "RANK_TOL",
]

CROSS_CHECK_TOL = 1e-7


class RankDeficient(ExprError):
    pass


class DerivativePathsDisagree(ExprError):
    """The jet and symbolic derivative paths disagree: an engine bug, so
    this is never swallowed into a verdict."""


@dataclass(frozen=True)
class JacobianSample:
    """Derivative of a chart map at one point, with singular values."""

    point: np.ndarray
    matrix: np.ndarray
    singular_values: np.ndarray


def jacobian(f: SmoothMap, x) -> JacobianSample:
    """Derivative at x: columns pushed through order-1 jets, then
    cross-checked against the symbolic derivative path."""
    x = np.asarray(x, dtype=float)
    if x.shape != (f.arity,):
        raise DimensionMismatch(f"point of shape {x.shape} for arity {f.arity}")
    J = np.empty((f.coarity, f.arity))
    for j in range(f.arity):
        blocks = np.vstack([x, np.eye(f.arity)[j]])
        J[:, j] = pushforward(f, 1, JetPoint(1, f.arity, blocks)).blocks[1]
    J_sym = jac_eval_batch(f, x[None, :])[0]
    gap = float(np.max(np.abs(J - J_sym))) if J.size else 0.0
    if gap > CROSS_CHECK_TOL * max(1.0, float(np.max(np.abs(J_sym)))):
        raise DerivativePathsDisagree(
            f"jet and symbolic derivatives differ by {gap:.3g} at {x.tolist()}"
        )
    s = np.linalg.svd(J, compute_uv=False) if J.size else np.empty(0)
    return JacobianSample(point=x, matrix=J, singular_values=s)


def _min_singulars(f: SmoothMap, Z: np.ndarray) -> np.ndarray:
    """The f.coarity-th singular value of the derivative at each row of
    Z, from one stacked SVD; 0.0 at every row when the derivative has
    fewer singular values (arity below coarity)."""
    s = np.linalg.svd(jac_eval_batch(f, Z), compute_uv=False)
    if s.shape[1] < f.coarity:
        return np.zeros(len(Z))
    return s[:, f.coarity - 1]


def _mp_row_norm(f: SmoothMap, z: np.ndarray) -> float:
    """Derivative norm recomputed in high precision, as independent
    confirmation that a witness is a genuine collapse and not underflow."""
    rows = jacobian_exprs(f)
    flat = SmoothMap(f.arity, tuple(e for row in rows for e in row))
    vals = eval_mp(flat, z, dps=40)
    return float(max(abs(v) for v in vals)) if vals else 0.0


def is_submersion_on(f: SmoothMap, box: Box,
                     cfg: CheckConfig = DEFAULT_CONFIG) -> LawResult:
    """Full row rank of the derivative over the box."""
    anchor = "derivative is onto at every point of the box"
    if box.dim != f.arity:
        raise DimensionMismatch("box dimension does not match map arity")
    if f.arity < f.coarity:
        return LawResult(
            "submersion", anchor, Verdict.FAIL,
            witness=(box.lo().tolist(),),
            note="arity below coarity: no derivative is onto")

    rng = cfg.rng("submersion")
    X = box.sample(rng, cfg.count)
    svals = np.linalg.svd(jac_eval_batch(f, X), compute_uv=False)
    smin = svals[:, f.coarity - 1]
    scale = max(float(np.max(svals[:, 0])), 1e-30)
    thresh = RANK_TOL * max(scale, 1.0)
    prov = {"samples": len(X), "seed": cfg.seed, "scale": scale}

    order = np.argsort(smin)
    witness = None
    if smin[order[0]] < thresh:
        witness = X[order[0]]
    elif smin[order[0]] < SEARCH_GATE * max(scale, 1.0):
        witness = _collapse_search(f, box, X[order[:4]], cfg)
    if witness is not None:
        witness = face_push(_scorer(f, box), box.lo(), box.hi(), witness)
        val = float(_min_singulars(f, witness[None])[0])
        if val < thresh:
            return LawResult(
                "submersion", anchor, Verdict.FAIL,
                witness=(witness.tolist(),), max_residual=val,
                note=(f"rank drop: smallest singular value {val:.3g} "
                      f"against box scale {scale:.3g}; high-precision "
                      f"norm {_mp_row_norm(f, witness):.3g}"),
                provenance=prov)
    return LawResult(
        "submersion", anchor, Verdict.PASS_NUMERIC,
        max_residual=0.0,
        note=(f"smallest sampled singular value {float(smin[order[0]]):.3g}"
              f" at box scale {scale:.3g}; sampling evidence only"),
        provenance=prov)


def _scorer(f: SmoothMap, box: Box):
    """The searches' score_batch: the rows clipped to the box, each with
    its _min_singulars value."""
    lo, hi = box.lo(), box.hi()

    def score_batch(Z):
        Z = np.clip(Z, lo, hi)
        return list(zip(_min_singulars(f, Z), Z))
    return score_batch


def _collapse_search(f: SmoothMap, box: Box, seeds, cfg: CheckConfig):
    rng = cfg.rng("submersion:search")
    pool = box.sample(rng, 40 * box.dim)
    extras = pool[np.argsort(_min_singulars(f, pool), kind="stable")[:2]]
    return collapse_search(_scorer(f, box), list(seeds) + list(extras),
                           float(np.log(1e-14)))


def horizontal_lift(f: SmoothMap, a, v) -> np.ndarray:
    """Minimum-norm solution w of Df|_a w = v."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    js = jacobian(f, a)
    s = js.singular_values
    top = float(s[0]) if s.size else 0.0
    if len(s) < f.coarity or s[f.coarity - 1] < RANK_TOL * max(top, 1.0):
        raise RankDeficient(f"derivative not onto at {a.tolist()}")
    return _lstsq_stack(js.matrix[None], v[None])[1][0]


def lift_section_map(f: SmoothMap, a, v):
    """The induced section value h(a, v) = (a, w) in tangent-chart
    coordinates: projection recovers a, pushforward recovers v."""
    w = horizontal_lift(f, a, v)
    return np.concatenate([np.asarray(a, dtype=float), w])


def check_lift_section(f: SmoothMap, box: Box,
                       cfg: CheckConfig = DEFAULT_CONFIG) -> LawResult:
    """Sampled check that the lift is a section: the pushforward of
    (a, lift(a, v)) lands on (f(a), v)."""
    anchor = "pushforward of the lifted tangent returns the input tangent"
    rng = cfg.rng("submersion:lift")
    X = box.sample(rng, min(cfg.count, 100))
    V = rng.uniform(-1.0, 1.0, (len(X), f.coarity))

    def gap(a, v):
        w = horizontal_lift(f, a, v)
        out = pushforward(f, 1, JetPoint(1, f.arity, np.vstack([a, w])))
        return np.max(np.abs(np.concatenate(
            [out.blocks[1] - v, out.blocks[0] - eval_map(f, a)])))

    return sampled_law("lift-section", anchor, list(map(gap, X, V)),
                       np.hstack([X, V]), max(cfg.tol, 1e-9),
                       {"samples": len(X), "seed": cfg.seed})


def closure_harness(cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    """Instantiates the closure properties of the submersion class:
    composition, retracts in the arrow category over the identity base,
    chart-level pullback, and the tangent projection itself."""
    rep = CheckReport("submersion closure")

    first_of_three = projection(3, range(2))
    first_of_two = projection(2, range(1))
    composite = compose(first_of_two, first_of_three)
    parts_ok = (is_submersion_on(first_of_three, cube(3), cfg).verdict.ok
                and is_submersion_on(first_of_two, cube(2), cfg).verdict.ok)
    comp_res = is_submersion_on(composite, cube(3), cfg)
    rep.add(LawResult(
        "closed-compose",
        "a composite of submersions is a submersion",
        comp_res.verdict if parts_ok else Verdict.FAIL,
        max_residual=comp_res.max_residual,
        note=comp_res.note))

    # retract of the plain projection along a fibre translation pair
    section = smooth_map(2, [Var(0), Var(1) + Var(0) ** 2])
    retraction = smooth_map(2, [Var(0), Var(1) - Var(0) ** 2])
    round_trip = equal_maps(compose(retraction, section),
                            smooth_map(2, [Var(0), Var(1)]), cube(2), cfg)
    retract_map = compose(first_of_two, section)
    ret_res = is_submersion_on(retract_map, cube(2), cfg)
    rep.add(LawResult(
        "closed-retract",
        "a retract of a submersion in the arrow category is a submersion",
        ret_res.verdict if round_trip.kind == "equal" else Verdict.FAIL,
        max_residual=ret_res.max_residual,
        note=f"retraction identity {round_trip.kind}; {ret_res.note}"))

    # pullback of the projection along x -> x^2, realized on the chart
    # (y, a) with embedding (y, a) -> (y^2, a)
    embed = smooth_map(2, [Var(0) ** 2, Var(1)])
    chart_leg = projection(2, range(1))
    square = smooth_map(1, [Var(0) ** 2])
    commutes = equal_maps(compose(first_of_two, embed),
                          compose(square, chart_leg), cube(2), cfg)
    pull_res = is_submersion_on(chart_leg, cube(2), cfg)
    rep.add(LawResult(
        "closed-pullback",
        "a pullback of a submersion is a submersion",
        pull_res.verdict if commutes.kind == "equal" else Verdict.FAIL,
        max_residual=pull_res.max_residual,
        note=f"chart square {commutes.kind}; {pull_res.note}"))

    proj_res = is_submersion_on(struct_map("proj", 0, 2), cube(4), cfg)
    rep.add(LawResult(
        "display-projection",
        "the tangent projection itself is a submersion",
        proj_res.verdict, max_residual=proj_res.max_residual,
        note=proj_res.note))
    return rep
