"""Submersion detection.

A chart map is a submersion where its derivative has full row rank.
Detection samples the box and then, whenever any sample looks marginal,
runs a descent on the smallest singular value so that an isolated rank
drop hiding between samples is still found.  A Fail carries an explicit
witness point; a Pass is sampling evidence only, and the report says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, DimensionMismatch, ExprError,
    SmoothMap, eval_mp, jac_eval_batch, jacobian_exprs,
)
from .jet import JetPoint, pushforward
from .report import LawResult, Verdict
from .universal import RANK_TOL, SEARCH_GATE, collapse_search, face_push

__all__ = [
    "JacobianSample", "DerivativePathsDisagree", "jacobian",
    "is_submersion_on", "RANK_TOL",
]

CROSS_CHECK_TOL = 1e-7


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
