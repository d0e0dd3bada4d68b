"""Nested jet engine: the tangent functor on coordinate charts.

T^n(R^k) is modelled as 2^n blocks of R^k indexed by subsets of the
nilpotent directions {1..n}; the block at the empty set is the base
point.  Direction n (owned by the outermost application of T) is the
highest bit of the block index, so flattening a jet point is plain
concatenation of the blocks in bitmask order.

Two independent computation paths are provided and cross-checked by
the tests: numeric pushforward through the truncated polynomial
algebra R[e1..en]/(e_i^2), and symbolic tangent maps built from
symbolic differentiation.

The structure maps of the tangent category (projection, zero, fibre
addition, vertical lift, canonical flip) are generated from their
level-0 coordinate formulas; higher components are produced
mechanically by iterating the tangent map, never hand-written.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .expr import (
    CheckConfig, DEFAULT_CONFIG, DENOM_GUARD, DenominatorNearZero,
    DimensionMismatch, ExprError, SmoothMap, Var, bump_coeffs, compose,
    con, concat_maps, cube, eval_batch, equal_maps, identity_map,
    jac_eval_batch, jacobian_exprs, product_of, projection,
    simplify_map, smooth_map, substitute_vars, sum_of, _bump_order,
    _check_batch, _evaluate, _quiet_floats,
)
from .report import CheckReport, LawResult, Verdict, law_from_verdict

__all__ = [
    "JetPoint", "TruncElem", "pushforward", "jacobian",
    "DerivativePathsDisagree", "tangent_map", "struct_map",
    "STANDARD_STRUCTS",
    "ImplicitMap", "NewtonDiverged",
    "apply_map", "tangent_of", "tangent_after", "prolong_implicit",
    "jac_point", "row_ordered", "solve_batch", "solve_least_norm",
    "AXIOM_CATALOG", "axiom_ids", "check_axiom", "check_all_axioms",
]

NEWTON_TOL = 1e-11      # residual at which a Gauss-Newton row stops
CROSS_CHECK_TOL = 1e-7  # relative gap at which the derivative paths disagree


class NewtonDiverged(ExprError):
    pass


# --------------------------------------------------------------------------
# Jet points and the truncated algebra


@dataclass(frozen=True)
class JetPoint:
    """A point of T^order(R^dim): 2^order blocks of length dim."""

    order: int
    dim: int
    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        if b.shape != (1 << self.order, self.dim):
            raise DimensionMismatch(
                f"expected {(1 << self.order, self.dim)} blocks, got {b.shape}"
            )
        object.__setattr__(self, "blocks", b)

    @classmethod
    def from_flat(cls, vec, order: int, dim: int) -> "JetPoint":
        vec = np.asarray(vec, dtype=float)
        return cls(order, dim, vec.reshape(1 << order, dim))

    def to_flat(self) -> np.ndarray:
        return self.blocks.reshape(-1).copy()

    @property
    def base(self) -> np.ndarray:
        return self.blocks[0]


class TruncElem:
    """An element of R[e1..en]/(e_i^2): one coefficient per subset."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        self.order = order
        self.coeffs = np.asarray(coeffs, dtype=float)

    @classmethod
    def const(cls, order: int, value: float) -> "TruncElem":
        c = np.zeros(1 << order)
        c[0] = value
        return cls(order, c)

    def __add__(self, other):
        return TruncElem(self.order, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return TruncElem(self.order, self.coeffs - other.coeffs)

    def __neg__(self):
        return TruncElem(self.order, -self.coeffs)

    def scaled(self, a: float) -> "TruncElem":
        return TruncElem(self.order, self.coeffs * a)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = np.zeros_like(a)
        for s in range(len(a)):
            sub = s
            while True:
                out[s] += a[sub] * b[s ^ sub]
                if sub == 0:
                    break
                sub = (sub - 1) & s
        return TruncElem(self.order, out)

    def recip(self) -> "TruncElem":
        # the base value is guarded where quotients are evaluated (_Jets)
        a = self.coeffs
        out = np.zeros_like(a)
        out[0] = 1.0 / a[0]
        for s in range(1, len(a)):
            acc = 0.0
            sub = (s - 1) & s
            while True:
                # sum over proper subsets of s (strictly smaller masks)
                acc += a[s ^ sub] * out[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & s
            out[s] = -out[0] * acc
        return TruncElem(self.order, out)

    def __truediv__(self, other):
        return self * other.recip()

    def __pow__(self, k: int) -> "TruncElem":
        acc = TruncElem.const(self.order, 1.0)
        for _ in range(k):
            acc = acc * self
        return acc

    def nilpotent_part(self) -> "TruncElem":
        c = self.coeffs.copy()
        c[0] = 0.0
        return TruncElem(self.order, c)

    def apply_builtin(self, name: str) -> "TruncElem":
        n = self.order
        a0 = float(self.coeffs[0])
        try:
            if name == "exp":
                derivs = [math.exp(a0)] * (n + 1)
            elif name == "sin":
                cyc = [math.sin(a0), math.cos(a0), -math.sin(a0), -math.cos(a0)]
                derivs = [cyc[m % 4] for m in range(n + 1)]
            elif name == "cos":
                cyc = [math.cos(a0), -math.sin(a0), -math.cos(a0), math.sin(a0)]
                derivs = [cyc[m % 4] for m in range(n + 1)]
            else:
                k = _bump_order(name)
                coeffs = bump_coeffs(a0, k + n)
                derivs = [coeffs[k + m] * math.factorial(k + m)
                          for m in range(n + 1)]
        except (OverflowError, ValueError) as err:
            # math.exp(1000.0) and math.sin(inf) raise where numpy gives inf, nan
            raise ExprError(f"{name}({a0!r}) in a jet: {err}") from None
        nil = self.nilpotent_part()
        out = TruncElem.const(n, derivs[0])
        power = TruncElem.const(n, 1.0)
        for m in range(1, n + 1):
            power = power * nil
            out = out + power.scaled(derivs[m] / math.factorial(m))
        return out


class _Jets:
    """TruncElem of one order as a number kind for expr._evaluate."""

    def __init__(self, order: int):
        self.order = order

    def const(self, c) -> TruncElem:
        return TruncElem.const(self.order, c.as_float)

    @staticmethod
    def guard(den: TruncElem, e):
        if abs(den.coeffs[0]) < DENOM_GUARD:
            raise DenominatorNearZero("jet division by near-zero base value")

    @staticmethod
    def call(name: str, a: TruncElem) -> TruncElem:
        return a.apply_builtin(name)


def pushforward(f: SmoothMap, n: int, jp: JetPoint) -> JetPoint:
    """Apply T^n(f) to a jet point via truncated algebra evaluation."""
    if jp.dim != f.arity:
        raise DimensionMismatch(
            f"jet of dimension {jp.dim} fed to map of arity {f.arity}"
        )
    if jp.order != n:
        raise DimensionMismatch(f"jet order {jp.order} does not match n={n}")
    env = [TruncElem(n, jp.blocks[:, i]) for i in range(f.arity)]
    num = _Jets(n)
    out = np.empty((1 << n, f.coarity))
    for j, comp in enumerate(f.components):
        out[:, j] = _evaluate(comp, env, num).coeffs
    return JetPoint(n, f.coarity, out)


class DerivativePathsDisagree(ExprError):
    """The jet and symbolic derivative paths disagree: an engine bug, so
    this is never swallowed into a verdict."""


def jacobian(f: SmoothMap, x) -> np.ndarray:
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
    return J


# --------------------------------------------------------------------------
# Symbolic tangent maps


@functools.lru_cache(maxsize=512)
def _tangent_once(f: SmoothMap) -> SmoothMap:
    m = f.arity
    rows = jacobian_exprs(f)
    comps = list(f.components)
    for i in range(f.coarity):
        comps.append(
            sum_of([product_of([rows[i][j], Var(m + j)]) for j in range(m)])
        )
    # reading the base components in the doubled chart leaves them unchanged
    return simplify_map(SmoothMap(2 * m, tuple(comps)))


def tangent_map(f: SmoothMap, n: int) -> SmoothMap:
    """Symbolic T^n(f); the outermost T owns the highest block index."""
    g = f
    for _ in range(n):
        g = _tangent_once(g)
    return g


# --------------------------------------------------------------------------
# Structure maps


def _proj_formula(k: int) -> SmoothMap:
    return projection(2 * k, range(k))


def _zero_formula(k: int) -> SmoothMap:
    return smooth_map(k, [Var(i) for i in range(k)] + [con(0)] * k)


def _add_formula(k: int) -> SmoothMap:
    # chart for the constrained pair: (x, u, w) with both summands over x
    comps = [Var(i) for i in range(k)]
    comps += [sum_of([Var(k + i), Var(2 * k + i)]) for i in range(k)]
    return smooth_map(3 * k, comps)


def _lift_formula(k: int) -> SmoothMap:
    comps = [Var(i) for i in range(k)]
    comps += [con(0)] * (2 * k)
    comps += [Var(k + i) for i in range(k)]
    return smooth_map(2 * k, comps)


def _flip_formula(k: int) -> SmoothMap:
    idx = list(range(k)) + list(range(2 * k, 3 * k)) \
        + list(range(k, 2 * k)) + list(range(3 * k, 4 * k))
    return projection(4 * k, idx)


# the level-0 coordinate formula of each structure map, by kind; a copy
# with one formula replaced studies a deliberately broken variant
STANDARD_STRUCTS = MappingProxyType({
    "proj": _proj_formula, "zero": _zero_formula, "add": _add_formula,
    "lift": _lift_formula, "flip": _flip_formula,
})


def struct_map(kind: str, level: int, k: int) -> SmoothMap:
    """T^level of the structure map of the given kind at base dim k.

    The component of a transformation at an inner object T^i(R^k) is
    struct_map(kind, 0, k * 2**i): the level-0 formula at inflated dim.
    """
    return tangent_map(STANDARD_STRUCTS[kind](k), level)


# --------------------------------------------------------------------------
# Newton-defined maps, and the tangents of both kinds of map


def row_ordered(batch, X) -> np.ndarray:
    """batch(X) for a function of a batch of rows.  When it raises an
    ExprError, the rows are redone one at a time, so that the error is
    the one a row-by-row loop meets first."""
    try:
        return batch(X)
    except ExprError:
        if len(X) < 2:
            raise
    return np.concatenate([batch(X[k:k + 1]) for k in range(len(X))])


def _each_row(fn, rows, errors=None):
    """fn(rows) for an array of row indices, or fn over each row alone
    when the batch raises an ExprError, so that only the failing rows are
    lost.  Returns (kept, values): the positions in rows of the rows that
    evaluated, and their values; the error of each other row goes into
    errors under its row index, when errors is given."""
    errors = {} if errors is None else errors
    try:
        return np.arange(len(rows)), fn(rows)
    except ExprError as err:
        if len(rows) == 1:
            errors[int(rows[0])] = err
            return np.arange(0), np.empty(0)
    kept, vals = [], []
    for k in range(len(rows)):
        try:
            vals.append(fn(rows[k:k + 1]))
        except ExprError as err:
            errors[int(rows[k])] = err
        else:
            kept.append(k)
    return (np.array(kept, dtype=int),
            np.concatenate(vals) if vals else np.empty(0))


def _one_matrix(A) -> bool:
    """Whether a float64 stack is n > 1 copies of one finite, non-empty
    matrix, bit for bit, so that one factorization serves every row."""
    bits = A.view(np.uint64)
    return bool(len(A) > 1 and A[0].size and (bits[1] == bits[0]).all()
                and (bits == bits[0]).all() and np.isfinite(A[0]).all())


def _lstsq_stack(A, B, errors=None):
    """(kept, X): X[i] is np.linalg.lstsq(A[kept[i]], B[kept[i]],
    rcond=None)[0] for a stack A (n, m, k) and B (n, m) or (n, m, r): bit
    for bit, from one call of the gelsd gufunc lstsq makes per matrix; or
    to rounding for one repeated matrix, one gelsd call with the rows'
    right-hand sides as its columns, unless gelsd would rescale them (a
    row not finite, or its largest |entry| not 0 or in [2^-970, 2^970]).
    numpy fails the whole stack when one SVD fails; it is then redone row
    by row, so that the same rows fail with the same LinAlgError: into
    errors under the row's position, or raised when errors is None."""
    m, k = A.shape[1:]
    B3 = B[..., None] if B.ndim == 2 else B
    top, small = np.abs(B3).max(axis=(1, 2), initial=0.0), 2.0 ** -970
    try:
        if not np.isfinite(A).all():    # LAPACK would print to stdout
            raise FloatingPointError
        one = _one_matrix(A) and np.all(
            (top == 0) | ((top >= small) & (top <= 1 / small)))
        with np.errstate(invalid="raise", over="ignore", divide="ignore",
                         under="ignore"):
            X = _umath_linalg.lstsq(
                A[0] if one else A,
                B3.transpose(1, 0, 2).reshape(m, -1) if one else B3,
                np.finfo(float).eps * max(m, k), signature="ddd->ddid")[0]
        X = X.reshape(k, len(A), -1).transpose(1, 0, 2) if one else X
    except FloatingPointError:
        kept, rows = [], []
        for p in range(len(A)):
            try:
                if not np.isfinite(A[p]).all():     # lstsq's own error
                    raise np.linalg.LinAlgError(
                        "SVD did not converge in Linear Least Squares")
                rows.append(np.linalg.lstsq(A[p], B[p], rcond=None)[0])
                kept.append(p)
            except np.linalg.LinAlgError as err:
                if errors is None:
                    raise
                errors[p] = err
        return (np.array(kept, dtype=int),
                np.reshape(rows, (len(kept), k) + B.shape[2:]))
    if m == 0:      # as np.linalg.lstsq: gelsd leaves X unset
        X[...] = 0.0
    return np.arange(len(A)), X[..., 0] if B.ndim == 2 else X


def _gauss_newton(F, J, Z, live, tol, max_iter, errors, value_errors=None,
                  diverged=None):
    """The row-masked Gauss-Newton loop of _solve_rows and
    ImplicitMap.eval_batch: steps the rows `live` of Z in place.

    F(rows) gives the residuals at those rows of Z, J(rows) their
    Jacobians.  Each iteration evaluates F over the rows still running,
    stops those below tol, and steps the others by one stacked lstsq
    (_lstsq_stack).  A row also stops when F or J raises for it (see
    _each_row), when its lstsq raises or when its step is not finite.
    The errors of J and lstsq go into errors, those of F into
    value_errors when given, and a non-finite step becomes
    NewtonDiverged(diverged) in errors when diverged is given.  Returns
    (converged, running): the rows that fell below tol and the rows
    still running when the iterations ran out."""
    converged = []
    for _ in range(max_iter):
        if not live.size:
            break
        kept, R = _each_row(F, live, value_errors)
        live = live[kept]
        if not live.size:
            break
        done = np.abs(R).max(axis=1) < tol
        converged.extend(live[done])
        live, R = live[~done], R[~done]
        if not live.size:
            break
        kept, Js = _each_row(J, live, errors)
        live, R = live[kept], R[kept]
        if not live.size:
            break
        failed = {}
        kept, steps = _lstsq_stack(Js, -R, failed)
        errors.update((int(live[p]), err) for p, err in failed.items())
        live = live[kept]
        finite = np.all(np.isfinite(steps), axis=1)
        Z[live[finite]] += steps[finite]
        if diverged is not None:
            errors.update((int(k), NewtonDiverged(diverged))
                          for k in live[~finite])
        live = live[finite]
    return np.array(converged, dtype=int), live


class ImplicitMap:
    """A map defined implicitly by residual(params, output) = 0.

    eval_batch solves by Gauss-Newton from a caller-supplied initializer,
    which maps a batch of parameters (n, arity) to starting outputs (n,
    coarity); jets are lifted through the residual block by block (the
    implicit function theorem in truncated form), so T^n of the map is
    available without a closed form.
    """

    tol = 1e-12     # a row is solved once its residual is below this
    max_iter = 50   # Gauss-Newton steps before the looser 1e-9 test

    def __init__(self, residual: SmoothMap, arity: int, coarity: int,
                 init: Callable, name: str = "implicit"):
        if residual.arity != arity + coarity:
            raise DimensionMismatch("residual arity must be arity + coarity")
        self.residual = residual
        self.arity = arity
        self.coarity = coarity
        self.init = init
        self.name = name
        self._seen: dict = {}

    def _remember(self, keys, Y: np.ndarray):
        # the last batch is kept whole, so that the Jacobians of a batch
        # find the values it has just solved
        if len(self._seen) > 64:
            self._seen.clear()
        self._seen.update(zip(keys, Y.copy()))

    def eval_batch(self, X) -> np.ndarray:
        """Values at a batch of parameters, (n, arity) -> (n, coarity).

        The rows not solved before go through _gauss_newton from init.  A
        row is solved once its residual is below tol, or below 1e-9 after
        max_iter steps; it fails on a non-finite step, on no convergence,
        or when its start or residual cannot be evaluated.  The solved
        rows are remembered; then the error of the first failing row is
        raised, as a row-by-row loop would raise it.
        """
        X = _check_batch(self, X)
        keys = [x.tobytes() for x in X]
        Y = np.empty((len(X), self.coarity))
        first = {}      # a row repeated in the batch is solved once
        for k, key in enumerate(keys):
            hit = self._seen.get(key)
            if hit is not None:
                Y[k] = hit
            elif key not in first:
                first[key] = k
        if not first:
            return Y
        todo = np.array(list(first.values()))
        errors = {}

        def residual(rows):
            return eval_batch(self.residual, np.hstack([X[rows], Y[rows]]))

        def jac(rows):
            return jac_eval_batch(self.residual, np.hstack(
                [X[rows], Y[rows]]))[:, :, self.arity:]

        kept, Y0 = _each_row(
            lambda rows: np.asarray(self.init(X[rows]), dtype=float),
            todo, errors)
        live = todo[kept]
        if live.size:
            Y[live] = Y0
        _, live = _gauss_newton(residual, jac, Y, live, self.tol,
                                self.max_iter, errors, errors,
                                f"{self.name}: non-finite Newton step")
        if live.size:   # out of steps: accept the loosely converged rows
            kept, R = _each_row(residual, live, errors)
            for k, r in zip(live[kept], R):
                if not np.max(np.abs(r)) < 1e-9:
                    errors[int(k)] = NewtonDiverged(
                        f"{self.name}: no convergence at {X[k].tolist()}")
        solved = [k for k in todo if k not in errors]
        self._remember([keys[k] for k in solved], Y[solved])
        if errors:
            raise errors[min(errors)]
        return Y[[first.get(key, k) for k, key in enumerate(keys)]]

    def jac_batch(self, X) -> np.ndarray:
        """Derivatives from the linearized residual: the output columns of
        each row solve J_out dY = -J_param, with the residual Jacobians of
        the batch taken in one call and one stacked lstsq.  The error
        raised is the first failing row's (row_ordered)."""
        def batch(X):
            Y = self.eval_batch(X)
            J = jac_eval_batch(self.residual, np.hstack([X, Y]))
            return _lstsq_stack(J[:, :, self.arity:],
                                -J[:, :, :self.arity])[1]
        return row_ordered(batch, np.asarray(X, dtype=float))

    # in the class's own namespace, where bench/tracer.py wraps it
    def eval_point(self, x) -> np.ndarray:
        return self.eval_batch(np.asarray(x, dtype=float)[None, :])[0]

    def jacobian(self, x) -> np.ndarray:
        return self.jac_batch(np.asarray(x, dtype=float)[None, :])[0]

    def __call__(self, x):
        return self.eval_point(x)

    def push(self, n: int, jp: JetPoint) -> JetPoint:
        """T^n at one jet point, lifted through the residual block by
        block: the jet-algebra reference for prolong_implicit."""
        if jp.dim != self.arity or jp.order != n:
            raise DimensionMismatch("jet does not match implicit map arity")
        y0 = self.eval_point(jp.base)
        J = jac_eval_batch(self.residual, np.concatenate(
            [jp.base, y0])[None, :])[0][:, self.arity:]
        out = np.zeros((1 << n, self.coarity))
        out[0] = y0
        env_x = [TruncElem(n, jp.blocks[:, i]) for i in range(self.arity)]
        num = _Jets(n)
        masks = sorted(range(1, 1 << n), key=lambda m: (bin(m).count("1"), m))
        for mask in masks:
            env_y = [TruncElem(n, out[:, j]) for j in range(self.coarity)]
            resid = [
                _evaluate(c, env_x + env_y, num).coeffs[mask]
                for c in self.residual.components
            ]
            out[mask] += _lstsq_stack(J[None], -np.asarray(resid)[None])[1][0]
        return JetPoint(n, self.coarity, out)


def prolong_implicit(imp: ImplicitMap, n: int) -> ImplicitMap:
    """T^n of an implicitly defined map, again in implicit form.

    The residual of the prolonged map is the symbolic T^n of the original
    residual with its variables regrouped so that every parameter block
    precedes every output block; the point Jacobian then stays a single
    linear solve instead of one jet per column."""
    a, c, blocks = imp.arity, imp.coarity, 1 << n
    residual = _prolonged_residual(imp.residual, a, n)

    def init(X):
        Y = np.zeros((len(X), blocks * c))
        Y[:, :c] = imp.eval_batch(X[:, :a])
        return Y

    return ImplicitMap(residual, blocks * a, blocks * c, init,
                       name=f"tangent^{n} of {imp.name}")


@functools.lru_cache(maxsize=512)
def _prolonged_residual(residual: SmoothMap, a: int, n: int) -> SmoothMap:
    """T^n of a residual in a parameters and residual.arity - a outputs,
    with every parameter block moved ahead of every output block.
    Memoized, so each T^n(imp) shares one residual and its compiled
    Jacobian."""
    c, blocks = residual.arity - a, 1 << n
    prol = tangent_map(residual, n)
    remap = {S * (a + c) + i: Var(S * a + i if i < a
                                  else blocks * a + S * c + i - a)
             for S in range(blocks) for i in range(a + c)}
    comps = tuple(substitute_vars(e, remap) for e in prol.components)
    return SmoothMap(blocks * (a + c), comps)


def apply_map(f, x) -> np.ndarray:
    """Evaluate a SmoothMap or an ImplicitMap at a point."""
    return np.asarray(f.eval_point(x), dtype=float)


def tangent_of(f, n: int):
    """T^n of a map: symbolic for a SmoothMap, prolong_implicit for an
    ImplicitMap."""
    if n == 0:
        return f
    if isinstance(f, SmoothMap):
        return tangent_map(f, n)
    return prolong_implicit(f, n)


def tangent_after(f, g: SmoothMap):
    """T(f) . g, of f's kind: simplified in closed form when f is a
    SmoothMap; for an ImplicitMap f, the ImplicitMap solving T(f)'s
    residual at (g(x), y), started where T(f) starts at g(x)."""
    tf = tangent_of(f, 1)
    residual = getattr(tf, "residual", None)
    if residual is None:
        return _smooth_tangent_after(f, g)
    return ImplicitMap(_residual_after(residual, g), g.arity, tf.coarity,
                       lambda X: tf.init(g.eval_batch(X)), name=tf.name)


@functools.lru_cache(maxsize=512)
def _smooth_tangent_after(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    return simplify_map(compose(tangent_map(f, 1), g))


@functools.lru_cache(maxsize=512)
def _residual_after(residual: SmoothMap, g: SmoothMap) -> SmoothMap:
    """residual(g(x), y) in the variables (x, y).  Memoized, so each
    T(f) . g of an implicit f shares one residual and its compiled
    Jacobian."""
    a, c = g.arity, residual.arity - g.coarity
    return compose(residual, SmoothMap(
        a + c, g.components + tuple(Var(a + j) for j in range(c))))


def jac_point(f, x) -> np.ndarray:
    """Jacobian of a SmoothMap or an ImplicitMap at a point."""
    return f.jacobian(x)


def solve_batch(f, targets, starts, tol: float = NEWTON_TOL,
                max_iter: int = 40):
    """Gauss-Newton with least-norm steps, one row per (target, start).

    Every row follows the iteration a one-row solve would (_gauss_newton).
    Returns (Z, ok, errors), ok and errors as _solve_rows gives them.
    """
    Z = np.array(starts, dtype=float)
    T = np.asarray(targets, dtype=float)
    ok, errors = _solve_rows(lambda rows: f.eval_batch(Z[rows]) - T[rows],
                             lambda rows: f.jac_batch(Z[rows]), Z, tol,
                             max_iter)
    return Z, ok, errors


def _solve_rows(F, J, Z, tol: float = NEWTON_TOL, max_iter: int = 40):
    """_gauss_newton from every row of Z, in place and with float warnings
    off.  Returns (ok, errors).  ok[k] is False where row k's residual
    could not be evaluated or was not finite, a step was not finite or
    the iterations ran out; errors maps each row whose Jacobian or step
    raised to that exception, which a one-row solve raises, so a caller
    that solves in sample order raises the one of the first such row."""
    ok, errors = np.zeros(len(Z), dtype=bool), {}
    with _quiet_floats():
        converged, _ = _gauss_newton(F, J, Z, np.arange(len(Z)), tol,
                                     max_iter, errors)
    ok[converged] = True
    return ok, errors


def solve_least_norm(f, target, z0, tol: float = NEWTON_TOL,
                     max_iter: int = 40) -> np.ndarray | None:
    """Drive f(z) to target by Gauss-Newton with least-norm steps: the
    one-row case of solve_batch.

    Returns the solution nearest-ish to z0, or None when the iteration
    fails to converge (callers discard and count such samples).
    """
    Z, ok, errors = solve_batch(
        f, np.asarray(target, dtype=float)[None, :],
        np.asarray(z0, dtype=float)[None, :], tol, max_iter)
    if errors:
        raise errors[0]
    return Z[0] if ok[0] else None


# --------------------------------------------------------------------------
# Axiom catalog.  Each entry builds both sides as explicit composites
# of structure maps; every identity is polynomial, so exact equality
# of canonical forms is deciding.


def _restrict(f: SmoothMap, big_arity: int, indices) -> SmoothMap:
    """f applied to selected coordinates of a larger chart."""
    return compose(f, projection(big_arity, indices))


def _ax_add_assoc(s: Mapping, k: int):
    A = s["add"](k)
    a4 = 4 * k
    x = list(range(k))
    u = list(range(k, 2 * k))
    v = list(range(2 * k, 3 * k))
    w = list(range(3 * k, 4 * k))
    uv = _restrict(A, a4, x + u + v)          # (x, u+v)
    left_pre = concat_maps(uv, projection(a4, w))
    vw = _restrict(A, a4, x + v + w)
    fib = compose(projection(2 * k, range(k, 2 * k)), vw)
    right_pre = concat_maps(projection(a4, x + u), fib)
    return compose(A, left_pre), compose(A, right_pre), a4


def _ax_add_comm(s: Mapping, k: int):
    A = s["add"](k)
    sw = projection(3 * k, list(range(k)) + list(range(2 * k, 3 * k))
                    + list(range(k, 2 * k)))
    return A, compose(A, sw), 3 * k


def _ax_add_unit(s: Mapping, k: int):
    A = s["add"](k)
    pad = smooth_map(2 * k, [Var(i) for i in range(2 * k)] + [con(0)] * k)
    return compose(A, pad), identity_map(2 * k), 2 * k


def _ax_proj_zero(s: Mapping, k: int):
    return compose(s["proj"](k), s["zero"](k)), identity_map(k), k


def _ax_proj_add(s: Mapping, k: int):
    P = s["proj"](k)
    A = s["add"](k)
    pi0 = projection(3 * k, range(2 * k))
    return compose(P, A), compose(P, pi0), 3 * k


def _ax_lift_add(s: Mapping, k: int):
    L = s["lift"](k)
    A = s["add"](k)
    TA = tangent_map(A, 1)
    x = [Var(i) for i in range(k)]
    u = [Var(k + i) for i in range(k)]
    w = [Var(2 * k + i) for i in range(k)]
    zero = [con(0)] * k
    pair = smooth_map(3 * k, x + zero + zero + zero + u + w)
    return compose(L, A), compose(TA, pair), 3 * k


def _ax_lift_zero(s: Mapping, k: int):
    L = s["lift"](k)
    Z = s["zero"](k)
    return compose(L, Z), compose(tangent_map(Z, 1), Z), k


def _ax_flip_add(s: Mapping, k: int):
    C = s["flip"](k)
    A = s["add"](k)
    TA = tangent_map(A, 1)
    A_tx = s["add"](2 * k)
    x = list(range(k))
    ss = list(range(k, 2 * k))
    t = list(range(2 * k, 3 * k))
    xp = list(range(3 * k, 4 * k))
    sp = list(range(4 * k, 5 * k))
    tp = list(range(5 * k, 6 * k))
    shuffle = projection(6 * k, x + xp + ss + sp + t + tp)
    return compose(C, TA), compose(A_tx, shuffle), 6 * k


def _ax_flip_zero(s: Mapping, k: int):
    C = s["flip"](k)
    Z = s["zero"](k)
    return compose(C, tangent_map(Z, 1)), s["zero"](2 * k), 2 * k


def _ax_flip_invol(s: Mapping, k: int):
    C = s["flip"](k)
    return compose(C, C), identity_map(4 * k), 4 * k


def _ax_flip_lift(s: Mapping, k: int):
    C = s["flip"](k)
    L = s["lift"](k)
    return compose(C, L), L, 2 * k


def _ax_lift_coassoc(s: Mapping, k: int):
    L = s["lift"](k)
    TL = tangent_map(L, 1)
    L_tx = s["lift"](2 * k)
    return compose(TL, L), compose(L_tx, L), 2 * k


def _ax_flip_braid(s: Mapping, k: int):
    TC = tangent_map(s["flip"](k), 1)
    C2 = s["flip"](2 * k)
    lhs = compose(C2, compose(TC, C2))
    rhs = compose(TC, compose(C2, TC))
    return lhs, rhs, 8 * k


def _ax_lift_flip_exch(s: Mapping, k: int):
    C = s["flip"](k)
    TC = tangent_map(C, 1)
    TL = tangent_map(s["lift"](k), 1)
    L2 = s["lift"](2 * k)
    C2 = s["flip"](2 * k)
    return compose(TL, C), compose(C2, compose(TC, L2)), 4 * k


AXIOM_CATALOG = (
    ("add-assoc", "(a + b) + c = a + (b + c)", _ax_add_assoc),
    ("add-comm", "a + b = b + a", _ax_add_comm),
    ("add-unit", "a + 0(p(a)) = a", _ax_add_unit),
    ("proj-zero", "p . 0 = id", _ax_proj_zero),
    ("proj-add", "p . (+) = p . pi0", _ax_proj_add),
    ("lift-add", "l . (+) = T(+) . (l, l)", _ax_lift_add),
    ("lift-zero", "l . 0 = T(0) . 0", _ax_lift_zero),
    ("flip-add", "c . T(+) = (+)_T . (c, c)", _ax_flip_add),
    ("flip-zero", "c . T(0) = 0_T", _ax_flip_zero),
    ("flip-invol", "c . c = id", _ax_flip_invol),
    ("flip-lift", "c . l = l", _ax_flip_lift),
    ("lift-coassoc", "T(l) . l = l . l", _ax_lift_coassoc),
    ("flip-braid", "c . T(c) . c = T(c) . c . T(c)", _ax_flip_braid),
    ("lift-flip-exch", "T(l) . c = c . T(c) . l", _ax_lift_flip_exch),
)


def axiom_ids() -> list:
    return [name for name, _, _ in AXIOM_CATALOG]


def check_axiom(name: str, k: int, structs: Mapping = STANDARD_STRUCTS,
                cfg: CheckConfig = DEFAULT_CONFIG) -> LawResult:
    """Check one catalog identity at base dimension k."""
    for ax_name, anchor, builder in AXIOM_CATALOG:
        if ax_name == name:
            lhs, rhs, arity = builder(structs, k)
            verdict = equal_maps(lhs, rhs, cube(arity), cfg)
            res = law_from_verdict(f"{name}@k={k}", anchor, verdict,
                                   provenance={"seed": cfg.seed,
                                               "count": cfg.count,
                                               "tol": cfg.tol})
            if res.verdict is Verdict.PASS_NUMERIC:
                return replace(res, verdict=Verdict.UNKNOWN,
                               note="axioms pass on canonical equality only")
            return res
    raise KeyError(f"unknown axiom id {name!r}")


def check_all_axioms(dims: Sequence[int] = (1, 2, 3),
                     structs: Mapping = STANDARD_STRUCTS,
                     cfg: CheckConfig = DEFAULT_CONFIG) -> CheckReport:
    report = CheckReport("tangent category axioms")
    for name, _, _ in AXIOM_CATALOG:
        for k in dims:
            report.add(check_axiom(name, k, structs, cfg))
    return report
