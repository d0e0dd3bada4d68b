"""Expression language for smooth maps between coordinate spaces.

A SmoothMap is a vector of expression ASTs over positional variables
x0..x{m-1}.  The module provides a small DSL parser, a pretty printer
that round-trips, an exact polynomial normal form over the rationals,
evaluation, and symbolic differentiation.  One interpreter, `_evaluate`,
evaluates an AST over any of four number kinds: float64 arrays (one
value per sample point), exact `Fraction`s (polynomials only), mpmath
high precision, and the truncated jet algebra of `jet.TruncElem`.
Each map compiles its float Jacobian once, on first use: constant
entries go into a template and only the others are evaluated per batch.
Symbolic differentiation is deliberately independent of the jet engine
so the two can cross-check each other.

Builtins: exp, sin, cos and the smooth step pair bump/dbump, where
bump(y) = s(y)/(s(y)+s(1-y)) with s(t) = exp(-1/t) for t > 0 and 0
otherwise.  Derivatives of dbump close over an internal family
d2bump, d3bump, ... evaluated through truncated Taylor series of s.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Sum", "Product", "Pow", "Quot", "Call",
    "SmoothMap", "Box", "CheckConfig", "DEFAULT_CONFIG", "EqVerdict",
    "ExprError", "ParseError", "DimensionMismatch", "DenominatorNearZero",
    "parse_map", "to_source", "normalize", "con", "smooth_map", "cube",
    "eval_map", "eval_batch", "eval_exact", "eval_mp",
    "compose", "identity_map", "projection", "concat_maps",
    "poly_normalize", "poly_to_expr", "simplify_map",
    "symbolic_derivative", "jacobian_exprs", "jac_eval_batch",
    "equal_maps", "worst_row", "row_gaps",
    "bump_coeffs", "bump_coeffs_mp", "bump_batch",
    "BUILTINS", "MAX_BUMP_ORDER",
]

SEAM_GUARD = 1e-8          # below this, exp(-1/t) is treated as exactly 0
DENOM_GUARD = 1e-12        # quotient denominators must stay above this
MAX_BUMP_ORDER = 12        # highest bump derivative the registry serves


class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DimensionMismatch(ExprError):
    pass


class DenominatorNearZero(ExprError):
    pass


# --------------------------------------------------------------------------
# AST nodes


class Expr:
    """Base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()

    def __add__(self, other):
        return _sum2(self, _as_expr(other))

    def __radd__(self, other):
        return _sum2(_as_expr(other), self)

    def __sub__(self, other):
        return _sum2(self, neg(_as_expr(other)))

    def __rsub__(self, other):
        return _sum2(_as_expr(other), neg(self))

    def __mul__(self, other):
        return _prod2(self, _as_expr(other))

    def __rmul__(self, other):
        return _prod2(_as_expr(other), self)

    def __truediv__(self, other):
        return quotient(self, _as_expr(other))

    def __rtruediv__(self, other):
        return quotient(_as_expr(other), self)

    def __pow__(self, k: int):
        return power(self, k)

    def __neg__(self):
        return neg(self)


def _keeps_hash(cls):
    """A frozen dataclass whose field hash is kept in the instance dict
    on first use (as a compound node's `_normal` and `_bound` are); none
    is a field.  Hashing a Fraction computes a modular inverse, and every
    memo lookup hashes every node."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__
    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = field_hash(self)
        return h
    cls.__hash__ = __hash__
    return cls


@_keeps_hash
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        # the hash's slot is made here, so that every constant's dict has
        # its keys in one order and the dicts share them
        self.__dict__["_hash"] = None

    @cached_property
    def as_float(self) -> float:
        """float(value), converted once per node."""
        return float(self.value)


@dataclass(frozen=True)
class Var(Expr):
    index: int


@_keeps_hash
class Sum(Expr):
    terms: tuple


@_keeps_hash
class Product(Expr):
    factors: tuple


@_keeps_hash
class Pow(Expr):
    base: Expr
    exponent: int


@_keeps_hash
class Quot(Expr):
    num: Expr
    den: Expr


@_keeps_hash
class Call(Expr):
    name: str
    arg: Expr


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot coerce {x!r} to Expr")


def con(x) -> Const:
    return Const(Fraction(x))


# --------------------------------------------------------------------------
# Smart constructors; these keep ASTs in a light normal form:
# flattened sums/products, folded constants, negation as a product with
# the constant -1, no constant quotients.  Each marks its output normal.


def _normal(e: Expr) -> Expr:
    e.__dict__["_normal"] = True
    return e


def sum_of(terms: Iterable[Expr]) -> Expr:
    flat = []
    node = value = None     # a lone constant node is kept as it is
    for t in terms:
        t = normalize(t)
        for u in t.terms if type(t) is Sum else (t,):
            if type(u) is not Const:
                flat.append(u)
            elif value is None:
                node, value = u, u.value
            else:
                node, value = None, value + u.value
    if value is not None and value != 0:
        flat.append(Const(value) if node is None else node)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return _normal(Sum(tuple(flat)))


def product_of(factors: Iterable[Expr]) -> Expr:
    flat = []
    node = value = None
    for f in factors:
        f = normalize(f)
        for u in f.factors if type(f) is Product else (f,):
            if type(u) is not Const:
                flat.append(u)
            elif value is None:
                node, value = u, u.value
            else:
                node, value = None, value * u.value
    if value is not None:
        if value == 0:
            return ZERO
        if value != 1:
            flat.insert(0, Const(value) if node is None else node)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return _normal(Product(tuple(flat)))


def _sum2(a: Expr, b: Expr) -> Expr:
    return sum_of([a, b])


def _prod2(a: Expr, b: Expr) -> Expr:
    return product_of([a, b])


def neg(e: Expr) -> Expr:
    return product_of([MINUS_ONE, e])


def power(base: Expr, k: int) -> Expr:
    if k < 0:
        raise ExprError("negative exponent; use quotient")
    b = normalize(base)
    if k == 0:
        return ONE
    if k == 1:
        return b
    if isinstance(b, Const):
        return Const(b.value ** k)
    if isinstance(b, Pow):
        return _normal(Pow(b.base, b.exponent * k))
    return _normal(Pow(b, k))


def quotient(num: Expr, den: Expr) -> Expr:
    n = normalize(num)
    d = normalize(den)
    if isinstance(d, Const):
        if d.value == 0:
            raise ExprError("division by the zero constant")
        return product_of([Const(1 / d.value), n])
    if isinstance(n, Const) and n.value == 0:
        return ZERO
    return _normal(Quot(n, d))


def call(name: str, arg: Expr) -> Expr:
    if name not in BUILTINS:
        raise ExprError(f"unknown builtin '{name}'")
    return _normal(Call(name, normalize(arg)))


def normalize(e: Expr) -> Expr:
    """Idempotent structural normalization (not polynomial expansion).
    A smart constructor's output is normal and is returned as it is."""
    if type(e) in (Const, Var) or getattr(e, "_normal", False):
        return e
    return _rebuild(e, _kids(e))


def _rebuild(e: Expr, kids) -> Expr:
    """The node of e's compound kind over the children kids (as _kids
    lists them), through the kind's smart constructor."""
    t = type(e)
    if t is Sum:
        return sum_of(kids)
    if t is Product:
        return product_of(kids)
    if t is Pow:
        return power(kids[0], e.exponent)
    if t is Quot:
        return quotient(*kids)
    if t is Call:
        return call(e.name, kids[0])
    raise TypeError(f"not an Expr: {e!r}")


# --------------------------------------------------------------------------
# Builtin registry: evaluation plus a symbolic derivative rule per name.
# The bump family is closed under differentiation via d{k}bump names.


def _bump_name(order: int) -> str:
    if order == 0:
        return "bump"
    if order == 1:
        return "dbump"
    return f"d{order}bump"


def _bump_order(name: str) -> int:
    if name == "bump":
        return 0
    if name == "dbump":
        return 1
    return int(name[1:-4])


_ANALYTIC = ("exp", "sin", "cos")   # same names in numpy and mpmath
BUILTINS = frozenset(
    {*_ANALYTIC} | {_bump_name(k) for k in range(MAX_BUMP_ORDER + 1)}
)


def _derivative_of_builtin(name: str, arg: Expr) -> Expr:
    if name == "exp":
        return Call("exp", arg)
    if name == "sin":
        return Call("cos", arg)
    if name == "cos":
        return neg(Call("sin", arg))
    k = _bump_order(name)
    if k + 1 > MAX_BUMP_ORDER:
        raise ExprError("bump derivative order exceeds registry limit")
    return Call(_bump_name(k + 1), arg)


# --------------------------------------------------------------------------
# Bump machinery: truncated Taylor series of s(t) = exp(-1/t).
# Coefficient lists are plain Python lists whose entries are floats,
# mpmath numbers, or numpy arrays (one value per sample point).


def _series_mul(a, b, order):
    out = []
    for n in range(order + 1):
        acc = a[0] * b[n]
        for k in range(1, n + 1):
            acc = acc + a[k] * b[n - k]
        out.append(acc)
    return out


def _series_recip(a, order):
    inv0 = 1.0 / a[0]
    out = [inv0]
    for n in range(1, order + 1):
        acc = a[1] * out[n - 1]
        for k in range(2, n + 1):
            acc = acc + a[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def _s_series(a, order, exp, where):
    # Taylor coefficients of t -> s(a + t); all zero at or left of the seam.
    # where(dead, x, y) picks x where dead holds, as np.where does.
    dead = a < SEAM_GUARD
    safe = where(dead, 1.0, a)
    h = [where(dead, 0.0, -1.0 / safe)]
    for j in range(1, order + 1):
        h.append(where(dead, 0.0, -h[j - 1] / safe))
    g = [where(dead, 0.0, exp(h[0]))]
    for n in range(1, order + 1):
        acc = h[1] * g[n - 1]
        for k in range(2, n + 1):
            acc = acc + k * h[k] * g[n - k]
        g.append(acc / n)
    return g


def _bump_series(y, order, exp, where):
    """Taylor coefficients of bump = s(y) / (s(y) + s(1 - y)) at y, in
    the number kind of y and exp."""
    sa = _s_series(y, order, exp, where)
    sb = _s_series(1 - y, order, exp, where)
    # (-1)^j: the inner derivative of 1 - y
    den = [sa[j] + sb[j] * ((-1) ** j) for j in range(order + 1)]
    return _series_mul(sa, _series_recip(den, order), order)


def _pick(cond, x, y):
    return x if cond else y


def bump_coeffs(y: float, order: int):
    """Taylor coefficients of bump at y, as floats, up to `order`."""
    return _bump_series(float(y), order, math.exp, _pick)


def bump_coeffs_mp(y, order: int):
    """Same as bump_coeffs but in mpmath arithmetic (y may be mpf)."""
    import mpmath as mp

    return _bump_series(mp.mpf(y), order, mp.exp, _pick)


def bump_batch(y: np.ndarray, order: int) -> list:
    """Vectorized bump Taylor coefficients; returns a list of arrays."""
    return _bump_series(np.asarray(y, dtype=float), order, np.exp, np.where)


def _bump_deriv_batch(y: np.ndarray, k: int) -> np.ndarray:
    return bump_batch(y, k)[k] * math.factorial(k)


# --------------------------------------------------------------------------
# SmoothMap


@dataclass(frozen=True)
class SmoothMap:
    """A map R^arity -> R^coarity given by one expression per component."""

    arity: int
    components: tuple

    def __post_init__(self):
        comps = tuple(normalize(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        for c in comps:
            if _var_bound(c) < self.arity:
                continue
            bad = [i for i in _free_vars(c) if i >= self.arity or i < 0]
            raise DimensionMismatch(
                f"variable x{bad[0]} out of range for arity {self.arity}"
            )

    @property
    def coarity(self) -> int:
        return len(self.components)

    def __call__(self, x):
        return eval_map(self, x)

    def eval_batch(self, X) -> np.ndarray:
        return eval_batch(self, X)

    def jac_batch(self, X) -> np.ndarray:
        return jac_eval_batch(self, X)

    def eval_point(self, x) -> np.ndarray:
        return eval_map(self, x)

    def jacobian(self, x) -> np.ndarray:
        return jac_eval_batch(self, np.asarray(x, dtype=float)[None, :])[0]

    @cached_property
    def _jac_plan(self):
        """The float Jacobian, compiled once on first use: a (coarity,
        arity) template holding every constant entry, and the other
        entries as (i, j, expr) in row-major order."""
        template = np.zeros((self.coarity, self.arity))
        live = []
        for i, row in enumerate(jacobian_exprs(self)):
            for j, e in enumerate(row):
                if type(e) is Const:
                    template[i, j] = e.as_float
                else:
                    live.append((i, j, e))
        template.setflags(write=False)
        return template, tuple(live)


def _kids(e: Expr) -> tuple:
    t = type(e)
    return (e.terms if t is Sum else e.factors if t is Product
            else (e.base,) if t is Pow else (e.num, e.den) if t is Quot
            else (e.arg,) if t is Call else ())


def _var_bound(e: Expr):
    """The highest variable index in e: -1 without variables, inf with a
    negative one.  Kept in a compound node's dict, beside a cached hash."""
    t = type(e)
    if t is Var:
        return e.index if e.index >= 0 else math.inf
    if t is Const:
        return -1
    d = e.__dict__
    if "_bound" not in d:
        d["_bound"] = max(map(_var_bound, _kids(e)), default=-1)
    return d["_bound"]


def _free_vars(e: Expr, acc=None) -> set:
    acc = set() if acc is None else acc
    if type(e) is Var:
        acc.add(e.index)
    for k in _kids(e):
        _free_vars(k, acc)
    return acc


def smooth_map(arity: int, components: Sequence[Expr]) -> SmoothMap:
    return SmoothMap(arity, tuple(components))


# --------------------------------------------------------------------------
# Parser.  Grammar:
#   map    := expr (',' expr)*
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ['^' nonneg-int]
#   atom   := number | ident | '(' expr ')' | builtin '(' expr ')'
# Numbers are decimal (possibly with a fractional part) and rationals
# are written p/q through the division operator, which folds to an
# exact rational constant.  A leading unary minus is accepted.
# Digits are ASCII 0-9, in numbers and in names alike: another digit,
# such as a superscript or a fullwidth one, is an unexpected character.
# Columns count characters; only "\n" starts a line.


_TOKEN = re.compile(r"""
    (\s*)                                  # the space before a token
    (?: ([-+*/^(),])                       # an operator
      | ([0-9]+ \.? [0-9]* | \. [0-9]*)    # a number
      | ([^\W\d] \w*)                      # a name, see _name_end
      | (\S) )                             # an unexpected character
""", re.VERBOSE)


def _name_end(name: str) -> int:
    """Length of the longest prefix of a name match that is a name: a
    letter or '_', then letters, ASCII digits and '_'."""
    if name.isascii():
        return len(name)
    for k, ch in enumerate(name):
        if not (ch.isalpha() or ch == "_" or (k and ch in "0123456789")):
            return k
    return len(name)


class _Lexer:
    def __init__(self, text: str):
        self.tokens = []
        self._run(text)
        self.index = 0

    def _run(self, text):
        """One pass of _TOKEN over the text, counting lines as it goes;
        matches are contiguous up to any trailing space."""
        tokens, pos, line, line_start = self.tokens, 0, 1, 0
        for space, op, num, name, bad in _TOKEN.findall(text):
            if "\n" in space:
                line += space.count("\n")
                line_start = pos + space.rindex("\n") + 1
            pos += len(space)
            col = pos - line_start + 1
            if op:
                tokens.append(("op", op, (line, col)))
                pos += 1
                continue
            lit = num or name
            k = _name_end(name) if name else len(num)
            if k < len(lit) or bad:
                raise ParseError(f"unexpected character {(lit + bad)[k]!r}",
                                 line, col + k)
            if lit == ".":
                raise ParseError("malformed number", line, col)
            tokens.append(("num" if num else "ident", lit, (line, col)))
            pos += len(lit)
        tail = text[pos:]
        if "\n" in tail:
            line += tail.count("\n")
            line_start = pos + tail.rindex("\n") + 1
        tokens.append(("end", "", (line, len(text) - line_start + 1)))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "end":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, arity: int):
        self.lex = _Lexer(text)
        self.arity = arity

    def _error(self, msg, tok):
        raise ParseError(msg, tok[2][0], tok[2][1])

    def parse_components(self):
        comps = [self.parse_expr()]
        while self.lex.peek()[1] == ",":
            self.lex.next()
            comps.append(self.parse_expr())
        tok = self.lex.peek()
        if tok[0] != "end":
            self._error(f"unexpected token {tok[1]!r}", tok)
        return comps

    def parse_expr(self):
        terms = [self.parse_term()]
        while self.lex.peek()[1] in ("+", "-"):
            op = self.lex.next()[1]
            t = self.parse_term()
            terms.append(t if op == "+" else neg(t))
        return sum_of(terms) if len(terms) > 1 else terms[0]

    def parse_term(self):
        acc = self.parse_factor()
        while self.lex.peek()[1] in ("*", "/"):
            op = self.lex.next()[1]
            rhs = self.parse_factor()
            acc = product_of([acc, rhs]) if op == "*" else quotient(acc, rhs)
        return acc

    def parse_factor(self):
        tok = self.lex.peek()
        if tok[1] == "-":
            self.lex.next()
            return neg(self.parse_factor())
        atom = self.parse_atom()
        if self.lex.peek()[1] == "^":
            self.lex.next()
            etok = self.lex.next()
            if etok[0] != "num" or "." in etok[1]:
                self._error("exponent must be a nonnegative integer", etok)
            return power(atom, int(etok[1]))
        return atom

    def parse_atom(self):
        tok = self.lex.next()
        kind, text, _ = tok
        if kind == "num":
            return Const(Fraction(text) if "." in text else int(text))
        if kind == "ident":
            if self.lex.peek()[1] == "(":
                if text not in BUILTINS:
                    self._error(f"unknown builtin '{text}'", tok)
                self.lex.next()
                inner = self.parse_expr()
                close = self.lex.next()
                if close[1] != ")":
                    self._error("expected ')'", close)
                return call(text, inner)
            return self._variable(tok)
        if text == "(":
            inner = self.parse_expr()
            close = self.lex.next()
            if close[1] != ")":
                self._error("expected ')'", close)
            return inner
        if kind == "end":
            self._error("unexpected end of input", tok)
        self._error(f"unexpected token {text!r}", tok)

    def _variable(self, tok):
        name = tok[1]
        if not (name.startswith("x") and name[1:].isdigit()):
            self._error(f"unbound variable '{name}'", tok)
        idx = int(name[1:])
        if idx >= self.arity:
            self._error(
                f"variable '{name}' exceeds declared arity {self.arity}", tok
            )
        return Var(idx)


def parse_map(text: str, arity: int) -> SmoothMap:
    """Parse DSL source into a SmoothMap; components separated by commas."""
    comps = _Parser(text, arity).parse_components()
    return SmoothMap(arity, tuple(comps))


# --------------------------------------------------------------------------
# Printer


def _fmt_const(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _print(e: Expr, prec: int) -> str:
    # precedence: 0 sum, 1 product, 2 unary minus, 3 power base, 4 atom
    if isinstance(e, Const):
        s = _fmt_const(abs(e.value))
        if e.value < 0:
            return _wrap(f"-{s}", 2, prec)
        if e.value.denominator != 1:
            return _wrap(s, 1, prec)
        return s
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Sum):
        parts = [_print(e.terms[0], 0)]
        for t in e.terms[1:]:
            sgn, body = _split_sign(t)
            parts.append((" - " if sgn < 0 else " + ") + _print(body, 1))
        return _wrap("".join(parts), 0, prec)
    if isinstance(e, Product):
        sgn, factors = 1, list(e.factors)
        if isinstance(factors[0], Const) and factors[0].value < 0:
            sgn = -1
            c = Const(-factors[0].value)
            factors = ([] if c.value == 1 else [c]) + factors[1:]
        if not factors:
            body = "1"
        else:
            body = "*".join(_print(f, 2) for f in factors)
        if sgn < 0:
            return _wrap("-" + body, 2, prec)
        return _wrap(body, 1, prec)
    if isinstance(e, Pow):
        return _wrap(f"{_print(e.base, 4)}^{e.exponent}", 3, prec)
    if isinstance(e, Quot):
        return _wrap(f"{_print(e.num, 2)}/{_print(e.den, 4)}", 1, prec)
    if isinstance(e, Call):
        return f"{e.name}({_print(e.arg, 0)})"
    raise TypeError(f"not an Expr: {e!r}")


def _wrap(s: str, level: int, prec: int) -> str:
    return f"({s})" if level < prec else s


def _split_sign(e: Expr):
    if isinstance(e, Const) and e.value < 0:
        return -1, Const(-e.value)
    if isinstance(e, Product):
        head = e.factors[0]
        if isinstance(head, Const) and head.value < 0:
            return -1, product_of([Const(-head.value), *e.factors[1:]])
    return 1, e


def to_source(f: SmoothMap) -> str:
    """Print a SmoothMap back to DSL source (inverse of parse_map)."""
    return ", ".join(_print(c, 0) for c in f.components)


# --------------------------------------------------------------------------
# Evaluation


def _check_point(f: SmoothMap, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (f.arity,):
        raise DimensionMismatch(
            f"point of shape {x.shape} fed to map of arity {f.arity}"
        )
    return x


def _evaluate(e: Expr, env, num):
    """Value of e with Var(i) bound to env[i], in the number kind `num`.

    Sums and products fold left to right, Pow uses `**`, and a
    quotient's denominator is evaluated and guarded before its
    numerator.  `num` supplies the rest: `const(Const)`,
    `guard(den, quot)` and `call(name, arg)`.  Constants are tested
    first: most entries of a Jacobian are constant.
    """
    t = type(e)
    if t is Const:
        return num.const(e)
    if t is Var:
        return env[e.index]
    if t is Sum:
        acc = _evaluate(e.terms[0], env, num)
        for u in e.terms[1:]:
            acc = acc + _evaluate(u, env, num)
        return acc
    if t is Product:
        acc = _evaluate(e.factors[0], env, num)
        for u in e.factors[1:]:
            acc = acc * _evaluate(u, env, num)
        return acc
    if t is Pow:
        return _evaluate(e.base, env, num) ** e.exponent
    if t is Quot:
        den = _evaluate(e.den, env, num)
        num.guard(den, e)
        return _evaluate(e.num, env, num) / den
    if t is Call:
        return num.call(e.name, _evaluate(e.arg, env, num))
    raise TypeError(f"not an Expr: {e!r}")


class _Floats:
    """float64 arrays, one value per each of n sample points.

    A constant is a float scalar, which numpy broadcasts and rounds as it
    would a filled array.  A builtin fills a constant argument to n
    values first, so every other value is an array: numpy's scalar `**`
    rounds differently from its array `**`.
    """

    def __init__(self, n: int):
        self.n = n

    @staticmethod
    def const(c: Const) -> float:
        return c.as_float

    @staticmethod
    def guard(den, e):
        if np.any(np.abs(den) < DENOM_GUARD):
            raise DenominatorNearZero(f"denominator near zero in {_print(e, 0)}")

    def call(self, name, a):
        if np.ndim(a) == 0:
            a = np.full(self.n, a)
        if name in _ANALYTIC:
            return getattr(np, name)(a)
        return _bump_deriv_batch(a, _bump_order(name))


class _Exact:
    """Fractions; quotients and builtins have no exact value here."""

    @staticmethod
    def const(c: Const) -> Fraction:
        return c.value

    @staticmethod
    def guard(*_):
        raise ExprError("eval_exact requires a polynomial expression")

    call = guard


class _Mp:
    """mpmath numbers at the working precision of the caller."""

    def __init__(self, mp):
        self.mp = mp

    def const(self, c: Const):
        return self.mp.mpf(c.value.numerator) / c.value.denominator

    @staticmethod
    def guard(den, e):
        if abs(den) < DENOM_GUARD:
            raise DenominatorNearZero("denominator near zero")

    def call(self, name, a):
        if name in _ANALYTIC:
            return getattr(self.mp, name)(a)
        k = _bump_order(name)
        return bump_coeffs_mp(a, k)[k] * self.mp.factorial(k)


def _quiet_floats():
    """numpy's overflow, invalid and divide warnings off: a float
    evaluation that overflows or gives NaN is reported by the checks
    that read it (a NaN residual reads unknown), not on stderr."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _check_batch(f: SmoothMap, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != f.arity:
        raise DimensionMismatch(
            f"batch of shape {X.shape} fed to map of arity {f.arity}"
        )
    return X


def eval_batch(f: SmoothMap, X) -> np.ndarray:
    """Evaluate f at a batch of points, shape (n, arity) -> (n, coarity)."""
    X = _check_batch(f, X)
    cols, num = list(X.T), _Floats(len(X))
    out = np.empty((len(X), f.coarity))
    with _quiet_floats():
        for j, c in enumerate(f.components):
            out[:, j] = _evaluate(c, cols, num)
    return out


def eval_map(f: SmoothMap, x) -> np.ndarray:
    """Evaluate f at a single point."""
    x = _check_point(f, x)
    return eval_batch(f, x[None, :])[0]


def eval_exact(f: SmoothMap, x: Sequence[Fraction]) -> list:
    """Exact rational evaluation; rejects builtins and quotients."""
    if len(x) != f.arity:
        raise DimensionMismatch("point length does not match arity")
    env = [Fraction(v) for v in x]
    return [_evaluate(c, env, _Exact) for c in f.components]


def eval_mp(f: SmoothMap, x, dps: int = 60) -> list:
    """High precision evaluation via mpmath; returns a list of mpf."""
    import mpmath as mp

    with mp.workdps(dps):
        env = [mp.mpf(float(v)) for v in x]
        num = _Mp(mp)
        return [_evaluate(c, env, num) for c in f.components]


# --------------------------------------------------------------------------
# Composition and combinators


def substitute_vars(e: Expr, mapping: dict) -> Expr:
    """Replace Var(i) by mapping[i] where present, leaving others alone."""
    t = type(e)
    if t is Const:
        return e
    if t is Var:
        return mapping.get(e.index, e)
    return _rebuild(e, [substitute_vars(k, mapping) for k in _kids(e)])


def compose(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """f after g: eval(compose(f, g), x) = eval(f, eval(g, x))."""
    if g.coarity != f.arity:
        raise DimensionMismatch(
            f"compose: inner coarity {g.coarity} != outer arity {f.arity}"
        )
    inner = dict(enumerate(g.components))
    comps = tuple(substitute_vars(c, inner) for c in f.components)
    return SmoothMap(g.arity, comps)


def identity_map(n: int) -> SmoothMap:
    return SmoothMap(n, tuple(Var(i) for i in range(n)))


def projection(arity: int, indices: Sequence[int]) -> SmoothMap:
    """Select (and reorder) input coordinates."""
    return SmoothMap(arity, tuple(Var(i) for i in indices))


def concat_maps(*maps: SmoothMap) -> SmoothMap:
    """Stack outputs of maps sharing one domain."""
    arity = maps[0].arity
    comps = []
    for m in maps:
        if m.arity != arity:
            raise DimensionMismatch("concat_maps requires equal arities")
        comps.extend(m.components)
    return SmoothMap(arity, tuple(comps))


# --------------------------------------------------------------------------
# Polynomial normal form: sparse exponent-tuple -> Fraction, graded lex.


_UNIT = Fraction(1)     # the coefficient of a variable


@lru_cache(maxsize=1024)
def _poly_of(e: Expr, arity: int):
    """Sparse polynomial of e, or None; a read-only view shared by value.
    No coefficient is zero.  A product starts from its first factor and a
    power from its base, not from the polynomial 1."""
    t = type(e)
    if t is Const:
        acc = {} if e.value == 0 else {(0,) * arity: e.value}
    elif t is Var:
        key = tuple(1 if i == e.index else 0 for i in range(arity))
        acc = {key: _UNIT}
    elif t is Sum:
        acc = {}
        for u in e.terms:
            p = _poly_of(u, arity)
            if p is None:
                return None
            _poly_add(acc, p.items())
    elif t is Product:
        acc = None
        for u in e.factors:
            p = _poly_of(u, arity)
            if p is None:
                return None
            acc = p if acc is None else _poly_mul(acc, p)
        if acc is None:
            acc = {(0,) * arity: _UNIT}
    elif t is Pow:
        base = _poly_of(e.base, arity)
        if base is None:
            return None
        acc = base if e.exponent > 0 else {(0,) * arity: _UNIT}
        for _ in range(e.exponent - 1):
            acc = _poly_mul(acc, base)
    else:
        return None
    return acc if type(acc) is MappingProxyType else MappingProxyType(acc)


def _poly_add(acc: dict, terms) -> None:
    """Add (monomial, nonzero coefficient) pairs into acc, dropping a
    monomial whose coefficient cancels."""
    for k, v in terms:
        if k in acc:
            v += acc[k]
            if v:
                acc[k] = v
            else:
                del acc[k]
        else:
            acc[k] = v


def _poly_mul(a, b) -> dict:
    out = {}
    for ka, va in a.items():
        _poly_add(out, ((tuple(map(add, ka, kb)), va * vb)
                        for kb, vb in b.items()))
    return out


def _grlex_key(mono: tuple):
    return (sum(mono), tuple(-m for m in mono))


def poly_normalize(f: SmoothMap):
    """Canonical sparse polynomial per component, or None if any
    component uses quotients or builtins."""
    forms = _poly_forms(f)
    if forms is None:
        return None
    return [dict(sorted(p.items(), key=lambda kv: _grlex_key(kv[0])))
            for p in forms]


def _poly_forms(f: SmoothMap):
    """The memoized polynomial of each component, unsorted, or None as
    poly_normalize: equal per component exactly when the canonical
    forms are, since dict equality ignores order."""
    out = []
    for c in f.components:
        p = _poly_of(c, f.arity)
        if p is None:
            return None
        out.append(p)
    return out


def poly_to_expr(p: dict, arity: int) -> Expr:
    terms = []
    for mono, coeff in sorted(p.items(), key=lambda kv: _grlex_key(kv[0])):
        factors = [Const(coeff)]
        for i, m in enumerate(mono):
            if m:
                factors.append(power(Var(i), m))
        terms.append(product_of(factors))
    return sum_of(terms)


def simplify_map(f: SmoothMap) -> SmoothMap:
    """Rebuild polynomial components from canonical form; leave others
    structurally normalized.  Controls swell in iterated tangent maps."""
    comps = []
    for c in f.components:
        p = _poly_of(c, f.arity)
        comps.append(poly_to_expr(p, f.arity) if p is not None else c)
    return SmoothMap(f.arity, tuple(comps))


# --------------------------------------------------------------------------
# Symbolic differentiation


def symbolic_derivative(f: SmoothMap, var: int) -> SmoothMap:
    if not (0 <= var < f.arity):
        raise DimensionMismatch(f"no variable x{var} in map of arity {f.arity}")
    return SmoothMap(f.arity, tuple(_ddx(c, var) for c in f.components))


def _ddx(e: Expr, var: int) -> Expr:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == var else ZERO
    if isinstance(e, Sum):
        return sum_of([_ddx(t, var) for t in e.terms])
    if isinstance(e, Product):
        terms = []
        for i, fa in enumerate(e.factors):
            d = _ddx(fa, var)
            if isinstance(d, Const) and d.value == 0:
                continue
            terms.append(product_of([*e.factors[:i], d, *e.factors[i + 1:]]))
        return sum_of(terms)
    if isinstance(e, Pow):
        d = _ddx(e.base, var)
        return product_of([con(e.exponent), power(e.base, e.exponent - 1), d])
    if isinstance(e, Quot):
        dn, dd = _ddx(e.num, var), _ddx(e.den, var)
        num = sum_of([product_of([dn, e.den]), neg(product_of([e.num, dd]))])
        return quotient(num, power(e.den, 2))
    if isinstance(e, Call):
        outer = _derivative_of_builtin(e.name, e.arg)
        return product_of([outer, _ddx(e.arg, var)])
    raise TypeError(f"not an Expr: {e!r}")


def symbolic_derivative_expr(e: Expr, var: int) -> Expr:
    """Partial derivative of a single expression."""
    return _ddx(e, var)


@lru_cache(maxsize=512)
def jacobian_exprs(f: SmoothMap) -> tuple:
    """Matrix of partial derivative ASTs, coarity x arity, as nested
    tuples.  Memoized by value, so equal maps share one derivation."""
    cols = [symbolic_derivative(f, j) for j in range(f.arity)]
    return tuple(
        tuple(cols[j].components[i] for j in range(f.arity))
        for i in range(f.coarity)
    )


def jac_eval_batch(f: SmoothMap, X) -> np.ndarray:
    """Jacobians at a batch of points, shape (n, arity) -> (n, coarity,
    arity).  Constant entries come from the map's compiled template; only
    the others are evaluated, in row-major order."""
    X = _check_batch(f, X)
    template, live = f._jac_plan
    J = np.empty((len(X), f.coarity, f.arity))
    J[:] = template
    cols, num = list(X.T), _Floats(len(X))
    with _quiet_floats():
        for i, j, e in live:
            J[:, i, j] = _evaluate(e, cols, num)
    return J


# --------------------------------------------------------------------------
# Boxes, sampler configuration, map equality


@dataclass(frozen=True)
class Box:
    """Axis-aligned sampling domain with rational endpoints."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple(
            (Fraction(lo), Fraction(hi)) for lo, hi in self.intervals
        )
        for lo, hi in ivs:
            if lo > hi:
                raise ExprError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "intervals", ivs)

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def lo(self) -> np.ndarray:
        return np.array([float(a) for a, _ in self.intervals])

    def hi(self) -> np.ndarray:
        return np.array([float(b) for _, b in self.intervals])

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        lo, hi = self.lo(), self.hi()
        return lo + (hi - lo) * rng.random((count, self.dim))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo(), self.hi())

    def contains(self, x, slack: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= self.lo() - slack) and np.all(x <= self.hi() + slack)
        )


def cube(dim: int, lo=-2, hi=2) -> Box:
    return Box(tuple((lo, hi) for _ in range(dim)))


# the rule each CheckConfig field must meet, with the name a bundle file
# or a flag gives the field
_CONFIG_RULES = {
    "t_depth": ("depth", lambda v: 0 <= v <= 2, "must be 0..2"),
    "count": ("samples", lambda v: v >= 1, "must be at least 1"),
    "seed": ("seed", lambda v: v >= 0, "must be at least 0"),
    "tol": ("tol", lambda v: 0 < v < math.inf, "must be finite and above 0"),
}


def _config_error(field: str, value, name: str):
    """The error for a value of a CheckConfig field that breaks the
    field's rule, calling the field name; or None."""
    _, ok, rule = _CONFIG_RULES[field]
    return None if ok(value) else f"{name} {rule}, got {value}"


@dataclass(frozen=True)
class CheckConfig:
    """Sampling configuration shared by all checkers."""

    count: int = 200
    tol: float = 1e-9
    seed: int = 42
    t_depth: int = 2

    def __post_init__(self):
        for field in _CONFIG_RULES:
            bad = _config_error(field, getattr(self, field), field)
            if bad:
                raise ExprError(bad)

    def rng(self, tag: str) -> np.random.Generator:
        digest = sum(ord(c) * 31 ** i for i, c in enumerate(tag)) % (2 ** 31)
        return np.random.default_rng([self.seed, digest])


DEFAULT_CONFIG = CheckConfig()


@dataclass(frozen=True)
class EqVerdict:
    """Outcome of comparing two maps: exact proof, a refutation with a
    witness, or numeric evidence only."""

    kind: str       # "equal" | "numeric" | "not-equal" | "unknown"
    witness: tuple | None = None   # (point, lhs value, rhs value)
    max_residual: float = 0.0
    reason: str = ""

    @property
    def is_exact(self) -> bool:
        return self.kind == "equal"


def equal_maps(f, g, box: Box, cfg: CheckConfig = DEFAULT_CONFIG) -> EqVerdict:
    """Tri-state equality: canonical polynomial comparison when both
    sides are polynomial, otherwise seeded sampling over `box`."""
    if f.arity != g.arity or f.coarity != g.coarity:
        raise DimensionMismatch(
            f"equal_maps: ({f.arity}->{f.coarity}) vs ({g.arity}->{g.coarity})"
        )
    if box.dim != f.arity:
        raise DimensionMismatch("box dimension does not match map arity")
    if isinstance(f, SmoothMap) and isinstance(g, SmoothMap):
        pf, pg = _poly_forms(f), _poly_forms(g)
        if pf is not None and pg is not None:
            if pf == pg:
                return EqVerdict("equal")
            return _sampled_compare(f, g, box, cfg, polynomial_differs=True)
    return _sampled_compare(f, g, box, cfg, polynomial_differs=False)


@lru_cache(maxsize=64)
def _comparison_samples(box: Box, cfg: CheckConfig) -> np.ndarray:
    """The points of every sampled comparison over `box`, drawn once per
    (box, cfg) from the "equal_maps" stream and read-only."""
    X = box.sample(cfg.rng("equal_maps"), cfg.count)
    X.setflags(write=False)
    return X


def worst_row(gaps, tol: float):
    """The one rule for a law judged on samples, from the gap of each:
    (row, refuted, the largest gap that is a number, 0.0 for none).  The
    row with the largest gap above tol refutes the law; failing that, the
    first row whose gap is NaN leaves it open; otherwise row is None and
    the law holds."""
    gaps = np.asarray(gaps, dtype=float)
    nan = np.isnan(gaps)
    num = np.where(nan, -np.inf, gaps)
    top = float(np.max(num, initial=0.0))
    if top > tol:
        return int(np.argmax(num)), True, top
    return (int(np.argmax(nan)) if nan.any() else None), False, top


def row_gaps(lhs, rhs):
    """max |lhs - rhs| over the last axis, the gaps worst_row judges.  A
    gap that overflows or is NaN is judged there, not warned of."""
    with _quiet_floats():
        return np.max(np.abs(lhs - rhs), axis=-1)


def _sampled_compare(f, g, box, cfg, polynomial_differs):
    X = _comparison_samples(box, cfg)
    try:
        F, G = f.eval_batch(X), g.eval_batch(X)
    except ExprError as err:
        return EqVerdict("unknown", reason=f"evaluation failed: {err}")
    row, refuted, r = worst_row(row_gaps(F, G), cfg.tol)
    witness = None if row is None else (X[row].copy(), F[row].copy(),
                                        G[row].copy())
    if refuted:
        return EqVerdict("not-equal", witness=witness, max_residual=r)
    if row is not None:     # a NaN never counts as agreement
        return EqVerdict("unknown", witness=witness, max_residual=r,
                         reason=f"residual is NaN at sample {X[row].tolist()}")
    if polynomial_differs:
        return EqVerdict("unknown", max_residual=r, reason="canonical forms "
                         "differ but residual is below tolerance")
    return EqVerdict("numeric", max_residual=r,
                     reason=f"numeric pass, max residual {r:.3g}")
