"""Workload inputs and their known answers.

A workload is a list of items.  Each item makes one call into tanbun
(`call`, the part that is timed) and then compares what came back with
an answer fixed in advance (`judge`, untimed).  Known answers are written
by hand or follow from how the input was built; none is taken from
tanbun's own output.

Every input is derived from the seed with `random.Random(seed)`, so the
same seed gives the same inputs on any machine.  Draws are stratified
(one draw per equal-width slice of the range) so that the cost of a pass
barely depends on the seed.

Workloads:

* ``corpus``: the 15 built-in corpus entries against their recorded
  expectations.
* ``implicit``: bundle files whose lift ``x1 + c*x1^3`` is not affine,
  run through ``tanbun check``; each must pass with exit code 0.
* ``refute``: many small inputs that must fail exactly the laws their
  corruption breaks, or pass exactly.

The seam counterexamples (``seam_text``) are in no workload: the rosicky
check misses the rank collapse of some of them, a known false pass that
the benchmark's tests pin.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("corpus", "implicit", "refute")

# Pass sizes, for 30-second runs on a 2-CPU machine: a corpus or
# implicit pass takes about 20 s, so a run makes one; a refute pass takes
# about 2 s, so a run makes about fourteen.  Implicit files differ in cost
# with c and with the seed, so a pass takes many of them.
IMPLICIT_FILES = 14
IMPLICIT_C_RANGE = (Fraction(1, 4), Fraction(1))
REFUTE_BUNDLES_PER_KIND = 60
CATALOG_DIMS = (1, 2, 3)


@dataclass
class Item:
    """One closed-loop request: `call()` is timed; `judge(result)` returns
    (canonical outcome, failure reason or None)."""

    name: str
    call: Callable
    judge: Callable


@dataclass
class Outcome:
    name: str
    seconds: float
    canonical: object
    error: str | None


def run_item(item: Item, clock) -> Outcome:
    """Run one item; an exception is a failed item, never a dropped one."""
    t0 = clock()
    try:
        result = item.call()
    except Exception as exc:  # the item fails, the workload goes on
        seconds = clock() - t0
        reason = f"raised {type(exc).__name__}: {exc}"
        return Outcome(item.name, seconds, {"raised": reason}, reason)
    seconds = clock() - t0
    canonical, error = item.judge(result)
    return Outcome(item.name, seconds, canonical, error)


def report_digest(outcomes) -> str:
    """sha256 of the canonical outcomes of one pass, in item order."""
    payload = json.dumps([[o.name, o.canonical] for o in outcomes],
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# Canonical reports: every field of every law, timings left out.


def plain(obj):
    """JSON-ready copy of a report value (numpy, Fraction and enums
    included); floats keep every digit."""
    if hasattr(obj, "tolist"):
        return plain(obj.tolist())
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def law_dict(e) -> dict:
    return {"law": e.law_id, "anchor": e.anchor,
            "verdict": e.verdict.value,
            "max_residual": float(e.max_residual),
            "witness": plain(e.witness), "note": e.note,
            "provenance": plain(e.provenance)}


def reports_dict(reports: dict) -> dict:
    return {sid: [law_dict(e) for e in rep.entries]
            for sid, rep in reports.items()}


# --------------------------------------------------------------------------
# corpus


def corpus_items(seed: int) -> list:
    import tanbun

    cfg = tanbun.CheckConfig(seed=seed)
    return [_corpus_item(entry, cfg) for entry in tanbun.corpus_list()]


def _corpus_item(entry, cfg) -> Item:
    import tanbun

    def judge(res):
        failed = set(res.failed_laws)
        canonical = {"aggregate": res.aggregate.value,
                     "failed_laws": sorted(failed),
                     "expectation_met": res.expectation_met,
                     "reports": reports_dict(res.reports)}
        agg = res.aggregate.value
        if agg == "unknown":
            return canonical, "came back unknown"
        if entry.expected == "pass" and agg not in ("pass", "pass-exact"):
            return canonical, f"expected pass, got {agg}"
        if entry.expected == "fail" and agg != "fail":
            return canonical, f"expected fail, got {agg}"
        if entry.expected_failed is not None \
                and failed != set(entry.expected_failed):
            return canonical, (f"failed {sorted(failed)}, expected "
                               f"{sorted(entry.expected_failed)}")
        return canonical, None

    return Item(entry.name, lambda: tanbun.corpus_run(entry.name, cfg),
                judge)


# --------------------------------------------------------------------------
# implicit: non-affine lifts through the command line


def _stratified(rng: random.Random, lo: Fraction, hi: Fraction,
                n: int) -> list:
    """One exact rational per slice [lo + i*w, lo + (i+1)*w) with w the
    slice width; the order of the slices is shuffled."""
    width = (hi - lo) / n
    out = [lo + width * (i + Fraction(rng.randrange(1000), 1000))
           for i in range(n)]
    rng.shuffle(out)
    return out


def _frac(c: Fraction) -> str:
    return f"({c.numerator}/{c.denominator})"


def implicit_texts(seed: int, files: int = IMPLICIT_FILES) -> list:
    """(file name, text) pairs.  The lift is lambda = (x0, 0, 0,
    x1 + c*x1^3) with c > 0: the product line bundle carried along the
    fibre diffeomorphism (m, a) -> (m, a + c*a^3).  The lift is not
    affine in the fibre, so the checker goes through its Newton-defined
    maps.  Known answer: aggregate pass, exit code 0."""
    rng = random.Random(f"implicit:{seed}")
    lo, hi = IMPLICIT_C_RANGE
    out = []
    for i, c in enumerate(_stratified(rng, lo, hi, files)):
        text = "\n".join([
            f"# non-affine lift, c = {c}",
            f"name = implicit_{i:02d}",
            "kind = bundle",
            "base_dim = 1",
            "total_dim = 2",
            "base_box = -2..2",
            "total_box = -2..2, -2..2",
            "q = x0",
            "xi = x0, 0",
            f"lambda = x0, 0, 0, x1 + {_frac(c)}*x1^3",
            "samples = 20",
            "depth = 1",
            "",
        ])
        out.append((f"implicit_{i:02d}.txt", text))
    return out


def write_implicit_files(seed: int, workdir: str) -> list:
    os.makedirs(workdir, exist_ok=True)
    paths = []
    for fname, text in implicit_texts(seed):
        path = os.path.join(workdir, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths


def implicit_items(seed: int, paths: list) -> list:
    return [_implicit_item(path, seed) for path in paths]


def _implicit_item(path: str, seed: int) -> Item:
    import tanbun.cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tanbun.cli.main(["check", path, "--seed", str(seed),
                         "--format", "json"])
        return code, buf.getvalue()

    def judge(result):
        code, text = result
        try:
            report = json.loads(text)
        except ValueError:
            return {"exit": code, "stdout": text}, "stdout is not JSON"
        report.pop("wall_clock_s", None)
        report["source"] = os.path.basename(report.get("source", ""))
        canonical = {"exit": code, "report": report}
        if code != 0 or report.get("aggregate") not in ("pass",
                                                        "pass-exact"):
            return canonical, (f"expected pass with exit 0, got "
                               f"{report.get('aggregate')} exit {code}")
        return canonical, None

    return Item(os.path.basename(path), call, judge)


# --------------------------------------------------------------------------
# refute: chart-changed mutants and the identity catalog; seams apart


def _quadratic(rng: random.Random) -> tuple:
    """beta(m) = a*m^2 + b*m + c, coefficients in quarters of [-1, 1]."""
    return tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(3))


def _beta_src(coef) -> str:
    a, b, c = (_frac(v) for v in coef)
    return f"{a}*x0^2 + {b}*x0 + {c}"


def _dbeta_src(coef) -> str:
    a, b, _ = (_frac(v) for v in coef)
    return f"2*{a}*x0 + {b}"


# The product line bundle is (q, xi, lambda) = (x0, (x0, 0),
# (x0, 0, 0, x1)).  The chart change phi(m, a) = (m, a + beta(m)) carries
# it, and any corruption of it, to an isomorphic presentation, so every
# law keeps its verdict.  The corruptions are the corpus mutants', so the
# failing law sets are theirs.
MUTANT_KINDS = {
    # kind: expected failing laws among pre-1 .. pre-4
    "clean": frozenset(),
    "xi_shift": frozenset({"pre-3", "pre-4"}),
    "lambda_offset": frozenset({"pre-2", "pre-4"}),
    "lift_coalgebra": frozenset({"pre-2"}),
    "q_cube": frozenset({"pre-1", "pre-3"}),
}


def mutant_text(kind: str, coef, name: str) -> str:
    beta = _beta_src(coef)
    q, xi, lam = "x0", f"x0, {beta}", f"x0, {beta}, 0, x1 - ({beta})"
    if kind == "xi_shift":           # phi of xi = (x0, 1)
        xi = f"x0, {beta} + 1"
    elif kind == "lambda_offset":    # T(phi) of lambda = (x0, 0, 0, x1 + 1)
        lam = f"x0, {beta}, 0, x1 - ({beta}) + 1"
    elif kind == "lift_coalgebra":   # T(phi) of lambda = (x0, 0, x1, x1)
        t = f"(x1 - ({beta}))"
        lam = f"x0, {beta}, {t}, (1 + {_dbeta_src(coef)})*{t}"
    elif kind == "q_cube":           # q = x0^3 is unchanged by phi
        q = "x0^3"
    elif kind != "clean":
        raise ValueError(f"unknown mutant kind {kind!r}")
    return "\n".join([f"name = {name}", "base_dim = 1", "total_dim = 2",
                      "base_box = -2..2", "total_box = -2..2, -8..8",
                      f"q = {q}", f"xi = {xi}", f"lambda = {lam}", ""])


def seam_text(s: Fraction, name: str) -> str:
    """The bump counterexample with its seam moved to x1 = 1 + s.  With
    s >= 0 the zero section stays in the region where q = x0, so the
    structural laws hold; the projection's derivative still vanishes at
    (0, 1 + s), so the rosicky square fails on rank."""
    sh = _frac(s)
    q = f"(1 - bump(x1 - {sh}))*x0 + bump(x1 - {sh})*x0^3"
    return "\n".join([f"name = {name}", "base_dim = 1", "total_dim = 2",
                      "base_box = -2..2", f"total_box = -2..2, -2..{1 + s}",
                      f"q = {q}", "xi = x0, 0", f"lambda = {q}, 0, 0, x1",
                      ""])


def refute_inputs(seed: int) -> list:
    """(kind, name, payload) triples in a seeded order: bundle texts for
    the mutants, base dimensions for the catalog."""
    rng = random.Random(f"refute:{seed}")
    out = []
    for kind in MUTANT_KINDS:
        for i in range(REFUTE_BUNDLES_PER_KIND):
            name = f"{kind}_{i:02d}"
            out.append((kind, name, mutant_text(kind, _quadratic(rng), name)))
    for k in CATALOG_DIMS:
        out.append(("catalog", f"catalog_k{k}", k))
    rng.shuffle(out)
    return out



def refute_items(seed: int, inputs: list) -> list:
    import tanbun

    cfg = tanbun.CheckConfig(seed=seed)
    return [_refute_item(kind, name, payload, cfg)
            for kind, name, payload in inputs]


def _refute_item(kind: str, name: str, payload, cfg) -> Item:
    # Calls go through module attributes, looked up at call time, so that
    # a traced run sees them.
    import tanbun
    import tanbun.cli

    if kind == "catalog":
        expected_ids = {f"{a}@k={payload}" for a in tanbun.axiom_ids()}

        def call():
            return {"catalog": tanbun.check_all_axioms((payload,), cfg=cfg)}

        def judge(reports):
            rep = reports["catalog"]
            ids = {e.law_id for e in rep.entries}
            bad = [e.law_id for e in rep.entries
                   if e.verdict.value != "pass-exact"]
            if ids != expected_ids or bad:
                return reports_dict(reports), (
                    f"expected exact passes of {sorted(expected_ids)}, got "
                    f"laws {sorted(ids)}, not exact: {sorted(bad)}")
            return reports_dict(reports), None

        return Item(name, call, judge)

    if kind == "seam":
        def call():
            spec, _ = tanbun.cli.parse_bundle_file(payload, source=name)
            return tanbun.run_suites(spec, cfg, "rosicky")

        def judge(reports):
            canonical = reports_dict(reports)
            pre = reports["pre"].aggregate.value
            failed = {e.law_id for e in reports["rosicky"].entries
                      if e.verdict.value == "fail"}
            if pre not in ("pass", "pass-exact") or failed != {"rank"}:
                return canonical, (f"expected pre pass and rosicky rank "
                                   f"failure, got pre {pre}, rosicky failed "
                                   f"{sorted(failed)}")
            if any(e.verdict.value == "unknown"
                   for rep in reports.values() for e in rep.entries):
                return canonical, "a law came back unknown"
            return canonical, None

        return Item(name, call, judge)

    expected = MUTANT_KINDS[kind]

    def call():
        spec, _ = tanbun.cli.parse_bundle_file(payload, source=name)
        return {"pre": tanbun.check_predifferential(spec, cfg)}

    def judge(reports):
        canonical = reports_dict(reports)
        verdicts = {e.law_id: e.verdict.value
                    for e in reports["pre"].entries}
        failed = {law for law, v in verdicts.items() if v == "fail"}
        inexact = {law for law, v in verdicts.items()
                   if law not in expected and v != "pass-exact"}
        if failed != expected or inexact:
            return canonical, (f"expected exactly {sorted(expected)} to "
                               f"fail and the rest to pass exactly, got "
                               f"{verdicts}")
        return canonical, None

    return Item(name, call, judge)


# --------------------------------------------------------------------------
# Set-up: everything a workload needs before its first timed call.


def build(workload: str, seed: int, workdir: str) -> list:
    if workload == "corpus":
        return corpus_items(seed)
    if workload == "implicit":
        return implicit_items(seed, write_implicit_files(seed, workdir))
    if workload == "refute":
        return refute_items(seed, refute_inputs(seed))
    raise ValueError(f"unknown workload {workload!r}")
