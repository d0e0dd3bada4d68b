"""Built-in example corpus and the staged check-suite runner.

Every entry carries its expected outcome: positive bundles where the
whole suite passes, a counterexample whose projection degenerates, a
non-idempotent scaling morphism, and eight deliberately broken variants
used to confirm that each law actually catches its violation.  Running
an entry compares the observed outcome against the expectation, so the
corpus doubles as a self-test of the checkers.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from numpy.linalg import LinAlgError

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, ExprError, SmoothMap, Var, con,
    cube, parse_map, smooth_map,
)
from .jet import STANDARD_STRUCTS, check_all_axioms
from .bundle import (
    AdditionUnavailable, BundleMorphism, BundleSpec, check_additive_laws,
    check_morphism, check_predifferential, induce_addition,
)
from .universal import (
    check_pullback, cockett_square, combined_square, rosicky_square,
    strong_square,
)
from .splitting import biproduct_check, check_splitting, chi_checks, \
    non_idempotent_demo
from .vb import VectorBundleSpec, check_module_laws, psi, roundtrip_check
from .report import CheckReport, LawResult, Verdict

__all__ = [
    "CorpusEntry", "CorpusResult", "UnknownCorpusEntry", "SUITE_ORDER",
    "trivial_bundle", "tangent_bundle", "conjugated_bundle", "bump_bundle",
    "run_suites", "corpus_list", "corpus_entry", "corpus_run",
    "corpus_run_all",
]


class UnknownCorpusEntry(ExprError):
    pass


# --------------------------------------------------------------------------
# Bundle builders


def trivial_bundle(k: int, n: int) -> BundleSpec:
    """Product bundle (m, a) over m with fibre dimension n."""
    d = k + n
    base = [Var(i) for i in range(k)]
    fib = [Var(k + j) for j in range(n)]
    zeros = [con(0)] * n
    return BundleSpec(
        name=f"trivial_{k}_{n}", base_dim=k, total_dim=d,
        base_box=cube(k), total_box=cube(d),
        q=smooth_map(d, base),
        xi=smooth_map(k, [Var(i) for i in range(k)] + zeros),
        lam=smooth_map(d, base + zeros + [con(0)] * k + fib),
        add=smooth_map(2 * d, base + [Var(k + j) + Var(d + k + j)
                                      for j in range(n)]),
        scalar=smooth_map(1 + d, [Var(1 + i) for i in range(k)]
                          + [Var(0) * Var(1 + k + j) for j in range(n)]),
    )


def tangent_bundle(k: int) -> BundleSpec:
    """The tangent space of the k-dimensional chart, as a bundle over
    it, with the canonical lift."""
    spec = trivial_bundle(k, k)
    return dataclasses.replace(spec, name=f"tangent_bundle_{k}")


def conjugated_bundle() -> BundleSpec:
    """Trivial line bundle transported along (m, a) -> (m, a + m^2).

    The zero section is the parabola, and every structure map picks up
    correction terms; everything stays polynomial so each law can still
    be settled exactly.
    """
    return BundleSpec(
        name="conjugated_1_1", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2, -6, 6),
        q=parse_map("x0", 2),
        xi=parse_map("x0, x0^2", 1),
        lam=parse_map("x0, x0^2, 0, x1 - x0^2", 2),
        add=parse_map("x0, x1 + x3 - x0^2", 4),
        scalar=parse_map("x1, x0*x2 + x1^2 - x0*x1^2", 3),
    )


def bump_bundle() -> BundleSpec:
    """Projection that degenerates along a seam: away from the seam it
    is the coordinate projection, past it the cube of the coordinate,
    and at the blend point (0, 1) the derivative vanishes."""
    qsrc = "(1 - bump(x1))*x0 + bump(x1)*x0^3"
    return BundleSpec(
        name="bump_counterexample", base_dim=1, total_dim=2,
        base_box=cube(1),
        total_box=Box(((Fraction(-2), Fraction(2)),
                       (Fraction(-2), Fraction(1)))),
        q=parse_map(qsrc, 2),
        xi=parse_map("x0, 0", 1),
        lam=parse_map(qsrc + ", 0, 0, x1", 2),
    )


# --------------------------------------------------------------------------
# Staged suite runner shared with the command line


SUITE_ORDER = ("pre", "rosicky", "addition", "cockett", "strong",
               "combined", "split", "vb")


def _suite_note(title: str, verdict: Verdict, reason: str) -> CheckReport:
    rep = CheckReport(title)
    rep.add(LawResult("suite", "suite prerequisites", verdict, note=reason))
    return rep


def _after_rosicky(ros, cfg) -> tuple:
    """(config, provenance) for the cockett and strong squares.  The four
    squares state one property, the universality of the lift (Cockett &
    Cruttwell, Cahiers LIX, 2018), so once rosicky has passed at full
    depth they run at depth 0 as a consistency check.  After an unknown,
    a failure or no rosicky verdict they run at full depth."""
    if ros is None or not ros.ok:
        return cfg, None
    return dataclasses.replace(cfg, t_depth=0), {
        "consistency_check": f"depth 0, after rosicky passed at depth "
                             f"{ros.depth_checked}"}


def _merge(title: str, *parts, prefixes=None, provenance=None) -> CheckReport:
    """The entries of parts under one title, each law id after its part's
    prefix, each provenance extended by `provenance`."""
    rep = CheckReport(title)
    for idx, part in enumerate(parts):
        pre = prefixes[idx] if prefixes else ""
        for e in part.entries:
            rep.add(dataclasses.replace(e, law_id=pre + e.law_id, provenance={
                **e.provenance, **(provenance or {})}))
    return rep


def _vector_spec_of(spec: BundleSpec) -> VectorBundleSpec | None:
    if spec.add is None or spec.scalar is None:
        return None
    if not isinstance(spec.add, SmoothMap) \
            or not isinstance(spec.scalar, SmoothMap):
        return None
    return VectorBundleSpec(
        name=f"{spec.name}:vector", base_dim=spec.base_dim,
        total_dim=spec.total_dim, base_box=spec.base_box,
        total_box=spec.total_box, q=spec.q, xi=spec.xi,
        add=spec.add, scalar=spec.scalar)


def run_suites(obj, cfg: CheckConfig = DEFAULT_CONFIG, suite: str = "all",
               force: bool = False) -> dict:
    """Run the check suites in dependency order and return one report
    per suite id.

    The order is fixed: pre, rosicky, addition, cockett, strong,
    combined, split, vb.  Selecting a single suite runs the chain up to
    it.  A failing suite makes the later ones come back as skipped,
    unless force is set, in which case they run anyway and the caller
    is expected to mark them untrusted.  After a rosicky pass, cockett
    and strong run at depth 0 only.  For a bundle that declares an
    addition and a scalar action, the vb suite reports their module laws
    and translates that structure only when they pass.
    """
    if suite != "all" and suite not in SUITE_ORDER:
        raise UnknownCorpusEntry(f"unknown suite {suite!r}")
    order = SUITE_ORDER if suite == "all" \
        else SUITE_ORDER[:SUITE_ORDER.index(suite) + 1]

    if isinstance(obj, VectorBundleSpec):
        return _run_vector(obj, cfg, order, force)
    return _run_bundle(obj, cfg, order, force)


def _run_bundle(spec: BundleSpec, cfg, order, force,
                module_report=None, vector_override=None) -> dict:
    out = {}
    ros = strong = add = None
    failed_at = None

    for sid in order:
        title = f"{spec.name}: {sid}"
        if failed_at is not None and not force:
            out[sid] = _suite_note(title, Verdict.SKIPPED,
                                   f"prerequisite suite {failed_at!r} failed")
            continue

        try:
            if sid == "pre":
                rep = module_report if module_report is not None \
                    else check_predifferential(spec, cfg)
            elif sid == "rosicky":
                ros = check_pullback(rosicky_square(spec), cfg)
                rep = _merge(title, ros)
            elif sid == "addition":
                try:
                    add = induce_addition(spec, ros)
                    rep = check_additive_laws(
                        spec, add, cfg, declared=spec.add,
                        hypotheses=(out["pre"], out["rosicky"]))
                except AdditionUnavailable as exc:
                    rep = CheckReport(title, [exc.law(
                        "addition-available", "suite prerequisites")])
            elif sid == "cockett":
                if add is None:
                    rep = _suite_note(title, Verdict.SKIPPED,
                                      "no induced addition to test against")
                else:
                    square_cfg, prov = _after_rosicky(ros, cfg)
                    pv = check_pullback(cockett_square(spec, add), square_cfg)
                    rep = _merge(title, pv, provenance=prov)
            elif sid == "strong":
                square_cfg, prov = _after_rosicky(ros, cfg)
                strong = check_pullback(strong_square(spec), square_cfg)
                rep = _merge(title, strong, provenance=prov)
            elif sid == "combined":
                rep = _merge(title,
                             check_pullback(combined_square(spec), cfg))
            elif sid == "split":
                rep = _merge(title, chi_checks(spec, cfg),
                             check_splitting(spec, cfg, universality=ros),
                             biproduct_check(spec, cfg, universality=strong))
            else:  # vb
                parts = [roundtrip_check(spec, cfg, universality=ros)]
                vec = vector_override if vector_override is not None \
                    else _vector_spec_of(spec)
                if vec is not None:
                    # a vector file's module laws are its pre suite
                    laws = module_report
                    if laws is None:
                        laws = check_module_laws(vec, cfg)
                        parts.append(laws)
                    parts.append(
                        roundtrip_check(vec, cfg, universality=ros)
                        if laws.ok else _suite_note(
                            title, Verdict.SKIPPED,
                            f"module laws read {laws.aggregate.value}, so "
                            "the declared structure is not translated"))
                rep = _merge(title, *parts, prefixes=["db.", "vb.", "vb."])
        except (ExprError, LinAlgError) as exc:
            rep = _suite_note(title, Verdict.UNKNOWN,
                              f"{type(exc).__name__}: {exc}")

        out[sid] = rep
        if failed_at is None and rep.aggregate is Verdict.FAIL:
            failed_at = sid
    return out


def _run_vector(vb: VectorBundleSpec, cfg, order, force) -> dict:
    """For a vector bundle the pre suite is the module laws; the rest of
    the chain runs on the generated lift; what raises is unknown."""
    out = {}
    try:
        out["pre"] = module = check_module_laws(vb, cfg)
        if module.aggregate is Verdict.FAIL and not force:
            for sid in order[1:]:
                out[sid] = _suite_note(f"{vb.name}: {sid}", Verdict.SKIPPED,
                                       "prerequisite suite 'pre' failed")
            return out
        db = psi(vb)
    except (ExprError, LinAlgError) as exc:
        note = f"{type(exc).__name__}: {exc}"
        for sid in order[len(out):]:      # every suite not yet reported
            out[sid] = _suite_note(f"{vb.name}: {sid}", Verdict.UNKNOWN, note)
        return out
    return _run_bundle(db, cfg, order, force,
                       module_report=module, vector_override=vb)


# --------------------------------------------------------------------------
# Corpus entries


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str                     # "bundle" | "vector" | "demo" | "mutant"
    note: str
    expected: str                 # "pass" | "fail"
    runner: Callable
    build: Callable | None = None
    expected_failed: frozenset | None = None
    intended: str | None = None


@dataclass(frozen=True)
class CorpusResult:
    name: str
    expected: str
    aggregate: Verdict
    failed_laws: tuple
    expectation_met: bool
    reports: dict
    seconds: float

    def describe(self) -> str:
        head = (f"{self.name}: {self.aggregate.value} "
                f"(expected {self.expected}, "
                f"{'met' if self.expectation_met else 'NOT MET'}, "
                f"{self.seconds:.1f}s)")
        return "\n".join([head] + [r.describe() for r in
                                   self.reports.values()])


def _full_suite(build):
    def run(cfg):
        return run_suites(build(), cfg, "all")
    return run


def _single(sid, make_report):
    def run(cfg):
        return {sid: make_report(cfg)}
    return run


# Broken variants.  Each mutates one structure map of a passing bundle;
# the expected failing laws are fixed by hand from the algebra and the
# harness refuses to pass if extra laws trip or the intended one does
# not.


def _mutant_pre(name, note, intended, expected_failed, **overrides):
    def build():
        return dataclasses.replace(trivial_bundle(1, 1), name=name,
                                   **overrides)
    return CorpusEntry(
        name=name, kind="mutant", note=note, expected="fail",
        runner=_single("pre", lambda cfg: check_predifferential(build(),
                                                                cfg)),
        build=build, expected_failed=frozenset(expected_failed),
        intended=intended)


_TWISTED_ADD = parse_map("x0, x1 + x5, x2 + x6, x3 + x7 + x1*x6", 8)


def _twisted_add_spec() -> BundleSpec:
    return dataclasses.replace(trivial_bundle(1, 3),
                               name="mutant_add_twisted",
                               add=_TWISTED_ADD)


def _quadratic_scalar_vb() -> VectorBundleSpec:
    return VectorBundleSpec(
        name="mutant_scalar_quadratic", base_dim=1, total_dim=2,
        base_box=cube(1), total_box=cube(2),
        q=parse_map("x0", 2), xi=parse_map("x0, 0", 1),
        add=parse_map("x0, x1 + x3", 4),
        scalar=parse_map("x1, x0^2*x2", 3))


def _shift_morphism() -> BundleMorphism:
    triv = trivial_bundle(1, 1)
    return BundleMorphism(triv, triv, parse_map("x0, x1 + 1", 2))


def _broken_lift_formula(k: int) -> SmoothMap:
    # (x, v) -> (x, 0, v, v): the tangent part leaks into the wrong slot.
    xs = [Var(i) for i in range(k)]
    vs = [Var(k + i) for i in range(k)]
    return smooth_map(2 * k, xs + [con(0)] * k + vs + vs)


def _morphism_report(cfg) -> CheckReport:
    mor = _shift_morphism()
    triv_add = mor.source.add
    return check_morphism(mor, cfg, source_add=triv_add,
                          target_add=triv_add)


def _axiom_mutant_report(cfg) -> CheckReport:
    structs = {**STANDARD_STRUCTS, "lift": _broken_lift_formula}
    return check_all_axioms((1,), structs, cfg)


def _entries() -> list:
    positives = [
        ("trivial_1_1", lambda: trivial_bundle(1, 1),
         "product line bundle"),
        ("trivial_2_3", lambda: trivial_bundle(2, 3),
         "product bundle, plane base and three fibre directions"),
        ("tangent_bundle_1", lambda: tangent_bundle(1),
         "tangent space of the line with the canonical lift"),
        ("tangent_bundle_2", lambda: tangent_bundle(2),
         "tangent space of the plane with the canonical lift"),
        ("conjugated_1_1", lambda: conjugated_bundle(),
         "line bundle transported along a parabolic chart change"),
    ]
    entries = [
        CorpusEntry(name=name, kind="bundle", note=note, expected="pass",
                    runner=_full_suite(build), build=build)
        for name, build, note in positives
    ]
    entries.append(CorpusEntry(
        name="bump_counterexample", kind="bundle",
        note="structural laws hold but the projection is not a "
             "submersion, so every universality square fails",
        expected="fail", runner=_full_suite(bump_bundle),
        build=bump_bundle))
    entries.append(CorpusEntry(
        name="scaling_morphism_nonidempotent", kind="demo",
        note="(x, r) -> (x, rx) is a bundle morphism whose base-fixed "
             "idempotent candidate is not idempotent; no splitting",
        expected="pass",
        runner=_single("demo", lambda cfg: non_idempotent_demo(cfg))))

    entries.append(_mutant_pre(
        "mutant_xi_shift",
        "zero section displaced off the actual zeros of the lift",
        "pre-3", {"pre-3", "pre-4"},
        xi=parse_map("x0, 1", 1)))
    entries.append(_mutant_pre(
        "mutant_lambda_offset",
        "lift translated by a constant in the jet slot",
        "pre-4", {"pre-2", "pre-4"},
        lam=parse_map("x0, 0, 0, x1 + 1", 2)))
    entries.append(_mutant_pre(
        "mutant_lift_coalgebra",
        "lift writes the fibre into a first-order slot, breaking only "
        "the coassociativity law",
        "pre-2", {"pre-2"},
        lam=parse_map("x0, 0, x1, x1", 2)))
    entries.append(_mutant_pre(
        "mutant_q_cube",
        "projection cubed, so the section is no longer a section",
        "pre-1", {"pre-1", "pre-3"},
        q=parse_map("x0^3", 2)))

    entries.append(CorpusEntry(
        name="mutant_add_twisted", kind="mutant",
        note="fibre sum with a bilinear twist: associative and unital "
             "but not commutative",
        expected="fail",
        runner=_single("addition", lambda cfg: check_additive_laws(
            trivial_bundle(1, 3), _TWISTED_ADD, cfg)),
        build=_twisted_add_spec,
        expected_failed=frozenset({"add-comm"}), intended="add-comm"))
    entries.append(CorpusEntry(
        name="mutant_scalar_quadratic", kind="mutant",
        note="action by the square of the scalar: unital, associative, "
             "but scalar sums stop matching fibre sums",
        expected="fail",
        runner=_single("module", lambda cfg: check_module_laws(
            _quadratic_scalar_vb(), cfg)),
        build=_quadratic_scalar_vb,
        expected_failed=frozenset({"scalar-scalar-distrib"}),
        intended="scalar-scalar-distrib"))
    entries.append(CorpusEntry(
        name="mutant_morphism_shift", kind="mutant",
        note="fibre translation by one: base-compatible but neither "
             "lift-compatible nor additive",
        expected="fail", runner=_single("morphism", _morphism_report),
        expected_failed=frozenset({"mor-lift", "mor-add"}),
        intended="mor-lift"))
    entries.append(CorpusEntry(
        name="mutant_flip_lift", kind="mutant",
        note="global lift replaced by (x, v) -> (x, 0, v, v); the flip "
             "no longer fixes it",
        expected="fail", runner=_single("axioms", _axiom_mutant_report),
        expected_failed=frozenset({"lift-add@k=1", "flip-lift@k=1",
                                   "lift-coassoc@k=1"}),
        intended="flip-lift@k=1"))
    return entries


_ENTRIES = None


def corpus_list() -> list:
    global _ENTRIES
    if _ENTRIES is None:
        _ENTRIES = _entries()
    return list(_ENTRIES)


def corpus_entry(name: str) -> CorpusEntry:
    for entry in corpus_list():
        if entry.name == name:
            return entry
    known = ", ".join(e.name for e in corpus_list())
    raise UnknownCorpusEntry(f"unknown corpus entry {name!r}; "
                             f"known entries: {known}")


def corpus_run(name: str, cfg: CheckConfig = DEFAULT_CONFIG) -> CorpusResult:
    """Run one corpus entry and compare the outcome with its
    expectation."""
    entry = corpus_entry(name)
    t0 = time.perf_counter()
    reports = entry.runner(cfg)
    seconds = time.perf_counter() - t0

    failed = set()
    verdicts = []
    for rep in reports.values():
        for e in rep.entries:
            verdicts.append(e.verdict)
            if e.verdict is Verdict.FAIL:
                failed.add(e.law_id)
    aggregate = Verdict.reduce(verdicts)
    met = aggregate.ok == (entry.expected == "pass")
    if entry.expected_failed is not None:
        met = met and failed == set(entry.expected_failed)
        if entry.intended is not None:
            met = met and entry.intended in failed
    return CorpusResult(
        name=entry.name, expected=entry.expected, aggregate=aggregate,
        failed_laws=tuple(sorted(failed)), expectation_met=met,
        reports=reports, seconds=seconds)


def corpus_run_all(cfg: CheckConfig = DEFAULT_CONFIG) -> list:
    return [corpus_run(entry.name, cfg) for entry in corpus_list()]
