"""End-to-end acceptance gate.

Each test here certifies one release criterion on the built-in corpus,
at default settings unless the criterion itself names a budget.  Run
with -v for one verdict line per criterion.
"""

import time

import numpy as np
import pytest

from tanbun.expr import (
    CheckConfig, DEFAULT_CONFIG, cube, eval_batch, jac_eval_batch,
    parse_map,
)
from tanbun.jet import JetPoint, STANDARD_STRUCTS, check_all_axioms, pushforward
from tanbun.bundle import BundleSpec, Verdict
from tanbun.submersion import is_submersion_on, jacobian
from tanbun.universal import cross_check_equivalence
from tanbun.vb import morphism_transport_check, transport_demo_morphisms
from tanbun.corpus import bump_bundle, corpus_entry

POSITIVES = ("trivial_1_1", "trivial_2_3", "tangent_bundle_1",
             "tangent_bundle_2", "conjugated_1_1")
MUTANTS = ("mutant_xi_shift", "mutant_lambda_offset",
           "mutant_lift_coalgebra", "mutant_q_cube", "mutant_add_twisted",
           "mutant_scalar_quadratic", "mutant_morphism_shift",
           "mutant_flip_lift")
SQUARE_SUITES = ("rosicky", "cockett", "strong", "combined")


@pytest.fixture(scope="module")
def bump_squares():
    return cross_check_equivalence(bump_bundle(),
                                   CheckConfig(count=60, seed=42))


def test_criterion_01_axiom_catalog_exact_on_dims_one_to_three():
    t0 = time.time()
    rep = check_all_axioms((1, 2, 3), STANDARD_STRUCTS, DEFAULT_CONFIG)
    elapsed = time.time() - t0
    assert len(rep.entries) == 42
    not_exact = [e.law_id for e in rep.entries
                 if e.verdict is not Verdict.PASS_EXACT]
    assert not_exact == []
    assert elapsed < 10.0


def test_criterion_02_derivative_paths_agree_on_generated_maps():
    rng = np.random.default_rng(20260823)

    def gen_component(n_in):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            c = int(rng.integers(-3, 4)) or 1
            degs = rng.integers(0, 4, n_in)
            if degs.sum() == 0:
                degs[rng.integers(0, n_in)] = 1
            parts = [f"x{i}^{d}" if d > 1 else f"x{i}"
                     for i, d in enumerate(degs) if d > 0]
            terms.append(f"{c}*" + "*".join(parts))
        kind = int(rng.integers(0, 4))
        i = int(rng.integers(0, n_in))
        c = int(rng.integers(-3, 4)) or 2
        # sampling stays in [-1.5, 1.5], keeping the blend argument
        # safely inside its smooth transition zone
        extra = (f"{c}*sin(2*x{i})", f"{c}*cos(x{i} - 1)",
                 f"{c}*exp(1/2*x{i})", f"{c}*bump(1/4*x{i} + 1/2)")[kind]
        return " + ".join(terms + [extra])

    worst = 0.0
    for _ in range(50):
        n_in = int(rng.integers(1, 4))
        n_out = int(rng.integers(1, 3))
        f = parse_map(", ".join(gen_component(n_in)
                                for _ in range(n_out)), n_in)
        X = rng.uniform(-1.5, 1.5, (100, n_in))
        J_sym = jac_eval_batch(f, X)
        h = 1e-5
        J_fd = np.empty_like(J_sym)
        J_jet = np.empty_like(J_sym)
        for j in range(n_in):
            e = np.zeros(n_in)
            e[j] = h
            J_fd[:, :, j] = (eval_batch(f, X + e)
                             - eval_batch(f, X - e)) / (2 * h)
        for p in range(X.shape[0]):
            for j in range(n_in):
                v = np.zeros(n_in)
                v[j] = 1.0
                jp = JetPoint(1, n_in, np.stack([X[p], v]))
                J_jet[p, :, j] = pushforward(f, 1, jp).blocks[1]
        scale = np.maximum(1.0, np.abs(J_sym))
        worst = max(worst,
                    (np.abs(J_sym - J_fd) / scale).max(),
                    (np.abs(J_sym - J_jet) / scale).max(),
                    (np.abs(J_jet - J_fd) / scale).max())
    assert worst <= 1e-5, f"worst relative disagreement {worst:.3e}"


def test_criterion_03_positive_corpus_passes_the_full_suite(corpus):
    results, _ = corpus
    for name in POSITIVES:
        res = results[name]
        assert res.expectation_met, name
        reports = res.reports
        assert reports["pre"].aggregate is Verdict.PASS_EXACT, name
        for suite in SQUARE_SUITES:
            assert reports[suite].ok, (name, suite)
        declared = reports["addition"]["add-declared"]
        assert declared.verdict.ok and declared.max_residual <= 1e-9, name
        for law in ("retract-identity", "section-image"):
            entry = reports["split"][law]
            assert entry.verdict.ok and entry.max_residual <= 1e-9, \
                (name, law)
        for law in ("pi0-iota0", "pi1-iota0", "pi0-iota1", "pi1-iota1",
                    "idempotent-split"):
            assert reports["split"][law].verdict is Verdict.PASS_EXACT, \
                (name, law)
        assert reports["vb"].ok, name


def test_criterion_04_counterexample_end_to_end(corpus, bump_squares):
    results, _ = corpus
    res = results["bump_counterexample"]
    assert res.expectation_met

    # lawful as far as the four structural equations go
    pre = res.reports["pre"]
    assert pre.ok
    for entry in pre.entries:
        assert entry.max_residual <= 1e-9, entry.law_id

    # yet its projection is not a submersion, pinned to the seam
    bump = bump_bundle()
    sub = is_submersion_on(bump.q, bump.total_box, DEFAULT_CONFIG)
    assert sub.verdict is Verdict.FAIL
    (w,) = sub.witness
    assert abs(w[0]) <= 1e-3 and abs(w[1] - 1.0) <= 1e-3
    J = jacobian(bump.q, np.asarray(w, dtype=float)).matrix
    assert np.linalg.norm(J) <= 1e-10

    # and every universality square fails with it
    verdicts = {e.law_id: e.verdict for e in bump_squares.entries}
    for key in ("square-rosicky", "square-cockett", "square-strong",
                "square-combined"):
        assert verdicts[key] is Verdict.FAIL, key
    assert verdicts["equivalence"].ok


def test_criterion_05_square_checkers_agree_pairwise(corpus, bump_squares):
    results, _ = corpus
    disagreements = 0

    def tally(oks, where):
        nonlocal disagreements
        if len(set(oks)) > 1:
            disagreements += 1
            print(f"square checkers split {oks} on {where}")

    for name in POSITIVES:
        tally([results[name].reports[s].ok for s in SQUARE_SUITES], name)
        # the suites check cockett and strong at depth 0 after a rosicky
        # pass; the cross-check runs all four at the default depth
        rep = cross_check_equivalence(corpus_entry(name).build(),
                                      DEFAULT_CONFIG)
        assert rep["equivalence"].verdict.ok, name
        tally([e.verdict.ok for e in rep.entries
               if e.law_id != "equivalence"], f"{name} at full depth")
    tally([e.verdict.ok for e in bump_squares.entries
           if e.law_id != "equivalence"], "bump_counterexample")

    rng = np.random.default_rng(77)
    cfg = CheckConfig(count=60, seed=42)
    for idx in range(10):
        c = rng.integers(-3, 4, 3)
        beta = f"({int(c[0])} + {int(c[1])}*x0 + {int(c[2])}*x0^2)"
        spec = BundleSpec(
            name=f"fibre_translate_{idx}", base_dim=1, total_dim=2,
            base_box=cube(1), total_box=cube(2, -40, 40),
            q=parse_map("x0", 2), xi=parse_map(f"x0, {beta}", 1),
            lam=parse_map(f"x0, {beta}, 0, x1 - {beta}", 2))
        rep = cross_check_equivalence(spec, cfg)
        assert rep["equivalence"].verdict.ok, spec.name
        tally([e.verdict.ok for e in rep.entries
               if e.law_id != "equivalence"], spec.name)

    assert disagreements == 0


def test_criterion_06_retraction_identities_on_positives(corpus):
    results, _ = corpus
    for name in POSITIVES:
        split = results[name].reports["split"]
        ident = split["retract-identity"]
        image = split["section-image"]
        assert ident.verdict.ok and ident.max_residual <= 1e-9, name
        assert image.verdict.ok and image.max_residual <= 1e-9, name


def test_criterion_07_roundtrips_and_morphism_transport(corpus):
    results, _ = corpus
    for name in POSITIVES:
        vb = results[name].reports["vb"]
        for law in ("db.roundtrip-lift", "vb.roundtrip-scalar"):
            entry = vb[law]
            assert entry.verdict.ok and entry.max_residual <= 1e-9, \
                (name, law)

    demos = transport_demo_morphisms()
    assert len(demos) == 10
    disagreements = 0
    for name, mor, expected in demos:
        rep = morphism_transport_check(mor, DEFAULT_CONFIG)
        lift_ok = rep["lift-linear"].verdict.ok
        scalar_ok = rep["scalar-preserving"].verdict.ok
        assert rep["transport-agreement"].verdict.ok, name
        assert lift_ok == expected, name
        if lift_ok != scalar_ok:
            disagreements += 1
    assert disagreements == 0


def test_criterion_08_scaling_morphism_never_splits(corpus):
    results, _ = corpus
    rep = results["scaling_morphism_nonidempotent"].reports["demo"]
    got = {e.law_id: e for e in rep.entries}
    assert got["morphism-laws"].verdict.ok
    assert got["not-idempotent"].verdict is Verdict.PASS_EXACT
    assert got["not-idempotent"].witness is not None
    assert got["rank-nonconstant"].verdict is Verdict.PASS_EXACT
    assert got["splitting-refused"].verdict is Verdict.PASS_EXACT

    # the fibre derivative of (m, r) -> (m, r*m) has rank 1 at m = 1
    # and rank 0 at m = 0
    f = parse_map("x0, x1*x0", 2)
    at_one = jac_eval_batch(f, np.array([[1.0, 0.7]]))[0]
    at_zero = jac_eval_batch(f, np.array([[0.0, 0.7]]))[0]
    assert np.linalg.matrix_rank(at_one[1:, 1:]) == 1
    assert np.linalg.matrix_rank(at_zero[1:, 1:]) == 0


def test_criterion_09_mutants_caught_by_their_intended_law(corpus):
    results, _ = corpus
    for name in MUTANTS:
        res = results[name]
        entry = corpus_entry(name)
        assert res.expectation_met, name
        assert not res.aggregate.ok, name
        assert set(res.failed_laws) == set(entry.expected_failed), name
        assert entry.intended in res.failed_laws, name


def test_criterion_10_full_corpus_under_two_minutes(corpus):
    results, elapsed = corpus
    assert len(results) == 15
    assert all(r.expectation_met for r in results.values())
    assert elapsed < 120.0, f"corpus took {elapsed:.1f}s"
