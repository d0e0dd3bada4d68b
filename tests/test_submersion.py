"""Surjective-derivative certification."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tanbun.expr import Box, CheckConfig, cube, parse_map
from tanbun.jet import jacobian
from tanbun.report import Verdict
from tanbun.universal import is_submersion_on
from tanbun.corpus import bump_bundle

CFG = CheckConfig(count=60, seed=5)


# --------------------------------------------------------------------------
# Jacobian sampling


def test_jacobian_sample_carries_singular_values():
    # the derivative matrix alone: no caller read the singular values
    J = jacobian(parse_map("x0^2 + x1^2", 2), np.array([1.0, 2.0]))
    assert np.allclose(J, [[2.0, 4.0]])


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_jacobian_matches_hand_derivative(a, b):
    f = parse_map(f"{a}*x0*x1 + {b}*x1^2", 2)
    x = np.array([0.7, -1.2])
    assert np.allclose(jacobian(f, x), [[a * x[1], a * x[0] + 2 * b * x[1]]],
                       atol=1e-10)


# --------------------------------------------------------------------------
# Submersion certification


def test_projection_is_a_submersion_everywhere():
    # where the collapse hunt finds nothing the pass says what it rests on
    r = is_submersion_on(parse_map("x0", 2), cube(2), CFG)
    assert r.verdict is Verdict.PASS_NUMERIC
    assert "sampling evidence only" in r.note


def test_bump_projection_fails_on_the_seam():
    bump = bump_bundle()
    r = is_submersion_on(bump.q, bump.total_box, CFG)
    assert r.verdict is Verdict.FAIL
    (w,) = r.witness
    # The derivative collapses where the blend freezes the first slot,
    # at fibre height 1 over the base origin.
    assert abs(w[0]) < 1e-3 and abs(w[1] - 1.0) < 1e-3
    J = jacobian(bump.q, np.asarray(w, dtype=float))
    assert np.linalg.norm(J) < 1e-6


def test_bump_projection_fails_on_the_seam_wherever_the_hunt_runs():
    # the collapse hunt the rank law shares runs wherever no sample
    # collapses, and finds the seam from every seed, not only from the
    # two pinned above and in criterion 04
    bump = bump_bundle()
    for seed in range(1, 76):
        r = is_submersion_on(bump.q, bump.total_box,
                             CheckConfig(count=60, seed=seed))
        assert r.verdict is Verdict.FAIL, seed
        (w,) = r.witness
        assert abs(w[0]) < 1e-3 and abs(w[1] - 1.0) < 1e-3, seed
        J = jacobian(bump.q, np.asarray(w, dtype=float))
        assert np.linalg.norm(J) <= 1e-10, seed


def test_bump_projection_passes_away_from_the_seam():
    r = is_submersion_on(bump_bundle().q, Box(((-2, 2), (-2, -1))), CFG)
    assert r.verdict.ok


def test_cubic_fails_along_its_critical_line():
    r = is_submersion_on(parse_map("x0^3", 2), cube(2), CFG)
    assert r.verdict is Verdict.FAIL
    (w,) = r.witness
    assert abs(w[0]) < 1e-3


def test_a_rank_drop_is_confirmed_by_its_smallest_singular_value():
    # the derivative at the witness keeps entries of size 2 while its
    # smallest singular value is 2e-13: the note confirms the rank drop
    # at 40 digits, not the size of the largest entry
    r = is_submersion_on(parse_map("x0*x1, x1 + x2^3", 3), cube(3), CFG)
    assert r.verdict is Verdict.FAIL
    (w,) = r.witness
    assert np.abs(jacobian(parse_map("x0*x1, x1 + x2^3", 3),
                           np.asarray(w)).max()) == 2.0
    assert abs(r.max_residual - 2.05e-13) < 1e-15
    exact = float(r.note.rsplit("at 40 digits ", 1)[1])
    assert abs(exact - r.max_residual) < 1e-3 * r.max_residual


def test_isolated_degeneracy_can_escape_sampling():
    # The only critical point of the squared norm is the origin, a set
    # sampling will almost never hit; the collapse hunt, which runs
    # wherever no sample collapses, finds it there.
    f = parse_map("x0^2 + x1^2", 2)
    r = is_submersion_on(f, cube(2), CFG)
    assert r.verdict is Verdict.FAIL
    (w,) = r.witness
    assert np.abs(w).max() < 1e-6
    assert np.linalg.norm(jacobian(f, np.asarray(w, dtype=float))) < 1e-6
