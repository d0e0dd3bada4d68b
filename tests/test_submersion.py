"""Surjective-derivative certification."""

import numpy as np
from hypothesis import given, settings, strategies as st

from tanbun.expr import Box, CheckConfig, cube, parse_map
from tanbun.submersion import Verdict, is_submersion_on, jacobian
from tanbun.corpus import bump_bundle

CFG = CheckConfig(count=60, seed=5)


# --------------------------------------------------------------------------
# Jacobian sampling


def test_jacobian_sample_carries_singular_values():
    js = jacobian(parse_map("x0^2 + x1^2", 2), np.array([1.0, 2.0]))
    assert np.allclose(js.matrix, [[2.0, 4.0]])
    assert np.allclose(js.singular_values, [np.sqrt(20.0)])


@given(st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_jacobian_matches_hand_derivative(a, b):
    f = parse_map(f"{a}*x0*x1 + {b}*x1^2", 2)
    x = np.array([0.7, -1.2])
    js = jacobian(f, x)
    assert np.allclose(js.matrix, [[a * x[1], a * x[0] + 2 * b * x[1]]],
                       atol=1e-10)


# --------------------------------------------------------------------------
# Submersion certification


def test_projection_is_a_submersion_everywhere():
    r = is_submersion_on(parse_map("x0", 2), cube(2), CFG)
    assert r.verdict.ok


def test_bump_projection_fails_on_the_seam():
    bump = bump_bundle()
    r = is_submersion_on(bump.q, bump.total_box, CFG)
    assert r.verdict is Verdict.FAIL
    (w,) = r.witness
    # The derivative collapses where the blend freezes the first slot,
    # at fibre height 1 over the base origin.
    assert abs(w[0]) < 1e-3 and abs(w[1] - 1.0) < 1e-3
    J = jacobian(bump.q, np.asarray(w, dtype=float)).matrix
    assert np.linalg.norm(J) < 1e-6


def test_bump_projection_passes_away_from_the_seam():
    r = is_submersion_on(bump_bundle().q, Box(((-2, 2), (-2, -1))), CFG)
    assert r.verdict.ok


def test_cubic_fails_along_its_critical_line():
    r = is_submersion_on(parse_map("x0^3", 2), cube(2), CFG)
    assert r.verdict is Verdict.FAIL
    (w,) = r.witness
    assert abs(w[0]) < 1e-3


def test_isolated_degeneracy_can_escape_sampling():
    # The only critical point of the squared norm is the origin, a set
    # sampling will almost never hit; the result stays a numeric pass
    # but the note is explicit that it rests on samples alone.
    r = is_submersion_on(parse_map("x0^2 + x1^2", 2), cube(2), CFG)
    assert r.verdict is Verdict.PASS_NUMERIC
    assert "sampling evidence only" in r.note
