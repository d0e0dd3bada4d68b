"""Surjective-derivative certification, horizontal lifts, and closure of
the display class."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tanbun.expr import Box, CheckConfig, cube, eval_map, parse_map
from tanbun.submersion import (
    RankDeficient, Verdict, check_lift_section, closure_harness,
    horizontal_lift, is_submersion_on, jacobian, lift_section_map,
)
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


# --------------------------------------------------------------------------
# Horizontal lifts


def test_lift_through_plain_projection_pads_with_zero():
    out = horizontal_lift(parse_map("x0", 2), np.array([0.5, 2.0]),
                          np.array([3.0]))
    assert np.allclose(out, [3.0, 0.0])


def test_lift_through_sum_splits_evenly():
    # The least-norm preimage of 1 under (v1, v2) -> v1 + v2.
    out = horizontal_lift(parse_map("x0 + x1", 2), np.zeros(2),
                          np.array([1.0]))
    assert np.allclose(out, [0.5, 0.5])


def test_lift_solves_the_pushforward_equation():
    f = parse_map("x0*x1 + x1^3", 2)
    a = np.array([0.4, 1.1])
    v = np.array([2.0])
    u = horizontal_lift(f, a, v)
    J = jacobian(f, a).matrix
    assert np.allclose(J @ u, v, atol=1e-9)


def test_lift_refuses_a_degenerate_point():
    with pytest.raises(RankDeficient):
        horizontal_lift(bump_bundle().q, np.array([0.0, 1.0]),
                        np.array([1.0]))


def test_lift_keeps_lapack_off_stdout(capfd):
    # at 1e100 the derivative 5*x0^4 overflows to inf: its SVD gives NaN
    # singular values without an error, so the rank test lets it through
    with pytest.raises(np.linalg.LinAlgError,
                       match="^SVD did not converge in Linear Least Squares$"):
        with np.errstate(over="ignore", invalid="ignore"):
            horizontal_lift(parse_map("x0^5", 1), np.array([1e100]),
                            np.array([1.0]))
    assert capfd.readouterr().out == ""


def test_lift_has_the_bits_of_np_linalg_lstsq():
    rng = np.random.default_rng(3)
    f = parse_map("x0*x1 + x2^3, sin(x0) - x1*x2", 3)
    for a, v in zip(rng.uniform(-1, 1, (20, 3)), rng.normal(size=(20, 2))):
        want = np.linalg.lstsq(jacobian(f, a).matrix, v, rcond=None)[0]
        assert horizontal_lift(f, a, v).tobytes() == want.tobytes()


def test_lift_section_map_is_a_section():
    f = parse_map("x0 + x1^3", 2)
    r = check_lift_section(f, cube(2), CFG)
    assert r.law_id == "lift-section"
    assert r.verdict.ok


def test_lift_section_map_builds_a_tangent_chart_point():
    f = parse_map("x0", 2)
    out = lift_section_map(f, np.array([0.5, 2.0]), np.array([3.0]))
    assert np.allclose(out, [0.5, 2.0, 3.0, 0.0])


# --------------------------------------------------------------------------
# Closure of the display class


def test_closure_harness_passes_all_four_clauses():
    rep = closure_harness(CFG)
    assert [e.law_id for e in rep.entries] == [
        "closed-compose", "closed-retract", "closed-pullback",
        "display-projection"]
    assert rep.ok
