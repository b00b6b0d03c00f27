"""Numerical holonomy: multipliers, lifted paths, invariants, constants."""
from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from foliationlab.errors import BadParameters, LeftDomain, StepTooLarge, ZeroLambda
from foliationlab.holonomy import (MAX_TURNS, LinearModel, NumericConfig,
                                   _turn_candidates, circle_path,
                                   lemma4_constant, lemma4_reach_check,
                                   lift_path, loop_multiplier,
                                   nodal_first_integral_drift,
                                   saturation_probe, spiral_path, sweep_csv)


def test_loop_multiplier_closed_forms():
    assert abs(abs(loop_multiplier(1j, 1)) - math.exp(-2 * math.pi)) < 1e-15
    assert abs(loop_multiplier(1.0, 1) - 1.0) < 1e-12
    assert abs(abs(loop_multiplier(2 + 1j, -1)) - math.exp(2 * math.pi / 5)) < 1e-12
    with pytest.raises(ZeroLambda):
        loop_multiplier(0)


def test_lift_matches_closed_form():
    model = LinearModel([1.0, 1j], delta=2.0)
    end = lift_path(model, {0: circle_path(0.5, 1)}, 1, 0.5)
    assert abs(end - 0.5 * loop_multiplier(1j, 1)) < 1e-9


def test_zero_length_path_is_identity():
    model = LinearModel([1.0, 2.0], delta=2.0)
    end = lift_path(model, {0: spiral_path(0.5, 0.5)}, 1, 0.25)
    assert abs(end - 0.25) < 1e-12


def test_left_domain_raised():
    model = LinearModel([1j, 1.0], delta=2.0)  # expands by e^{2 pi}
    with pytest.raises(LeftDomain):
        lift_path(model, {0: circle_path(0.5, 1)}, 1, 0.5)


def test_perturbation_changes_little():
    base = LinearModel([1.0, 1j], delta=2.0)
    pert = LinearModel([1.0, 1j], delta=2.0,
                       perturbations=(None, lambda p: 0.01 * p[1]))
    path = {0: spiral_path(0.5, 0.3 + 0.2j)}
    a = lift_path(base, path, 1, 0.4)
    b = lift_path(pert, path, 1, 0.4)
    assert 0 < abs(a - b) < 0.05


def test_fourth_order_convergence():
    model = LinearModel([1.0, 1j], delta=2.0,
                        perturbations=(lambda p: 0.3 * p[0] + 0.2 * p[1] ** 2,
                                       lambda p: 0.1 * p[0] * p[1]))
    path = {0: spiral_path(0.5, 0.2 + 0.3j, turns=1)}
    ref = lift_path(model, path, 1, 0.4, NumericConfig(step=1e-4))
    e1 = abs(lift_path(model, path, 1, 0.4, NumericConfig(step=4e-2)) - ref)
    e2 = abs(lift_path(model, path, 1, 0.4, NumericConfig(step=2e-2)) - ref)
    assert e1 / e2 >= 8.0


def test_nodal_drift_conserved():
    model = LinearModel.nodal([1.0, math.sqrt(2)], 1, delta=4.0)
    drift = nodal_first_integral_drift(model, {0: circle_path(0.3, 1)}, 1, 0.4)
    assert drift < 1e-6
    big = LinearModel.nodal([1.0, math.sqrt(2), math.sqrt(3)], 1, delta=8.0)
    paths = {0: circle_path(0.3, 1), 1: spiral_path(0.35, 0.25 + 0.1j)}
    assert nodal_first_integral_drift(big, paths, 2, 0.4) < 1e-6


def test_degenerate_path_zero_drift():
    model = LinearModel.nodal([1.0, 2.0], 1)
    from foliationlab.holonomy import constant_path
    assert nodal_first_integral_drift(model, {0: constant_path(0.3)}, 1, 0.2) == 0.0


def test_lemma4_constant_formula():
    c = lemma4_constant(1.0, 0.5, 0.1)
    assert abs(c - 0.1 * math.exp(-8 * (math.pi / 2 + 1.5))) < 1e-24
    assert lemma4_constant(1.0, 0.5, 0.05) < c  # monotone in eps
    with pytest.raises(BadParameters):
        lemma4_constant(-1.0, 0.5, 0.1)


def test_lemma4_reach_rate():
    rep = lemma4_reach_check(1.0, 0.5, 0.1, trials=25)
    assert rep["fraction"] == 1.0


def test_lemma4_constant_refuses_to_underflow():
    assert lemma4_constant(90, 0.5, 0.1) == 1.3e-321  # subnormal, not yet 0.0
    with pytest.raises(BadParameters, match="underflows"):
        lemma4_constant(100, 0.5, 0.1)


def test_lemma4_constant_refuses_a_constant_whose_half_is_zero():
    # c = 5e-324: c * random() and the fallback c / 2 round to 0.0, which put
    # about half of the starts on the divisor
    for f in (lemma4_constant, lemma4_reach_check):
        with pytest.raises(BadParameters, match="underflows below 1e-323"):
            f(90.79620298878072, 0.5, 0.1)
    # the largest lam whose constant is still 1e-323: every start arrives
    rep = lemma4_reach_check(90.64994408219944, 0.5, 0.1)
    assert rep["constant"] == 1e-323 and rep["fraction"] == 1.0
    with pytest.raises(BadParameters):
        lemma4_constant(90.64994408219945, 0.5, 0.1)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.2, 60.0), st.floats(1e-3, 1e150), st.floats(1e-300, 1.0))
@example(90.0, 0.5, 0.1)  # past the range of lam, c = 1.3e-321
def test_reach_check_cannot_fail(lam, rho, eps):
    # y x^lam is constant along a leaf, so every start with |y| < c <= 1
    # arrives; below c = 1e-323 a start can round to 0.0, on the divisor
    try:
        c = lemma4_constant(lam, rho, eps)
    except BadParameters:  # c underflows below 1e-323
        return
    assert c >= 1e-323
    rep = lemma4_reach_check(lam, rho, eps)
    assert rep["constant"] == c and rep["fraction"] == 1.0


def test_nodal_model_validation():
    with pytest.raises(BadParameters):
        LinearModel.nodal([1.0, 2.0], 2)
    with pytest.raises(BadParameters):
        LinearModel.nodal([1.0, -2.0], 1)


def test_probe_complex_saddle_small_grid():
    cfg = NumericConfig(step=5e-3, max_length=2000.0)
    model = LinearModel([1.0, 1j], delta=50.0)
    grid = [(0.3 + 0.1 * i, 0.4 * cmath.exp(1j * j)) for i in range(4)
            for j in range(4)]
    res = saturation_probe(model, alpha=0.5, eps=0.3, grid=grid, config=cfg)
    assert res["fraction"] == 1.0


def test_probe_skips_long_spirals_but_not_the_step_cap():
    model = LinearModel([1.0, 1j], delta=50.0)
    grid = [(0.3, 0.4), (0.7, 0.4j)]
    # every candidate spiral is longer than max_length: skipped, not an error
    res = saturation_probe(model, 0.5, 0.3, grid, NumericConfig(step=5e-3, max_length=1e-3))
    assert res["fraction"] == 0.0
    with pytest.raises(StepTooLarge) as refused:
        saturation_probe(model, 0.5, 0.3, grid, NumericConfig(step=1e-9, max_length=2000.0))
    assert type(refused.value) is StepTooLarge


def test_probe_skips_candidates_that_overflow_a_float():
    # Re(ratio * (log x - log alpha)) overflows, so no winding number aims
    # at the target; and at |x| = alpha, Im(ratio * shift) overflows, so
    # the start value has no phase
    model = LinearModel([1e308 + 1j, 1.0], delta=50.0)
    res = saturation_probe(model, 0.5, 0.9, [(0.05, 0.5), (0.5 * cmath.exp(2j), 0.5)])
    assert [r["reached"] for r in res["records"]] == [False, False]


def test_probe_nodal_threshold_small_grid():
    cfg = NumericConfig(step=5e-3, max_length=2000.0)
    r = math.sqrt(2)
    model = LinearModel.nodal([1.0, r], 1, delta=50.0)
    eps, alpha = 0.3, 0.5
    grid = [(0.15 + 0.2 * i, 0.1 + 0.25 * j) for i in range(4) for j in range(4)]
    res = saturation_probe(model, alpha=alpha, eps=eps, grid=grid, config=cfg)
    for rec in res["records"]:
        need = abs(rec["y"]) * (alpha / abs(rec["x"])) ** (1 / r)
        assert rec["reached"] == (need <= eps)
    csv = sweep_csv(res["records"])
    assert csv.splitlines()[0].startswith("re_x,")
    assert len(csv.splitlines()) == len(grid) + 1


def reference_turn_candidates(ratio, alpha, xg, yg, eps):
    """The list builder the generator replaced, verbatim."""
    if abs(ratio.imag) < 1e-12:
        return [0]
    base = (cmath.log(xg) - math.log(alpha))
    target = math.log(eps / 2) - math.log(abs(yg)) - (ratio * base).real
    k = target / (-2 * math.pi * ratio.imag)
    if not math.isfinite(k):
        return [0]
    k0 = int(round(k))
    ks = []
    for dk in range(MAX_TURNS):
        for s in (k0 + dk, k0 - dk):
            if abs(s) <= MAX_TURNS and s not in ks:
                ks.append(s)
    return ks or [0]


def _candidates(ratio, alpha, xg, yg, eps):
    """The winding numbers _turn_candidates yields at the grid point (xg, yg),
    given the target the probe forms from its column's base log xg - log alpha."""
    base = cmath.log(xg) - math.log(alpha)
    target = math.log(eps / 2) - math.log(abs(yg)) - (ratio * base).real
    return list(_turn_candidates(ratio, target))


def _polar(modulus, angle):
    return modulus * cmath.exp(1j * angle)


moduli = st.floats(1e-3, 1.0)
angles = st.floats(-math.pi, math.pi)


@settings(max_examples=300, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.05, 1.0), moduli, angles,
       moduli, angles, st.floats(1e-6, 1.0))
def test_turn_candidates_match_reference(re, im, alpha, rx, ax, ry, ay, eps):
    args = (complex(re, im), alpha, _polar(rx, ax), _polar(ry, ay), eps)
    assert _candidates(*args) == reference_turn_candidates(*args)


@pytest.mark.parametrize("k", [-200, -80, -79, -41, -40, 0, 39, 40, 41, 79, 80, 200])
def test_turn_candidates_near_the_cap(k):
    # ratio i / 4, x_g = alpha and |y_g| = (eps / 2) exp(pi k / 2) aim at k itself
    eps = 0.5
    args = (0.25j, 0.5, 0.5, eps / 2 * math.exp(math.pi * k / 2), eps)
    got = _candidates(*args)
    assert got == reference_turn_candidates(*args)
    assert (got == [0]) == (abs(k) >= 2 * MAX_TURNS)
    assert got[0] == (max(-MAX_TURNS, min(MAX_TURNS, k)) if abs(k) < 2 * MAX_TURNS else 0)


@pytest.mark.parametrize("ratio, xg", [
    (2.0 + 0j, 0.3 + 0.1j),     # a real ratio
    (1.0 + 1e-13j, 0.3j),       # real up to the tolerance
    (1e308 + 1j, 0.05),         # Re(ratio * base) overflows: no finite k
])
def test_turn_candidates_fall_back_to_zero(ratio, xg):
    args = (ratio, 0.5, xg, 0.4, 0.9)
    assert _candidates(*args) == reference_turn_candidates(*args) == [0]
