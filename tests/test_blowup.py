"""Blow-up charts, residue bookkeeping and dicriticality."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from foliationlab.blowup import (BlowupAtlas, CenterSpec, center_is_invariant,
                                 center_multiplicity, detect_dicritical,
                                 transform_form)
from foliationlab.errors import (CenterNotSingularAdapted, ChartAlreadyBlownUp,
                                 DimensionError, ZeroForm)
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm
from foliationlab.poly import parse_polynomial


def log_form(residue_texts, d=0):
    n = len(residue_texts)
    return OneForm.parse(residue_texts, nvars=n, d=d, log=[True] * n)


# x dx + y dy + z dz = d(x^2 + y^2 + z^2)/2 shows each chart map in its pullback

def test_chart_substitution_point_center():
    # chart x: y -> x*y, z -> x*z, and the pullback x (1 + y^2 + z^2) dx + ...
    # is divided by x
    form = OneForm.parse(["x", "y", "z"], nvars=3, d=0)
    chart, r = transform_form(form, CenterSpec.origin(3, 0), 0)
    assert r == 1
    assert [str(c) for c in chart.coeffs] == ["y^2 + z^2 + 1", "x*y", "x*z"]


def test_chart_substitution_curve_center():
    # chart z of the axis {x = z = 0}: x -> x*z, y stays, and dy keeps order 0
    form = OneForm.parse(["x", "y", "z"], nvars=3, d=0)
    chart, r = transform_form(form, CenterSpec.axis(0, 2), 2)
    assert r == 0
    assert [str(c) for c in chart.coeffs] == ["x*z^2", "y", "x^2*z + z"]
    with pytest.raises(DimensionError, match="must participate"):
        transform_form(form, CenterSpec.axis(0, 2), 1)


def test_center_validation():
    with pytest.raises(DimensionError):
        CenterSpec("curve", axis_vars=(0,))
    w = log_form(["2", "3", "-5"])
    assert center_is_invariant(w, CenterSpec.axis(0, 1))
    assert not center_is_invariant(OneForm.parse(["y", "x", "1"], nvars=3, d=0),
                                   CenterSpec.axis(0, 1))


def test_residue_additivity_fixed_example():
    w = log_form(["2", "3", "-4"])
    atlas = BlowupAtlas(w)
    atlas.blow_up((), CenterSpec.origin(3, 0))
    for chart in atlas.leaf_charts():
        assert atlas.exceptional_residue(chart.path) == FieldElement(0, 1)


def test_residue_additivity_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.choice((2, 3))
        lams = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        if any(l == 0 for l in lams):
            continue
        w = log_form([str(l) for l in lams][:n])
        if n == 3 and rng.random() < 0.5:
            a, b = sorted(rng.sample(range(3), 2))
            center = CenterSpec.axis(a, b)
            expected = lams[a] + lams[b]
        else:
            center = CenterSpec.origin(n, 0)
            expected = sum(lams)
        atlas = BlowupAtlas(w)
        atlas.blow_up((), center)
        for chart in atlas.leaf_charts():
            res = atlas.exceptional_residue(chart.path)
            if expected == 0:
                assert res is None or res.is_zero()
            else:
                assert res == FieldElement(0, expected)


def test_multiplicity_and_dicritical_radial():
    pencil = OneForm.parse(["-y", "x"], nvars=2, d=0)
    rep = detect_dicritical(pencil, CenterSpec.origin(2, 0))
    assert rep["dicritical"] and rep["multiplicity"] == 1
    exact = OneForm.parse(["x", "y"], nvars=2, d=0)  # d(x^2 + y^2)/2
    assert not detect_dicritical(exact, CenterSpec.origin(2, 0))["dicritical"]


def test_cusp_first_chart():
    cusp = OneForm.parse(["-3*x^2", "2*y"], nvars=2, d=0)
    assert center_multiplicity(cusp, CenterSpec.origin(2, 0)) == 1
    rep = detect_dicritical(cusp, CenterSpec.origin(2, 0))
    assert not rep["dicritical"]
    sat, r = transform_form(cusp, CenterSpec.origin(2, 0), 0)
    assert r >= 1
    # transform of an invariant curve's differential keeps both axes invariant
    from foliationlab.forms import invariant_axis
    assert invariant_axis(sat, 0)


def test_jouanolou_dicritical():
    jou = OneForm.parse(["y^2 - z*x", "z^2 - x*y", "x^2 - y*z"], nvars=3, d=0)
    rep = detect_dicritical(jou, CenterSpec.origin(3, 0))
    assert rep["dicritical"] and rep["multiplicity"] == 2
    atlas = BlowupAtlas(jou)
    atlas.blow_up((), CenterSpec.origin(3, 0))
    comp = atlas.components["E1"]
    assert not comp.invariant and comp.compact


def test_unadapted_axis_center_is_a_typed_error():
    # dy is nonzero along {x = z = 0}: the contraction test, which reads only
    # the dx and dz coefficients, would call the blow-up dicritical while the
    # divisibility route would not
    form = OneForm.parse(["z", "1", "x"], nvars=3, d=0)
    center = CenterSpec.axis(0, 2)
    with pytest.raises(CenterNotSingularAdapted):
        detect_dicritical(form, center)
    # z dx + x dy + x dz passes the invariance and singular-locus checks of
    # blow_up, but x dy vanishes along the center only to the multiplicity 1
    form = OneForm.parse(["z", "x", "x"], nvars=3, d=0)
    with pytest.raises(CenterNotSingularAdapted, match="not adapted"):
        BlowupAtlas(form).blow_up((), center)


def _four_lines_after_two_blowups(point):
    """d(x y (x-1) (y-1)) blown up at the origin, then at `point` of chart x."""
    w = OneForm.parse(["y*(y-1)*(2*x-1)", "x*(x-1)*(2*y-1)"], nvars=2, d=0)
    atlas = BlowupAtlas(w)
    atlas.blow_up((), CenterSpec.origin(2, 0))
    atlas.blow_up(("x",), CenterSpec("point", point=[FieldElement(0, c) for c in point]))
    return atlas


def test_chart_off_the_origin_inherits_only_components_through_its_point():
    # E1 is {x = 0} in chart x, so it misses (1, 1) and passes through (0, 0)
    atlas = _four_lines_after_two_blowups((1, 1))
    assert atlas.charts[("x", "x")].divisor == {0: "E2"}
    assert atlas.charts[("x", "y")].divisor == {1: "E2"}
    atlas = _four_lines_after_two_blowups((0, 0))
    assert atlas.charts[("x", "x")].divisor == {0: "E2"}
    assert atlas.charts[("x", "y")].divisor == {1: "E2", 0: "E1"}


def test_a_chart_is_blown_up_at_most_once():
    atlas = _four_lines_after_two_blowups((1, 1))
    charts = dict(atlas.charts)
    with pytest.raises(ChartAlreadyBlownUp, match="already blown up"):
        atlas.blow_up(("x",), CenterSpec("point", point=[FieldElement(0, 0)] * 2))
    assert atlas.charts == charts and sorted(atlas.components) == ["E1", "E2"]
    assert [c.path for c in atlas.leaf_charts()] == [("x", "x"), ("x", "y"), ("y",)]


def test_zero_form_has_no_multiplicity():
    zero = OneForm.parse(["0", "0"], nvars=2, d=0)
    with pytest.raises(ZeroForm):
        center_multiplicity(zero, CenterSpec.origin(2, 0))
