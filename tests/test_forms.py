"""One-forms, saturation, logarithmic poles and integrability."""
from __future__ import annotations

import pytest

from foliationlab.errors import NotDivisible, ZeroForm
from foliationlab.field import FieldElement
from foliationlab.forms import (OneForm, integrability_check, invariant_axis,
                                log_residues, saturate, singular_at_origin,
                                to_log_form, wedge_d_coefficient)
from foliationlab.poly import parse_polynomial


def form(texts, nvars=2, d=0, log=None):
    return OneForm.parse(texts, nvars=nvars, d=d, log=log)


def test_log_to_plain_and_back():
    w = form(["2", "3"], log=[True, True])
    plain = w.plain_coefficients()
    assert plain[0] == parse_polynomial("2*y", 2, 0)
    assert plain[1] == parse_polynomial("3*x", 2, 0)
    back = to_log_form(w.plain(), [0, 1])
    assert log_residues(back, [0, 1]) == {0: FieldElement(0, 2),
                                          1: FieldElement(0, 3)}


def test_three_variable_pole_clearing():
    w = form(["2", "3", "-4"], nvars=3, log=[True, True, True])
    plain = w.plain_coefficients()
    assert plain[0] == parse_polynomial("2*y*z", 3, 0)
    assert plain[1] == parse_polynomial("3*x*z", 3, 0)
    assert plain[2] == parse_polynomial("-4*x*y", 3, 0)


def test_log_form_requires_invariance():
    w = form(["x", "1"])  # {y = 0} is not invariant: x dx does not vanish on it
    with pytest.raises(NotDivisible):
        to_log_form(w, [1])


def test_saturate_removes_monomial_factor():
    w = form(["2*x*y^2", "3*x^2*y"])
    sat, removed = saturate(w)
    assert removed == parse_polynomial("x*y", 2, 0)
    assert sat.coeffs[0] == parse_polynomial("2*y", 2, 0)
    with pytest.raises(ZeroForm):
        saturate(form(["0", "0"]))


def test_invariant_axis_and_singularity():
    w = form(["2*y", "3*x"])
    assert invariant_axis(w, 0) and invariant_axis(w, 1)
    assert singular_at_origin(w)
    assert not invariant_axis(form(["1", "x"]), 1)
    assert not singular_at_origin(form(["1", "x"]))


def test_integrability_two_variables_always():
    assert integrability_check(form(["y^3 + x", "x^2"]))


def test_integrability_three_variables():
    jou = form(["y^2 - z*x", "z^2 - x*y", "x^2 - y*z"], nvars=3)
    assert integrability_check(jou)
    assert not integrability_check(form(["y", "z", "x^2"], nvars=3))
    # log corners are integrable
    w = form(["2", "3", "-5"], nvars=3, log=[True, True, True])
    assert integrability_check(w)


def test_integrability_unit_multiple_invariant():
    jou = form(["y^2 - z*x", "z^2 - x*y", "x^2 - y*z"], nvars=3)
    u = parse_polynomial("2 + x", 3, 0)
    scaled = OneForm([c * u for c in jou.coeffs])
    assert integrability_check(scaled)


def test_wedge_coefficient_vanishes_for_exact_form():
    # d(y^2 - x^3) pulled to three variables is closed, hence integrable
    w = form(["-3*x^2", "2*y", "0"], nvars=3)
    assert wedge_d_coefficient(w).is_zero()


def test_clearing_poles_and_the_contraction_test_multiply_no_field_elements(monkeypatch):
    # both only multiply by a variable, which shifts exponents
    from foliationlab.blowup import CenterSpec, contraction_test
    w = form(["2*y*z + x", "-y*z + 3*x*y", "x*y - sqrt(2)*z^2"], nvars=3, d=2,
             log=[True, True, False])
    plain = [parse_polynomial(t, 3, 2) for t in
             ("(2*y*z + x)*y", "(-y*z + 3*x*y)*x", "(x*y - sqrt(2)*z^2)*x*y")]
    center = CenterSpec.origin(3, 2)
    dicritical = contraction_test(w, center)
    rotation = form(["y", "-x", "0"], nvars=3, d=2)

    def refuse(self, other):
        raise AssertionError("a field product")

    monkeypatch.setattr(FieldElement, "__mul__", refuse)
    monkeypatch.setattr(FieldElement, "__rmul__", refuse)
    assert w.plain_coefficients() == plain
    assert contraction_test(w, center) is dicritical is False
    assert contraction_test(rotation, center) is True
