"""Multivariate polynomials over the quadratic extension field."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foliationlab.errors import FieldParseError, NotDivisible
from foliationlab.field import FieldElement
from foliationlab.poly import (MAX_POWER_BITS, MAX_POWER_DEGREE, MAX_POWER_TERMS, Polynomial,
                               gcd_many, parse_element, parse_polynomial, poly_gcd)


def P(text, nvars=2, d=0):
    return parse_polynomial(text, nvars, d)


@st.composite
def polys(draw, nvars=2, d=0):
    out = Polynomial.zero(nvars, d)
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        c = FieldElement(d, Fraction(draw(st.integers(-9, 9))))
        mono = Polynomial.const(c, nvars, d)
        for i, e in enumerate(exps):
            mono = mono * Polynomial.var(i, nvars, d) ** e
        out = out + mono
    return out


def test_parse_and_str_round_trip():
    p = P("3*x^2*y - 1/2*y + 7")
    assert P(str(p)) == p
    assert P("x**2") == P("x^2")
    assert P("x1 + x2", nvars=2) == P("x + y")
    q = P("sqrt(2)*x + i*y", d=2)
    assert q.evaluate([FieldElement(2, 1), FieldElement(2, 0)]) == \
        FieldElement(2, 0, 0, 1, 0)


def test_parse_rejects_wrong_discriminant():
    with pytest.raises(FieldParseError):
        P("sqrt(3)*x", d=2)


@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    prod = a * b
    if a.is_zero():
        return
    assert prod.exact_div(b) == a


def test_exact_div_failure():
    with pytest.raises(NotDivisible):
        P("x^2 + y").exact_div(P("x + 1"))


@given(polys(), polys(), polys())
@settings(max_examples=25, deadline=None)
def test_gcd_divides_both(a, b, c):
    a, b = a * c, b * c
    if a.is_zero() or b.is_zero():
        return
    g = poly_gcd(a, b)
    assert a.divisible_by(g) and b.divisible_by(g)
    if not c.is_zero():
        assert g.divisible_by(c.monic())


def test_gcd_examples():
    g = poly_gcd(P("x^2*y"), P("x*y^2"))
    assert g == P("x*y")
    assert gcd_many([P("2*x*y"), P("4*x^2")]) == P("x")


def test_derivative_and_substitute():
    p = P("x^2*y + y^3")
    assert p.derivative(0) == P("2*x*y")
    assert p.derivative(1) == P("x^2 + 3*y^2")
    sub = p.substitute([P("y"), P("x")])
    assert sub == P("y^2*x + x^3")


def test_shift_matches_evaluation():
    p = P("x^2 + x*y")
    mu = [FieldElement(0, 2), FieldElement(0, -1)]
    shifted = p.shift(mu)
    pt = [FieldElement(0, 5), FieldElement(0, 3)]
    moved = [a + b for a, b in zip(pt, mu)]
    assert shifted.evaluate(pt) == p.evaluate(moved)


def test_homogeneous_parts_and_order():
    p = P("x + x*y + y^3")
    assert p.homogeneous_part(1) == P("x")
    assert p.initial_form() == P("x")
    assert p.order() == 1
    assert p.order([1]) == 0
    assert P("x^2*y^3").order([1]) == 3


def test_parse_element():
    e = parse_element("3/2 - sqrt(2)", 2)
    assert e == FieldElement(2, Fraction(3, 2), 0, -1, 0)


def test_power_caps_admit_the_limits_and_refuse_past_them():
    assert P(f"x^{MAX_POWER_DEGREE}") == Polynomial.var(0, 2, 0) ** MAX_POWER_DEGREE
    assert len(P(f"(x+y)^{MAX_POWER_DEGREE}").terms) == MAX_POWER_DEGREE + 1
    assert len(P("(x+y+z+1)^7", nvars=3).terms) == 120
    assert P("2^-3") == P("1/8")
    assert P("0^0") == P("1") and P("0^5").is_zero() and P("x^0") == P("1")
    for text in (f"x^{MAX_POWER_DEGREE + 1}", f"(x^2+y)^{MAX_POWER_DEGREE // 2 + 1}",
                 f"2^{MAX_POWER_BITS}", f"2^-{MAX_POWER_BITS}", "((2^64)^64)^64",
                 "0^100000000"):
        with pytest.raises(FieldParseError):
            P(text)
    # C(4 + 8 - 1, 8) = 165 terms may appear
    assert MAX_POWER_TERMS < 165
    with pytest.raises(FieldParseError, match="165 terms"):
        P("(x+y+z+1)^8", nvars=3)


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (8, 3)])
def test_power_spends_no_unused_squaring(n, products, monkeypatch):
    p = P("x + 2*y - 1")
    expected = p.one_like()
    for _ in range(n):
        expected = expected * p
    calls = []
    mul = Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert p ** n == expected
    assert len(calls) == products


@st.composite
def shift_cases(draw):
    """(polynomial, offsets): 2 or 3 variables, d in {0, 2}, each offset zero
    or not."""
    nvars = draw(st.sampled_from((2, 3)))
    d = draw(st.sampled_from((0, 2)))
    part = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    element = st.builds(lambda a, b, c: FieldElement(d, a, b, c if d else 0), part, part, part)
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * nvars), element, max_size=5))
    offsets = [draw(st.one_of(st.just(FieldElement(d, 0)), element)) for _ in range(nvars)]
    return Polynomial(nvars, d, terms), offsets


@given(shift_cases())
@settings(max_examples=60, deadline=None)
def test_shift_matches_substituting_the_translated_variables(case):
    p, offsets = case
    images = [Polynomial.var(i, p.nvars, p.d) + Polynomial.const(a, p.nvars, p.d)
              for i, a in enumerate(offsets)]
    assert p.shift(offsets) == p.substitute(images)


def test_shift_expands_terms_with_no_substitution_or_power(monkeypatch):
    p = P("x^3*y - 2*x*y^2 + y^4 + 5", d=2)
    offsets = [parse_element("1 - sqrt(2)", 2), parse_element("i", 2)]
    expected = p.substitute([P("x + 1 - sqrt(2)", d=2), P("y + i", d=2)])

    def refuse(*args):
        raise AssertionError("shift substitutes or takes a power")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    assert p.shift(offsets) == expected
