"""The monomial fast paths of gcd_many and exact_div against the code they replaced."""
from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foliationlab import poly
from foliationlab.classify import restrict_to_exceptional
from foliationlab.cli import corpus_files, parse_form
from foliationlab.errors import DivisionByZero, NotDivisible
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm, saturate
from foliationlab.poly import Polynomial, gcd_many, parse_polynomial, poly_gcd


# -- the parent's code, verbatim ---------------------------------------------

def reference_gcd_many(polys):
    out = None
    for p in polys:
        out = p if out is None else poly_gcd(out, p)
        if out is not None and not out.is_zero() and out.is_constant():
            return out.monic()
    return out


def reference_exact_div(self, q):
    """Exact polynomial division; raises NotDivisible on a remainder."""
    q = self._coerce(q)
    if q.is_zero():
        raise DivisionByZero("division by zero polynomial")
    if q.is_constant():
        inv = q.constant_term().inverse()
        return self.scale(inv)
    rem = self
    quot = Polynomial.zero(self.nvars, self.d)
    le, lc = q.leading()
    lcinv = lc.inverse()
    while not rem.is_zero():
        re, rc = rem.leading()
        step = tuple(a - b for a, b in zip(re, le))
        if any(s < 0 for s in step):
            raise NotDivisible(repr(q))
        t = Polynomial(self.nvars, self.d, {step: rc * lcinv})
        quot = quot + t
        rem = rem - t * q
    return quot


def reference_divisible_by(self, q):
    try:
        reference_exact_div(self, q)
        return True
    except (NotDivisible, DivisionByZero):
        return False


# -- strategies ----------------------------------------------------------------

@st.composite
def elements(draw, d):
    q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    parts = [draw(q), draw(q)]
    if d:
        parts += [draw(q), draw(q)]
    return FieldElement(d, *parts)


@st.composite
def monomials(draw, nvars, d, nonzero=True):
    c = draw(elements(d).filter(lambda c: not (nonzero and c.is_zero())))
    exps = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
    return Polynomial(nvars, d, {exps: c})


@st.composite
def polys(draw, nvars, d, max_terms=3):
    out = Polynomial.zero(nvars, d)
    for _ in range(draw(st.integers(0, max_terms))):
        out = out + draw(monomials(nvars, d, nonzero=False))
    return out


fields = st.tuples(st.sampled_from((2, 3)), st.sampled_from((0, 2)))


def same_outcome(fast, slow):
    """Both calls return equal polynomials, or both raise the same error."""
    try:
        expected = slow()
    except (NotDivisible, DivisionByZero) as e:
        with pytest.raises(type(e)) as got:
            fast()
        assert str(got.value) == str(e)
        return
    assert fast() == expected


# -- differential tests --------------------------------------------------------

@given(st.data(), fields)
@settings(max_examples=150, deadline=None)
def test_exact_div_matches_the_long_division(data, field):
    nvars, d = field
    a = data.draw(polys(nvars, d))
    m = data.draw(monomials(nvars, d))
    q = data.draw(st.one_of(monomials(nvars, d), polys(nvars, d)))
    for dividend, divisor in ((a * m, m), (a, m), (a * q, q), (a, q),
                              (Polynomial.zero(nvars, d), m)):
        same_outcome(lambda: dividend.exact_div(divisor),
                     lambda: reference_exact_div(dividend, divisor))
        assert dividend.divisible_by(divisor) == reference_divisible_by(dividend, divisor)


@given(st.data(), fields)
@settings(max_examples=60, deadline=None)
def test_gcd_many_matches_the_pairwise_gcd(data, field):
    nvars, d = field
    common = data.draw(st.one_of(monomials(nvars, d), polys(nvars, d, max_terms=2)))
    parts = data.draw(st.lists(st.one_of(monomials(nvars, d), polys(nvars, d, max_terms=2)),
                               min_size=1, max_size=3))
    if data.draw(st.booleans()):
        parts = [p * common for p in parts]
    assert gcd_many(parts) == reference_gcd_many(parts)


def test_exact_div_refuses_a_non_multiple_and_divides_zero():
    x2y = parse_polynomial("x^2*y", 2, 0)
    with pytest.raises(NotDivisible):
        parse_polynomial("x^3 + x*y", 2, 0).exact_div(x2y)
    assert not parse_polynomial("x^3 + x*y", 2, 0).divisible_by(x2y)
    assert Polynomial.zero(2, 0).exact_div(x2y).is_zero()
    assert Polynomial.zero(2, 0).divisible_by(x2y)
    with pytest.raises(DivisionByZero):
        x2y.exact_div(Polynomial.zero(2, 0))
    assert not x2y.divisible_by(0)


# -- fixed cases ---------------------------------------------------------------

def test_saturate_with_one_nonzero_coefficient_removes_it_whole():
    form = OneForm.parse(["2*x^2 + 4*x", "0"], nvars=2, d=0)
    sat, g = saturate(form)
    assert g == parse_polynomial("2*x^2 + 4*x", 2, 0)
    assert g == reference_gcd_many([c for c in form.plain_coefficients() if not c.is_zero()])
    assert sat.coeffs == (Polynomial.const(1, 2, 0), Polynomial.zero(2, 0))


def test_monomial_content_without_a_single_term_still_runs_poly_gcd(monkeypatch):
    # content x, but the gcd is x (x + y): the content alone would be wrong
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return poly_gcd(p, q)
    monkeypatch.setattr(poly, "poly_gcd", counted)
    parts = [parse_polynomial(t, 2, 0) for t in ("x^2 + x*y", "2*x^2*y + 2*x*y^2")]
    assert gcd_many(parts) == parse_polynomial("x^2 + x*y", 2, 0)
    assert calls
    calls.clear()
    parts.append(parse_polynomial("3*x^2*y^2", 2, 0))
    g = gcd_many(parts)
    assert calls == []
    assert g == parse_polynomial("x", 2, 0) == reference_gcd_many(parts)


def test_restrict_to_exceptional_on_the_jouanolou_germ(monkeypatch):
    path = dict(corpus_files())["jouanolou_m1.json"]
    form = parse_form(json.loads(path.read_text()))
    fast = restrict_to_exceptional(form)
    monkeypatch.setattr(poly, "gcd_many", reference_gcd_many)
    monkeypatch.setattr(Polynomial, "exact_div", reference_exact_div)
    slow = restrict_to_exceptional(form)
    assert fast.coeffs == slow.coeffs
    assert fast.r == slow.r == 2


def test_single_term_divisor_scales_by_its_inverse():
    p = parse_polynomial("3*x^2*y + 6*x*y^2", 2, 2)
    m = Polynomial(2, 2, {(1, 1): FieldElement(2, 0, 0, Fraction(3), 0)})
    assert p.exact_div(m) == reference_exact_div(p, m)
    assert p.exact_div(m) * m == p
