"""Exact field arithmetic, sign decisions and non-resonance."""
from __future__ import annotations

import operator
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from foliationlab.errors import DivisionByZero, FieldParseError, ZeroEntry
from foliationlab.field import (FieldElement, RatioClass, Sign, classify_ratio,
                                field_sqrt, is_square_free, nonresonant)

F = FieldElement


def elem(d, ar=0, ai=0, br=0, bi=0):
    return F(d, Fraction(ar), Fraction(ai), Fraction(br), Fraction(bi))


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def elements(draw, d=2):
    if d == 0:
        return elem(0, draw(rationals), draw(rationals))
    return elem(d, draw(rationals), draw(rationals), draw(rationals), draw(rationals))


def test_square_free_gate():
    assert is_square_free(2) and is_square_free(3) and is_square_free(0)
    assert not is_square_free(4) and not is_square_free(12)
    with pytest.raises(FieldParseError):
        F(4, 1)
    with pytest.raises(FieldParseError):
        F(1, 1)


def test_d_zero_forbids_sqrt_part():
    with pytest.raises(FieldParseError):
        F(0, 1, 0, 1, 0)


@given(elements(), elements(), elements())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + F(2, 0) == a and a * F(2, 1) == a


@given(elements())
@settings(max_examples=60, deadline=None)
def test_field_inverse(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert a * a.inverse() == F(2, 1)


@given(elements())
@settings(max_examples=60, deadline=None)
def test_reality_sign_matches_high_precision(a):
    with mpmath.workdps(50):
        z = (mpmath.mpf(a.ar.numerator) / a.ar.denominator
             + mpmath.mpf(a.br.numerator) / a.br.denominator * mpmath.sqrt(2)
             + 1j * (mpmath.mpf(a.ai.numerator) / a.ai.denominator
                     + mpmath.mpf(a.bi.numerator) / a.bi.denominator * mpmath.sqrt(2)))
        s = a.reality_sign()
        if abs(mpmath.im(z)) > mpmath.mpf("1e-40"):
            assert s is Sign.NOT_REAL
        elif mpmath.re(z) > mpmath.mpf("1e-40"):
            assert s is Sign.POSITIVE
        elif mpmath.re(z) < mpmath.mpf("-1e-40"):
            assert s is Sign.NEGATIVE
        # values within the tolerance window are exactly zero or tiny
        # irrational combinations; the exact code decides those correctly


def test_sqrt_cases():
    assert field_sqrt(elem(2, 4)) == elem(2, 2)
    two = elem(2, 2)
    root = field_sqrt(two)
    assert root is not None and root * root == two
    minus_one = elem(2, -1)
    i = field_sqrt(minus_one)
    assert i is not None and i * i == minus_one
    assert field_sqrt(elem(2, 0, 4)) is not None  # sqrt(4i) = (1+i)sqrt(2)
    assert field_sqrt(elem(3, 5)) is None


# per discriminant, an element whose norm to Q(i) is no square there:
# 3 for d = 0, and 1 + 2 sqrt(d), of norm 1 - 4d, otherwise
NON_SQUARE_NORM = {0: elem(0, 3), 2: elem(2, 1, 0, 2), 3: elem(3, 1, 0, 2),
                   5: elem(5, 1, 0, 2)}


@pytest.mark.parametrize("d", [0, 2, 3, 5])
@given(st.data())
@settings(max_examples=80, deadline=None)
def test_field_sqrt_is_complete(d, data):
    x = data.draw(elements(d))
    square = x * x
    root = field_sqrt(square)
    assert root is not None and root * root == square
    # norms multiply: x^2 g has the norm N(x)^2 N(g), which is no square
    # in Q(i) when N(g) is none, so x^2 g has no root in the field
    if not x.is_zero():
        assert field_sqrt(square * NON_SQUARE_NORM[d]) is None


def test_classify_ratio_table():
    assert classify_ratio(elem(2, 1), elem(2, 2)) is RatioClass.POSITIVE_RATIONAL
    assert classify_ratio(elem(2, -1), elem(2, 2)) is RatioClass.NEGATIVE_RATIONAL
    assert classify_ratio(elem(2, 0, 0, 1), elem(2, 1)) is RatioClass.POSITIVE_IRRATIONAL
    assert classify_ratio(elem(2, 0, 0, -1), elem(2, 1)) is RatioClass.NEGATIVE_IRRATIONAL
    assert classify_ratio(elem(2, 0, 1), elem(2, 1)) is RatioClass.NOT_REAL
    assert classify_ratio(elem(2, 0), elem(2, 1)) is RatioClass.UNDEFINED


def test_nonresonant_basics():
    verdict, witness = nonresonant((elem(0, 2), elem(0, 3)))
    assert verdict == "nonresonant" and witness is None
    verdict, witness = nonresonant((elem(0, 2), elem(0, -3)))
    assert verdict == "resonant" and witness == (3, 2)
    verdict, witness = nonresonant((elem(2, 1), elem(2, 0, 0, 1)))
    assert verdict == "nonresonant"
    with pytest.raises(ZeroEntry):
        nonresonant((elem(0, 0), elem(0, 1)))


def test_resonant_witness_is_exact():
    lams = (elem(2, 1, 0, 1), elem(2, -2, 0, -2), elem(2, 3, 0, 3))
    verdict, witness = nonresonant(lams)
    assert verdict == "resonant"
    total = F(2, 0)
    for m, l in zip(witness, lams):
        total = total + l * F(2, m)
    assert total.is_zero() and any(witness) and all(m >= 0 for m in witness)


def resonance_bruteforce(lams, bound=30):
    """Oracle: search exhaustively for a resonance with sum(m) <= bound."""
    tau = len(lams)
    coords = [l.basis_coordinates() for l in lams]

    def rec(i, budget, m):
        if i == tau:
            if any(m):
                total = [Fraction(0)] * 4
                for mi, c in zip(m, coords):
                    for j in range(4):
                        total[j] += mi * c[j]
                if not any(total):
                    return tuple(m)
            return None
        for v in range(budget + 1):
            m.append(v)
            hit = rec(i + 1, budget - v, m)
            if hit:
                return hit
            m.pop()
        return None

    return rec(0, bound, [])


def test_bruteforce_agrees_on_samples():
    cases = [
        (elem(0, 2), elem(0, 3)),
        (elem(0, 1), elem(0, -1)),
        (elem(0, Fraction(1, 2)), elem(0, Fraction(-1, 3))),
        (elem(2, 0, 0, 1), elem(2, 1)),
        (elem(0, 5), elem(0, -2), elem(0, -1)),
    ]
    for lams in cases:
        verdict, _ = nonresonant(lams)
        brute = resonance_bruteforce(lams, bound=20)
        assert (verdict == "resonant") == (brute is not None)


@given(elements(d=2), st.integers(-4, 9))
@settings(max_examples=60, deadline=None)
def test_power_matches_repeated_multiplication(x, n):
    if x.is_zero() and n < 0:
        return
    base = x if n >= 0 else x.inverse()
    expected = F(2, 1)
    for _ in range(abs(n)):
        expected = expected * base
    assert x ** n == expected



@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv,
                                operator.eq])
def test_elements_of_different_fields_do_not_mix(op):
    # even a rational element of Q(i) is not read as one of Q(i, sqrt(2)):
    # arithmetic refuses the pair and equality says they differ
    a, b = F(0, 3), F(2, 3)
    for x, y in ((a, b), (b, a)):
        if op is operator.eq:
            assert not op(x, y) and x != y
            continue
        with pytest.raises(FieldParseError, match="mixing"):
            op(x, y)
    assert op(b, 2) == op(F(2, 3), F(2, 2))
    assert op(b, Fraction(1, 2)) == op(F(2, 3), F(2, Fraction(1, 2)))
