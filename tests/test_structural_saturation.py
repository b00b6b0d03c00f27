"""Saturation by structure: a chart divides by its exceptional power and a
shift keeps a saturated form saturated, against the general gcd route."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from foliationlab import forms, poly, reduce2d
from foliationlab.blowup import BlowupAtlas, CenterSpec, transform_form
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm, saturate
from foliationlab.poly import Polynomial, parse_polynomial
from test_pullback import chart_substitution, naive_pull_back, reference_transform


def reference_chart(form, center, j):
    """The general route every chart took before: pull back, then saturate
    through gcd_many.  Returns (chart form, power of x_j removed)."""
    subst = chart_substitution(form.nvars, form.d, center, j)
    sat, removed = saturate(OneForm(naive_pull_back(form, subst)))
    return sat, removed.degree_in(j)


def elements(d):
    parts = st.integers(-2, 2)
    return st.builds(lambda a, b, c: FieldElement(d, a, b, c if d else 0),
                     parts, parts, parts).filter(lambda c: not c.is_zero())


def polynomials(nvars, d, max_terms):
    """Nonzero polynomials with a few small terms of total degree at most 2.

    The reference route's general poly_gcd can take minutes on denser 3-D
    pullbacks (the same slowness as the slow_gcd benchmark germ), so the
    degrees stay small.
    """
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda e: sum(e) <= 2)
    return st.dictionaries(exps, elements(d), min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(nvars, d, terms))


@st.composite
def factored_forms(draw):
    """A form whose coefficients are products with a common factor: 2-D or
    3-D, d in {0, 2}, plain or logarithmic."""
    nvars = draw(st.sampled_from((2, 3)))
    d = draw(st.sampled_from((0, 2)))
    common = draw(polynomials(nvars, d, 2))
    coeffs = [draw(st.one_of(st.just(Polynomial.zero(nvars, d)),
                             polynomials(nvars, d, 2))) * common
              for _ in range(nvars)]
    if all(c.is_zero() for c in coeffs):
        coeffs[draw(st.integers(0, nvars - 1))] = common
    log = draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
    return OneForm(coeffs, log=log)


def saturated_forms():
    return factored_forms().map(lambda form: saturate(form)[0])


def centers(nvars, d):
    """The origin and, in 3-D, the coordinate axes."""
    axes = [CenterSpec.axis(a, b) for a, b in ((0, 1), (0, 2), (1, 2))] if nvars == 3 else []
    return [CenterSpec.origin(nvars, d)] + axes


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(form=saturated_forms())
def test_every_standard_chart_matches_the_gcd_route(form):
    for center in centers(form.nvars, form.d):
        for j in center.variables(form.nvars):
            assert transform_form(form, center, j) == reference_chart(form, center, j)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(form=st.one_of(factored_forms(), saturated_forms()))
def test_every_chart_matches_the_per_term_pullback(form):
    # saturated or not, the exponent route gives the naive pullback divided
    # by x_j^r, and the same r
    for center in centers(form.nvars, form.d):
        for j in center.variables(form.nvars):
            assert transform_form(form, center, j) == reference_transform(form, center, j)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(form=saturated_forms(), data=st.data())
def test_a_shifted_saturated_form_is_saturated(form, data):
    point = [data.draw(st.one_of(st.just(FieldElement(form.d, 0)), elements(form.d)))
             for _ in range(form.nvars)]
    shifted = OneForm([c.shift(point) for c in form.plain_coefficients()])
    assert saturate(shifted)[0] == shifted


@pytest.mark.parametrize("texts", [["y", "-x"], ["y", "-x", "0"], ["2*y", "-2*x", "0"]])
def test_a_lone_coefficient_is_divided_out_whole(texts):
    # a radial form pulls back to -x^2 dy in chart x: saturate() keeps (1) dy
    form = OneForm.parse(texts, nvars=len(texts), d=0)
    center = CenterSpec.origin(form.nvars, 0)
    for j in range(form.nvars):
        assert transform_form(form, center, j) == reference_chart(form, center, j)


def test_no_gcd_after_the_root_is_saturated(monkeypatch):
    node = OneForm.parse(["-2*x", "2*y"], nvars=2, d=0)  # d(y^2 - x^2)
    atlas = BlowupAtlas(node)
    root = saturate(node)[0]

    def refuse(polys):
        raise AssertionError("gcd_many called after the root was saturated")

    monkeypatch.setattr(forms, "gcd_many", refuse)
    atlas.blow_up((), CenterSpec.origin(2, 0))
    # chart x meets the two branches at t = 1 and t = -1
    atlas.blow_up(("x",), CenterSpec("point", point=[FieldElement(0, 0), FieldElement(0, 1)]))
    assert sorted(c.path for c in atlas.leaf_charts()) == [("x", "x"), ("x", "y"), ("y",)]
    dicritical, points = reduce2d.exceptional_points(root)
    assert not dicritical and sorted(str(t) for _, t, _ in points) == ["-1", "1"]


def slow_gcd_germ():
    """The log form sum_k lam_k (prod_{j != k} f_j) df_k of the branches
    y^2 + x^3, y - 2x and y^2 - x^5 over Q(i, sqrt(2)).  Its two coefficients
    are coprime with 7 terms each, and poly_gcd takes minutes to find that."""
    branches = [parse_polynomial(t, 2, 2) for t in ("y^2 + x^3", "y - 2*x", "y^2 - x^5")]
    lams = [parse_polynomial(t, 2, 2) for t in ("-1", "3/2*sqrt(2)", "-1/2*i")]
    coeffs = []
    for v in range(2):
        c = Polynomial.zero(2, 2)
        for k, (lam, f) in enumerate(zip(lams, branches)):
            term = lam * f.derivative(v)
            for j, g in enumerate(branches):
                if j != k:
                    term = term * g
            c = c + term
        coeffs.append(c)
    return OneForm(coeffs)


def test_the_slow_gcd_germ_saturates_by_its_certificate(monkeypatch):
    form = slow_gcd_germ()

    def refuse(p, q):
        raise AssertionError("poly_gcd called on coprime coefficients")

    monkeypatch.setattr(poly, "poly_gcd", refuse)
    sat, removed = saturate(form)
    assert removed == Polynomial.const(1, 2, 2)
    assert sat == form
    monkeypatch.undo()
    audit = reduce2d.reduce(form).cs_sum_audit()
    assert audit and all(component["ok"] for component in audit.values())
