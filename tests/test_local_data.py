"""Restriction, log coefficients and leaf residues against the code they replaced."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from log_forms import log_residues, to_log_form

from foliationlab.blowup import CenterSpec, center_in_singular_locus
from foliationlab.classify import linear_part_matrix
from foliationlab.errors import NonRationalEigenvalues, NotDivisible
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm, invariant_axis, log_coefficient
from foliationlab.poly import VARNAMES, Polynomial
from foliationlab.reduce2d import _terminal_kind, dual_eigenvalues


# -- the parent's code, verbatim ---------------------------------------------

def reference_set_var(self, i, value):
    """Substitute a single variable, keeping the variable count."""
    images = [Polynomial.var(j, self.nvars, self.d) for j in range(self.nvars)]
    if isinstance(value, FieldElement):
        value = Polynomial.const(value, self.nvars, self.d)
    images[i] = value
    return self.substitute(images)


def reference_normalized_coefficients(plain, inv, nvars, d):
    """Per-variable coefficients with the invariant-axis product divided out.

    beta_u = c_u / prod_{w invariant, w != u} x_w; for invariant u this is the
    logarithmic coefficient, for transverse u the residual polynomial factor.
    """
    out = []
    for u in range(nvars):
        q = plain[u]
        for w in inv:
            if w != u and not q.is_zero():
                q = q.exact_div(Polynomial.var(w, nvars, d))
        out.append(q)
    return out


def reference_to_log_form(form: OneForm, variables):
    plain = form.plain_coefficients()
    variables = sorted(set(variables))
    for v in variables:
        xv = Polynomial.var(v, form.nvars, form.d)
        for j, c in enumerate(plain):
            if j != v and not c.is_zero() and not c.divisible_by(xv):
                raise NotDivisible(VARNAMES[v])
    log = [False] * form.nvars
    for v in variables:
        log[v] = True
    coeffs = []
    for j, c in enumerate(plain):
        q = c
        for v in variables:
            if v != j and not q.is_zero():
                q = q.exact_div(Polynomial.var(v, form.nvars, form.d))
        coeffs.append(q)
    return OneForm(coeffs, log=log)


def reference_log_residues(form: OneForm, variables):
    plain = form.plain_coefficients()
    variables = sorted(set(variables))
    for v in variables:
        xv = Polynomial.var(v, form.nvars, form.d)
        for j, c in enumerate(plain):
            if j != v and not c.is_zero() and not c.divisible_by(xv):
                raise NotDivisible(VARNAMES[v])
    out = {}
    for v in variables:
        q = plain[v]
        for w in variables:
            if w != v and not q.is_zero():
                q = q.exact_div(Polynomial.var(w, form.nvars, form.d))
        out[v] = q.constant_term() if not q.is_zero() else FieldElement(form.d, 0)
    return out


class Unclassifiable(Exception):
    pass


def reference_axis_coefficients(form, u, v):
    """The parent's from_atlas block for a singular axis {x_u = x_v = 0} with
    both hyperplanes invariant: the log coefficients restricted to the axis."""
    nv = form.nvars
    zero = FieldElement(form.d, 0)
    plain = form.plain_coefficients()
    pu, pv = plain[u], plain[v]
    # logarithmic coefficients along the curve
    try:
        au = pu.exact_div(Polynomial.var(v, nv, form.d))
        av = pv.exact_div(Polynomial.var(u, nv, form.d))
    except Exception:
        raise Unclassifiable((u, v))
    other_inv = [t for t in range(nv)
                 if t not in (u, v) and invariant_axis(form, t)]
    for t in other_inv:
        xt = Polynomial.var(t, nv, form.d)
        if au.divisible_by(xt):
            au = au.exact_div(xt)
        if av.divisible_by(xt):
            av = av.exact_div(xt)
    ru = au.set_var(u, zero).set_var(v, zero)
    rv = av.set_var(u, zero).set_var(v, zero)
    return ru, rv


def reference_leaf_residues(form: OneForm):
    """Axis-attached residue pair (alpha_x, alpha_y) of a terminal germ.

    For an invariant axis the matrix of the dual field is triangular and the
    residues are (M[1][1], -M[0][0]); with both axes invariant this agrees
    with the logarithmic residues.
    """
    m = linear_part_matrix(form)
    if m[0][1].is_zero() or m[1][0].is_zero():
        return m[1][1], -m[0][0], True
    e1, e2, _ = dual_eigenvalues(m)
    return e2, -e1, False


# -- strategies ----------------------------------------------------------------

small = st.fractions(min_value=-5, max_value=5, max_denominator=3)


@st.composite
def constants(draw, d):
    if d == 0:
        return FieldElement(0, draw(small), draw(small))
    return FieldElement(d, draw(small), draw(small), draw(small), draw(small))


@st.composite
def polys(draw, nvars, d, min_order=0, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        e = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        if sum(e) >= min_order:
            terms[e] = draw(constants(d))
    return Polynomial(nvars, d, terms)


@st.composite
def invariant_forms(draw):
    """A plain form with the hyperplanes of a drawn set of axes invariant:
    c_j = q_j * prod_{w in axes, w != j} x_w."""
    nvars = draw(st.sampled_from((2, 3)))
    d = draw(st.sampled_from((0, 2)))
    axes = draw(st.sets(st.integers(0, nvars - 1)))
    coeffs = []
    for j in range(nvars):
        c = draw(polys(nvars, d))
        for w in axes:
            if w != j:
                c = c * Polynomial.var(w, nvars, d)
        coeffs.append(c)
    return OneForm(coeffs, nvars=nvars, d=d)


# -- restriction ---------------------------------------------------------------

@given(st.data())
@settings(max_examples=150, deadline=None)
def test_set_var_matches_substitution(data):
    nvars = data.draw(st.sampled_from((2, 3)))
    d = data.draw(st.sampled_from((0, 2)))
    p = data.draw(polys(nvars, d, max_terms=6))
    i = data.draw(st.integers(0, nvars - 1))
    for c in (FieldElement(d, 0), FieldElement(d, 1), data.draw(constants(d))):
        got = p.set_var(i, c)
        assert got == reference_set_var(p, i, c)
        assert (got.nvars, got.d) == (nvars, d)
        assert all(e[i] == 0 for e in got.terms)


def test_set_var_does_not_substitute(monkeypatch):
    p = Polynomial.var(0, 3, 2) ** 2 * Polynomial.var(1, 3, 2) \
        + Polynomial.var(2, 3, 2) + Polynomial.const(FieldElement(2, 0, 0, 1), 3, 2)
    w = OneForm.parse(["2", "3", "-4*sqrt(2)"], nvars=3, d=2, log=[True, True, True])
    c = FieldElement(2, 1, 0, 1)
    expected = [reference_set_var(p, i, v) for i in range(3)
                for v in (FieldElement(2, 0), c)]

    def refuse(self, images):
        raise AssertionError("restriction went through substitute")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    assert [p.set_var(i, v) for i in range(3) for v in (FieldElement(2, 0), c)] == expected
    assert center_in_singular_locus(w, CenterSpec.axis(0, 1))


# -- invariance and log coefficients -----------------------------------------

@given(invariant_forms(), st.data())
@settings(max_examples=150, deadline=None)
def test_log_coefficients_match_the_copies_they_replaced(form, data):
    nv, d = form.nvars, form.d
    inv = [v for v in range(nv) if invariant_axis(form, v)]
    assert [log_coefficient(form, u, inv) for u in range(nv)] == \
        reference_normalized_coefficients(form.plain_coefficients(), inv, nv, d)
    assert log_residues(form, inv) == reference_log_residues(form, inv)
    for u in inv:
        for v in inv:
            if u < v:
                zero = FieldElement(d, 0)
                got = tuple(log_coefficient(form, w, inv).set_var(u, zero).set_var(v, zero)
                            for w in (u, v))
                assert got == reference_axis_coefficients(form, u, v)
    # any requested set: the same log form, or the same NotDivisible
    requested = data.draw(st.sets(st.integers(0, nv - 1)))
    try:
        want = reference_to_log_form(form, requested)
    except NotDivisible as e:
        with pytest.raises(NotDivisible) as got:
            to_log_form(form, requested)
        assert got.value.variable == e.variable
        with pytest.raises(NotDivisible) as got:
            log_residues(form, requested)
        assert got.value.variable == e.variable
    else:
        have = to_log_form(form, requested)
        assert have.coeffs == want.coeffs and have.log == want.log


# -- leaf residues -----------------------------------------------------------

def _check_terminal_residues(form):
    try:
        terminal, data = _terminal_kind(form, {})
    except NonRationalEigenvalues:
        with pytest.raises(NonRationalEigenvalues):
            reference_leaf_residues(form)
        return None
    if not terminal or data[1] is None:
        return None
    ax, ay, attached = reference_leaf_residues(form)
    assert data[1] == (ax, ay)
    assert data[3] == -ay / ax
    assert (data[4] == ()) == attached
    return attached


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_terminal_residues_match_leaf_residues(data):
    d = data.draw(st.sampled_from((0, 2)))
    ints = st.integers(-3, 3)
    a, b, c, e = (Fraction(data.draw(ints)) for _ in range(4))
    x, y = Polynomial.var(0, 2, d), Polynomial.var(1, 2, d)
    cx = x * FieldElement(d, a) + y * FieldElement(d, b) + data.draw(polys(2, d, min_order=2))
    cy = x * FieldElement(d, c) + y * FieldElement(d, e) + data.draw(polys(2, d, min_order=2))
    _check_terminal_residues(OneForm([cx, cy]))


@pytest.mark.parametrize("texts, attached", [
    (["2*y", "3*x"], True),                      # log corner, triangular
    (["3*y + x^2", "sqrt(2)*x + y"], True),      # triangular, no invariant axis
    (["2*x + y", "-(x + 2*y)"], False),          # eigenvalues 3, -1 off the axes
])
def test_terminal_residues_fixed_examples(texts, attached):
    assert _check_terminal_residues(OneForm.parse(texts, nvars=2, d=2)) is attached
