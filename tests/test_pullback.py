"""Each chart, built on exponents, against a naive per-term pullback."""
from __future__ import annotations

import random

import pytest

from foliationlab.blowup import CenterSpec, detect_dicritical, transform_form
from foliationlab.errors import DimensionError
from foliationlab.forms import OneForm, saturate
from foliationlab.poly import VARNAMES, Polynomial, parse_polynomial


def chart_substitution(nvars, d, center, direction):
    """Old coordinates as polynomials in chart coordinates: the direction
    stays, and every other variable of the center is multiplied by it."""
    vs = center.variables(nvars)
    if direction not in vs:
        raise DimensionError("chart direction must participate in the center")
    xj = Polynomial.var(direction, nvars, d)
    subst = []
    for i in range(nvars):
        xi = Polynomial.var(i, nvars, d)
        subst.append(xi * xj if i in vs and i != direction else xi)
    return subst


def naive_pull_back(form, subst):
    """Pull back term by term: c x^e dx_i -> c prod subst_k^e_k d(subst_i)."""
    nvars, d = form.nvars, form.d
    out = [Polynomial.zero(nvars, d) for _ in range(nvars)]
    for i, coefficient in enumerate(form.plain_coefficients()):
        for exps, c in coefficient.terms.items():
            image = Polynomial.const(c, nvars, d)
            for k, e in enumerate(exps):
                for _ in range(e):
                    image = image * subst[k]
            for j in range(nvars):
                out[j] = out[j] + image * subst[i].derivative(j)
    return out


def reference_transform(form, center, j):
    """The naive pullback of chart j divided by x_j^r, r its least x_j-order,
    or saturated when one coefficient survives.  Returns (form, r)."""
    pulled = naive_pull_back(form, chart_substitution(form.nvars, form.d, center, j))
    r = min(c.order([j]) for c in pulled if not c.is_zero())
    if sum(not c.is_zero() for c in pulled) == 1:
        return saturate(OneForm(pulled))[0], r
    xr = Polynomial.var(j, form.nvars, form.d) ** r
    return OneForm([c.exact_div(xr) for c in pulled]), r


def random_form(rng, nvars, d, log=False):
    """A nonzero form with small exponents, singular at the origin when plain.

    With log=True every coefficient gains a nonzero constant and carries a
    pole: every coordinate hyperplane is invariant, so every coordinate axis
    is an adapted center.
    """
    units = ["1", "i"] + ([f"sqrt({d})"] if d else [])
    texts = []
    for _ in range(nvars):
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = [rng.randint(0, 2) for _ in range(nvars)]
            if not any(exps):
                exps[rng.randrange(nvars)] = 1
            mono = "*".join(f"{VARNAMES[v]}^{e}" for v, e in enumerate(exps) if e)
            terms.append(f"({rng.randint(-5, 5)}/{rng.randint(1, 3)})*{rng.choice(units)}*{mono}")
        if log:
            terms.append(str(rng.choice((-3, -2, -1, 1, 2, 3))))
        texts.append(" + ".join(terms))
    return OneForm([parse_polynomial(t, nvars, d) for t in texts],
                   log=[log] * nvars)


CUSP = OneForm.parse(["-3*x^2", "2*y"], nvars=2, d=0)
JOUANOLOU = OneForm.parse(["y^2 - z*x", "z^2 - x*y", "x^2 - y*z"], nvars=3, d=0)
LOG_CORNER = OneForm.parse(["2", "3", "-4*sqrt(2)"], nvars=3, d=2, log=[True] * 3)


def forms(fixed, nvars, seed, log):
    rng = random.Random(seed)
    return fixed + [random_form(rng, nvars, rng.choice((0, 2)), log) for _ in range(6)]


# (case, forms, center); the axis center needs forms it is adapted to, or the
# two dicriticality routes need not agree
CASES = [
    ("point_2d", forms([CUSP], 2, 1, log=False), lambda d: CenterSpec.origin(2, d)),
    ("point_2d_log", forms([], 2, 2, log=True), lambda d: CenterSpec.origin(2, d)),
    ("point_3d", forms([JOUANOLOU], 3, 3, log=False), lambda d: CenterSpec.origin(3, d)),
    ("axis_xz", forms([LOG_CORNER], 3, 4, log=True), lambda d: CenterSpec.axis(0, 2)),
]


@pytest.mark.parametrize("name,cases,make_center", CASES, ids=[c[0] for c in CASES])
def test_standard_charts_match_reference(name, cases, make_center):
    for form in cases:
        center = make_center(form.d)
        orders = {}
        for j in center.variables(form.nvars):
            chart, r = transform_form(form, center, j)
            assert (chart, r) == reference_transform(form, center, j)
            orders[VARNAMES[j]] = r
        assert detect_dicritical(form, center)["exceptional_orders"] == orders


def test_a_chart_multiplies_and_substitutes_no_polynomial(monkeypatch):
    blow_ups = [(form.plain(), center)
                for form, centers in ((CUSP, [CenterSpec.origin(2, 0)]),
                                      (JOUANOLOU, [CenterSpec.origin(3, 0)]),
                                      (LOG_CORNER, [CenterSpec.origin(3, 2),
                                                    CenterSpec.axis(0, 2),
                                                    CenterSpec.axis(1, 2)]))
                for center in centers]

    def refuse(*args):
        raise AssertionError("a chart multiplied or substituted a polynomial")

    monkeypatch.setattr(Polynomial, "substitute", refuse)
    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    charts = [transform_form(form, center, j)
              for form, center in blow_ups for j in center.variables(form.nvars)]
    monkeypatch.undo()
    assert charts == [reference_transform(form, center, j)
                      for form, center in blow_ups for j in center.variables(form.nvars)]
