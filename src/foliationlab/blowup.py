"""Coordinate blow-ups of germs: point and axis centers, chart atlases.

Charts are indexed by their path of direction labels from the root germ.
A chart is a monomial map: a point blow-up in direction j uses x_j = x'_j,
x_i = x'_i x'_j, and an axis blow-up {x_a = x_b = 0} only mixes the two center
variables.  So a chart form is computed on exponents: no coefficient is
multiplied and no polynomial substituted.  Only the root form is saturated:
chart maps and shifts keep a form saturated.
"""
from __future__ import annotations

from .errors import (CenterNotInvariant, CenterNotSingularAdapted, ChartAlreadyBlownUp,
                     DicriticalRoutesDisagree, DimensionError, ScriptChartMissing, ZeroForm)
from .field import FieldElement
from .forms import OneForm, invariant_axis, log_coefficient, saturate, singular_at_origin
from .poly import Polynomial, VARNAMES


class CenterSpec:
    """A blow-up center: a point (given by coordinates) or a coordinate axis."""

    def __init__(self, kind, point=None, axis_vars=None):
        if kind not in ("point", "curve"):
            raise DimensionError(f"unknown center kind {kind!r}")
        self.kind = kind
        self.point = tuple(point) if point is not None else None
        self.axis_vars = tuple(sorted(axis_vars)) if axis_vars is not None else None
        if kind == "point" and self.point is None:
            raise DimensionError("point center needs coordinates")
        if kind == "curve" and (self.axis_vars is None or len(self.axis_vars) != 2):
            raise DimensionError("axis center needs exactly two vanishing variables")

    @classmethod
    def origin(cls, nvars, d):
        return cls("point", point=[FieldElement(d, 0)] * nvars)

    @classmethod
    def axis(cls, a, b):
        return cls("curve", axis_vars=(a, b))

    def variables(self, nvars):
        """Variables participating in the blow-up."""
        return tuple(range(nvars)) if self.kind == "point" else self.axis_vars

    def describe(self):
        if self.kind == "point":
            return {"kind": "point", "coords": [str(c) for c in self.point]}
        return {"kind": "curve", "axis": [VARNAMES[v] for v in self.axis_vars]}


class Component:
    """An exceptional divisor component created by one blow-up."""

    def __init__(self, compact, invariant):
        self.compact = compact
        self.invariant = invariant


class Chart:
    def __init__(self, path, form, divisor, exceptional_var=None):
        self.path = tuple(path)
        self.form = form            # saturated plain OneForm in local coordinates
        self.divisor = dict(divisor)  # local variable index -> component id
        self.exceptional_var = exceptional_var

    @property
    def nvars(self):
        return self.form.nvars


def center_multiplicity(form: OneForm, center: CenterSpec) -> int:
    """Minimal vanishing order of the plain coefficients along the center."""
    vs = center.variables(form.nvars)
    orders = [c.order(vs) for c in form.plain_coefficients() if not c.is_zero()]
    if not orders:
        raise ZeroForm("the zero form has no multiplicity")
    return min(orders)


def initial_forms(form: OneForm, center: CenterSpec):
    vs = center.variables(form.nvars)
    r = center_multiplicity(form, center)
    return [c.homogeneous_part(r, vs) for c in form.plain_coefficients()]


def contraction_test(form: OneForm, center: CenterSpec) -> bool:
    """True when sum_i x_i A_{i,r} vanishes identically (dicritical signature)."""
    vs = center.variables(form.nvars)
    inis = initial_forms(form, center)
    total = Polynomial.zero(form.nvars, form.d)
    for i in vs:
        total = total + inis[i] * Polynomial.var(i, form.nvars, form.d)
    return total.is_zero()


def transform_form(form: OneForm, center: CenterSpec, j):
    """The chart of direction j divided by x_j^r, r the least x_j-order of
    the pullback (valid for any form).  Returns (form, r).

    The chart is the monomial map x_j = x'_j, x_i = x'_i x'_j for the moved
    variables i (the other center variables), so it is built on exponents
    with no field multiplication.  A term c x^e of dx_i keeps c and gains the
    moved exponents of e in x_j; for a moved i, dx_i = x_j dx_i + x_i dx_j
    sends it to dx_i times x_j and to dx_j times x_i.  Terms that meet in
    dx_j are added exactly, and dividing by x_j^r subtracts r from each x_j
    exponent.

    A chart map is an isomorphism off {x_j = 0}, so x_j^r is the only common
    factor of the pullback of a saturated form: the result is its saturation.
    """
    vs = center.variables(form.nvars)
    if j not in vs:
        raise DimensionError("chart direction must participate in the center")
    moved = [i for i in vs if i != j]
    pulled = [{} for _ in range(form.nvars)]
    for i, coefficient in enumerate(form.plain_coefficients()):
        for e, c in coefficient.terms.items():
            image = list(e)
            image[j] += sum(e[k] for k in moved)
            target = i
            if i in moved:
                image[j] += 1
                pulled[i][tuple(image)] = c
                image[j] -= 1
                image[i] += 1
                target = j
            s = pulled[target].get(tuple(image))
            pulled[target][tuple(image)] = c if s is None else s + c
    pulled = [Polynomial(form.nvars, form.d, terms) for terms in pulled]
    r = min((e[j] for p in pulled for e in p.terms), default=None)
    if sum(not p.is_zero() for p in pulled) == 1:
        return saturate(OneForm(pulled))[0], r  # which divides a lone coefficient out whole
    return OneForm([Polynomial(form.nvars, form.d,
                               {e[:j] + (e[j] - r,) + e[j + 1:]: c for e, c in p.terms.items()})
                    for p in pulled]), r


def _dicritical_report(form: OneForm, center: CenterSpec, orders):
    """Dual-route dicriticality decision from the standard charts' orders.

    Route one is the contraction test on initial forms; route two checks that
    every chart transform is divisible by the (r+1)-st power of the
    exceptional variable.  The contraction test reads only the center's own
    coefficients, so the routes are equivalent only when every coefficient
    outside the center vanishes along it to an order above r; a center
    without that property raises CenterNotSingularAdapted.  Disagreement on
    an adapted center is a bug.
    """
    r = center_multiplicity(form, center)
    vs = center.variables(form.nvars)
    plain = form.plain_coefficients()
    outside = [k for k in range(form.nvars) if k not in vs and not plain[k].is_zero()]
    if any(plain[k].order(vs) == r for k in outside):
        raise CenterNotSingularAdapted(
            f"center {center.describe()} is not adapted to the form: a coefficient "
            f"outside it vanishes along it only to the multiplicity {r}")
    by_contraction = contraction_test(form, center)
    by_divisibility = all(o >= r + 1 for o in orders)
    if by_contraction != by_divisibility:
        raise DicriticalRoutesDisagree(
            f"dicriticality routes disagree: contraction={by_contraction}, "
            f"divisibility={by_divisibility} (orders {orders}, r={r})")
    return {"dicritical": by_contraction, "multiplicity": r,
            "exceptional_orders": dict(zip([VARNAMES[j] for j in vs], orders))}


def blow_up_germ(form: OneForm, center: CenterSpec):
    """Blow up an origin-centered center of a saturated germ, chart by chart.

    The input must be saturated: each chart form is then saturated too (see
    transform_form), so no chart needs a gcd.  The charts come in the order
    of the center's variables, and their exceptional orders decide the
    divisibility route of the dicriticality check.  Returns (the
    dicriticality report, [(direction, chart form)]).
    """
    vs = center.variables(form.nvars)
    charts = [transform_form(form, center, j) for j in vs]
    info = _dicritical_report(form, center, [r for _, r in charts])
    return info, [(j, chart) for j, (chart, _) in zip(vs, charts)]


def detect_dicritical(form: OneForm, center: CenterSpec):
    """Dual-route dicriticality decision for one blow-up of the center."""
    return blow_up_germ(form, center)[0]


def center_is_invariant(form: OneForm, center: CenterSpec) -> bool:
    """The center must be invariant: tangent directions annihilated on it."""
    if center.kind == "point":
        return True
    a, b = center.axis_vars
    plain = form.plain_coefficients()
    for i in range(form.nvars):
        if i in (a, b):
            continue
        rest = plain[i].set_var(a, FieldElement(form.d, 0)).set_var(b, FieldElement(form.d, 0))
        if not rest.is_zero():
            return False
    return True


def center_in_singular_locus(form: OneForm, center: CenterSpec) -> bool:
    plain = form.plain_coefficients()
    if center.kind == "point":
        return singular_at_origin(form)
    a, b = center.axis_vars
    zero = FieldElement(form.d, 0)
    return all(c.set_var(a, zero).set_var(b, zero).is_zero() for c in plain)


class BlowupAtlas:
    """A tree of charts over a root germ together with its divisor components."""

    def __init__(self, form: OneForm):
        self.d = form.d
        self.charts = {(): Chart(path=(), form=saturate(form)[0], divisor={})}
        self.components = {}
        self.blown = set()  # paths of the charts already blown up

    def chart(self, path):
        path = tuple(path)
        if path not in self.charts:
            raise ScriptChartMissing(f"no chart at path {path}")
        return self.charts[path]

    def leaf_charts(self):
        return [c for p, c in sorted(self.charts.items()) if p not in self.blown]

    def blow_up(self, path, center: CenterSpec):
        """Blow up the center inside the chart at `path`; a point center off
        the origin is first shifted to it, and the children keep only the
        components through that point.  Each chart is blown up at most once."""
        chart = self.chart(tuple(path))
        if chart.path in self.blown:
            raise ChartAlreadyBlownUp(f"chart {chart.path} is already blown up")
        form = chart.form
        through = chart.divisor
        if center.kind == "point" and any(not c.is_zero() for c in center.point):
            form = OneForm([c.shift(center.point) for c in form.plain_coefficients()])
            through = {v: cid for v, cid in through.items() if center.point[v].is_zero()}
        if not center_is_invariant(form, center):
            raise CenterNotInvariant(f"center {center.describe()} is not invariant")
        if not center_in_singular_locus(form, center):
            raise CenterNotSingularAdapted(
                f"center {center.describe()} is not inside the singular locus")
        info, charts = blow_up_germ(form, center)
        comp_id = f"E{len(self.components) + 1}"
        self.components[comp_id] = Component(compact=center.kind == "point",
                                             invariant=not info["dicritical"])
        self.blown.add(chart.path)
        children = []
        for j, newform in charts:
            divisor = {j: comp_id}
            for v, cid in through.items():
                if v != j:  # the strict transform sits in the other charts
                    divisor[v] = cid
            child = Chart(chart.path + (VARNAMES[j],), newform, divisor, exceptional_var=j)
            self.charts[child.path] = child
            children.append(child)
        return {"children": children, **info}

    def exceptional_residue(self, chart_path):
        """Residue of the exceptional hyperplane in a chart, when invariant."""
        chart = self.chart(tuple(chart_path))
        v = chart.exceptional_var
        if not invariant_axis(chart.form, v):
            return None
        inv = [w for w in range(chart.nvars) if invariant_axis(chart.form, w)]
        return log_coefficient(chart.form, v, inv).constant_term()
