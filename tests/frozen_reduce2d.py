"""Frozen copy of the plane-leaf route that reduce2d replaced, kept as an
oracle for the tests: every singular point (0, t) of chart x is shifted to
the origin by binomial expansion, and the shifted germ is classified from
its linear part, read twice, with a resonance test on its residues.  The
reduction driver is copied too; its leaves no longer carry the germ's form,
which is the one change to the copy."""
from __future__ import annotations

from frozen_resonance import nonresonant

from foliationlab.blowup import CenterSpec, blow_up_germ
from foliationlab.classify import PointKind, SaddleNodal, linear_part_matrix
from foliationlab.errors import (DepthExceeded, DimensionError, NonRationalEigenvalues,
                                 NonRationalSingularPoint)
from foliationlab.field import FieldElement, RatioClass, field_sqrt, ratio_class
from foliationlab.forms import OneForm, invariant_axis, saturate, singular_at_origin
from foliationlab.poly import VARNAMES
from foliationlab.reduce2d import Leaf, ReductionTree, singular_points_on_exceptional


def dual_eigenvalues(form: OneForm):
    """Eigenvalues of the linear part of the dual field, as field elements.

    Returns (e1, e2, axis_attached) where axis_attached is True when e1
    belongs to the x-direction and e2 to the y-direction.
    """
    m = linear_part_matrix(form)
    if m[0][1].is_zero() or m[1][0].is_zero():
        return m[0][0], m[1][1], True
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    s = field_sqrt(tr * tr - 4 * det)
    if s is None:
        raise NonRationalEigenvalues(
            "eigenvalues leave the field; enlarge the discriminant")
    two = FieldElement(form.d, 2)
    return (tr + s) / two, (tr - s) / two, False


def exceptional_points(form: OneForm):
    """Blow up a plane germ at the origin; list the singular exceptional points.

    Returns (dicritical, points).  points holds (exc, t, germ): first the
    singular points (0, t) of chart x (exc = 0) in the order univariate_roots
    finds them, then the origin of chart y (exc = 1, t = 0) when it is
    singular.  form must be saturated; so is each germ, shifted to the origin.
    """
    info, charts = blow_up_germ(form, CenterSpec.origin(2, form.d))
    (_, chart_x), (_, chart_y) = charts
    zero = FieldElement(form.d, 0)
    roots, leftover = singular_points_on_exceptional(chart_x, 0)
    if leftover:
        raise NonRationalSingularPoint(leftover)
    points = [(0, t, OneForm([c.shift([zero, t]) for c in chart_x.plain_coefficients()]))
              for t, _mult in roots]
    # the second chart only contributes its origin (vertical direction)
    if singular_at_origin(chart_y):
        points.append((1, zero, chart_y))
    return info["dicritical"], points


_SADDLE_NODAL_OF_RATIO = {
    RatioClass.NOT_REAL: SaddleNodal.COMPLEX_SADDLE,
    RatioClass.POSITIVE_IRRATIONAL: SaddleNodal.NODAL,
    RatioClass.NEGATIVE_RATIONAL: SaddleNodal.REAL_SADDLE,
    RatioClass.NEGATIVE_IRRATIONAL: SaddleNodal.REAL_SADDLE,
}


def _terminal_kind(form, axes):
    """Classify a germ already known to be terminal (or decide it is not).

    Returns (is_terminal, Leaf fields) following the eigenvalue criterion;
    the fields are (kind, residues, saddle_nodal, ratio, notes), with ratio
    the eigenvalue ratio e1 / e2, formed once here.
    """
    if not singular_at_origin(form):
        return True, (PointKind.NON_SINGULAR_NC, None, None, None, ())
    m = linear_part_matrix(form)
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tr = m[0][0] + m[1][1]
    if det.is_zero():
        if tr.is_zero():
            return False, None
        return True, (PointKind.SADDLE_NODE, None, None, None, ())
    e1, e2, attached = dual_eigenvalues(form)
    r = e1 / e2
    rclass = ratio_class(r)
    if rclass is RatioClass.POSITIVE_RATIONAL:
        return False, None
    # the residue pair (alpha_x, alpha_y) is (e2, -e1); with an invariant axis
    # the matrix is triangular and e1, e2 are attached to x and y
    res = (e2, -e1)
    verdict, witness = nonresonant(res)
    inv = [v for v in (0, 1) if invariant_axis(form, v)]
    on_divisor = sum(1 for v in inv if v in axes)
    notes = ()
    if not attached:
        notes = ("residues not attached to coordinate axes",)
    if verdict == "nonresonant":
        kind = (PointKind.SIMPLE_CH_CORNER if len(inv) == 2 and on_divisor == 2
                else PointKind.SIMPLE_CH_TRACE)
    else:
        kind = PointKind.SEIDENBERG_SIMPLE_RESONANT
    return True, (kind, res, _SADDLE_NODAL_OF_RATIO[rclass], r, notes)


def reduce(form: OneForm, max_depth: int = 24) -> ReductionTree:
    """Full reduction of singularities of a plane germ at the origin."""
    if form.nvars != 2:
        raise DimensionError("reduction is implemented for plane germs")
    sat, _ = saturate(form)
    tree = ReductionTree(root=sat)
    counter = [0]
    _reduce_node(sat, {}, (), tree, counter, max_depth)
    return tree


def _reduce_node(form, axes, path, tree, counter, max_depth):
    terminal, data = _terminal_kind(form, axes)
    if terminal:
        kind, res, sn, r, notes = data
        tree.leaves.append(Leaf(path=path, kind=kind, residues=res,
                                axes=dict(axes), saddle_nodal=sn, ratio=r, notes=notes))
        return
    if counter[0] >= max_depth:
        raise DepthExceeded(f"more than {max_depth} blow-ups required")
    counter[0] += 1
    tree.blowups += 1
    comp_id = f"E{tree.blowups}"
    dicritical, points = exceptional_points(form)
    for cid in set(axes.values()):
        tree.components[cid]["self_intersection"] -= 1
    tree.components[comp_id] = {"self_intersection": -1, "invariant": not dicritical}
    # chart x points by parameter, then the chart y origin: this visiting
    # order fixes the leaf order and the component ids
    for exc, t, germ in sorted(points, key=lambda p: (p[0], str(p[1]))):
        other = 1 - exc
        child_axes = {exc: comp_id}
        if t.is_zero() and other in axes:
            child_axes[other] = axes[other]
        _reduce_node(germ, child_axes, path + (f"{VARNAMES[exc]}:{t}",),
                     tree, counter, max_depth)
