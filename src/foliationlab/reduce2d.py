"""Reduction of plane foliation germs by iterated point blow-ups.

Terminal points are the Seidenberg-simple ones (two nonzero eigenvalues of
the dual vector field whose ratio is not a positive rational) together with
saddle-nodes, which are kept as flagged terminal defects.  The tree records
exceptional components with self-intersections, per-leaf residues, nodal
separatrices and the Camacho-Sad sum audit.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .blowup import CenterSpec, blow_up_germ
from .classify import PointKind, SaddleNodal
from .errors import (DepthExceeded, DimensionError, IncompleteTree,
                     NonRationalEigenvalues, NonRationalSingularPoint,
                     SaddleNodeUnsupported, ZeroForm)
from .field import FieldElement, RatioClass, field_sqrt, ratio_class
from .forms import OneForm, saturate, singular_at_origin
from .poly import VARNAMES, gcd_many
from .solve import univariate_roots


@dataclass
class Leaf:
    path: tuple
    kind: PointKind
    residues: tuple | None          # (alpha_x, alpha_y) attached to the local axes
    axes: dict                      # local variable -> exceptional component id
    saddle_nodal: SaddleNodal | None = None
    # e1 / e2 = -alpha_y / alpha_x, the Camacho-Sad index along {x = 0}; its
    # inverse is the index along {y = 0}.  None where residues is None.
    ratio: FieldElement | None = None
    notes: tuple = ()


@dataclass
class ReductionTree:
    root: OneForm
    leaves: list = dfield(default_factory=list)
    components: dict = dfield(default_factory=dict)  # id -> {"self_intersection", "invariant"}
    blowups: int = 0

    def is_generalized_curve(self) -> bool:
        """No saddle-node appears in the reduction."""
        return all(l.kind is not PointKind.SADDLE_NODE for l in self.leaves)

    def nodal_separators(self):
        """Leaves conjugated to x dy - lam y dx with lam positive irrational.

        These are the nodal leaves: alpha_x / alpha_y = -1 / ratio is a
        negative irrational exactly when ratio is a positive irrational, and
        lam = -alpha_x / alpha_y = 1 / ratio is then positive.
        """
        return [{"path": l.path, "lambda": l.ratio.inverse(), "axes": dict(l.axes)}
                for l in self.leaves if l.saddle_nodal is SaddleNodal.NODAL]

    def cs_sum_audit(self):
        """Per-component check: sum of indices = self-intersection."""
        report = {}
        for cid, comp in sorted(self.components.items()):
            if not comp["invariant"]:
                continue
            total = FieldElement(self.root.d, 0)
            points = []
            for l in self.leaves:
                branch = None
                for var, c in l.axes.items():
                    if c == cid:
                        branch = var
                if branch is None:
                    continue
                if l.kind is PointKind.SADDLE_NODE:
                    raise SaddleNodeUnsupported(
                        f"saddle-node on component {cid}; index undefined")
                if l.ratio is None:
                    continue
                idx = l.ratio if branch == 0 else l.ratio.inverse()
                total = total + idx
                points.append({"path": l.path, "index": idx})
            report[cid] = {
                "sum": total,
                "self_intersection": comp["self_intersection"],
                "points": points,
                "ok": total == FieldElement(self.root.d, comp["self_intersection"]),
            }
        return report

    def to_dot(self):
        lines = ["digraph reduction {", '  node [shape=box, fontname="monospace"];']
        lines.append('  root [label="root"];')
        names = {(): "root"}
        order = sorted({l.path[:k] for l in self.leaves for k in range(len(l.path) + 1)})
        for p in order:
            if not p:
                continue
            names[p] = "n" + "_".join(s.replace(":", "_").replace("=", "_")
                                      .replace("-", "m").replace("/", "_") for s in p)
        drawn = set()
        for l in self.leaves:
            for k in range(1, len(l.path) + 1):
                a, b = l.path[:k - 1], l.path[:k]
                if (a, b) in drawn:
                    continue
                drawn.add((a, b))
                label = b[-1]
                extra = ""
                if b == l.path:
                    extra = f'\\n{l.kind.value}'
                    if l.residues and l.residues[0] is not None:
                        extra += f"\\n({l.residues[0]}, {l.residues[1]})"
                lines.append(f'  {names[b]} [label="{label}{extra}"];')
                lines.append(f"  {names[a]} -> {names[b]};")
        lines.append("}")
        return "\n".join(lines)


def dual_eigenvalues(m):
    """Eigenvalues of the linear part m of the dual field (as linear_part_matrix
    reads it), as field elements.

    Returns (e1, e2, axis_attached) where axis_attached is True when e1
    belongs to the x-direction and e2 to the y-direction.
    """
    if m[0][1].is_zero() or m[1][0].is_zero():
        return m[0][0], m[1][1], True
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    s = field_sqrt(tr * tr - 4 * det)
    if s is None:
        raise NonRationalEigenvalues(
            "eigenvalues leave the field; enlarge the discriminant")
    two = FieldElement(tr.d, 2)
    return (tr + s) / two, (tr - s) / two, False


def taylor_data(form: OneForm, t):
    """(m, inv) of the germ of a dx + b dy at a singular point (0, t), read off
    the unshifted coefficients: m as linear_part_matrix reads it from the germ
    shifted to the origin, inv its invariant local axes (0: {x = 0}, 1: {y = t}).

    The x^k coefficient of a(x, t) sums c t^j over the terms c x^k y^j, and
    the first derivatives at (0, t) are such sums.  {x = 0} is invariant iff
    x divides b; {y = t} iff every x^k coefficient of a(x, t) vanishes, as
    the one for k = 0 does at a singular point.
    """
    zero = FieldElement(form.d, 0)
    t_zero = t.is_zero()
    powers = [None, t]

    def at(p, k, dy=False):
        """The x^k coefficient of p(x, t), or of dp/dy(x, t) with dy."""
        s = zero
        for (i, j), c in p.terms.items():
            if i != k or j < dy or (j > dy and t_zero):
                continue
            if dy:
                c, j = c * j, j - 1
            if j:
                while len(powers) <= j:
                    powers.append(powers[-1] * t)
                c = c * powers[j]
            s = s + c
        return s

    a, b = form.plain_coefficients()
    m = [[-at(b, 1), -at(b, 0, True)], [at(a, 1), at(a, 0, True)]]
    inv = [0] if all(i for i, _ in b.terms) else []
    if m[1][0].is_zero() and all(at(a, k).is_zero() for k in range(2, a.degree_in(0) + 1)):
        inv.append(1)
    return m, inv


def singular_points_on_exceptional(form: OneForm, exc_var):
    """Roots t with (0, t) (exc_var = first coord) singular for the form.

    Returns (roots, leftover) where leftover is a nonsplit factor, if any.
    """
    other = 1 - exc_var
    cs = form.plain_coefficients()
    zero = FieldElement(form.d, 0)
    restrictions = [c.set_var(exc_var, zero) for c in cs]
    g = gcd_many([r for r in restrictions if not r.is_zero()])
    if g is None:
        raise ZeroForm("form vanishes on the exceptional line; not saturated")
    if g.is_constant():
        return [], []
    coeffs = g.univariate_coefficients(other)
    return univariate_roots(coeffs)


def exceptional_points(form: OneForm):
    """Blow up a plane germ at the origin; list the singular exceptional points.

    Returns (dicritical, points).  points holds (exc, t, chart form): first
    the singular points (0, t) of chart x (exc = 0) in the order
    univariate_roots finds them, then the origin of chart y (exc = 1, t = 0)
    when it is singular.  form must be saturated; so is each chart form, and
    nothing is shifted here (see taylor_data and _reduce_node).
    """
    info, charts = blow_up_germ(form, CenterSpec.origin(2, form.d))
    (_, chart_x), (_, chart_y) = charts
    zero = FieldElement(form.d, 0)
    roots, leftover = singular_points_on_exceptional(chart_x, 0)
    if leftover:
        raise NonRationalSingularPoint(leftover)
    points = [(0, t, chart_x) for t, _mult in roots]
    # the second chart only contributes its origin (vertical direction)
    if singular_at_origin(chart_y):
        points.append((1, zero, chart_y))
    return info["dicritical"], points


def reduce(form: OneForm, max_depth: int = 24) -> ReductionTree:
    """Full reduction of singularities of a plane germ at the origin."""
    if form.nvars != 2:
        raise DimensionError("reduction is implemented for plane germs")
    sat, _ = saturate(form)
    tree = ReductionTree(root=sat)
    counter = [0]
    _reduce_node(sat, None, {}, (), tree, counter, max_depth)
    return tree


# The saddle/nodal class of the residue pair (e2, -e1), read off the class
# of e1 / e2: the ratio e2 / (-e1) = -1 / (e1 / e2) is non-real exactly when
# e1 / e2 is, and has the opposite sign otherwise.  A positive rational e1 / e2
# is no terminal point, and with det != 0 neither eigenvalue is zero.
_SADDLE_NODAL_OF_RATIO = {
    RatioClass.NOT_REAL: SaddleNodal.COMPLEX_SADDLE,
    RatioClass.POSITIVE_IRRATIONAL: SaddleNodal.NODAL,
    RatioClass.NEGATIVE_RATIONAL: SaddleNodal.REAL_SADDLE,
    RatioClass.NEGATIVE_IRRATIONAL: SaddleNodal.REAL_SADDLE,
}


def _terminal_kind(form, axes, t=None):
    """Classify the germ of form at (0, t) as terminal, or decide it is not.

    t is None for a germ at the origin not yet known to be singular; a t from
    exceptional_points is a singular point.  Returns (is_terminal, Leaf
    fields) following the eigenvalue criterion; the fields are (kind,
    residues, saddle_nodal, ratio, notes), with ratio = e1 / e2 formed once
    here.  A terminal ratio is no positive rational, so the residues (e2, -e1)
    are nonresonant: m1 e2 = m2 e1 with m >= 0, m != 0 makes e1 / e2 = m1 / m2.
    """
    if t is None:
        if not singular_at_origin(form):
            return True, (PointKind.NON_SINGULAR_NC, None, None, None, ())
        t = FieldElement(form.d, 0)
    m, inv = taylor_data(form, t)
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tr = m[0][0] + m[1][1]
    if det.is_zero():
        if tr.is_zero():
            return False, None
        return True, (PointKind.SADDLE_NODE, None, None, None, ())
    e1, e2, attached = dual_eigenvalues(m)
    r = e1 / e2
    rclass = ratio_class(r)
    if rclass is RatioClass.POSITIVE_RATIONAL:
        return False, None
    # the residue pair (alpha_x, alpha_y) is (e2, -e1); with an invariant axis
    # the matrix is triangular and e1, e2 are attached to x and y
    res = (e2, -e1)
    on_divisor = sum(1 for v in inv if v in axes)
    notes = () if attached else ("residues not attached to coordinate axes",)
    kind = (PointKind.SIMPLE_CH_CORNER if len(inv) == 2 and on_divisor == 2
            else PointKind.SIMPLE_CH_TRACE)
    return True, (kind, res, _SADDLE_NODAL_OF_RATIO[rclass], r, notes)


def _reduce_node(form, t, axes, path, tree, counter, max_depth):
    """Reduce the germ at (0, t), t None for the root; shift only to blow up."""
    terminal, data = _terminal_kind(form, axes, t)
    if terminal:
        kind, res, sn, r, notes = data
        tree.leaves.append(Leaf(path=path, kind=kind, residues=res, axes=dict(axes),
                                saddle_nodal=sn, ratio=r, notes=notes))
        return
    if counter[0] >= max_depth:
        raise DepthExceeded(f"more than {max_depth} blow-ups required")
    if t is not None and not t.is_zero():
        zero = FieldElement(form.d, 0)
        form = OneForm([c.shift([zero, t]) for c in form.plain_coefficients()])
    counter[0] += 1
    tree.blowups += 1
    comp_id = f"E{tree.blowups}"
    dicritical, points = exceptional_points(form)
    for cid in set(axes.values()):
        tree.components[cid]["self_intersection"] -= 1
    tree.components[comp_id] = {"self_intersection": -1, "invariant": not dicritical}
    # chart x points by parameter, then the chart y origin: this visiting
    # order fixes the leaf order and the component ids
    for exc, t, chart in sorted(points, key=lambda p: (p[0], str(p[1]))):
        other = 1 - exc
        child_axes = {exc: comp_id}
        if t.is_zero() and other in axes:
            child_axes[other] = axes[other]
        _reduce_node(chart, t, child_axes, path + (f"{VARNAMES[exc]}:{t}",),
                     tree, counter, max_depth)


def first_blowup_index_sum(form: OneForm):
    """Blow up once and sum the Camacho-Sad indices along the exceptional.

    Every singular point of the transform must be terminal; the sum is -1 for
    a non-dicritical blow-up.
    """
    sat, _ = saturate(form)
    dicritical, points = exceptional_points(sat)
    total = FieldElement(form.d, 0)
    out = []
    for exc, t, chart in points:
        terminal, data = _terminal_kind(chart, {exc: "E1"}, t)
        if not terminal:
            raise SaddleNodeUnsupported("non-terminal point after one blow-up")
        kind, _res, _sn, r, _notes = data
        if kind is PointKind.SADDLE_NODE:
            raise SaddleNodeUnsupported("saddle-node after one blow-up")
        if r is None:
            continue
        idx = r if exc == 0 else r.inverse()
        total = total + idx
        out.append({"chart": VARNAMES[exc], "point": t if exc == 0 else None,
                    "index": idx})
    return {"dicritical": dicritical, "sum": total, "points": out}


def verdict_generalized_curve(tree: ReductionTree):
    """GeneralizedCurve, or SaddleNodeFound with the offending leaf path."""
    if not tree.leaves:
        raise IncompleteTree("reduction tree has no leaves")
    for l in tree.leaves:
        if l.kind is PointKind.SADDLE_NODE:
            return {"verdict": "SaddleNodeFound", "path": l.path}
    return {"verdict": "GeneralizedCurve", "path": None}
