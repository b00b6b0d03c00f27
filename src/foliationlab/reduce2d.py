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
from .classify import (PointKind, SaddleNodal, camacho_sad_index,
                       linear_part_matrix)
from .errors import (DepthExceeded, DimensionError, IncompleteTree,
                     NonRationalEigenvalues, NonRationalSingularPoint,
                     SaddleNodeUnsupported, ZeroForm)
from .field import (FieldElement, RatioClass, classify_ratio, field_sqrt,
                    nonresonant)
from .forms import OneForm, invariant_axis, saturate, singular_at_origin
from .poly import VARNAMES, gcd_many
from .solve import univariate_roots


@dataclass
class Leaf:
    path: tuple
    form: OneForm
    kind: PointKind
    residues: tuple | None          # (alpha_x, alpha_y) attached to the local axes
    axes: dict                      # local variable -> exceptional component id
    saddle_nodal: SaddleNodal | None = None
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
        """Leaves conjugated to x dy - lam y dx with lam positive irrational."""
        out = []
        for l in self.leaves:
            if l.residues is None:
                continue
            ax, ay = l.residues
            if ax is None or ay is None or ay.is_zero():
                continue
            if classify_ratio(ax, ay) is RatioClass.NEGATIVE_IRRATIONAL:
                lam = -ax / ay
                if lam.reality_sign().value != "Positive":
                    lam = -ay / ax
                out.append({"path": l.path, "lambda": lam, "axes": dict(l.axes)})
        return out

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
                if l.kind is PointKind.NON_SINGULAR_NC or l.residues is None:
                    continue
                idx = camacho_sad_index(l.residues, branch)
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


def reduce(form: OneForm, max_depth: int = 24) -> ReductionTree:
    """Full reduction of singularities of a plane germ at the origin."""
    if form.nvars != 2:
        raise DimensionError("reduction is implemented for plane germs")
    sat, _ = saturate(form)
    tree = ReductionTree(root=sat)
    counter = [0]
    _reduce_node(sat, {}, (), tree, counter, max_depth)
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


def _terminal_kind(form, axes):
    """Classify a germ already known to be terminal (or decide it is not).

    Returns (is_terminal, Leaf fields) following the eigenvalue criterion.
    """
    if not singular_at_origin(form):
        return True, (PointKind.NON_SINGULAR_NC, None, None, ())
    m = linear_part_matrix(form)
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    tr = m[0][0] + m[1][1]
    if det.is_zero():
        if tr.is_zero():
            return False, None
        return True, (PointKind.SADDLE_NODE, None, None, ())
    e1, e2, attached = dual_eigenvalues(form)
    ratio = classify_ratio(e1, e2)
    if ratio is RatioClass.POSITIVE_RATIONAL:
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
    return True, (kind, res, _SADDLE_NODAL_OF_RATIO[ratio], notes)


def _reduce_node(form, axes, path, tree, counter, max_depth):
    terminal, data = _terminal_kind(form, axes)
    if terminal:
        kind, res, sn, notes = data
        tree.leaves.append(Leaf(path=path, form=form, kind=kind, residues=res,
                                axes=dict(axes), saddle_nodal=sn, notes=notes))
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


def first_blowup_index_sum(form: OneForm):
    """Blow up once and sum the Camacho-Sad indices along the exceptional.

    Every singular point of the transform must be terminal; the sum is -1 for
    a non-dicritical blow-up.
    """
    sat, _ = saturate(form)
    dicritical, points = exceptional_points(sat)
    total = FieldElement(form.d, 0)
    out = []
    for exc, t, germ in points:
        terminal, data = _terminal_kind(germ, {exc: "E1"})
        if not terminal:
            raise SaddleNodeUnsupported("non-terminal point after one blow-up")
        kind, res, _sn, _notes = data
        if kind is PointKind.SADDLE_NODE:
            raise SaddleNodeUnsupported("saddle-node after one blow-up")
        if res is None:
            continue
        idx = camacho_sad_index(res, exc)
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
