"""Nodal separators, the Camacho-Sad audit and the first blow-up's index sum,
read off each leaf's eigenvalue ratio, against the same quantities recomputed
from the leaf residues with camacho_sad_index and classify_ratio."""
from __future__ import annotations

import bench_workloads
from hypothesis import assume, given, settings, strategies as st

from foliationlab.classify import PointKind, camacho_sad_index
from foliationlab.errors import FoliationLabError, SaddleNodeUnsupported
from foliationlab.field import FieldElement, RatioClass, classify_ratio
from foliationlab.forms import OneForm, saturate
from foliationlab.poly import VARNAMES, Polynomial
from foliationlab.reduce2d import (_terminal_kind, exceptional_points,
                                   first_blowup_index_sum, reduce)


# -- the quantities from the residues, as the library computed them before ---

def reference_nodal_separators(tree):
    out = []
    for l in tree.leaves:
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


def reference_cs_sum_audit(tree):
    report = {}
    for cid, comp in sorted(tree.components.items()):
        if not comp["invariant"]:
            continue
        total = FieldElement(tree.root.d, 0)
        points = []
        for l in tree.leaves:
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
            "ok": total == FieldElement(tree.root.d, comp["self_intersection"]),
        }
    return report


def reference_first_blowup_index_sum(form):
    sat, _ = saturate(form)
    dicritical, points = exceptional_points(sat)
    total = FieldElement(form.d, 0)
    out = []
    for exc, t, chart in points:
        # the germ at (0, t) shifted to the origin, classified there
        germ = OneForm([c.shift([FieldElement(form.d, 0), t]) for c in chart.plain_coefficients()])
        terminal, data = _terminal_kind(germ, {exc: "E1"})
        if not terminal:
            raise SaddleNodeUnsupported("non-terminal point after one blow-up")
        kind, res = data[:2]
        if kind is PointKind.SADDLE_NODE:
            raise SaddleNodeUnsupported("saddle-node after one blow-up")
        if res is None:
            continue
        idx = camacho_sad_index(res, exc)
        total = total + idx
        out.append({"chart": VARNAMES[exc], "point": t if exc == 0 else None,
                    "index": idx})
    return {"dicritical": dicritical, "sum": total, "points": out}


def outcome(f, *args):
    """What f returns, or the type and message of the error it raises."""
    try:
        return f(*args)
    except FoliationLabError as e:
        return type(e), str(e)


def check_against_residues(form):
    tree = reduce(form)
    assert tree.nodal_separators() == reference_nodal_separators(tree)
    assert outcome(tree.cs_sum_audit) == outcome(reference_cs_sum_audit, tree)
    assert outcome(first_blowup_index_sum, form) == \
        outcome(reference_first_blowup_index_sum, form)
    return tree


# -- the benchmark's plane reductions -----------------------------------------

def test_plane_reduction_leaves_match_their_residues():
    wl = bench_workloads.load()["plane_reduction"]
    nodal = 0
    for seed in (1, 2, 3):
        for spec in wl.generate(seed):
            nodal += len(check_against_residues(wl.prepare(spec)).nodal_separators())
    assert nodal   # the separators are compared on real cases


# -- log forms with residues in Q(sqrt(2)) and Q(sqrt(3)) ---------------------

def _branches(d):
    x, y = Polynomial.var(0, 2, d), Polynomial.var(1, 2, d)
    one, zero = Polynomial.const(1, 2, d), Polynomial.zero(2, d)

    def line(a):
        return y - x * FieldElement(d, a), Polynomial.const(-a, 2, d), one
    return {"x": (x, one, zero), "y": (y, zero, one),
            **{f"line{a}": line(a) for a in (-2, -1, 1, 2, 3)},
            "cusp": (y * y - x * x * x, x * x * FieldElement(d, -3), y * FieldElement(d, 2))}


@given(st.data(), st.sampled_from((2, 3)))
@settings(max_examples=60, deadline=None)
def test_log_form_leaves_match_their_residues(data, d):
    # sum_k lam_k (prod_{j != k} f_j) df_k over distinct branches f_k
    branches = _branches(d)
    names = data.draw(st.lists(st.sampled_from(sorted(branches)), min_size=2, max_size=3,
                               unique=True))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    lams = [FieldElement(d, data.draw(q), 0, data.draw(q), 0) for _ in names]
    assume(all(not lam.is_zero() for lam in lams))
    cx = cy = Polynomial.zero(2, d)
    for k, (name, lam) in enumerate(zip(names, lams)):
        others = Polynomial.const(lam, 2, d)
        for j, other in enumerate(names):
            if j != k:
                others = others * branches[other][0]
        cx, cy = cx + others * branches[name][1], cy + others * branches[name][2]
    try:
        check_against_residues(OneForm([cx, cy]))
    except FoliationLabError:
        assume(False)   # reduce itself refused the form: nothing to compare

