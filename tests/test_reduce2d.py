"""Plane reduction of singularities and its audits."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from foliationlab import classify, reduce2d
from foliationlab.classify import PointKind, SaddleNodal, classify_saddle_nodal
from foliationlab.errors import DepthExceeded
from foliationlab.field import FieldElement, RatioClass, classify_ratio
from foliationlab.forms import OneForm
from foliationlab.reduce2d import (_terminal_kind, first_blowup_index_sum, reduce,
                                   verdict_generalized_curve)


def F(x, d=0):
    return FieldElement(d, Fraction(x))


def form(texts, d=0):
    return OneForm.parse(texts, nvars=2, d=d)


def test_simple_point_is_a_depth_zero_tree():
    tree = reduce(form(["2*y", "3*x"]))
    assert tree.blowups == 0
    assert len(tree.leaves) == 1
    assert tree.leaves[0].kind is PointKind.SIMPLE_CH_TRACE
    assert verdict_generalized_curve(tree)["verdict"] == "GeneralizedCurve"


def test_a_dicritical_line_is_singular_where_both_restrictions_vanish():
    # chart x restricts the coefficients to y^4 - y^3 and y - 1, both nonzero
    # on the dicritical exceptional line; their gcd y - 1 is its one point
    tree = reduce(form(["-y*(y-x) - y^3", "x*(y-x) + y^3"]))
    assert tree.blowups == 1
    assert tree.components == {"E1": {"self_intersection": -1, "invariant": False}}
    assert [(l.path, l.kind) for l in tree.leaves] == [(("x:1",), PointKind.SIMPLE_CH_TRACE)]


def test_cusp_resolves_in_three_blowups():
    tree = reduce(form(["-3*x^2", "2*y"]))
    assert tree.blowups == 3
    assert max(len(l.path) for l in tree.leaves) == 3
    assert tree.is_generalized_curve()
    assert tree.nodal_separators() == []
    audit = tree.cs_sum_audit()
    assert audit and all(rep["ok"] for rep in audit.values())
    # final exceptional self-intersections of the cusp resolution
    selfints = sorted(c["self_intersection"] for c in tree.components.values())
    assert selfints == [-3, -2, -1]


def test_cusp_trace_point_residues():
    tree = reduce(form(["-3*x^2", "2*y"]))
    traces = [l for l in tree.leaves
              if l.kind is PointKind.SIMPLE_CH_TRACE and l.residues]
    ratios = set()
    for l in traces:
        ax, ay = l.residues
        if ax is not None and ay is not None and not ay.is_zero():
            ratios.add(str(-ax / ay))
    assert "-6" in ratios or "-1/6" in ratios


def test_saddle_node_leaf_at_depth_zero():
    tree = reduce(form(["y", "-x^2"]))
    assert tree.blowups == 0
    assert tree.leaves[0].kind is PointKind.SADDLE_NODE
    v = verdict_generalized_curve(tree)
    assert v["verdict"] == "SaddleNodeFound" and v["path"] == ()


def test_nodal_separator_sqrt2():
    tree = reduce(OneForm.parse(["-sqrt(2)*y", "x"], nvars=2, d=2))
    seps = tree.nodal_separators()
    assert len(seps) == 1
    assert str(seps[0]["lambda"]) == "sqrt(2)"


def test_rational_node_resolves_without_separator():
    tree = reduce(form(["y", "-2*x"]))
    assert tree.blowups >= 1
    assert tree.nodal_separators() == []
    assert tree.is_generalized_curve()
    audit = tree.cs_sum_audit()
    assert all(rep["ok"] for rep in audit.values())


def test_first_blowup_index_sum_example():
    rep = first_blowup_index_sum(form(["2*y", "3*x"]))
    assert rep["sum"] == F(-1)
    indices = sorted(str(p["index"]) for p in rep["points"])
    assert indices == ["-2/5", "-3/5"]


def test_depth_limit():
    with pytest.raises(DepthExceeded):
        reduce(form(["-3*x^2", "2*y"]), max_depth=1)


def test_dot_export_mentions_leaves():
    tree = reduce(form(["-3*x^2", "2*y"]))
    dot = tree.to_dot()
    assert dot.startswith("digraph") and "Simple" in dot


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def nonzero_elements(draw, d, real=False):
    parts = [draw(rationals) for _ in range(4)]
    if real:
        parts[1] = parts[3] = 0
    if d == 0:
        parts[2] = parts[3] = 0
    x = FieldElement(d, *parts)
    assume(not x.is_zero())
    return x


@pytest.mark.parametrize("d", [0, 2, 3])
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_saddle_nodal_class_follows_from_the_ratio_class(d, data):
    # e2 is a random element or a real multiple of e1, so every class occurs
    e1 = data.draw(nonzero_elements(d))
    if data.draw(st.booleans()):
        e2 = data.draw(nonzero_elements(d))
    else:
        e2 = e1 * data.draw(nonzero_elements(d, real=True))
    ratio = classify_ratio(e1, e2)
    assume(ratio is not RatioClass.POSITIVE_RATIONAL)  # no terminal point
    assert reduce2d._SADDLE_NODAL_OF_RATIO[ratio] is classify_saddle_nodal((e2, -e1))


@pytest.mark.parametrize("texts, d, sn", [
    (["2*y", "3*x"], 0, SaddleNodal.REAL_SADDLE),
    (["y", "-sqrt(2)*x"], 2, SaddleNodal.NODAL),
    (["x+y", "y-x"], 0, SaddleNodal.COMPLEX_SADDLE),
])
def test_terminal_kind_classifies_one_ratio(texts, d, sn, monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return classify_ratio(x, y)
    monkeypatch.setattr(reduce2d, "classify_ratio", counted)
    monkeypatch.setattr(classify, "classify_ratio", counted)
    terminal, (_, _, got, _) = _terminal_kind(form(texts, d), {})
    assert terminal and got is sn
    assert len(calls) == 1
