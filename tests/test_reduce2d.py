"""Plane reduction of singularities and its audits."""
from __future__ import annotations

from fractions import Fraction

import pytest

from foliationlab.classify import PointKind
from foliationlab.errors import DepthExceeded
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm
from foliationlab.reduce2d import (first_blowup_index_sum, reduce,
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
