"""Divisor graph validators, component calculus and atlas bridge."""
from __future__ import annotations

import pytest

from foliationlab.blowup import BlowupAtlas, CenterSpec
from foliationlab.divisorgraph import DivisorGraph, from_atlas
from foliationlab.errors import InvalidGraph, MissingFiberData, NotRegular
from foliationlab.forms import OneForm


def log_corner_graph():
    w = OneForm.parse(["2", "3", "-4*sqrt(2)"], nvars=3, d=2,
                      log=[True, True, True])
    atlas = BlowupAtlas(w)
    atlas.blow_up((), CenterSpec.origin(3, 2))
    return from_atlas(atlas)


def test_atlas_bridge_structure():
    g = log_corner_graph()
    assert g.provenance == "FromAtlas"
    assert set(g.components) == {"E1", "Sx", "Sy", "Sz"}
    assert len(g.curves) == 6 and len(g.points) == 3
    assert g.validate() == []
    nodal = [cid for cid, c in g.curves.items() if c["generically_nodal"]]
    assert len(nodal) == 4
    for p in g.points.values():
        assert p["dimensional_type"] == 3 and p["nodal"]


def test_nodal_components_and_verdict():
    g = log_corner_graph()
    ncs = g.nodal_components()
    assert len(ncs) == 1
    assert not ncs[0]["compact"]  # it runs off along the strict planes
    assert g.theorem3_verdict()["verdict"] == "Holds"


def test_round_trip_and_dot():
    g = log_corner_graph()
    assert DivisorGraph.from_json(g.to_json()) == g
    dot = g.to_dot()
    assert "penwidth=3" in dot  # nodal curves drawn bold


def test_compact_isolated_nodal_component_violates_closure():
    g = DivisorGraph(
        components={"E1": {"compact": True, "invariant": True},
                    "E2": {"compact": True, "invariant": True}},
        curves={"C1": {"compact": True, "components": ["E1", "E2"],
                       "generically_nodal": True,
                       "kind": "GenericallySimpleCorner",
                       "in_adapted_singular_locus": True}},
        points={}, fiber=[])
    assert g.validate() == []
    v = g.theorem3_verdict()
    assert v["verdict"] == "Violated" and len(v["violations"]) == 1


def test_remark_13_nodal_in_dicritical():
    g = DivisorGraph(
        components={"D1": {"compact": True, "invariant": False}},
        curves={"C1": {"compact": True, "components": ["D1"],
                       "generically_nodal": True, "kind": "STraceCurve",
                       "in_adapted_singular_locus": True}},
        points={}, fiber=[])
    assert any("dicritical" in v for v in g.validate())
    with pytest.raises(InvalidGraph):
        g.nodal_components()
    with pytest.raises(InvalidGraph):
        g.trace_incompatibility_check()


def test_corner_exclusion_three_nodal_curves():
    comps = {c: {"compact": True, "invariant": True} for c in ("E1", "E2", "E3")}
    curves = {c: {"compact": True, "components": list(p),
                  "generically_nodal": True, "kind": "GenericallySimpleCorner",
                  "in_adapted_singular_locus": True}
              for c, p in (("C1", ("E1", "E2")), ("C2", ("E1", "E3")),
                           ("C3", ("E2", "E3")))}
    g = DivisorGraph(components=comps, curves=curves,
                     points={"P1": {"curves": ["C1", "C2", "C3"],
                                    "components": ["E1", "E2", "E3"],
                                    "nodal": True, "dimensional_type": 3}},
                     fiber=[])
    assert any("corner" in v for v in g.validate())


def test_e_count_forces_kind():
    g = DivisorGraph(
        components={"E1": {"compact": True, "invariant": True},
                    "E2": {"compact": True, "invariant": True}},
        curves={"C1": {"compact": True, "components": ["E1", "E2"],
                       "generically_nodal": False, "kind": "STraceCurve",
                       "in_adapted_singular_locus": True}},
        points={}, fiber=[])
    assert any("e(E_inv) = 2" in v for v in g.validate())


def test_regular_components_and_connectivity():
    comps = {"E1": {"compact": True, "invariant": True},
             "E2": {"compact": True, "invariant": True},
             "E3": {"compact": True, "invariant": True},
             "D1": {"compact": False, "invariant": False}}
    curves = {
        "C12": {"compact": True, "components": ["E1", "E2"],
                "generically_nodal": False, "kind": "GenericallySimpleCorner",
                "in_adapted_singular_locus": True},
        "C23": {"compact": True, "components": ["E2", "E3"],
                "generically_nodal": True, "kind": "GenericallySimpleCorner",
                "in_adapted_singular_locus": True}}
    g = DivisorGraph(components=comps, curves=curves, points={}, fiber=[])
    regular = g.regular_components()
    assert regular == {"E1", "E2", "E3"}  # non-compact dicritical is excluded
    res = g.nodally_free_connected("E1", "E2")
    assert res["connected"] and res["edges"][0]["curve"] == "C12"
    # E3 only attaches through the nodal curve C23
    assert not g.nodally_free_connected("E1", "E3")["connected"]
    with pytest.raises(NotRegular):
        g.nodally_free_connected("E1", "D1")


def test_separatrix_needs_fiber_data():
    g = DivisorGraph(components={"E1": {"compact": True, "invariant": True}},
                     curves={}, points={}, fiber=None)
    with pytest.raises(MissingFiberData):
        g.separatrix_components()
    with pytest.raises(MissingFiberData):
        g.prop6_checks()


def test_prop6_certificates():
    g = DivisorGraph(
        components={"E1": {"compact": True, "invariant": True}},
        curves={"T1": {"compact": False, "components": ["E1"],
                       "generically_nodal": False, "kind": "STraceCurve",
                       "in_adapted_singular_locus": True}},
        points={}, fiber=[], flags={"no_invariant_surface": True})
    rep = g.prop6_checks()
    assert not rep["all_ok"]
    assert any(c["certificate"] == "invariant-surface" for c in rep["certificates"])
    assert not [c for c in rep["checks"] if c["item"] == 4][0]["ok"]


def test_trace_incompatibility_pairs():
    g = DivisorGraph(
        components={"E1": {"compact": True, "invariant": True}},
        curves={"T1": {"compact": False, "components": ["E1"],
                       "generically_nodal": True, "kind": "STraceCurve",
                       "in_adapted_singular_locus": True},
                "T2": {"compact": False, "components": ["E1"],
                       "generically_nodal": False, "kind": "STraceCurve",
                       "in_adapted_singular_locus": True}},
        points={"P1": {"curves": ["T1", "T2"], "components": ["E1"],
                       "nodal": True, "dimensional_type": 2}},
        fiber=[])
    out = g.trace_incompatibility_check()
    assert len(out) == 1 and out[0]["curves"] == ["T1", "T2"]
    # both nodal: compatible
    g.curves["T2"]["generically_nodal"] = True
    assert g.trace_incompatibility_check() == []


def test_a_fault_in_the_generic_ratio_division_propagates(monkeypatch):
    # only NotDivisible means "not a constant ratio"; any other error inside
    # exact_div is a fault and must not be read as a non-real ratio
    import sys
    from foliationlab.poly import Polynomial

    w = OneForm.parse(["2", "3", "-4*sqrt(2)"], nvars=3, d=2, log=[True, True, True])
    atlas = BlowupAtlas(w)
    atlas.blow_up((), CenterSpec.origin(3, 2))
    exact_div = Polynomial.exact_div

    def faulty(self, q):
        if sys._getframe(1).f_code.co_name == "_generic_ratio_class":
            raise RuntimeError("fault inside exact_div")
        return exact_div(self, q)

    monkeypatch.setattr(Polynomial, "exact_div", faulty)
    with pytest.raises(RuntimeError, match="fault inside exact_div"):
        from_atlas(atlas)
