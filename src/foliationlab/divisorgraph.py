"""Combinatorial calculus on resolved divisor configurations.

The graph records exceptional components, singular curves, marked points and
fiber data; validators and the nodal/regular/separatrix component analyses
return violations as plain data so deliberately inconsistent ingested graphs
can be examined rather than rejected.
"""
from __future__ import annotations

import json
from collections import deque

from .blowup import CenterSpec, center_in_singular_locus
from .errors import InvalidGraph, MissingFiberData, NotDivisible, NotRegular
from .field import FieldElement
from .forms import invariant_axis, log_coefficient
from .poly import VARNAMES, Polynomial


class DivisorGraph:
    def __init__(self, components=None, curves=None, points=None, fiber=None,
                 provenance="Ingested", flags=None):
        self.components = dict(components or {})
        self.curves = dict(curves or {})
        self.points = dict(points or {})
        self.fiber = list(fiber) if fiber is not None else None
        self.provenance = provenance
        self.flags = dict(flags or {})

    # -- serialization ------------------------------------------------
    def to_json_dict(self):
        return {
            "components": [
                {"id": cid, **{k: v for k, v in sorted(c.items())}}
                for cid, c in sorted(self.components.items())
            ],
            "curves": [
                {"id": cid, **{k: (sorted(v) if isinstance(v, (set, frozenset)) else v)
                               for k, v in sorted(c.items())}}
                for cid, c in sorted(self.curves.items())
            ],
            "points": [
                {"id": pid, **{k: (sorted(v) if isinstance(v, (set, frozenset)) else v)
                               for k, v in sorted(p.items())}}
                for pid, p in sorted(self.points.items())
            ],
            "fiber": self.fiber,
            "provenance": self.provenance,
            "flags": dict(sorted(self.flags.items())),
        }

    @classmethod
    def from_json_dict(cls, data):
        comps = {c["id"]: {k: v for k, v in c.items() if k != "id"}
                 for c in data.get("components", [])}
        curves = {c["id"]: {k: v for k, v in c.items() if k != "id"}
                  for c in data.get("curves", [])}
        points = {p["id"]: {k: v for k, v in p.items() if k != "id"}
                  for p in data.get("points", [])}
        return cls(components=comps, curves=curves, points=points,
                   fiber=data.get("fiber"), provenance=data.get("provenance", "Ingested"),
                   flags=data.get("flags"))

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_json_dict(json.loads(text))

    def __eq__(self, other):
        if not isinstance(other, DivisorGraph):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    # -- small helpers ------------------------------------------------
    def invariant_components(self):
        return {cid for cid, c in self.components.items() if c.get("invariant")}

    def dicritical_components(self):
        return {cid for cid, c in self.components.items() if not c.get("invariant")}

    def curve_points(self, curve_id):
        return [pid for pid, p in self.points.items() if curve_id in p.get("curves", [])]

    def s_trace_curves(self):
        return [cid for cid, c in self.curves.items() if c.get("kind") == "STraceCurve"]

    # -- validation ---------------------------------------------------
    def validate(self):
        v = []
        for cid, c in self.curves.items():
            for comp in c.get("components", []):
                if comp not in self.components:
                    v.append(f"curve {cid} references missing component {comp}")
        for pid, p in self.points.items():
            for cu in p.get("curves", []):
                if cu not in self.curves:
                    v.append(f"point {pid} references missing curve {cu}")
            for comp in p.get("components", []):
                if comp not in self.components:
                    v.append(f"point {pid} references missing component {comp}")
            if len(p.get("components", [])) > 3:
                v.append(f"point {pid} has more than three incident components")
        for cid, c in self.curves.items():
            comps = [x for x in c.get("components", []) if x in self.components]
            dic = [x for x in comps if not self.components[x].get("invariant")]
            if c.get("in_adapted_singular_locus") and dic:
                v.append(f"curve {cid} of the singular locus lies in dicritical "
                         f"component {dic[0]}")
            if c.get("generically_nodal"):
                if not c.get("in_adapted_singular_locus"):
                    v.append(f"nodal curve {cid} not in the adapted singular locus")
                if dic:
                    v.append(f"nodal curve {cid} inside dicritical component {dic[0]}")
            if c.get("compact") and c.get("in_adapted_singular_locus"):
                e = sum(1 for x in comps if self.components[x].get("invariant"))
                if e not in (1, 2):
                    v.append(f"compact singular curve {cid} has e(E_inv) = {e}")
                elif e == 2 and c.get("kind") != "GenericallySimpleCorner":
                    v.append(f"curve {cid} has e(E_inv) = 2 but kind {c.get('kind')}")
                elif e == 1 and c.get("kind") != "STraceCurve":
                    v.append(f"curve {cid} has e(E_inv) = 1 but kind {c.get('kind')}")
        # corner rule: at a three-component point one nodal curve forces
        # exactly one of the two other corner curves into the nodal set
        for pid, p in self.points.items():
            if p.get("dimensional_type") != 3:
                continue
            curves = [c for c in p.get("curves", []) if c in self.curves]
            nodal = [c for c in curves if self.curves[c].get("generically_nodal")]
            if not nodal:
                continue
            comps = set(p.get("components", []))
            non_inv = [x for x in comps if x in self.components
                       and not self.components[x].get("invariant")]
            if non_inv:
                v.append(f"point {pid} lies on a nodal curve but component "
                         f"{non_inv[0]} is dicritical")
            if len(curves) == 3 and len(nodal) != 2:
                v.append(f"corner point {pid} has {len(nodal)} nodal curves; "
                         "the corner exclusion forces exactly two")
        return v

    # -- nodal components ---------------------------------------------
    def nodal_component_candidates(self):
        nodal_curves = [cid for cid, c in self.curves.items()
                        if c.get("generically_nodal")]
        return _connected_groups(nodal_curves,
                                 [p.get("curves", []) for p in self.points.values()])

    def nodal_components(self):
        """Accepted nodal components (every incident corner point checks out)."""
        v = self.validate()
        if v:
            raise InvalidGraph(v)
        out = []
        for members in self.nodal_component_candidates():
            ok = True
            meets_dicritical = False
            for pid, p in self.points.items():
                through = [c for c in p.get("curves", []) if c in members]
                if not through:
                    continue
                comps = p.get("components", [])
                if any(x in self.components and not self.components[x].get("invariant")
                       for x in comps):
                    meets_dicritical = True
                if p.get("dimensional_type") == 3:
                    if not p.get("nodal") or len(through) != 2:
                        ok = False
            for c in members:
                for x in self.curves[c].get("components", []):
                    if x in self.components and not self.components[x].get("invariant"):
                        meets_dicritical = True
            if ok:
                out.append({
                    "curves": sorted(members),
                    "compact": all(self.curves[c].get("compact") for c in members),
                    "meets_dicritical": meets_dicritical,
                })
        return out

    def nodal_curve_set(self):
        """Union of curves of the accepted nodal components."""
        out = set()
        for nc in self.nodal_components():
            out |= set(nc["curves"])
        return out

    # -- separatrix and regular components -----------------------------
    def separatrix_components(self):
        if self.fiber is None:
            raise MissingFiberData("separatrix analysis requires fiber data")
        comps = _connected_groups(
            self.s_trace_curves(),
            [p.get("curves", []) for p in self.points.values()]
            + [entry.get("curves", []) for entry in self.fiber])
        compact_dic = {cid for cid in self.dicritical_components()
                       if self.components[cid].get("compact")}
        out = []
        for i, grp in enumerate(sorted(comps, key=lambda g: sorted(g)), start=1):
            closed = True
            for c in grp:
                for pid in self.curve_points(c):
                    if set(self.points[pid].get("components", [])) & compact_dic:
                        closed = False
                if set(self.curves[c].get("components", [])) & compact_dic:
                    closed = False
            out.append({"id": f"SEP{i}", "kind": "STr", "curves": sorted(grp),
                        "closed_immersion": closed})
        for j, entry in enumerate(self.fiber, start=1):
            if not entry.get("invariant"):
                continue
            closed = True
            for c in entry.get("curves", []):
                if c in self.curves and set(self.curves[c].get("components", [])) & compact_dic:
                    closed = False
            out.append({"id": f"ITR{j}", "kind": "ITr",
                        "curves": sorted(entry.get("curves", [])),
                        "closed_immersion": closed})
        return out

    def regular_components(self):
        """Invariant components, compact dicritical components, separatrices."""
        v = self.validate()
        if v:
            raise InvalidGraph(v)
        out = set(self.invariant_components())
        out |= {cid for cid in self.dicritical_components()
                if self.components[cid].get("compact")}
        if self.fiber is not None:
            for sep in self.separatrix_components():
                out.add(sep["id"])
        return out

    def nodally_free_connected(self, a, b):
        regular = self.regular_components()
        if a not in regular or b not in regular:
            raise NotRegular(f"{a if a not in regular else b} is not a regular component")
        nodal = set()
        for cid, c in self.curves.items():
            if c.get("generically_nodal"):
                nodal.add(cid)
        seps = {s["id"]: s for s in self.separatrix_components()} if self.fiber is not None else {}

        def curves_of(node):
            if node in seps:
                return set(seps[node]["curves"])
            return {cid for cid, c in self.curves.items()
                    if node in c.get("components", [])}

        def neighbors(node):
            mine = curves_of(node) - nodal
            for other in regular:
                if other == node:
                    continue
                shared = mine & curves_of(other)
                if shared:
                    yield other, sorted(shared)[0]

        if a == b:
            return {"connected": True, "chain": [a], "edges": []}
        prev = {a: None}
        q = deque([a])
        while q:
            node = q.popleft()
            for other, witness in neighbors(node):
                if other in prev:
                    continue
                prev[other] = (node, witness)
                if other == b:
                    chain = [b]
                    edges = []
                    cur = b
                    while prev[cur] is not None:
                        p, w = prev[cur]
                        edges.append({"from": p, "curve": w, "to": cur})
                        chain.append(p)
                        cur = p
                    chain.reverse()
                    edges.reverse()
                    return {"connected": True, "chain": chain, "edges": edges}
                q.append(other)
        return {"connected": False, "chain": [], "edges": []}

    # -- theorem checkers ---------------------------------------------
    def theorem3_verdict(self):
        """Every compact nodal component must reach the dicritical locus."""
        violations = []
        for i, nc in enumerate(self.nodal_components(), start=1):
            if nc["compact"] and not nc["meets_dicritical"]:
                violations.append({"nodal_component": nc["curves"],
                                   "reason": "compact nodal component meets no "
                                             "dicritical component"})
        return {"verdict": "Holds" if not violations else "Violated",
                "violations": violations}

    def prop6_checks(self):
        if self.fiber is None:
            raise MissingFiberData("fiber data required")
        report = {"flag": bool(self.flags.get("no_invariant_surface")), "checks": []}
        seps = self.separatrix_components()
        certs = []
        ok1 = all(e.get("invariant") for e in self.fiber)
        report["checks"].append({"item": 1, "description": "all 1D fiber components invariant",
                                 "ok": ok1})
        for kind, item in (("ITr", 2), ("STr", 3)):
            bad = [s for s in seps if s["kind"] == kind and s["closed_immersion"]]
            for s in bad:
                certs.append({"certificate": "invariant-surface",
                              "separatrix": s["id"], "curves": s["curves"]})
            report["checks"].append({"item": item,
                                     "description": f"every {kind} component meets a "
                                                    "compact dicritical component",
                                     "ok": not bad})
        has_cd = any(not c.get("invariant") and c.get("compact")
                     for c in self.components.values())
        report["checks"].append({"item": 4,
                                 "description": "at least one compact dicritical component",
                                 "ok": has_cd})
        report["certificates"] = certs
        report["all_ok"] = all(c["ok"] for c in report["checks"])
        return report

    def trace_incompatibility_check(self):
        """Pairs of s-trace curves in one component with exactly one in N.

        Raises InvalidGraph, through nodal_curve_set, on an invalid graph."""
        in_n = self.nodal_curve_set()
        strace = self.s_trace_curves()
        out = []
        for i, a in enumerate(strace):
            for b in strace[i + 1:]:
                shared_comp = (set(self.curves[a].get("components", []))
                               & set(self.curves[b].get("components", [])))
                shared_pt = any(a in p.get("curves", []) and b in p.get("curves", [])
                                for p in self.points.values())
                if shared_comp and shared_pt and ((a in in_n) != (b in in_n)):
                    out.append({"curves": sorted((a, b)),
                                "component": sorted(shared_comp)[0],
                                "reason": "exactly one trace curve lies in the "
                                          "nodal set"})
        return out

    # -- DOT ----------------------------------------------------------
    def to_dot(self):
        lines = ["graph divisor {", "  node [fontname=\"monospace\"];"]
        for cid, c in sorted(self.components.items()):
            style = "dashed" if not c.get("invariant") else "solid"
            shape = "doublecircle" if c.get("compact") else "circle"
            lines.append(f'  "{cid}" [shape={shape}, style={style}];')
        for cid, c in sorted(self.curves.items()):
            attrs = ["shape=box"]
            if c.get("generically_nodal"):
                attrs.append("penwidth=3")
            if c.get("kind") == "STraceCurve":
                attrs.append("color=blue")
            lines.append(f'  "{cid}" [{", ".join(attrs)}];')
            for comp in sorted(c.get("components", [])):
                lines.append(f'  "{cid}" -- "{comp}";')
        for pid, p in sorted(self.points.items()):
            fill = ", style=filled, fillcolor=gray" if p.get("nodal") else ""
            lines.append(f'  "{pid}" [shape=point{fill}];')
            for cu in sorted(p.get("curves", [])):
                lines.append(f'  "{pid}" -- "{cu}";')
        lines.append("}")
        return "\n".join(lines)


def _connected_groups(nodes, links):
    """The connected groups of `nodes`, in the order of their first node, where
    the nodes in one list of `links` are joined (other members are ignored)."""
    adj = {c: set() for c in nodes}
    for members in links:
        members = [c for c in members if c in adj]
        for a in members:
            adj[a].update(members)
    seen = set()
    out = []
    for c in nodes:
        if c in seen:
            continue
        grp = set()
        todo = [c]
        while todo:
            x = todo.pop()
            if x not in grp:
                grp.add(x)
                todo.extend(adj[x] - grp)
        seen |= grp
        out.append(grp)
    return out


# ---------------------------------------------------------------------------
# Bridge from a blow-up atlas
# ---------------------------------------------------------------------------

def _generic_ratio_class(p: Polynomial, q: Polynomial):
    """Ratio class of p/q at a generic parameter value, decided symbolically."""
    from .field import RatioClass, classify_ratio
    if q.is_zero():
        return RatioClass.UNDEFINED, None
    if p.is_zero():
        return RatioClass.UNDEFINED, None
    # constant ratio iff p = c q for a field constant c
    try:
        quot = p.exact_div(q)
    except NotDivisible:
        quot = None
    if quot is not None and quot.is_constant():
        c = quot.constant_term()
        return classify_ratio(c, FieldElement(p.d, 1)), c
    # a non-constant holomorphic ratio takes non-real values generically
    return RatioClass.NOT_REAL, None


def from_atlas(atlas):
    """Derive a DivisorGraph from a three-variable blow-up atlas.

    Singular curves must be coordinate axes in the leaf charts; their generic
    residues are evaluated symbolically along the curve parameter.
    """
    from .classify import SaddleNodal, classify_point
    from .field import RatioClass
    from .forms import singular_at_origin

    components = {cid: {"compact": comp.compact, "invariant": comp.invariant}
                  for cid, comp in atlas.components.items()}
    curves = {}
    points = {}
    curve_ids = {}
    zero = FieldElement(atlas.d, 0)

    def strict_component(var):
        # invariant strict-transform coordinate planes join the divisor
        sid = f"S{VARNAMES[var]}"
        components.setdefault(sid, {"compact": False, "invariant": True})
        return sid

    for chart in atlas.leaf_charts():
        form = chart.form
        nv = form.nvars
        if nv != 3:
            continue
        inv = [t for t in range(nv) if invariant_axis(form, t)]
        axes_curves = {}
        for u in range(nv):
            for v in range(u + 1, nv):
                if not center_in_singular_locus(form, CenterSpec.axis(u, v)):
                    continue
                # the axis {x_u = x_v = 0} is a singular curve
                sig = []
                for w_, comp in ((u, chart.divisor.get(u)), (v, chart.divisor.get(v))):
                    if comp is not None:
                        sig.append(comp)
                    elif w_ in inv:
                        sig.append(strict_component(w_))
                sig = tuple(sorted(sig))
                key = sig if sig else ((), chart.path, u, v)
                if key not in curve_ids:
                    curve_ids[key] = f"G{len(curve_ids) + 1}"
                cid = curve_ids[key]
                nodal = False
                if u in inv and v in inv:
                    # logarithmic coefficients of x_u and x_v along the curve
                    ru, rv = (log_coefficient(form, w, inv).set_var(u, zero).set_var(v, zero)
                              for w in (u, v))
                    rc, _c = _generic_ratio_class(ru, rv)
                    nodal = rc is RatioClass.NEGATIVE_IRRATIONAL
                e_inv = sum(1 for c in sig if components[c]["invariant"])
                kind = "GenericallySimpleCorner" if e_inv == 2 else "STraceCurve"
                curves[cid] = {
                    "compact": any(components[c]["compact"] for c in sig),
                    "components": list(sig),
                    "generically_nodal": nodal,
                    "kind": kind,
                    "in_adapted_singular_locus": True,
                }
                axes_curves[(u, v)] = cid
        # record the chart origin when singular
        if singular_at_origin(form) and axes_curves:
            div_vars = [v for v in chart.divisor
                        if atlas.components[chart.divisor[v]].invariant]
            dic_vars = [v for v in chart.divisor
                        if not atlas.components[chart.divisor[v]].invariant]
            cls = classify_point(form, divisor_vars=div_vars, dicritical_vars=dic_vars)
            nodal_pt = (cls.saddle_nodal is SaddleNodal.NODAL)
            pid = "P" + "_".join(chart.path) if chart.path else "P_root"
            comps_here = {chart.divisor[v] for v in chart.divisor}
            for v in inv:
                if v not in chart.divisor:
                    comps_here.add(strict_component(v))
            points[pid] = {
                "curves": sorted(set(axes_curves.values())),
                "components": sorted(comps_here),
                "nodal": nodal_pt,
                "dimensional_type": cls.dimensional_type,
            }
    return DivisorGraph(components=components, curves=curves, points=points,
                        fiber=[], provenance="FromAtlas")
