"""Scenario runner: parse a JSON scenario, orchestrate the analyses, emit a
deterministic report plus optional DOT/CSV artifacts.

Exit codes: 0 success, 2 validator or theorem violations on ingested data,
1 tool errors.
"""
from __future__ import annotations

import argparse
import cmath
import enum
import hashlib
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from . import __version__
from .blowup import BlowupAtlas, CenterSpec, detect_dicritical
from .classify import (classify_point, degree_identity_check, monomial_probe,
                       multiplicity, restrict_to_exceptional)
from .divisorgraph import DivisorGraph, from_atlas
from .errors import FoliationLabError, InvalidGraph, ScenarioError
from .field import FieldElement
from .forms import OneForm
from .poly import parse_element
from .holonomy import (LinearModel, NumericConfig, circle_path, constant_path,
                       lemma4_constant, lemma4_reach_check, lift_path,
                       loop_multiplier, nodal_first_integral_drift,
                       saturation_probe, spiral_path, sweep_csv)
from .reduce2d import first_blowup_index_sum, reduce


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, FieldElement):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in items]
    return str(obj)


def scenario_hash(scenario):
    blob = json.dumps(scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def render_report(report):
    return json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# scenario pieces
# ---------------------------------------------------------------------------

def parse_form(scenario):
    spec = scenario.get("form")
    if spec is None:
        raise ScenarioError("scenario has no 1-form")
    nvars = scenario.get("dimension", len(spec["coefficients"]))
    d = scenario.get("d", 0)
    log = spec.get("log")
    return OneForm.parse(spec["coefficients"], nvars=nvars, d=d,
                         log=[bool(b) for b in log] if log else None)


def parse_center(record, nvars, d):
    """A center record: {"kind": "point", "coords": [...]} (the origin when
    coords is absent) or {"kind": "curve", "axis": [a, b]}."""
    if not isinstance(record, dict):
        raise ScenarioError(f"center must be an object, not {record!r}")
    kind = record.get("kind", "point")
    if kind == "point":
        coords = record.get("coords")
        if coords is None:
            return CenterSpec.origin(nvars, d)
        if not isinstance(coords, list) or len(coords) != nvars:
            raise ScenarioError(f"point center needs {nvars} 'coords', not {coords!r}")
        return CenterSpec("point", point=[parse_element(c, d) for c in coords])
    if kind != "curve":
        raise ScenarioError(f"unknown center kind {kind!r}; expected 'point' or 'curve'")
    axis = record.get("axis")
    if not (isinstance(axis, list) and len(axis) == 2 and axis[0] != axis[1]
            and all(isinstance(v, int) and 0 <= v < nvars for v in axis)):
        raise ScenarioError(f"curve center needs an 'axis' of two distinct variable "
                            f"indices below {nvars}, not {axis!r}")
    return CenterSpec.axis(*axis)


def run_script(scenario, form):
    """Blow up each step's center in the chart at its path (default: root).

    A step is {"path": [chart labels], "center": center record}.
    """
    atlas = BlowupAtlas(form)
    for i, step in enumerate(scenario.get("script", [])):
        if not isinstance(step, dict):
            raise ScenarioError(f"script[{i}]: a step must be an object, not {step!r}")
        unknown = sorted(set(step) - {"path", "center"})
        if unknown:
            raise ScenarioError(f"script[{i}]: unknown keys {unknown}; "
                                "a step has only 'path' and 'center'")
        try:
            center = parse_center(step.get("center", {}), form.nvars, form.d)
        except ScenarioError as e:
            raise ScenarioError(f"script[{i}]: {e}") from None
        atlas.blow_up(tuple(step.get("path", [])), center)
    return atlas


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

def analysis_classify(scenario, form):
    cls = classify_point(form,
                         divisor_vars=tuple(scenario.get("divisor_vars", ())),
                         dicritical_vars=tuple(scenario.get("dicritical_vars", ())))
    out = {"kind": cls.kind, "dimensional_type": cls.dimensional_type,
           "residues": [[v, str(r)] for v, r in (cls.residues or ())],
           "saddle_nodal": cls.saddle_nodal, "notes": list(cls.notes),
           "multiplicity": multiplicity(form)}
    if cls.resonance_witness is not None:
        out["resonance_witness"] = list(cls.resonance_witness)
    probe = scenario.get("probe")
    if probe is not None:
        lams = [parse_element(t, form.d) for t in probe["lams"]]
        out["probe"] = monomial_probe(lams, probe["a"], probe["b"])
    return out


def analysis_dicritical(scenario, form):
    center = CenterSpec.origin(form.nvars, form.d)
    rep = dict(detect_dicritical(form, center))
    if rep["dicritical"] and form.nvars == 3:
        w = restrict_to_exceptional(form)
        rep["restricted_degree"] = w.degree
        rep["invariant_lines"] = [i for i in range(3) if w.line_is_invariant(i)]
        rep["degree_identity"] = {}
        for i in rep["invariant_lines"]:
            chk = degree_identity_check(w, i)
            rep["degree_identity"][str(i)] = chk
    return rep


def analysis_reduce2d(scenario, form):
    tree = reduce(form, max_depth=scenario.get("max_depth", 24))
    leaves = []
    for l in sorted(tree.leaves, key=lambda l: l.path):
        leaves.append({"path": list(l.path), "kind": l.kind,
                       "residues": [None if r is None else str(r)
                                    for r in (l.residues or (None, None))],
                       "axes": {str(k): v for k, v in sorted(l.axes.items())},
                       "saddle_nodal": l.saddle_nodal})
    seps = [{"path": list(s["path"]), "lambda": str(s["lambda"])}
            for s in tree.nodal_separators()]
    audit = {cid: {"sum": str(rep["sum"]), "self_intersection": rep["self_intersection"],
                   "ok": rep["ok"]}
             for cid, rep in tree.cs_sum_audit().items()}
    depth = max((len(l.path) for l in tree.leaves), default=0)
    rep = {"blowups": tree.blowups, "depth": depth,
           "generalized_curve": tree.is_generalized_curve(),
           "leaves": leaves, "nodal_separators": seps, "cs_sum_audit": audit}
    if form.nvars == 2:
        try:
            fbi = first_blowup_index_sum(form)
            rep["first_blowup_index_sum"] = {
                "dicritical": fbi["dicritical"], "sum": str(fbi["sum"]),
                "points": [{"chart": p["chart"],
                            "point": None if p["point"] is None else str(p["point"]),
                            "index": str(p["index"])} for p in fbi["points"]]}
        except FoliationLabError:
            pass
    return rep, tree


def analysis_graph(scenario, form):
    violations = []
    if "graph" in scenario:
        graph = DivisorGraph.from_json_dict(scenario["graph"])
    else:
        atlas = run_script(scenario, form)
        graph = from_atlas(atlas)
    if scenario.get("flags"):
        graph.flags.update(scenario["flags"])
    rep = {"provenance": graph.provenance, "graph": graph.to_json_dict()}
    rep["violations"] = graph.validate()
    violations.extend(rep["violations"])
    if not rep["violations"]:
        rep["nodal_components"] = graph.nodal_components()
        verdict = graph.theorem3_verdict()
        rep["nodal_verdict"] = verdict
        violations.extend(verdict["violations"])
        incompat = graph.trace_incompatibility_check()
        rep["trace_incompatibilities"] = incompat
        violations.extend(incompat)
        if graph.fiber is not None:
            rep["separatrix_components"] = graph.separatrix_components()
            prop6 = graph.prop6_checks()
            rep["closure_checks"] = prop6
            if graph.flags.get("no_invariant_surface") and not prop6["all_ok"]:
                violations.extend(prop6["certificates"])
    # round-trip invariant: the emitted graph must re-ingest equal
    if DivisorGraph.from_json(graph.to_json()) != graph:
        raise InvalidGraph(["the emitted graph does not re-ingest equal to itself"])
    return rep, graph, violations


def _complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


def _build_path(rec):
    kind = rec.get("kind", "circle")
    if kind == "circle":
        return circle_path(_complex(rec["alpha"]), rec.get("turns", 1))
    if kind == "spiral":
        return spiral_path(_complex(rec["start"]), _complex(rec["end"]),
                           rec.get("turns", 0))
    if kind == "constant":
        return constant_path(_complex(rec["value"]))
    raise ScenarioError(f"unknown path kind {kind!r}")


def _build_model(rec):
    if "weights" in rec:
        return LinearModel.nodal(rec["weights"], rec["split"],
                                 delta=rec.get("delta", 1.0))
    return LinearModel([_complex(l) for l in rec["lam"]],
                       delta=rec.get("delta", 1.0))


def _grid(rec):
    nx, ny = rec.get("nx", 20), rec.get("ny", 20)
    out = []
    for i in range(nx):
        for j in range(ny):
            x = (rec["x_min"] + (rec["x_max"] - rec["x_min"]) * (i / (nx - 1))) \
                * cmath.exp(1j * rec.get("x_phase", 0.0) * i)
            y = (rec["y_min"] + (rec["y_max"] - rec["y_min"]) * (j / (ny - 1))) \
                * cmath.exp(1j * rec.get("y_phase", 0.0) * j)
            out.append((x, y))
    return out


def analysis_holonomy(scenario):
    blocks = scenario.get("holonomy", {}).get("blocks", [])
    cfg_rec = scenario.get("holonomy", {}).get("config", {})
    config = NumericConfig(step=cfg_rec.get("step", 5e-3),
                           tol=cfg_rec.get("tol", 1e-9),
                           max_length=cfg_rec.get("max_length", 2000.0))
    results = []
    csv_blobs = []
    for blk in blocks:
        kind = blk["kind"]
        if kind == "multiplier":
            m = loop_multiplier(_complex(blk["lam"]), blk.get("turns", 1))
            results.append({"kind": kind, "value": m, "modulus": abs(m)})
        elif kind == "lift":
            model = _build_model(blk["model"])
            paths = {int(p["index"]): _build_path(p) for p in blk["paths"]}
            end = lift_path(model, paths, blk["fiber"],
                            _complex(blk["start"]), config)
            rec = {"kind": kind, "end": end, "modulus": abs(end)}
            if "closed_form" in blk:
                rec["closed_form_error"] = abs(end - _complex(blk["closed_form"]))
            results.append(rec)
        elif kind == "drift":
            model = _build_model(blk["model"])
            paths = {int(p["index"]): _build_path(p) for p in blk["paths"]}
            drift = nodal_first_integral_drift(model, paths, blk["fiber"],
                                               _complex(blk["start"]), config)
            results.append({"kind": kind, "max_drift": drift})
        elif kind == "lemma4":
            c = lemma4_constant(blk["lam"], blk["rho"], blk["eps"])
            rec = {"kind": kind, "constant": c}
            if blk.get("reach_check"):
                rec["reach"] = lemma4_reach_check(
                    blk["lam"], blk["rho"], blk["eps"],
                    trials=blk.get("trials", 100), config=config)
            results.append(rec)
        elif kind == "probe":
            model = _build_model(blk["model"])
            res = saturation_probe(model, blk["alpha"], blk["eps"],
                                   _grid(blk["grid"]), config)
            results.append({"kind": kind, "fraction": res["fraction"],
                            "unreached_count": len(res["unreached"])})
            csv_blobs.append((blk.get("name", f"probe{len(csv_blobs)}"),
                              sweep_csv(res["records"])))
        else:
            raise ScenarioError(f"unknown holonomy block {kind!r}")
    return {"blocks": results}, csv_blobs


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_scenario(scenario, analyses=None):
    requested = analyses or scenario.get("analyses", [])
    report = {"tool_version": __version__,
              "scenario": scenario.get("name", "unnamed"),
              "scenario_hash": scenario_hash(scenario),
              "analyses": {}}
    artifacts = {}
    violations = []
    form = parse_form(scenario) if "form" in scenario else None
    for name in requested:
        if name == "classify":
            report["analyses"][name] = analysis_classify(scenario, form)
        elif name == "dicritical":
            report["analyses"][name] = analysis_dicritical(scenario, form)
        elif name == "reduce2d":
            rep, tree = analysis_reduce2d(scenario, form)
            report["analyses"][name] = rep
            artifacts["reduction.dot"] = tree.to_dot()
        elif name == "graph":
            rep, graph, v = analysis_graph(scenario, form)
            report["analyses"][name] = rep
            violations.extend(v)
            artifacts["graph.dot"] = graph.to_dot()
        elif name == "holonomy":
            rep, blobs = analysis_holonomy(scenario)
            report["analyses"][name] = rep
            for bname, blob in blobs:
                artifacts[f"{bname}.csv"] = blob
        else:
            raise ScenarioError(f"unknown analysis {name!r}")
    report["violations"] = violations
    exit_code = 2 if violations else 0
    return report, exit_code, artifacts


def _load_scenario(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


def corpus_files():
    root = resources.files("foliationlab") / "corpus"
    return sorted((f.name, f) for f in root.iterdir() if f.name.endswith(".json"))


def _dig(report, dotted):
    cur = report
    for part in dotted.split("."):
        if isinstance(cur, list):
            cur = cur[int(part)]
        else:
            cur = cur[part]
    return cur


def expectation_met(scenario, report, code):
    """Does a run match the scenario's "expect" block: the exit code and every
    dotted path under "contains"?"""
    expect = scenario.get("expect", {})
    ok = expect.get("exit_code", 0) == code
    jrep = _jsonable(report)
    for dotted, want in expect.get("contains", {}).items():
        try:
            got = _dig(jrep, dotted)
        except (KeyError, IndexError, TypeError):
            got = None
        if got != want:
            ok = False
    return ok


def run_corpus(filter_text=None, out=None):
    rows = []
    all_ok = True
    for name, f in corpus_files():
        if filter_text and filter_text not in name:
            continue
        scenario = json.loads(f.read_text())
        try:
            report, code, _ = run_scenario(scenario)
        except FoliationLabError as e:
            report, code = {"error": str(e)}, 1
        ok = expectation_met(scenario, report, code)
        rows.append({"scenario": name, "exit_code": code, "matched": ok})
        all_ok = all_ok and ok
    summary = {"tool_version": __version__, "scenarios": rows,
               "all_matched": all_ok}
    text = render_report(summary)
    if out:
        with open(os.path.join(out, "corpus_summary.json"), "w") as fh:
            fh.write(text)
    return summary, 0 if all_ok else 1, text


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="foliation-lab",
                                description="exact workbench for singular "
                                            "foliation germs")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for cmd, force in (("analyze", None), ("reduce2d", ["reduce2d"]),
                       ("graph", ["graph"]), ("holonomy", ["holonomy"])):
        sp = sub.add_parser(cmd)
        sp.add_argument("scenario")
        sp.add_argument("--out", default=None)
        sp.add_argument("--dot", action="store_true")
        sp.add_argument("--csv", action="store_true")
        sp.add_argument("--max-depth", type=int, default=None)
        sp.set_defaults(force_analyses=force)
    cp = sub.add_parser("corpus")
    csub = cp.add_subparsers(dest="corpus_command", required=True)
    cl = csub.add_parser("list")
    cr = csub.add_parser("run")
    cr.add_argument("--filter", default=None)
    cr.add_argument("--out", default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "corpus":
            if args.corpus_command == "list":
                for name, _ in corpus_files():
                    print(name)
                return 0
            _, code, text = run_corpus(args.filter, args.out)
            sys.stdout.write(text)
            return code
        scenario = _load_scenario(args.scenario)
        if args.max_depth is not None:
            scenario["max_depth"] = args.max_depth
        report, code, artifacts = run_scenario(scenario, args.force_analyses)
        text = render_report(report)
        sys.stdout.write(text)
        out = args.out or "."
        if args.out:
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, "report.json"), "w") as fh:
                fh.write(text)
        for fname, blob in artifacts.items():
            wanted = (args.dot and fname.endswith(".dot")) or \
                     (args.csv and fname.endswith(".csv"))
            if wanted:
                with open(os.path.join(out, fname), "w") as fh:
                    fh.write(blob)
        return code
    except FoliationLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
