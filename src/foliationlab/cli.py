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
from .errors import BadParameters, FoliationLabError, InvalidGraph, ScenarioError
from .field import FieldElement
from .forms import OneForm
from .poly import VARNAMES, parse_element
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
    """The scenario's 1-form.  A malformed field is a ScenarioError naming it:
    'dimension' is an integer from 1 to 3 (default: the number of
    coefficients), 'd' an integer (default 0), 'form.coefficients' a list of
    that many strings and 'form.log', when present, a list of that many
    booleans."""
    spec = scenario.get("form")
    if spec is None:
        raise ScenarioError("scenario has no 1-form")
    if not isinstance(spec, dict):
        raise ScenarioError(f"'form' must be an object, not {spec!r}")
    coeffs = spec.get("coefficients")
    if not isinstance(coeffs, list):
        raise ScenarioError(f"'form.coefficients' must be a list of strings, not {coeffs!r}")
    nvars = _field(scenario, "dimension", (int,), len(coeffs))
    if not 1 <= nvars <= len(VARNAMES):
        raise ScenarioError(f"'dimension' must be from 1 to {len(VARNAMES)}, not {nvars}")
    if len(coeffs) != nvars:
        raise ScenarioError(f"'form.coefficients' needs {nvars} entries, not {len(coeffs)}")
    for i, c in enumerate(coeffs):
        if not isinstance(c, str):
            raise ScenarioError(f"'form.coefficients[{i}]' must be a string, not {c!r}")
    d = _field(scenario, "d", (int,), 0)
    log = spec.get("log")
    if log is not None and not (isinstance(log, list) and len(log) == nvars
                                and all(isinstance(b, bool) for b in log)):
        raise ScenarioError(f"'form.log' must be a list of {nvars} booleans, not {log!r}")
    return OneForm.parse(coeffs, nvars=nvars, d=d, log=log)


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


_REQUIRED = object()


def _field(rec, key, kinds=None, default=_REQUIRED):
    """rec[key], or default when it is absent; with kinds, a value of one of
    those types (a bool is not a number)."""
    if not isinstance(rec, dict):
        raise ScenarioError(f"expected an object, not {rec!r}")
    if key not in rec:
        if default is _REQUIRED:
            raise ScenarioError(f"missing {key!r}")
        return default
    v = rec[key]
    if kinds is not None and (isinstance(v, bool) or not isinstance(v, kinds)):
        raise ScenarioError(f"{key!r} must be {' or '.join(k.__name__ for k in kinds)}, "
                            f"not {v!r}")
    return v


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _complex(v):
    """A complex number written as a real or as [re, im]."""
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0]
    if not all(_is_real(c) for c in parts):
        raise ScenarioError(f"expected a number or [re, im], not {v!r}")
    return complex(*parts)


def _index(rec, key, tau):
    v = _field(rec, key, (int,))
    if not 0 <= v < tau:
        raise ScenarioError(f"{key!r} must be a coordinate index below {tau}, not {v}")
    return v


def _build_path(rec, tau):
    """(moving coordinate index, base path) of a path record."""
    index = _index(rec, "index", tau)
    kind = rec.get("kind", "circle")
    if kind == "circle":
        path = circle_path(_complex(_field(rec, "alpha")),
                           _field(rec, "turns", (int, float), 1))
    elif kind == "spiral":
        path = spiral_path(_complex(_field(rec, "start")), _complex(_field(rec, "end")),
                           _field(rec, "turns", (int, float), 0))
    elif kind == "constant":
        path = constant_path(_complex(_field(rec, "value")))
    else:
        raise ScenarioError(f"unknown path kind {kind!r}")
    return index, path


def _build_model(rec):
    if not isinstance(rec, dict) or not ("lam" in rec or "weights" in rec):
        raise ScenarioError(f"a model needs 'lam' or 'weights', not {rec!r}")
    delta = _field(rec, "delta", (int, float), 1.0)
    if "weights" in rec:
        weights = _field(rec, "weights", (list,))
        if not all(_is_real(r) for r in weights):
            raise ScenarioError(f"'weights' must be numbers, not {weights!r}")
        return LinearModel.nodal(weights, _field(rec, "split", (int,)), delta=delta)
    return LinearModel([_complex(l) for l in _field(rec, "lam", (list,))], delta=delta)


def _lift_args(blk):
    """(model, paths, fiber, start) of a lift or drift block."""
    model = _build_model(_field(blk, "model"))
    recs = _field(blk, "paths", (list,))
    paths = dict(_build_path(rec, model.tau) for rec in recs)
    if len(paths) != len(recs):
        raise ScenarioError("two paths move the same coordinate")
    fiber = _index(blk, "fiber", model.tau)
    if fiber in paths:
        raise ScenarioError(f"fiber {fiber} is also the index of a moving path")
    return model, paths, fiber, _complex(_field(blk, "start"))


def _grid(rec):
    nx, ny = _field(rec, "nx", (int,), 20), _field(rec, "ny", (int,), 20)
    if nx < 2 or ny < 2:
        raise ScenarioError(f"a grid needs at least 2 points a side, not {nx}x{ny}")
    x_min, x_max, y_min, y_max = (_field(rec, k, (int, float))
                                  for k in ("x_min", "x_max", "y_min", "y_max"))
    x_phase = _field(rec, "x_phase", (int, float), 0.0)
    y_phase = _field(rec, "y_phase", (int, float), 0.0)
    out = []
    for i in range(nx):
        for j in range(ny):
            x = (x_min + (x_max - x_min) * (i / (nx - 1))) * cmath.exp(1j * x_phase * i)
            y = (y_min + (y_max - y_min) * (j / (ny - 1))) * cmath.exp(1j * y_phase * j)
            out.append((x, y))
    return out


def _holonomy_block(blk, config):
    """(report record, sweep CSV text or None) of one holonomy block."""
    kind = _field(blk, "kind", (str,))
    if kind == "multiplier":
        m = loop_multiplier(_complex(_field(blk, "lam")),
                            _field(blk, "turns", (int, float), 1))
        return {"kind": kind, "value": m, "modulus": abs(m)}, None
    if kind == "lift":
        end = lift_path(*_lift_args(blk), config)
        rec = {"kind": kind, "end": end, "modulus": abs(end)}
        if "closed_form" in blk:
            rec["closed_form_error"] = abs(end - _complex(blk["closed_form"]))
        return rec, None
    if kind == "drift":
        return {"kind": kind,
                "max_drift": nodal_first_integral_drift(*_lift_args(blk), config)}, None
    if kind == "lemma4":
        lam, rho, eps = (_field(blk, k, (int, float)) for k in ("lam", "rho", "eps"))
        rec = {"kind": kind, "constant": lemma4_constant(lam, rho, eps)}
        if blk.get("reach_check"):
            trials = _field(blk, "trials", (int,), 100)
            if trials < 1:
                raise ScenarioError(f"'trials' must be positive, not {trials}")
            rec["reach"] = lemma4_reach_check(lam, rho, eps, trials=trials, config=config)
        return rec, None
    if kind == "probe":
        model = _build_model(_field(blk, "model"))
        res = saturation_probe(model, _field(blk, "alpha", (int, float)),
                               _field(blk, "eps", (int, float)),
                               _grid(_field(blk, "grid")), config)
        return ({"kind": kind, "fraction": res["fraction"],
                 "unreached_count": len(res["unreached"])}, sweep_csv(res["records"]))
    raise ScenarioError(f"unknown holonomy block {kind!r}")


def analysis_holonomy(scenario):
    spec = scenario.get("holonomy", {})
    try:
        blocks = _field(spec, "blocks", (list,), [])
        cfg_rec = _field(spec, "config", (dict,), {})
        config = NumericConfig(step=_field(cfg_rec, "step", (int, float), 5e-3),
                               tol=_field(cfg_rec, "tol", (int, float), 1e-9),
                               max_length=_field(cfg_rec, "max_length", (int, float), 2000.0))
    except (ScenarioError, BadParameters) as e:
        raise ScenarioError(f"holonomy: {e}") from None
    results = []
    csv_blobs = []
    for i, blk in enumerate(blocks):
        try:
            name = _field(blk, "name", (str,), f"probe{len(csv_blobs)}")
            if name in ("", ".", "..") or os.path.basename(name) != name:
                raise ScenarioError(f"a block name must be a plain file name, not {name!r}")
            rec, csv = _holonomy_block(blk, config)
        except FoliationLabError as e:
            raise ScenarioError(f"holonomy.blocks[{i}]: {e}") from e
        results.append(rec)
        if csv is not None:
            csv_blobs.append((name, csv))
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
