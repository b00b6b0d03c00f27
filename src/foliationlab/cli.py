"""Scenario runner: check a JSON scenario, orchestrate the analyses, emit a
deterministic report plus optional DOT/CSV artifacts.

The scenario format belongs to scenario.py.  Each analysis takes a document
or the Scenario that scenario.check made of it, and reads only the Scenario.

Exit codes: 0 success, 2 validator or theorem violations on ingested data,
1 tool errors.
"""
from __future__ import annotations

import argparse
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
from .errors import FoliationLabError, InvalidGraph, NumberTooLong, ScenarioError
from .field import FieldElement, decimal
from .forms import saturate
from .holonomy import (lemma4_constant, lemma4_reach_check, loop_multiplier,
                       nodal_first_integral_drift, rk4_lift_path, saturation_probe,
                       sweep_csv)
from .reduce2d import first_blowup_index_sum, reduce
from .scenario import check, expectations, load
from .scenario import parse_center, parse_form  # noqa: F401  (part of this module's API)


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
        return decimal(obj)
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
# analyses
# ---------------------------------------------------------------------------

def analysis_classify(scenario, form):
    sc = check(scenario, form=form)
    cls = classify_point(form, divisor_vars=sc.divisor_vars,
                         dicritical_vars=sc.dicritical_vars)
    out = {"kind": cls.kind, "dimensional_type": cls.dimensional_type,
           "residues": [[v, str(r)] for v, r in (cls.residues or ())],
           "saddle_nodal": cls.saddle_nodal, "notes": list(cls.notes),
           "multiplicity": multiplicity(form)}
    if cls.resonance_witness is not None:
        out["resonance_witness"] = list(cls.resonance_witness)
    if sc.probe is not None:
        out["probe"] = monomial_probe(*sc.probe)
    return out


def analysis_dicritical(scenario, form):
    form = saturate(form)[0]
    rep = dict(detect_dicritical(form, CenterSpec.origin(form.nvars, form.d)))
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
    tree = reduce(form, max_depth=check(scenario, form=form).max_depth)
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
    sc = check(scenario, form=form)
    violations = []
    if sc.graph is not None:
        graph = sc.graph
    else:
        atlas = BlowupAtlas(form)
        for i, (path, center) in enumerate(sc.script):
            try:
                atlas.blow_up(path, center)
            except FoliationLabError as e:
                raise ScenarioError(f"script[{i}]: {e}") from e
        graph = from_atlas(atlas)
    graph.flags.update(sc.flags)
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


def _holonomy_block(blk, config):
    """(report record, sweep CSV renderer or None) of one parsed holonomy
    block; the renderer takes no argument and returns the CSV text."""
    kind = blk["kind"]
    if kind == "multiplier":
        m = loop_multiplier(blk["lam"], blk["turns"])
        return {"kind": kind, "value": m, "modulus": abs(m)}, None
    if kind == "lift":  # the RK4 kernel, so that closed_form_error checks it
        end = rk4_lift_path(*blk["lift"], config)
        rec = {"kind": kind, "end": end, "modulus": abs(end)}
        if blk["closed_form"] is not None:
            rec["closed_form_error"] = abs(end - blk["closed_form"])
        return rec, None
    if kind == "drift":
        return {"kind": kind,
                "max_drift": nodal_first_integral_drift(*blk["lift"], config)}, None
    if kind == "lemma4":
        lam, rho, eps = blk["lam"], blk["rho"], blk["eps"]
        rec = {"kind": kind, "constant": lemma4_constant(lam, rho, eps)}
        if blk["trials"] is not None:
            rec["reach"] = lemma4_reach_check(lam, rho, eps, trials=blk["trials"],
                                              config=config)
        return rec, None
    res = saturation_probe(blk["model"], blk["alpha"], blk["eps"], blk["grid"], config)
    return ({"kind": kind, "fraction": res["fraction"],
             "unreached_count": len(res["unreached"])}, lambda: sweep_csv(res["records"]))


def analysis_holonomy(scenario):
    config, blocks = check(scenario).holonomy
    results = []
    csvs = []
    for i, blk in enumerate(blocks):
        try:
            rec, csv = _holonomy_block(blk, config)
        except FoliationLabError as e:
            raise ScenarioError(f"holonomy.blocks[{i}]: {e}") from e
        results.append(rec)
        if csv is not None:
            csvs.append((blk["name"], csv))
    return {"blocks": results}, csvs


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_scenario(scenario, analyses=None):
    """(report, exit code, artifacts) of one scenario.  artifacts maps each
    DOT/CSV file name to a zero-argument renderer of its text, so that only
    the files a caller writes are rendered."""
    sc = check(scenario, analyses)
    report = {"tool_version": __version__,
              "scenario": sc.name,
              "scenario_hash": scenario_hash(sc.doc),
              "analyses": {}}
    artifacts = {}
    violations = []
    for name in sc.analyses:
        try:
            if name == "classify":
                report["analyses"][name] = analysis_classify(sc, sc.form)
            elif name == "dicritical":
                report["analyses"][name] = analysis_dicritical(sc, sc.form)
            elif name == "reduce2d":
                rep, tree = analysis_reduce2d(sc, sc.form)
                report["analyses"][name] = rep
                artifacts["reduction.dot"] = tree.to_dot
            elif name == "graph":
                rep, graph, v = analysis_graph(sc, sc.form)
                report["analyses"][name] = rep
                violations.extend(v)
                artifacts["graph.dot"] = graph.to_dot
            else:  # "holonomy", the one name left that check() admits
                rep, csvs = analysis_holonomy(sc)
                report["analyses"][name] = rep
                for bname, csv in csvs:
                    artifacts[f"{bname}.csv"] = csv
        except NumberTooLong as e:
            raise NumberTooLong(f"{name}: {e}") from None
    report["violations"] = violations
    exit_code = 2 if violations else 0
    return report, exit_code, artifacts


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
    exit_code, contains = expectations(scenario)
    ok = exit_code == code
    jrep = _jsonable(report)
    for dotted, want in contains.items():
        try:
            got = _dig(jrep, dotted)
        except (KeyError, IndexError, TypeError, ValueError):
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
        scenario = load(args.scenario)
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
        for fname, render in artifacts.items():
            wanted = (args.dot and fname.endswith(".dot")) or \
                     (args.csv and fname.endswith(".csv"))
            if wanted:
                blob = render()
                with open(os.path.join(out, fname), "w") as fh:
                    fh.write(blob)
        return code
    except FoliationLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
