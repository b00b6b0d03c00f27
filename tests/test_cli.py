"""Scenario runner: determinism, exit codes, artifacts, corpus."""
from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from foliationlab import cli
from foliationlab.cli import (corpus_files, expectation_met, main, render_report,
                              run_corpus, run_scenario, scenario_hash)
from foliationlab.divisorgraph import DivisorGraph
from foliationlab.holonomy import saturation_probe, sweep_csv
from foliationlab.reduce2d import ReductionTree
from foliationlab.scenario import check


def load(name):
    for fname, f in corpus_files():
        if fname == name:
            return json.loads(f.read_text())
    raise AssertionError(f"missing corpus scenario {name}")


def test_corpus_lists_scenarios():
    names = [n for n, _ in corpus_files()]
    assert "cusp.json" in names and "jouanolou_m1.json" in names
    assert len(names) == 10


def test_reports_are_byte_identical():
    for name in ("cusp.json", "jouanolou_m1.json", "log_corner_3d.json"):
        scenario = load(name)
        a = render_report(run_scenario(scenario)[0])
        b = render_report(run_scenario(scenario)[0])
        assert a == b


def test_scenario_hash_stable():
    s = load("cusp.json")
    assert scenario_hash(s) == scenario_hash(json.loads(json.dumps(s)))


def test_counterexample_exit_code():
    report, code, _ = run_scenario(load("nodal_counterexample_graph.json"))
    assert code == 2
    assert report["analyses"]["graph"]["nodal_verdict"]["verdict"] == "Violated"


def test_full_corpus_matches_expectations():
    summary, code, _ = run_corpus()
    assert code == 0 and summary["all_matched"]


def test_corpus_filter():
    summary, code, _ = run_corpus(filter_text="cusp")
    assert [r["scenario"] for r in summary["scenarios"]] == ["cusp.json"]
    empty, code, _ = run_corpus(filter_text="no-such-scenario")
    assert empty["scenarios"] == [] and code == 0


def test_main_writes_artifacts(tmp_path, capsys):
    src = tmp_path / "cusp.json"
    src.write_text(json.dumps(load("cusp.json")))
    code = main(["reduce2d", str(src), "--out", str(tmp_path / "out"), "--dot"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["analyses"]["reduce2d"]["depth"] == 3
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "reduction.dot").exists()


def test_main_csv_artifacts(tmp_path, capsys):
    scenario = load("holonomy_suite.json")
    # trim to the probe blocks to keep the run short
    scenario["holonomy"]["blocks"] = [
        b for b in scenario["holonomy"]["blocks"]
        if b["kind"] == "probe" and b["name"] == "nodal"]
    del scenario["expect"]
    src = tmp_path / "probe.json"
    src.write_text(json.dumps(scenario))
    code = main(["holonomy", str(src), "--out", str(tmp_path / "out"), "--csv"])
    assert code == 0
    capsys.readouterr()
    config, [blk] = check(scenario).holonomy
    res = saturation_probe(blk["model"], blk["alpha"], blk["eps"], blk["grid"], config)
    assert (tmp_path / "out" / "nodal.csv").read_text() == sweep_csv(res["records"])


@pytest.mark.parametrize("lam, code", [(90, 0), (100, 1)])
def test_reach_constant_that_underflows_fails_its_block(lam, code, tmp_path, capsys):
    scenario = load("holonomy_suite.json")
    blocks = scenario["holonomy"]["blocks"]
    scenario["holonomy"]["blocks"] = [{**b, "lam": lam} for b in blocks if b["kind"] == "lemma4"]
    del scenario["expect"]
    src = tmp_path / "lemma4.json"
    src.write_text(json.dumps(scenario))
    assert main(["holonomy", str(src)]) == code
    out, err = capsys.readouterr()
    if code:  # c = 0.0 would put every start on the divisor
        assert err.startswith("error: holonomy.blocks[0]: ") and "underflows" in err
    else:  # c = 1.3e-321, subnormal, and every start still arrives
        [block] = json.loads(out)["analyses"]["holonomy"]["blocks"]
        assert block["constant"] == 1.3e-321 and block["reach"]["fraction"] == 1.0


def test_artifacts_are_rendered_only_when_written(monkeypatch, tmp_path, capsys):
    def unwanted(*args):
        pytest.fail("rendered an artifact no one writes")
    for owner, name in ((cli, "sweep_csv"), (DivisorGraph, "to_dot"),
                        (ReductionTree, "to_dot")):
        monkeypatch.setattr(owner, name, unwanted)
    assert run_corpus()[0]["all_matched"]
    src = corpus_files()[0][1]
    assert main(["analyze", str(src), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 1
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["(x+y+z+1)^10", "(x+y+z+1)^40", "2^100000000",
                                  pytest.param("1" + "0" * 5000 + "*y",
                                               id="literal_of_5001_digits"),
                                  pytest.param("*".join(["(1+x+y+z)^5"] * 4),
                                               id="four_chained_powers")])
def test_oversized_power_exits_one_at_once(text, tmp_path, capsys):
    # the parser refuses the power or product before expanding it, and the
    # literal before int() refuses it with a ValueError
    scenario = {"name": "big-power", "dimension": 3, "d": 0,
                "form": {"coefficients": [text, "y", "z"]}, "analyses": ["classify"]}
    src = tmp_path / "big.json"
    src.write_text(json.dumps(scenario))
    t0 = time.perf_counter()
    assert main(["analyze", str(src)]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error: 'form.coefficients[0]': ")


def test_unknown_analysis_is_an_error(tmp_path):
    from foliationlab.errors import ScenarioError
    with pytest.raises(ScenarioError):
        run_scenario({"name": "x", "form": {"coefficients": ["x", "y"]},
                      "analyses": ["nope"]})


BAD_SCRIPTS = {
    "step_not_an_object": (["x"], "script[0]"),
    "center_not_an_object": ([{"center": "origin"}], "script[0]"),
    "readme_chart_key": ([{"path": [], "center": {"kind": "point"}},
                          {"center": {"kind": "point"}, "chart": "x"}], "script[1]"),
    "unknown_center_kind": ([{"center": {"kind": "origin"}}], "script[0]"),
    "axis_center_without_axis": ([{"center": {"kind": "curve"}}], "script[0]"),
    "point_center_short_coords": ([{"center": {"kind": "point", "coords": ["1", "0"]}}],
                                  "script[0]"),
    "point_center_unparsable_coord": (
        [{"center": {"kind": "point", "coords": ["0", "1+", "0"]}}],
        "script[0]: 'coords[1]': unexpected end of input"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCRIPTS))
def test_script_schema_rejects_what_it_cannot_run(case, tmp_path, capsys):
    script, where = BAD_SCRIPTS[case]
    scenario = load("log_corner_3d.json")
    scenario["script"] = script
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(scenario))
    assert main(["graph", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


# (form, script, text the error must contain): each script passes the
# schema and fails at run time, in step 1
ORIGIN = {"path": [], "center": {"kind": "point"}}
LOG_CORNER = {"coefficients": ["2", "3", "-4*sqrt(2)"], "log": [True] * 3}
BAD_RUNS = {
    "chart_blown_up_twice": (LOG_CORNER, [ORIGIN, ORIGIN], "already blown up"),
    "chart_missing": (LOG_CORNER, [ORIGIN, {**ORIGIN, "path": ["x", "x"]}],
                      "no chart at path ('x', 'x')"),
    # x dx + y dy + z dz is (1 + y^2 + z^2) dx + x y dy + x z dz in chart x,
    # so {y = z = 0} is not invariant there
    "center_not_invariant": ({"coefficients": ["x", "y", "z"]},
                             [ORIGIN, {"path": ["x"], "center": {"kind": "curve",
                                                                 "axis": [1, 2]}}],
                             "is not invariant"),
}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_script_errors_at_run_time_name_their_step(case, tmp_path, capsys):
    form, script, message = BAD_RUNS[case]
    scenario = {**load("log_corner_3d.json"), "form": form, "script": script}
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(scenario))
    assert main(["graph", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: script[1]: ") and message in err


def test_dicritical_reads_the_saturated_form():
    # x (y dx - 2 x dy): the common factor x would double the multiplicity
    report, code, _ = run_scenario({"name": "unsaturated",
                                    "form": {"coefficients": ["x*y", "-2*x^2"]},
                                    "analyses": ["classify", "dicritical"]})
    assert code == 0
    assert report["analyses"]["dicritical"]["multiplicity"] == 1
    assert report["analyses"]["classify"]["multiplicity"] == 1


def test_zero_form_dicritical_is_a_typed_error(tmp_path, capsys):
    src = tmp_path / "zero.json"
    src.write_text(json.dumps({"name": "zero", "form": {"coefficients": ["0", "0"]},
                               "analyses": ["dicritical"]}))
    assert main(["analyze", str(src)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_graph_round_trip_mismatch_is_an_error(tmp_path, capsys, monkeypatch):
    ingest = DivisorGraph.from_json.__func__

    def lossy(cls, text):
        graph = ingest(cls, text)
        graph.components.popitem()
        return graph

    monkeypatch.setattr(DivisorGraph, "from_json", classmethod(lossy))
    src = tmp_path / "corner.json"
    src.write_text(json.dumps(load("log_corner_3d.json")))
    assert main(["graph", str(src)]) == 1
    assert "re-ingest" in capsys.readouterr().err


def test_readme_scenario_sketch_runs_and_meets_its_expectations():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Scenario format", 1)[1]
    scenario = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert scenario["expect"]["contains"]
    report, code, _ = run_scenario(scenario)
    assert expectation_met(scenario, report, code)


LIFT = {"kind": "lift", "model": {"lam": [1, [0, 1]], "delta": 2.0},
        "paths": [{"index": 0, "kind": "circle", "alpha": 0.5}],
        "fiber": 1, "start": 0.5}
BAD_BLOCKS = {
    "missing_kind": {k: v for k, v in LIFT.items() if k != "kind"},
    "model_without_lam_or_weights": {**LIFT, "model": {"delta": 2.0}},
    "circle_of_radius_zero": {**LIFT, "paths": [{"index": 0, "kind": "circle", "alpha": 0}]},
    "fiber_out_of_range": {**LIFT, "fiber": 2},
    "fiber_is_a_path_index": {**LIFT, "fiber": 0},
    "polydisc_of_radius_zero": {**LIFT, "model": {"lam": [1, 2], "delta": 0}},
    "constant_path_on_the_divisor": {**LIFT, "paths": [{"index": 0, "kind": "constant",
                                                        "value": 0}]},
    "drift_with_a_still_coordinate": {
        **LIFT, "kind": "drift", "fiber": 2,
        "model": {"weights": [1, 2, 3], "split": 1, "delta": 4.0}},
    "name_outside_the_output_directory": {**LIFT, "name": "../escaped"},
    "probe_at_alpha_zero": {"kind": "probe", "model": {"lam": [1, [0, 1]], "delta": 50.0},
                            "alpha": 0, "eps": 0.3,
                            "grid": {"nx": 2, "ny": 2, "x_min": 0.2, "x_max": 0.8,
                                     "y_min": 0.2, "y_max": 0.8}},
}


def _run_holonomy(tmp_path, blocks, config=None):
    scenario = {"name": "bad-holonomy", "analyses": ["holonomy"],
                "holonomy": {"blocks": blocks, "config": config or {}}}
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(scenario))
    return main(["holonomy", str(src)])


@pytest.mark.parametrize("case", sorted(BAD_BLOCKS))
def test_holonomy_blocks_reject_what_they_cannot_run(case, tmp_path, capsys):
    good = {"kind": "multiplier", "lam": 2}
    assert _run_holonomy(tmp_path, [good, BAD_BLOCKS[case]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "holonomy.blocks[1]" in err


def test_holonomy_config_rejects_a_step_that_is_not_a_number(tmp_path, capsys):
    assert _run_holonomy(tmp_path, [LIFT], {"step": float("nan")}) == 1
    assert capsys.readouterr().err.startswith("error: holonomy: ")


def test_holonomy_step_too_fine_for_the_cap_exits_at_once(tmp_path, capsys):
    # step 1e-9 asks for ~3e9 RK4 steps on this circle; the cap refuses it
    # before the first step instead of integrating for hours
    t0 = time.perf_counter()
    assert _run_holonomy(tmp_path, [LIFT], {"step": 1e-9}) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "RK4 steps" in capsys.readouterr().err


def test_probe_does_not_hide_the_step_cap(tmp_path, capsys):
    # the probe skips candidates whose spiral is too long, but a lift the
    # step cap refuses is a config error: the block fails instead of
    # reporting every grid point unreached
    probe = {**BAD_BLOCKS["probe_at_alpha_zero"], "alpha": 0.5}
    t0 = time.perf_counter()
    assert _run_holonomy(tmp_path, [probe], {"step": 1e-9}) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: holonomy.blocks[0]") and "RK4 steps" in err


def test_drift_of_an_overflowing_first_integral_exits_one(tmp_path, capsys):
    # weights near the float maximum make the first integral -inf at every
    # node; its drift once read 0.0
    drift = {"kind": "drift", "model": {"weights": [1e308, 1e307], "split": 1},
             "paths": [{"index": 0, "kind": "spiral", "start": 0.1, "end": 0.1000001}],
             "fiber": 1, "start": 0.1}
    assert _run_holonomy(tmp_path, [drift]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: holonomy.blocks[0]: ") and "first integral" in err
    assert out == ""


# (changes to the log_corner_3d scenario, text the error must contain)
BAD_FORMS = {
    "dimension_true": ({"dimension": True}, "'dimension'"),
    "dimension_four": ({"dimension": 4}, "'dimension'"),
    "dimension_zero": ({"dimension": 0}, "'dimension'"),
    "dimension_string": ({"dimension": "2"}, "'dimension'"),
    "d_string_expression": ({"d": "sqrt(-1)"}, "'d'"),
    "d_string_integer": ({"d": "2"}, "'d'"),
    "d_float": ({"d": 2.0}, "'d'"),
    "form_not_an_object": ({"form": ["2", "3", "-4*sqrt(2)"]}, "'form'"),
    "coefficients_missing": ({"form": {"log": [True] * 3}}, "'form.coefficients'"),
    "coefficients_not_a_list": ({"form": {"coefficients": "2"}}, "'form.coefficients'"),
    "coefficients_too_few": ({"form": {"coefficients": ["2", "3"]}}, "'form.coefficients'"),
    "coefficient_not_a_string": ({"form": {"coefficients": ["2", 3, "z"]}},
                                 "'form.coefficients[1]'"),
    "log_too_short": ({"form": {"coefficients": ["2", "3", "1"], "log": [True]}},
                      "'form.log'"),
    "log_not_booleans": ({"form": {"coefficients": ["2", "3", "1"], "log": [1, 1, 1]}},
                         "'form.log'"),
    "log_not_a_list": ({"form": {"coefficients": ["2", "3", "1"], "log": True}},
                       "'form.log'"),
    "d_not_square_free": ({"d": 4}, "'d': discriminant 4 is not square-free"),
    "coefficient_trailing_operator": ({"form": {"coefficients": ["2", "3", "x+"]}},
                                      "'form.coefficients[2]': unexpected end of input"),
    "coefficient_open_parenthesis": ({"form": {"coefficients": ["(x", "3", "1"]}},
                                     "'form.coefficients[0]': unexpected end of input"),
    "coefficient_exponent_missing": ({"form": {"coefficients": ["2", "x^", "1"]}},
                                     "'form.coefficients[1]': unexpected end of input"),
}


@pytest.mark.parametrize("case", sorted(BAD_FORMS))
def test_form_block_rejects_what_it_cannot_read(case, tmp_path, capsys):
    change, where = BAD_FORMS[case]
    scenario = {**load("log_corner_3d.json"), **change}
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(scenario))
    assert main(["analyze", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize("scenario, message", [
    ({"name": "no-form", "form": None, "analyses": ["classify"]}, "scenario has no 1-form"),
    ({"name": "bad-d", "d": 4, "form": {"coefficients": ["x", "y"]},
      "analyses": ["classify"]}, "not square-free"),
])
def test_form_block_keeps_its_earlier_messages(scenario, message, tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(scenario))
    assert main(["analyze", str(src)]) == 1
    assert message in capsys.readouterr().err
