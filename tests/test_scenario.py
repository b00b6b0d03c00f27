"""The scenario module: every malformed field is refused, by name, before any
analysis runs, and no mutation of a corpus scenario ends in a traceback."""
from __future__ import annotations

import cmath
import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from foliationlab import cli, scenario
from foliationlab.cli import corpus_files, expectation_met, main
from foliationlab.divisorgraph import DivisorGraph
from foliationlab.field import is_square_free

CORPUS = {name: json.loads(f.read_text()) for name, f in corpus_files()}
PROBE_GRID = CORPUS["holonomy_suite.json"]["holonomy"]["blocks"][7]["grid"]
NAN, INF = float("nan"), float("inf")
DROP = object()

# (corpus scenario, JSON path of the field, new value or DROP, text the error
# must contain)
MALFORMED = {
    "probe_without_lams": ("saddle_node.json", ["probe", "lams"], DROP, "'probe.lams'"),
    "probe_a_an_int": ("saddle_node.json", ["probe", "a"], 1, "'probe.a'"),
    "probe_as_a_string": ("saddle_node.json", ["probe"], "p", "'probe'"),
    "divisor_vars_an_int": ("saddle_node.json", ["divisor_vars"], 5, "'divisor_vars'"),
    "analyses_an_int": ("cusp.json", ["analyses"], 3, "'analyses'"),
    "analyses_entry_an_int": ("cusp.json", ["analyses"], ["reduce2d", 3], "'analyses[1]'"),
    "max_depth_a_string": ("cusp.json", ["max_depth"], "3", "'max_depth'"),
    "graph_a_string": ("nodal_counterexample_graph.json", ["graph"], "g", "'graph'"),
    "component_without_id": ("nodal_counterexample_graph.json",
                             ["graph", "components", 0, "id"], DROP,
                             "'graph.components[0].id'"),
    "component_id_repeated": ("nodal_counterexample_graph.json",
                              ["graph", "components", 1, "id"], "E1",
                              "'graph.components[1].id'"),
    "point_curves_an_int": ("trace_incompatibility_graph.json",
                            ["graph", "points", 0, "curves"], 3, "'graph.points[0].curves'"),
    "fiber_an_int": ("trace_incompatibility_graph.json", ["graph", "fiber"], 3,
                     "'graph.fiber'"),
    "graph_flags_a_list": ("trace_incompatibility_graph.json", ["graph", "flags"], [1],
                           "'graph.flags'"),
    "flags_a_list": ("jouanolou_m1.json", ["flags"], [1], "'flags'"),
    "nan_lam": ("holonomy_suite.json", ["holonomy", "blocks", 7, "model", "lam", 0], NAN,
                "'holonomy.blocks[7].model.lam[0]'"),
    "divisor_vars_a_name": ("saddle_node.json", ["divisor_vars"], ["a"], "'divisor_vars[0]'"),
    "dicritical_vars_out_of_range": ("saddle_node.json", ["dicritical_vars"], [7],
                                     "'dicritical_vars[0]'"),
    "script_an_object": ("log_corner_3d.json", ["script"], {}, "'script'"),
    "expect_an_int": ("cusp.json", ["expect"], 3, "'expect'"),
    "flag_a_string": ("jouanolou_m1.json", ["flags"], {"no_invariant_surface": "yes"},
                      "'flags.no_invariant_surface'"),
    "infinite_lam": ("holonomy_suite.json", ["holonomy", "blocks", 7, "model", "lam", 0], INF,
                     "'holonomy.blocks[7].model.lam[0]'"),
    "huge_discriminant": ("saddle_node.json", ["d"], 100000000000031, "'d'"),
    "huge_probe_grid": ("holonomy_suite.json", ["holonomy", "blocks", 7, "grid"],
                        {**PROBE_GRID, "nx": 10 ** 4, "ny": 10 ** 4},
                        "holonomy.blocks[7]: a grid has at most"),
    "huge_reach_check": ("holonomy_suite.json", ["holonomy", "blocks", 6, "trials"], 10 ** 7,
                         "holonomy.blocks[6]: 'trials' must be from 1 to 10000"),
    # parses under the power caps, but its residue has more digits than
    # the interpreter writes as a string
    "residue_too_long_to_render": ("saddle_node.json", ["form", "coefficients"],
                                   ["(2^20000)*y", "x"], "error: classify: "),
}
# file contents that are no scenario: (bytes, or None for no file, or "dir")
RAW = {
    "top_level_list": (b"[1, 2]", "JSON object"),
    "missing_file": (None, "No such file"),
    "directory": ("dir", "Is a directory"),
    "not_utf8": (b'{"name": "\xff"}', "utf-8"),
}
CASES = sorted(MALFORMED) + sorted(RAW)


def _set(doc, path, value):
    cur = doc
    for key in path[:-1]:
        cur = cur[key]
    if value is DROP:
        del cur[path[-1]]
    else:
        cur[path[-1]] = value


def _write_case(case, root):
    """(path of the case's scenario file, text its error must contain)."""
    src = os.path.join(root, case + ".json")
    if case in RAW:
        content, where = RAW[case]
        if content == "dir":
            os.mkdir(src)
        elif content is not None:
            Path(src).write_bytes(content)
        return src, where
    name, path, value, where = MALFORMED[case]
    doc = copy.deepcopy(CORPUS[name])
    _set(doc, path, value)
    Path(src).write_text(json.dumps(doc))
    return src, where


@pytest.mark.parametrize("case", CASES)
def test_malformed_scenario_exits_one_naming_the_field(case, tmp_path, capsys):
    src, where = _write_case(case, tmp_path)
    t0 = time.perf_counter()
    assert main(["analyze", src]) == 1
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err, err


def test_malformed_scenarios_exit_one_without_assertions(tmp_path):
    # a check written as an assert would vanish under -O
    paths = [_write_case(case, tmp_path)[0] for case in CASES]
    script = ("import sys\nfrom foliationlab.cli import main\n"
              "print([main(['analyze', p]) for p in sys.argv[1:]])\n")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-O", "-c", script, *paths],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout.strip() == str([1] * len(paths))


def test_whole_document_is_checked_before_any_analysis(monkeypatch):
    # a broken holonomy block fails a scenario that only classifies, and
    # classify never starts
    doc = copy.deepcopy(CORPUS["saddle_node.json"])
    doc["holonomy"] = {"blocks": [{"kind": "multiplier"}]}
    monkeypatch.setattr(cli, "classify_point", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(cli.ScenarioError, match=r"holonomy\.blocks\[0\]: missing 'lam'"):
        cli.run_scenario(doc)


# (block, JSON path inside it, value): residues so large that e^u or a start
# value overflows a float
OVERFLOWS = [
    (0, ["turns"], -200),
    (3, ["model", "lam", 0, 1], 10 ** 30),
    (4, ["model", "weights", 0], 10 ** 30),
    (7, ["model", "lam", 0], 10 ** 30),
]


@pytest.mark.parametrize("block, path, value", OVERFLOWS)
def test_float_overflow_in_a_block_is_no_traceback(block, path, value, tmp_path, capsys):
    doc = copy.deepcopy(CORPUS["holonomy_suite.json"])
    doc["holonomy"]["blocks"] = doc["holonomy"]["blocks"][:block + 1]
    for blk in doc["holonomy"]["blocks"]:
        blk.get("grid", {}).update(nx=2, ny=2)
    _set(doc["holonomy"]["blocks"][block], path, value)
    del doc["expect"]
    src = tmp_path / "overflow.json"
    src.write_text(json.dumps(doc))
    code = main(["analyze", str(src)])
    err = capsys.readouterr().err
    if block == 7:  # a probe skips a candidate whose start overflows
        assert code == 0
    else:  # a multiplier or a lift that overflows fails its block
        assert code == 1 and f"holonomy.blocks[{block}]: " in err


# (block, JSON path inside it, value): floats at the ends of their range that
# once ended in a traceback or in a NaN in the report
HOSTILE = {
    "multiplier_exponent_overflows": (0, ["lam"], 1e-308),  # e^(-inf i)
    "probe_eps_subnormal": (7, ["eps"], 5e-324),  # log(eps / 2) of 0
    "probe_ratio_nan": (7, ["model", "lam"], [[1e308, 1e308], [1e-308, 0]]),
    "lemma4_rho_squared_underflows": (6, ["rho"], 1e-200),
    "lemma4_rho_squared_overflows": (6, ["rho"], 1e308),  # inf / inf
    "lift_nan": (3, ["model", "lam"], [[1, 0], [1e-308, 0]]),
    "drift_nan": (4, ["model", "weights"], [1.0, 1e-308]),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_extreme_holonomy_floats_exit_one_and_write_no_nan(case, tmp_path, capsys):
    block, path, value = HOSTILE[case]
    doc = copy.deepcopy(CORPUS["holonomy_suite.json"])
    doc["holonomy"]["blocks"] = doc["holonomy"]["blocks"][:block + 1]
    for blk in doc["holonomy"]["blocks"]:
        blk.get("grid", {}).update(nx=2, ny=2)
    _set(doc["holonomy"]["blocks"][block], path, value)
    del doc["expect"]
    src = tmp_path / "hostile.json"
    src.write_text(json.dumps(doc))
    code = main(["analyze", str(src), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 1 and err.startswith(f"error: holonomy.blocks[{block}]: ")
    assert "NaN" not in out and not (tmp_path / "out" / "report.json").exists()


def reference_grid(rec):
    """The double loop scenario._grid replaced, verbatim: 2 nx ny complex
    exponentials."""
    nx, ny = rec.get("nx", 20), rec.get("ny", 20)
    x_min, x_max, y_min, y_max = (rec[k] for k in ("x_min", "x_max", "y_min", "y_max"))
    x_phase = rec.get("x_phase", 0.0)
    y_phase = rec.get("y_phase", 0.0)
    out = []
    for i in range(nx):
        for j in range(ny):
            x = (x_min + (x_max - x_min) * (i / (nx - 1))) * cmath.exp(1j * x_phase * i)
            y = (y_min + (y_max - y_min) * (j / (ny - 1))) * cmath.exp(1j * y_phase * j)
            out.append((x, y))
    return out


def _hex(points):
    return [tuple(c.hex() for v in p for c in (v.real, v.imag)) for p in points]


_end = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
_phase = st.one_of(st.integers(-7, 7), st.floats(-50.0, 50.0))


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({"nx": st.integers(2, 7), "ny": st.integers(2, 7),
                              "x_min": _end, "x_max": _end, "y_min": _end, "y_max": _end},
                             optional={"x_phase": _phase, "y_phase": _phase}))
def test_grid_from_its_axes_is_the_double_loop(rec):
    got = scenario._grid(rec)
    assert _hex(got) == _hex(reference_grid(rec))
    assert all(got[i * rec["ny"]][0] is got[i * rec["ny"] + j][0]
               for i in range(rec["nx"]) for j in range(rec["ny"]))


def test_discriminant_square_free_test_runs_once_per_d():
    is_square_free.cache_clear()
    for _ in range(3):
        assert is_square_free(999983)
    assert is_square_free.cache_info().misses == 1


def test_expectation_with_a_word_for_a_list_index_is_a_miss():
    scenario = {"expect": {"contains": {"a.first": 1}}}
    assert not expectation_met(scenario, {"a": [1, 2]}, 0)
    assert expectation_met({"expect": {"contains": {"a.0": 1}}}, {"a": [1, 2]}, 0)


def test_connected_groups_keep_the_order_of_their_first_curve():
    def curve(nodal):
        return {"generically_nodal": nodal, "kind": "STraceCurve"}
    graph = DivisorGraph(curves={"C3": curve(True), "C1": curve(True), "C2": curve(True),
                                 "C4": curve(False)},
                         points={"P": {"curves": ["C2", "C3"]}},
                         fiber=[{"curves": ["C1", "C4"], "invariant": True}])
    assert graph.nodal_component_candidates() == [{"C3", "C2"}, {"C1"}]
    assert [s["curves"] for s in graph.separatrix_components()] == \
        [["C1", "C4"], ["C2", "C3"], ["C1", "C4"]]


# ---------------------------------------------------------------------------
# one-field mutations of the corpus
# ---------------------------------------------------------------------------

# Keys that set how long a lift or a loop runs are only given values the
# schema refuses, so no long lift ever starts.
LONG_RUNNING = {"step", "max_length", "turns", "trials", "nx", "ny"}
REFUSED = [None, True, "x", [], {}, NAN, INF, -INF]
VALUES = REFUSED + [False, 0, -1, 7, 10 ** 30, 10 ** 400, [1], {"a": 1},
                    "(2^20000)*y"]  # a coefficient whose residues are too long to render
# floats at the ends of their range, drawn for holonomy fields
EXTREME = [5e-324, 1e-308, 1e308, -1e308]


def _fuzz_base(name):
    """A corpus scenario with its probe grids and reach checks made small."""
    doc = copy.deepcopy(CORPUS[name])
    for blk in doc.get("holonomy", {}).get("blocks", []):
        if "grid" in blk:
            blk["grid"].update(nx=2, ny=2)
        if "trials" in blk:
            blk["trials"] = 3
    return doc


def _field_paths(v, prefix=()):
    items = v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ()
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_field_paths(child, prefix + (key,)))
    return out


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_one_field_mutation_ends_in_an_exit_code(data):
    name = data.draw(st.sampled_from(sorted(CORPUS)))
    doc = _fuzz_base(name)
    path = data.draw(st.sampled_from(_field_paths(doc)))
    choices = REFUSED if path[-1] in LONG_RUNNING else [DROP] + VALUES
    if path[0] == "holonomy" and path[-1] not in LONG_RUNNING:
        choices = choices + EXTREME
    value = data.draw(st.sampled_from(choices))
    _set(doc, list(path), value)
    with tempfile.TemporaryDirectory() as root:
        src = os.path.join(root, "mutated.json")
        Path(src).write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # main turns a FoliationLabError into exit 1; any other
            # exception escapes and fails the test
            code = main(["analyze", src])
    assert code in (0, 1, 2)
    assert (code == 1) == err.getvalue().startswith("error: ")
    assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue()
