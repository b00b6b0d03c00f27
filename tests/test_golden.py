"""Golden reports: corpus reports and DOT artifacts must not change across commits.

``tests/golden/<scenario>/`` holds what ``foliation-lab analyze <scenario>
--out DIR --dot`` wrote for every bundled scenario except ``holonomy_suite``,
whose floats depend on the platform's libm.  Regenerate a directory only
when a result is meant to change, and say why in the change log.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from foliationlab.cli import corpus_files, main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = [(name, f) for name, f in corpus_files() if name != "holonomy_suite.json"]


def test_every_scenario_but_holonomy_has_a_golden_directory():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        name[:-len(".json")] for name, _ in SCENARIOS)


@pytest.mark.parametrize("name,source", SCENARIOS, ids=[n for n, _ in SCENARIOS])
def test_report_and_artifacts_match_golden(name, source, tmp_path, capsys):
    expected_dir = GOLDEN / name[:-len(".json")]
    expected_code = json.loads(source.read_text())["expect"]["exit_code"]
    assert main(["analyze", str(source), "--out", str(tmp_path), "--dot"]) == expected_code
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in expected_dir.iterdir())
    for fname in written:
        assert (tmp_path / fname).read_bytes() == (expected_dir / fname).read_bytes(), fname
