"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import importlib
import sys

import pytest

import run

run.load_library()

import tracer as tracing  # noqa: E402  (needs the library path set above)
import workloads  # noqa: E402

SEEDED = ("exact_blowups", "plane_reduction")


@pytest.mark.parametrize("name", SEEDED)
def test_generators_are_deterministic_per_seed(name):
    generate = workloads.WORKLOADS[name].generate
    assert generate(5) == generate(5)
    assert generate(5) != generate(6)


def test_corpus_items_are_the_bundled_scenarios():
    specs = workloads.corpus_generate(0)
    assert len(specs) == 10
    assert {s["expect_exit"] for s in specs} == {0, 2}


@pytest.mark.parametrize("p, q, blowups", [(2, 3, 3), (2, 5, 4), (5, 7, 5)])
def test_hand_checked_branch_reductions(p, q, blowups):
    assert workloads.cf_blowups(q, p) == blowups
    wl = workloads.WORKLOADS["plane_reduction"]
    spec = next(s for s in wl.generate(1) if s["shape"] == f"y^{p} - c*x^{q}")
    result = wl.run(wl.prepare(spec))
    assert result["blowups"] == blowups
    assert wl.check(spec, result) is None


def test_exact_blowups_reference_holds_on_a_sample():
    wl = workloads.WORKLOADS["exact_blowups"]
    specs = wl.generate(2)
    for spec in [s for s in specs if s["n"] == 2][:4] + [s for s in specs if s["n"] == 3][:2]:
        assert wl.check(spec, wl.run(wl.prepare(spec))) is None


def _bindings():
    """Every attribute of every foliationlab module and class, by identity."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "foliationlab" and not mod_name.startswith("foliationlab."):
            continue
        for key, value in vars(module).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def test_tracer_wraps_every_binding_and_uninstall_restores_them():
    for mod in ("blowup", "classify", "cli", "reduce2d", "solve", "holonomy"):
        importlib.import_module(f"foliationlab.{mod}")
    from foliationlab import blowup, classify, field, forms, reduce2d
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        for module in (forms, blowup, reduce2d, classify):
            assert module.saturate.__wrapped__ is before[(module.__name__, "saturate")]
        assert field.FieldElement.__rmul__ is field.FieldElement.__mul__
        assert hasattr(field.FieldElement.__mul__, "__wrapped__")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _pass(wl, specs, tracer=None):
    prepared = [wl.prepare(s) for s in specs]
    deadline = run.Deadline()
    return run.run_pass(deadline, wl, specs, prepared, [wl.deadline_s] * len(specs), tracer)


@pytest.mark.parametrize("name, pick", [
    ("exact_blowups", lambda specs: specs[:6]),
    ("plane_reduction", lambda specs: [s for s in specs if s["kind"] == "log"
                                       and s["shape"] != "slow_gcd"][:5]),
])
def test_traced_and_untraced_passes_give_the_same_digest(name, pick):
    wl = workloads.WORKLOADS[name]
    specs = pick(wl.generate(3))
    _wall, plain = _pass(wl, specs)
    tracer = tracing.Tracer()
    with tracer:
        _wall, traced = _pass(wl, specs, tracer)
    assert [r[0] for r in plain] == ["ok"] * len(specs)
    assert run.digest(plain) == run.digest(traced)
    metrics = tracer.metrics(0.0)
    assert [m for m, _u, _b in tracing.PER_LAYER] == list(metrics)
    assert metrics["field.calls"] > 0
    assert metrics["forms.saturate_calls"] > 0


def test_holonomy_counters():
    from foliationlab import holonomy
    model = holonomy.LinearModel([1.0, 1j], delta=50.0)
    config = holonomy.NumericConfig(step=5e-3, max_length=2000.0)
    grid = [(0.3, 0.2), (0.6, 0.1j)]
    tracer = tracing.Tracer()
    with tracer:
        holonomy.lift_path(model, {0: holonomy.circle_path(0.5, 1)}, 1, 0.5, config)
        probe = holonomy.saturation_probe(model, 0.5, 0.3, grid, config)
    metrics = tracer.metrics(0.0)
    lifts = metrics["holonomy.lift_calls"]
    assert lifts >= 1 + len(grid)
    assert metrics["holonomy.rk4_steps"] >= 629      # ceil(pi / 5e-3) for the circle
    reached = sum(r["reached"] for r in probe["records"])
    assert metrics["holonomy.probe_accept_frac"] == reached / (lifts - 1)


def test_deadline_miss_is_recorded_not_raised():
    wl = workloads.WORKLOADS["plane_reduction"]
    spec = next(s for s in wl.generate(1) if s["shape"] == "slow_gcd")
    status, result, error, seconds = run.run_item(run.Deadline(), wl, wl.prepare(spec), 0.2)
    assert (status, result, error) == ("deadline", None, None)
    assert seconds < 5


def test_tail_needs_ten_values_beyond_it():
    assert run.tail(range(1, 11)) == (100.0, 10)
    assert run.tail(range(1, 41)) == (75.0, 30)
    assert run.tail(range(1, 101)) == (90.0, 90)


def test_retime_spends_samples_on_cheap_items_only():
    wl = workloads.Workload("stub", 5.0, None, None, None, lambda item: item,
                            lambda spec, result: None)
    samples = [[10.0], [0.0], [0.0]]
    records = run.retime(run.Deadline(), wl, [{}, {}, {}], [0, 1, 2], samples,
                         [True, True, False], run.perf_counter() + 5, 1.0)
    assert [len(s) for s in samples] == [1, run.MAX_SAMPLES, 1]
    assert [r[:2] for r in records] == [("ok", 1)] * (run.MAX_SAMPLES - 1)
