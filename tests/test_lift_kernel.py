"""The RK4 lift kernel against the scalar loop it replaced, and the closed
form of lift_path against both."""
from __future__ import annotations

import cmath
import functools
import json
import math
import os
import subprocess
import sys

import frozen_holonomy
import pytest
from hypothesis import assume, given, settings, strategies as st

import foliationlab
from foliationlab import cli, holonomy
from foliationlab.errors import FoliationLabError, LeftDomain, StepTooLarge, ZeroLambda
from foliationlab.holonomy import (LinearModel, NumericConfig, circle_path,
                                   constant_path, lift_path,
                                   nodal_first_integral_drift, rk4_lift_path,
                                   spiral_path)


def reference_lift_path(model, paths, fiber, start, config=holonomy.DEFAULT_CONFIG):
    """The scalar loop the kernel replaced: nine path calls and five exp(u)
    per step, and the domain guard only every n // 64 steps."""
    if start == 0:
        raise LeftDomain("start value lies on the divisor")
    length = sum(getattr(p, "length", 1.0) for p in paths.values())
    if length > config.max_length:
        raise StepTooLarge(f"path length {length:.3g} exceeds the configured bound")
    n = max(16, int(math.ceil(max(length, 1.0) / config.step)))
    h = 1.0 / n

    def point_at(t, u):
        pt = [0.0] * model.tau
        for i, p in paths.items():
            pt[i] = p(t)[0]
        pt[fiber] = cmath.exp(u)
        return pt

    def rhs(t, u):
        pt = point_at(t, u)
        num = 0.0
        for i, p in paths.items():
            v, dv = p(t)
            num += model.coefficient(i, pt) * (dv / v)
        den = model.coefficient(fiber, pt)
        if den == 0:
            raise ZeroLambda("fiber coefficient vanished along the path")
        return -num / den

    u = cmath.log(start)
    check_every = max(1, n // 64)
    for s in range(n):
        t = s * h
        k1 = rhs(t, u)
        k2 = rhs(t + h / 2, u + h * k1 / 2)
        k3 = rhs(t + h / 2, u + h * k2 / 2)
        k4 = rhs(t + h, u + h * k3)
        u = u + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if s % check_every == 0:
            pt = point_at(t + h, u)
            if any(abs(c) > model.delta * (1 + 1e-9) for c in pt):
                raise LeftDomain("lifted path exited the polydisc")
    return cmath.exp(u)


PERTURBED = LinearModel([1.0, 1j], delta=2.0,
                        perturbations=(lambda p: 0.3 * p[0] + 0.2 * p[1] ** 2,
                                       lambda p: 0.1 * p[0] * p[1]))
FIBER_ONLY = LinearModel([2.0, -1.5], delta=2.0,
                         perturbations=(None, lambda p: 0.05 * p[1]))
NODAL3 = LinearModel.nodal([1.0, math.sqrt(2), math.sqrt(3)], 1, delta=8.0)

# (case, model, paths, fiber, start)
CASES = [
    ("circle", LinearModel([1.0, 1j], delta=2.0), {0: circle_path(0.5, 1)}, 1, 0.5),
    ("circle_reversed", LinearModel([0.5 + 0.5j, 2.0], delta=2.0),
     {0: circle_path(0.4 - 0.2j, -2)}, 1, 0.3 + 0.1j),
    ("spiral", LinearModel([2.0, 3.0], delta=2.0),
     {0: spiral_path(0.5, 0.3 + 0.2j, turns=1)}, 1, 0.4),
    ("spiral_fiber_first", LinearModel([2.0, 1.0 + 0.5j], delta=2.0),
     {1: spiral_path(0.2j, 0.6)}, 0, 0.3),
    ("constant", LinearModel([1.0, 1j], delta=2.0), {0: constant_path(0.4)}, 1, 0.25),
    ("perturbed_circle", PERTURBED, {0: circle_path(0.5, 1)}, 1, 0.4),
    ("perturbed_spiral", PERTURBED, {0: spiral_path(0.5, 0.2 + 0.3j, turns=1)}, 1, 0.4),
    ("perturbed_fiber_only", FIBER_ONLY, {0: spiral_path(0.3, 0.6 + 0.1j)}, 1, 0.5),
    ("nodal3_two_paths", NODAL3,
     {0: circle_path(0.3, 1), 1: spiral_path(0.35, 0.25 + 0.1j)}, 2, 0.4),
]


@pytest.mark.parametrize("name,model,paths,fiber,start", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("step", [5e-3, 1e-3])
def test_kernel_matches_reference(name, model, paths, fiber, start, step):
    config = NumericConfig(step=step)
    want = reference_lift_path(model, paths, fiber, start, config)
    got = rk4_lift_path(model, paths, fiber, start, config)
    assert abs(got - want) <= 1e-12 * abs(want)


UNPERTURBED = [c for c in CASES if all(b is None for b in c[1].perturbations)]


@pytest.mark.parametrize("name,model,paths,fiber,start", UNPERTURBED,
                         ids=[c[0] for c in UNPERTURBED])
@pytest.mark.parametrize("step", [5e-3, 1e-3])
def test_closed_form_matches_reference(name, model, paths, fiber, start, step):
    config = NumericConfig(step=step)
    want = reference_lift_path(model, paths, fiber, start, config)
    got = lift_path(model, paths, fiber, start, config)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_closed_form_steps_nothing(monkeypatch):
    monkeypatch.setattr(holonomy, "_lift_steps", lambda *a: pytest.fail("stepped"))
    _, model, paths, fiber, start = CASES[0]
    assert abs(lift_path(model, paths, fiber, start) - start * cmath.exp(-2 * math.pi)) < 1e-15
    _, model, paths, fiber, start = CASES[5]  # perturbed: integrated
    with pytest.raises(pytest.fail.Exception):
        lift_path(model, paths, fiber, start)


def _probe_scenario(n):
    """The corpus probes on n x n grids; the corpus itself has 20 x 20."""
    with open(dict(cli.corpus_files())["holonomy_suite.json"]) as fh:
        scenario = json.load(fh)
    probes = [b for b in scenario["holonomy"]["blocks"] if b["kind"] == "probe"]
    for block in probes:
        block["grid"].update(nx=n, ny=n)
    scenario["holonomy"]["blocks"] = probes
    return scenario


def test_probe_reached_flags_match_reference(monkeypatch):
    # the probe builds its closed-form lifts itself, so the reference is
    # the frozen probe confirming each candidate with the scalar RK4 loop
    scenarios = [_probe_scenario(5), _probe_scenario(20)]
    results = [cli.analysis_holonomy(scenario) for scenario in scenarios]
    monkeypatch.setattr(cli, "saturation_probe",
                        functools.partial(frozen_holonomy.saturation_probe,
                                          lift=reference_lift_path))
    for scenario, (report, csvs) in zip(scenarios, results):
        ref_report, ref_csvs = cli.analysis_holonomy(scenario)
        assert [name for name, _ in csvs] == ["complex_saddle", "real_saddle", "nodal"]
        assert report == ref_report
        assert [render() for _, render in csvs] == [render() for _, render in ref_csvs]


def test_guard_runs_after_every_step():
    # the path ends just outside the unit polydisc; the sparse guard of the
    # old loop never looked at the last steps
    model = LinearModel([1, 1], delta=1)
    paths = {0: spiral_path(0.5, 1.0005)}
    assert abs(reference_lift_path(model, paths, 1, 0.1)) < 1
    for route in (lift_path, rk4_lift_path):
        with pytest.raises(LeftDomain):
            route(model, paths, 1, 0.1)


def _outcome(route, *args):
    """The end value of a lift, or the type of the error it raised."""
    try:
        return route(*args)
    except FoliationLabError as e:
        return type(e)


def test_both_routes_raise_at_the_same_inputs(monkeypatch):
    monkeypatch.setattr(holonomy, "MAX_RK4_STEPS", 64)
    model = LinearModel([1.0, 1j], delta=2.0)
    circle = {0: circle_path(0.5, 1)}  # length pi
    coarse = NumericConfig(step=0.1)
    cases = [
        (model, circle, 1, 0, coarse, LeftDomain),  # start on the divisor
        (model, circle, 1, 0.5, NumericConfig(step=0.1, max_length=3.0), holonomy.PathTooLong),
        (model, circle, 1, 0.5, NumericConfig(step=1 / 60), StepTooLarge),  # 189 > 64 steps
        (LinearModel([1, 1], delta=1), {0: spiral_path(0.5, 1.0005)}, 1, 0.1, coarse,
         LeftDomain),  # the path ends outside
        (LinearModel([1j, 1.0], delta=2.0), circle, 1, 0.5, coarse, LeftDomain),  # the lift does
    ]
    for *args, want in cases:
        assert _outcome(lift_path, *args) is want
        assert _outcome(rk4_lift_path, *args) is want
    assert isinstance(_outcome(lift_path, model, circle, 1, 0.5, coarse), complex)


def _model(kind, a, b, delta):
    if kind == "complex":
        return LinearModel([a, b], delta=delta)
    if kind == "real":
        return LinearModel([a.real, b.real], delta=delta)
    return LinearModel.nodal([abs(a.real), abs(b.real)], 1, delta=delta)


_residue = st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0)
_point = st.complex_numbers(min_magnitude=0.05, max_magnitude=1.2)


@st.composite
def _lift_case(draw):
    kind = draw(st.sampled_from(["complex", "real", "nodal"]))
    a, b = draw(_residue), draw(_residue)
    if kind != "complex" and (abs(a.real) < 0.2 or abs(b.real) < 0.2):
        a, b = complex(1 + abs(a.real), 0), complex(-1 - abs(b.real), 0)
    delta = draw(st.sampled_from([1.0, 2.0]))
    path_kind = draw(st.sampled_from(["circle", "spiral", "constant"]))
    if path_kind == "circle":
        path = circle_path(draw(_point), draw(st.integers(-2, 2).filter(bool)))
    elif path_kind == "spiral":
        path = spiral_path(draw(_point), draw(_point), draw(st.integers(-1, 1)))
    else:
        path = constant_path(draw(_point))
    fiber = draw(st.sampled_from([0, 1]))
    return kind, a, b, delta, {1 - fiber: path}, fiber, draw(_point)


@settings(max_examples=150, deadline=None)
@given(_lift_case())
def test_closed_form_and_kernel_agree(case):
    kind, a, b, delta, paths, fiber, start = case
    config = NumericConfig(step=1e-2)
    # off the guard boundary: the closed form ends the same way for radii
    # 1e-6 either side of delta
    inner, outer = (_outcome(lift_path, _model(kind, a, b, delta * f), paths, fiber, start,
                             config) for f in (1 - 1e-6, 1 + 1e-6))
    assume(isinstance(inner, complex) or inner is outer)
    model = _model(kind, a, b, delta)
    exact = _outcome(lift_path, model, paths, fiber, start, config)
    stepped = _outcome(rk4_lift_path, model, paths, fiber, start, config)
    if isinstance(exact, complex):
        assert isinstance(stepped, complex)
        assert abs(exact - stepped) <= 1e-9 * abs(stepped)
    else:
        assert exact is stepped


def test_step_cap_raises_before_integrating(monkeypatch):
    calls = []
    path = circle_path(0.5, 1)

    def counted(t):
        calls.append(t)
        return path(t)
    counted.length = path.length
    model = LinearModel([1.0, 1j], delta=2.0)
    with pytest.raises(StepTooLarge):
        lift_path(model, {0: counted}, 1, 0.5, NumericConfig(step=1e-9))
    assert calls == []
    # the cap itself is reachable: one step under it still integrates
    monkeypatch.setattr(holonomy, "MAX_RK4_STEPS", 64)
    lift_path(model, {0: constant_path(0.5)}, 1, 0.5, NumericConfig(step=1 / 64))
    with pytest.raises(StepTooLarge):
        lift_path(model, {0: constant_path(0.5)}, 1, 0.5, NumericConfig(step=1 / 65))


def test_drift_runs_one_lift(monkeypatch):
    runs = []
    kernel = holonomy._lift_steps

    def counted(*args):
        runs.append(args)
        return kernel(*args)
    monkeypatch.setattr(holonomy, "_lift_steps", counted)
    paths = {0: circle_path(0.3, 1), 1: spiral_path(0.35, 0.25 + 0.1j)}
    assert nodal_first_integral_drift(NODAL3, paths, 2, 0.4) < 1e-6
    assert len(runs) == 1


def test_a_nan_lift_is_outside_the_polydisc():
    # 2 pi i / 1e-308 overflows, and the overflowed slope turns u into NaN,
    # which no comparison with the bound refuses on its own
    model = LinearModel([1, 1e-308], delta=2.0)
    for route in (lift_path, rk4_lift_path):
        with pytest.raises(LeftDomain):
            route(model, {0: circle_path(0.5, 1)}, 1, 0.5)
    nodal = LinearModel.nodal([1.0, 1e-308], 1, delta=4.0)
    with pytest.raises(LeftDomain):
        nodal_first_integral_drift(nodal, {0: circle_path(0.3, 1)}, 1, 0.4)


def test_drift_sees_the_whole_path():
    # a perturbed nodal model does not conserve the first integral; the max
    # over every step is at least the drift at the end of the lift
    r = math.sqrt(2)
    model = LinearModel([1.0, -r], delta=4.0, weights=[1.0, r], split=1,
                        perturbations=(lambda p: 0.2 * p[1], None))
    paths = {0: circle_path(0.3, 1)}
    end = lift_path(model, paths, 1, 0.4)
    at_end = abs(model.first_integral_log([0.3, end]) - model.first_integral_log([0.3, 0.4]))
    drift = nodal_first_integral_drift(model, paths, 1, 0.4)
    assert 1e-3 < at_end <= drift


def test_cli_import_leaves_numpy_out():
    code = "import sys, foliationlab.cli; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(foliationlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
