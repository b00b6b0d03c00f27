"""The lifts, the drift check, the reach check and the saturation probe
against frozen copies of the code they replaced (frozen_holonomy): the same
floats bit for bit, or the same exception type."""
from __future__ import annotations

import json
import math

import frozen_holonomy as frozen
from hypothesis import example, given, settings, strategies as st

from foliationlab import cli, holonomy
from foliationlab.errors import FoliationLabError, NonFiniteIntegral
from foliationlab.holonomy import LinearModel, NumericConfig, circle_path, constant_path, spiral_path


def _bits(x):
    """x with every float written in hex, so -0.0 and NaN compare as bits."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _outcome(route, *args):
    """The bits of what route returns, or the type of the error it raised."""
    try:
        return _bits(route(*args))
    except FoliationLabError as e:
        return type(e)


def _same(new, old, *args):
    got, want = _outcome(new, *args), _outcome(old, *args)
    assert got == want
    return got


_residue = st.complex_numbers(min_magnitude=0.2, max_magnitude=3.0)
_weight = st.floats(0.2, 3.0)
_point = st.complex_numbers(min_magnitude=0.05, max_magnitude=1.2)
_delta = st.sampled_from([1.0, 2.0, 50.0])
# a step of 1e-9 is refused by the step cap, a max_length of 2 refuses
# most long paths
_config = st.builds(NumericConfig, step=st.sampled_from([2e-2, 1e-2, 1e-9]),
                    max_length=st.sampled_from([2.0, 200.0, 2000.0]))


@st.composite
def _model(draw, tau=2, deltas=_delta):
    kind = draw(st.sampled_from(["complex", "real", "nodal", "perturbed"]))
    delta = draw(deltas)
    if kind == "complex":
        return LinearModel([draw(_residue) for _ in range(tau)], delta=delta)
    if kind == "real":
        return LinearModel([draw(_residue).real or 1.0 for _ in range(tau)], delta=delta)
    weights = [draw(_weight) for _ in range(tau)]
    if kind == "nodal":
        return LinearModel.nodal(weights, 1, delta=delta)
    # a perturbed nodal model, so that the RK4 route and the drift of a
    # first integral that is not conserved both stay covered
    lam = [r if i < 1 else -r for i, r in enumerate(weights)]
    bumps = [lambda p: 0.2 * p[-1], lambda p: 0.1 * p[0] * p[-1]] + [None] * (tau - 2)
    return LinearModel(lam, delta=delta, weights=weights, split=1, perturbations=bumps)


@st.composite
def _path(draw):
    kind = draw(st.sampled_from(["circle", "spiral", "constant"]))
    if kind == "circle":
        return circle_path(draw(_point), draw(st.integers(-2, 2).filter(bool)))
    if kind == "spiral":
        return spiral_path(draw(_point), draw(_point), draw(st.integers(-1, 1)))
    return constant_path(draw(_point))


@st.composite
def _lift(draw, tau=2):
    """(model, paths, fiber, start): every coordinate but the fiber moves."""
    model = draw(_model(tau))
    fiber = draw(st.integers(0, tau - 1))
    paths = {i: draw(_path()) for i in range(tau) if i != fiber}
    return model, paths, fiber, draw(_point)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_lift(2), _lift(3)), _config)
# lifts that leave the unit polydisc only near their start, where the
# closed form's guard at the first node alone sees it
@example((LinearModel([1.0, 1j]), {0: spiral_path(1.1, 0.5)}, 1, 0.5), NumericConfig())
@example((LinearModel([1.0, 1.0]), {0: spiral_path(0.5, 0.9)}, 1, 1.05), NumericConfig())
def test_lift_path_matches_frozen(lift, config):
    _same(holonomy.lift_path, frozen.lift_path, *lift, config)
    _same(holonomy.rk4_lift_path, frozen.rk4_lift_path, *lift, config)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_lift(2), _lift(3)), _config)
def test_drift_matches_frozen(lift, config):
    model = lift[0]
    if not model.is_nodal:
        model = LinearModel.nodal([abs(l) for l in model.lam], 1, delta=model.delta)
    _same(holonomy.nodal_first_integral_drift, frozen.nodal_first_integral_drift,
          model, *lift[1:], config)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 12.0), st.floats(0.3, 6.0), st.floats(1e-3, 0.5),
       st.integers(1, 20), _config)
def test_lemma4_reach_check_matches_frozen(lam, rho, eps, trials, config):
    _same(holonomy.lemma4_reach_check, frozen.lemma4_reach_check,
          lam, rho, eps, trials, config)


# a polydisc of radius 0.3 leaves most grid points outside (LeftDomain); a
# max_length of 0.5 refuses most spirals (PathTooLong), a step of 1e-9 every
# lift (StepTooLarge)
_probe_delta = st.sampled_from([0.3, 1.0, 2.0, 50.0])
_probe_config = st.builds(NumericConfig, step=st.sampled_from([2e-2, 1e-2, 1e-9]),
                          max_length=st.sampled_from([0.5, 2.0, 200.0, 2000.0]))


@st.composite
def _windy_model(draw):
    """A ratio with a small imaginary part: each extra turn changes the
    contraction little, so a probe that refuses its first candidates goes on
    to try many winding numbers."""
    im = draw(st.floats(0.005, 0.2)) * draw(st.sampled_from([1, -1]))
    return LinearModel([complex(draw(st.floats(-2.0, 2.0)), im), 1.0], delta=draw(_probe_delta))


@st.composite
def _product_grid(draw):
    """Columns times rows, each with repeats, the points in any order."""
    xs = draw(st.lists(_point, min_size=1, max_size=3))
    ys = draw(st.lists(_point, min_size=1, max_size=3))
    xs += draw(st.lists(st.sampled_from(xs), max_size=2))
    ys += draw(st.lists(st.sampled_from(ys), max_size=2))
    return draw(st.permutations([(x, y) for x in xs for y in ys]))


@st.composite
def _signed_zero_grid(draw):
    """Columns on the negative real axis with imaginary parts +0.0 and -0.0:
    the two compare equal, but their logarithms differ by 2 pi i."""
    r = draw(st.floats(0.05, 1.2))
    ys = draw(st.lists(_point, min_size=1, max_size=3))
    xs = draw(st.permutations([complex(-r, 0.0), complex(-r, -0.0), complex(-r, 0.0)]))
    return [(x, y) for x in xs for y in ys]


_grid = st.one_of(st.lists(st.tuples(_point, _point), min_size=1, max_size=6),
                  _product_grid(), _signed_zero_grid())
# the frozen probe reaches the first of these points and not the second
_SIGNED_ZERO_Y = 5.482311520734019e-06 + 3.232954191045463e-07j
_SIGNED_ZERO = ([(complex(-0.9291878547684514, zero), _SIGNED_ZERO_Y) for zero in (0.0, -0.0)])


@settings(max_examples=150, deadline=None)
@given(st.one_of(_model(deltas=_probe_delta), _windy_model()), st.floats(0.05, 1.0),
       st.floats(1e-3, 1.0), _grid, _probe_config)
@example(LinearModel([-1.9682082258564453 + 0.02424281031831073j, 1.0], delta=2.0),
         0.48870209925823016, 0.5950297906691571, _SIGNED_ZERO,
         NumericConfig(step=1e-2, max_length=200.0))
def test_saturation_probe_matches_frozen(model, alpha, eps, grid, config):
    if model.perturbations[0] is not None:
        # RK4 lifts of spirals with up to MAX_TURNS turns are slow; keep
        # the perturbed probe to a real ratio, whose only candidate is k = 0
        model = LinearModel([l.real for l in model.lam], delta=model.delta,
                            perturbations=model.perturbations)
    _same(holonomy.saturation_probe, frozen.saturation_probe, model, alpha, eps, grid, config)


def test_holonomy_suite_report_matches_frozen_probe(monkeypatch):
    with open(dict(cli.corpus_files())["holonomy_suite.json"]) as fh:
        scenario = json.load(fh)
    report, code, artifacts = cli.run_scenario(scenario)
    csvs = {name: render() for name, render in artifacts.items()}
    monkeypatch.setattr(cli, "saturation_probe", frozen.saturation_probe)
    ref_report, ref_code, ref_artifacts = cli.run_scenario(scenario)
    assert code == ref_code == 0
    assert _bits(report) == _bits(ref_report)
    assert csvs == {name: render() for name, render in ref_artifacts.items()}
    assert sorted(csvs) == ["complex_saddle.csv", "nodal.csv", "real_saddle.csv"]


def test_overflowing_first_integral_matches_frozen_until_the_drift():
    # the frozen drift reports 0.0 for a first integral of -inf; the new one
    # refuses it, and the lift under it is the same
    model = LinearModel.nodal([1e308, 1e307], 1)
    paths = {0: spiral_path(0.1, 0.1000001)}
    assert frozen.nodal_first_integral_drift(model, paths, 1, 0.1) == 0.0
    assert _outcome(holonomy.nodal_first_integral_drift, model, paths, 1, 0.1) is \
        NonFiniteIntegral
    assert math.isinf(model.first_integral_log([0.1, 0.1]))
