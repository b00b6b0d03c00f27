"""The plane-leaf route of reduce2d, which reads each point (0, t) off Taylor
data of the unshifted chart form, against a frozen copy of the route it
replaced (frozen_reduce2d), which shifted every germ to the origin first: the
same linear part, invariant axes, kind, residues, ratio, class and notes at
every point a reduction visits."""
from __future__ import annotations

import json
import sys
from pathlib import Path

import bench_workloads
import frozen_reduce2d as frozen
import pytest
from hypothesis import assume, given, settings, strategies as st

from foliationlab import reduce2d, scenario
from foliationlab.classify import linear_part_matrix
from foliationlab.errors import FoliationLabError
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm, invariant_axis, singular_at_origin
from foliationlab.poly import Polynomial

CORPUS = Path(reduce2d.__file__).resolve().parent / "corpus"


def _outcome(f, *args):
    """What f returns, or the type of the error it raises."""
    try:
        return f(*args)
    except FoliationLabError as e:
        return type(e)


def _shifted(chart, t):
    zero = FieldElement(chart.d, 0)
    return OneForm([c.shift([zero, t]) for c in chart.plain_coefficients()])


def visited_points(form):
    """(form, axes, t) of every point that reduce and first_blowup_index_sum
    classify, t None at the root; the reduction's own outcome is not asked."""
    seen = []
    live = reduce2d._terminal_kind

    def record(chart, axes, t=None):
        seen.append((chart, dict(axes), t))
        return live(chart, axes, t)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(reduce2d, "_terminal_kind", record)
        _outcome(reduce2d.reduce, form)
        _outcome(reduce2d.first_blowup_index_sum, form)
    return seen


def mismatches(points):
    """The points where the Taylor route and the frozen shift-then-classify
    route disagree on the linear part, the invariant axes or the verdict."""
    bad = []
    for chart, axes, t in points:
        germ = chart if t is None else _shifted(chart, t)
        if t is not None or singular_at_origin(germ):
            at = FieldElement(chart.d, 0) if t is None else t
            m, inv = reduce2d.taylor_data(chart, at)
            if m != linear_part_matrix(germ) or inv != [v for v in (0, 1)
                                                        if invariant_axis(germ, v)]:
                bad.append((chart, t, "taylor data"))
                continue
        if _outcome(reduce2d._terminal_kind, chart, axes, t) != \
                _outcome(frozen._terminal_kind, germ, axes):
            bad.append((chart, t, "verdict"))
    return bad


def plane_forms(seeds):
    wl = bench_workloads.load()["plane_reduction"]
    return [wl.prepare(spec) for seed in seeds for spec in wl.generate(seed)]


def corpus_plane_forms():
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        doc = json.loads(path.read_text())
        if "form" in doc:
            form = scenario.parse_form(doc)
            if form.nvars == 2:
                out.append(form)
    return out


def _tree(reduce, form):
    tree = _outcome(reduce, form)
    return tree if isinstance(tree, type) else (tree.leaves, tree.components, tree.blowups)


def same_tree(form):
    """The live reduction, which shifts only the germs it blows up, gives the
    frozen one's leaves, components and blow-up count."""
    return _tree(reduce2d.reduce, form) == _tree(frozen.reduce, form)


def test_plane_reduction_points_match_the_frozen_route():
    forms = plane_forms((1, 2, 3))
    assert all(same_tree(form) for form in forms)
    points = [p for form in forms for p in visited_points(form)]
    assert not mismatches(points)
    off_origin = [p for p in points if p[2] is not None and not p[2].is_zero()]
    # the comparison meets points off the chart origin, with {y = t} invariant
    assert len(off_origin) > 100
    assert any(reduce2d.taylor_data(chart, t)[1] == [0, 1] for chart, _, t in off_origin)


def test_corpus_plane_points_match_the_frozen_route():
    forms = corpus_plane_forms()
    assert len(forms) >= 4
    assert all(same_tree(form) for form in forms)
    points = [p for form in forms for p in visited_points(form)]
    assert points and not mismatches(points)


def test_a_germ_blown_up_off_the_chart_origin_is_shifted_first():
    # sqrt(2) df/f + dg/g for the line f = y - x and the cubic g = y - x - x^3:
    # they stay tangent at (0, 1) of chart x, which is blown up twice more
    form = OneForm.parse(["-(y - x - x^3) + sqrt(2)*(y - x)*(-1 - 3*x^2)",
                          "(y - x - x^3) + sqrt(2)*(y - x)"], nvars=2, d=2)
    points = visited_points(form)
    blown_up = [(chart, axes, t) for chart, axes, t in points if t is not None
                and not t.is_zero() and not reduce2d._terminal_kind(chart, axes, t)[0]]
    assert [str(t) for _, _, t in blown_up] == ["1", "1"]
    assert same_tree(form) and not mismatches(points)
    assert reduce2d.reduce(form).blowups == 3


def test_exceptional_points_are_the_frozen_germs_unshifted():
    for form in plane_forms((1,)) + corpus_plane_forms():
        sat = reduce2d.saturate(form)[0]
        live, old = _outcome(reduce2d.exceptional_points, sat), \
            _outcome(frozen.exceptional_points, sat)
        if isinstance(old, type):
            assert live is old
            continue
        assert live[0] == old[0] and len(live[1]) == len(old[1])
        for (exc, t, chart), (old_exc, old_t, germ) in zip(live[1], old[1]):
            assert (exc, t) == (old_exc, old_t)
            assert _shifted(chart, t) == germ


def _branches(d):
    x, y = Polynomial.var(0, 2, d), Polynomial.var(1, 2, d)
    one, zero = Polynomial.const(1, 2, d), Polynomial.zero(2, d)

    def line(a):
        return y - x * FieldElement(d, a), Polynomial.const(-a, 2, d), one
    return {"x": (x, one, zero), "y": (y, zero, one),
            **{f"line{a}": line(a) for a in (-2, -1, 1, 2, 3)},
            "cusp": (y * y - x * x * x, x * x * FieldElement(d, -3), y * FieldElement(d, 2)),
            "parabola": (y - x * x, x * FieldElement(d, -2), one),
            "cubic": (y - x - x * x * x, x * x * FieldElement(d, -3) - 1, one)}


@given(st.data(), st.sampled_from((2, 3)))
@settings(max_examples=40, deadline=None)
def test_log_form_points_match_the_frozen_route(data, d):
    # sum_k lam_k (prod_{j != k} f_j) df_k over distinct branches f_k
    branches = _branches(d)
    names = data.draw(st.lists(st.sampled_from(sorted(branches)), min_size=2, max_size=3,
                               unique=True))
    q = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    lams = [FieldElement(d, data.draw(q), data.draw(q), data.draw(q), 0) for _ in names]
    assume(all(not lam.is_zero() for lam in lams))
    cx = cy = Polynomial.zero(2, d)
    for k, (name, lam) in enumerate(zip(names, lams)):
        others = Polynomial.const(lam, 2, d)
        for j, other in enumerate(names):
            if j != k:
                others = others * branches[other][0]
        cx, cy = cx + others * branches[name][1], cy + others * branches[name][2]
    assume(not (cx.is_zero() and cy.is_zero()))
    form = OneForm([cx, cy])
    assert same_tree(form)
    assert not mismatches(visited_points(form))


# -- mutants of the Taylor route must be seen ---------------------------------

def _at_minus_t(live):
    return lambda form, t: live(form, -t)


def _y_never_invariant(live):
    def mutant(form, t):
        m, inv = live(form, t)
        return m, [v for v in inv if v != 1]
    return mutant


def _y_always_invariant(live):
    def mutant(form, t):
        m, inv = live(form, t)
        return m, sorted(set(inv) | {1})
    return mutant


@pytest.mark.parametrize("mutate", [_at_minus_t, _y_never_invariant, _y_always_invariant])
def test_mutants_of_the_taylor_route_are_caught(mutate, monkeypatch):
    points = [p for form in plane_forms((1,)) for p in visited_points(form)]
    monkeypatch.setattr(reduce2d, "taylor_data", mutate(reduce2d.taylor_data))
    assert mismatches(points)


# -- what a pass no longer does -------------------------------------------------

def test_a_pass_shifts_no_germ_and_tests_no_resonance(monkeypatch):
    wl = bench_workloads.load()["plane_reduction"]
    calls = {"shift": 0, "nonresonant": 0}
    shift = Polynomial.shift

    def counted_shift(self, offsets):
        calls["shift"] += 1
        return shift(self, offsets)

    monkeypatch.setattr(Polynomial, "shift", counted_shift)
    for name, module in list(sys.modules.items()):
        held = getattr(module, "nonresonant", None) if name.startswith("foliationlab") else None
        if held is not None:
            def counted(lams, held=held):
                calls["nonresonant"] += 1
                return held(lams)
            monkeypatch.setattr(module, "nonresonant", counted)
    for spec in wl.generate(1):
        assert wl.check(spec, wl.run(wl.prepare(spec))) is None
    assert calls == {"shift": 0, "nonresonant": 0}
