"""Univariate roots past degree two, found by the certified isolation of
solve over Q(i, sqrt(d)); sympy is a test-only reference here."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import foliationlab
from foliationlab import solve
from foliationlab.errors import RootIsolationFailed
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm
from foliationlab.cli import main
from foliationlab.poly import parse_element, parse_polynomial
from foliationlab.reduce2d import reduce
from foliationlab.solve import univariate_roots


@pytest.fixture
def finder_calls(monkeypatch):
    """Count the calls that reach the degree >= 3 root finder."""
    calls = []
    find = solve._field_linear_root

    def spy(coeffs, d):
        calls.append(len(coeffs) - 1)
        return find(coeffs, d)

    monkeypatch.setattr(solve, "_field_linear_root", spy)
    return calls


def dense(text, d):
    p = parse_polynomial(text, 1, d)
    return [p.terms.get((k,), FieldElement(d, 0)) for k in range(p.degree() + 1)]


def roots_by_text(text, d):
    roots, leftover = univariate_roots(dense(text, d))
    return {str(r): m for r, m in roots}, [str(c) for c in leftover]


@pytest.mark.parametrize("text, d, roots", [
    ("(x-1)*(x-2)*(x+3)", 0, {"1": 1, "2": 1, "-3": 1}),
    ("(x-sqrt(2))*(x+sqrt(2))*(x-i)", 2, {"sqrt(2)": 1, "-sqrt(2)": 1, "1*i": 1}),
    ("(x-1)^2*(x+2)*(x-i)", 0, {"1": 2, "-2": 1, "1*i": 1}),
    ("(x-sqrt(2))^2*(x+1)*(x-3)", 2, {"sqrt(2)": 2, "-1": 1, "3": 1}),
])
def test_split_cubics_and_quartics_give_every_root(text, d, roots, finder_calls):
    assert roots_by_text(text, d) == (roots, [])
    assert finder_calls and finder_calls[0] == sum(roots.values())


def test_irreducible_quadratic_is_the_leftover(finder_calls):
    # t^2 - 3 has no root in Q(i, sqrt(2))
    assert roots_by_text("(x-2)*(x^2-3)", 2) == ({"2": 1}, ["-3", "0", "1"])
    assert finder_calls == [3]


# (y-x)(y-2x)(y-3x) times dlog of the lines with residues 1, 2, 3: the three
# lines meet the exceptional line at t = 1, 2, 3, a cubic
THREE_LINES = ["-(y-2*x)*(y-3*x) - 4*(y-x)*(y-3*x) - 9*(y-x)*(y-2*x)",
               "(y-2*x)*(y-3*x) + 2*(y-x)*(y-3*x) + 3*(y-x)*(y-2*x)"]


def test_three_lines_reduce_in_one_blowup_with_a_clean_audit(finder_calls):
    tree = reduce(OneForm.parse(THREE_LINES, nvars=2, d=0))
    assert tree.blowups == 1 and finder_calls == [3]
    audit = tree.cs_sum_audit()["E1"]
    assert audit["ok"] and audit["sum"] == FieldElement(0, -1)
    assert {p["path"]: p["index"] for p in audit["points"]} == {
        ("x:1",): FieldElement(0, Fraction(-1, 6)),
        ("x:2",): FieldElement(0, Fraction(-1, 3)),
        ("x:3",): FieldElement(0, Fraction(-1, 2))}


# The cubics plane_reduction hands the finder at seed 1 (three_lines and
# lines_tilted, over Q(i, sqrt(2))), with the root it must return first.
SEED_1_CUBICS = [
    (["(2-3*i) - 1/2*sqrt(2)", "(-5+15/2*i) + 5/4*sqrt(2)", "(1-3/2*i) - 1/4*sqrt(2)",
      "(2-3*i) - 1/2*sqrt(2)"], "1"),
    (["(3+6*i) + 6*sqrt(2)", "(11/2+11*i) + 11*sqrt(2)", "(3+6*i) + 6*sqrt(2)",
      "(1/2+1*i) + sqrt(2)"], "-1"),
]


@pytest.mark.parametrize("texts, first", SEED_1_CUBICS)
def test_the_seed_1_cubics_give_their_largest_root_first(texts, first):
    coeffs = [parse_element(t, 2) for t in texts]
    assert str(solve._field_linear_root(coeffs, 2)) == first
    assert str(univariate_roots(coeffs)[0][0][0]) == first


@pytest.mark.parametrize("text, d, first", [
    ("(x-sqrt(2))^2*(x+1)*(x-3)", 2, "3"),
    ("(x-5)^2*(x-1)*(x+1)", 0, "1"),
    ("(x-i)*(x-1)*(x^2-7)", 0, "1"),
    ("(x-i)*(x+i)*(x-1/2*i)", 0, "1*i"),
    ("(x+sqrt(3))*(x-1)^3*(x-2*i)", 3, "2*i"),
])
def test_the_root_of_least_multiplicity_then_largest_coordinates_comes_first(text, d, first):
    assert str(solve._field_linear_root(dense(text, d), d)) == first


def test_roots_closer_than_the_first_precision_are_separated():
    # 1 and 1 + 2^-80 need more than FIRST_ISOLATION_BITS to tell apart
    text = "(x-1)*(x-1-1/1208925819614629174706176)*(x+1)"
    roots, leftover = univariate_roots(dense(text, 0))
    assert sorted(r.ar for r, _ in roots) == [-1, 1, 1 + Fraction(1, 2 ** 80)]
    assert leftover == []


def test_isolation_past_the_precision_cap_raises(monkeypatch):
    monkeypatch.setattr(solve, "MAX_ISOLATION_BITS", solve.FIRST_ISOLATION_BITS)
    text = "(x-1)*(x-1-1/1208925819614629174706176)*(x+1)"
    with pytest.raises(RootIsolationFailed):
        univariate_roots(dense(text, 0))
    # a cubic the first precision isolates still splits under the lowered cap
    assert roots_by_text("(x-1)*(x-2)*(x+3)", 0)[0] == {"1": 1, "2": 1, "-3": 1}


# -- differential test against sympy's factorisation over the field ------------

# Irreducible over Q(i, sqrt(d)) for each d drawn below: sqrt(7) and sqrt(-7)
# lie in none of its quadratic subfields Q(i), Q(sqrt(d)), Q(sqrt(-d)), and a
# cubic irreducible over Q stays irreducible over a field of degree 4.
IRREDUCIBLE = ([-7, 0, 1], [7, 0, 1], [-2, 0, 0, 1], [1, 1, 0, 1])


def _times(a, b):
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


@st.composite
def split_times_irreducible(draw):
    """(d, the split roots with multiplicities, dense coefficients): a product
    of linear factors over the field times a shifted irreducible quadratic or
    cubic."""
    d = draw(st.sampled_from((0, 2, 3, 5)))
    part = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    element = st.builds(lambda a, b, c, e: FieldElement(d, a, b, c if d else 0, e if d else 0),
                        part, part, part, part)
    roots = draw(st.lists(element, min_size=1, max_size=2, unique=True))
    split = Counter({r: draw(st.integers(1, 2)) for r in roots})
    lead = draw(element.filter(lambda c: not c.is_zero()))
    shift = draw(element)
    coeffs = [lead]
    for r, m in split.items():
        for _ in range(m):
            coeffs = _times(coeffs, [-r, FieldElement(d, 1)])
    extra = [FieldElement(d, 0)]
    for c in reversed(draw(st.sampled_from(IRREDUCIBLE))):
        # Horner in (t - shift)
        extra = _times(extra, [-shift, FieldElement(d, 1)])
        extra[0] = extra[0] + c
    return d, split, _times(coeffs, extra)


def _to_sympy(sympy, c, d):
    ar, ai, br, bi = (sympy.Rational(q.numerator, q.denominator) for q in c.basis_coordinates())
    out = ar + sympy.I * ai
    if d:
        out += sympy.sqrt(d) * (br + sympy.I * bi)
    return out


def _from_sympy(sympy, expr, d):
    parts = sympy.expand(sympy.radsimp(expr)).as_coefficients_dict()
    basis = [sympy.Integer(1), sympy.I] + ([sympy.sqrt(d), sympy.I * sympy.sqrt(d)] if d else [])
    assert set(parts) <= set(basis), expr
    coords = [Fraction(int(parts[b].p), int(parts[b].q)) if b in parts else 0 for b in basis]
    return FieldElement(d, *coords)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=split_times_irreducible())
def test_roots_and_leftover_match_sympy_factor_list(case):
    sympy = pytest.importorskip("sympy")
    d, split, coeffs = case
    roots, leftover = univariate_roots(coeffs)
    assert Counter(dict(roots)) == split
    t = sympy.Symbol("t")
    ext = [sympy.I] + ([sympy.sqrt(d)] if d else [])
    expr = sum(_to_sympy(sympy, c, d) * t ** k for k, c in enumerate(coeffs))
    _, factors = sympy.factor_list(expr, t, extension=ext)
    reference, rest = Counter(), sympy.Integer(1)
    for factor, m in factors:
        p = sympy.Poly(factor, t)
        if p.degree() == 1:
            reference[_from_sympy(sympy, -p.nth(0) / p.nth(1), d)] += m
        else:
            rest *= factor ** m
    assert Counter(dict(roots)) == reference
    # the same up to a constant factor
    ours = sum(_to_sympy(sympy, c, d) * t ** k for k, c in enumerate(leftover)) or sympy.Integer(1)
    lead_ours, lead_rest = sympy.Poly(ours, t).LC(), sympy.Poly(rest, t).LC()
    assert sympy.expand(ours * lead_rest - rest * lead_ours) == 0


# -- nothing at run time needs sympy -------------------------------------------

NO_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None   # any import of sympy now raises ImportError
from foliationlab.cli import main
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm
from foliationlab.cli import main
from foliationlab.poly import parse_element, parse_polynomial
from foliationlab.reduce2d import reduce
from foliationlab.solve import univariate_roots

tree = reduce(OneForm.parse(json.loads(sys.argv[1]), nvars=2, d=0))
audit = tree.cs_sum_audit()["E1"]
p = parse_polynomial("(x-sqrt(2))^2*(x+1)*(x-3)", 1, 2)
roots, leftover = univariate_roots([p.terms.get((k,), FieldElement(2, 0))
                                    for k in range(p.degree() + 1)])
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["corpus", "run"])
print(json.dumps({
    "blowups": tree.blowups, "ok": audit["ok"], "sum": str(audit["sum"]),
    "indices": {p["path"][0]: str(p["index"]) for p in audit["points"]},
    "roots": {str(r): m for r, m in roots}, "leftover": [str(c) for c in leftover],
    "corpus_code": code, "corpus": out.getvalue()}))
"""


def test_nothing_at_run_time_needs_sympy(capsys):
    src = str(Path(foliationlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY, json.dumps(THREE_LINES)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got.pop("corpus_code") == 0
    assert json.loads(got["corpus"])["all_matched"]
    assert main(["corpus", "run"]) == 0
    assert got.pop("corpus") == capsys.readouterr().out
    assert got == {"blowups": 1, "ok": True, "sum": "-1",
                   "indices": {"x:1": "-1/6", "x:2": "-1/3", "x:3": "-1/2"},
                   "roots": {"sqrt(2)": 2, "-1": 1, "3": 1}, "leftover": []}
