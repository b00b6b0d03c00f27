"""Univariate roots past degree two, where sympy factors over the field."""
from __future__ import annotations

from fractions import Fraction

import pytest

from foliationlab import solve
from foliationlab.field import FieldElement
from foliationlab.forms import OneForm
from foliationlab.poly import parse_polynomial
from foliationlab.reduce2d import reduce
from foliationlab.solve import univariate_roots


@pytest.fixture
def sympy_calls(monkeypatch):
    """Count the calls that reach the sympy factorisation."""
    calls = []
    factor = solve._sympy_linear_roots

    def spy(coeffs, d):
        calls.append(len(coeffs) - 1)
        return factor(coeffs, d)

    monkeypatch.setattr(solve, "_sympy_linear_roots", spy)
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
def test_split_cubics_and_quartics_give_every_root(text, d, roots, sympy_calls):
    assert roots_by_text(text, d) == (roots, [])
    assert sympy_calls and sympy_calls[0] == sum(roots.values())


def test_irreducible_quadratic_is_the_leftover(sympy_calls):
    # t^2 - 3 has no root in Q(i, sqrt(2))
    assert roots_by_text("(x-2)*(x^2-3)", 2) == ({"2": 1}, ["-3", "0", "1"])
    assert sympy_calls == [3]


def test_three_lines_reduce_in_one_blowup_with_a_clean_audit(sympy_calls):
    # (y-x)(y-2x)(y-3x) times dlog of the lines with residues 1, 2, 3: the
    # three lines meet the exceptional line at t = 1, 2, 3, a cubic
    w = OneForm.parse(["-(y-2*x)*(y-3*x) - 4*(y-x)*(y-3*x) - 9*(y-x)*(y-2*x)",
                       "(y-2*x)*(y-3*x) + 2*(y-x)*(y-3*x) + 3*(y-x)*(y-2*x)"],
                      nvars=2, d=0)
    tree = reduce(w)
    assert tree.blowups == 1 and sympy_calls == [3]
    audit = tree.cs_sum_audit()["E1"]
    assert audit["ok"] and audit["sum"] == FieldElement(0, -1)
    assert {p["path"]: p["index"] for p in audit["points"]} == {
        ("x:1",): FieldElement(0, Fraction(-1, 6)),
        ("x:2",): FieldElement(0, Fraction(-1, 3)),
        ("x:3",): FieldElement(0, Fraction(-1, 2))}
