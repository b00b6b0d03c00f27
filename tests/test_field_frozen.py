"""The live FieldElement against a frozen copy of the class it replaced:
the same values, component types, hashes, strings and signs, for operands of
every kind in both orders."""
from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import frozen_field as old
from foliationlab import field
from foliationlab.errors import DivisionByZero
from foliationlab.field import FieldElement, field_sqrt

KINDS = ("int", "fraction", "zero", "rational", "gaussian", "general", "sparse")
SCALAR_KINDS = ("int", "fraction", "zero", "rational")
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq)

nonzero = st.fractions(min_value=-30, max_value=30, max_denominator=9).filter(bool)


@st.composite
def operands(draw, d, kinds=KINDS):
    """(kind, live operand, frozen operand); ints and Fractions are shared.
    A general element has four nonzero components, a sparse one any subset."""
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        k = draw(st.integers(-50, 50))
        return kind, k, k
    if kind == "fraction":
        k = draw(st.fractions(min_value=-30, max_value=30, max_denominator=9))
        return kind, k, k
    if kind == "sparse":
        parts = [draw(st.one_of(st.just(0), nonzero)) for _ in range(4)]
    else:
        comps = {"zero": 0, "rational": 1, "gaussian": 2, "general": 4}[kind]
        parts = [draw(nonzero) for _ in range(comps)] + [0] * (4 - comps)
    if d == 0:
        parts[2:] = [0, 0]
    return kind, FieldElement(d, *parts), old.FieldElement(d, *parts)


def assert_same(new, ref):
    """new, from the live class, equals ref, from the frozen one, exactly."""
    if isinstance(ref, old.FieldElement):
        assert type(new) is FieldElement and new.d == ref.d
        coords = new.basis_coordinates()
        assert coords == ref.basis_coordinates()
        assert all(type(c) is Fraction for c in coords)
        assert str(new) == str(ref) and repr(new) == repr(ref)
        assert hash(new) == hash(ref)
        assert new.reality_sign() is ref.reality_sign()
    else:
        assert type(new) is type(ref) and new == ref


def outcome(f, *args):
    """f(*args), or the type of the library error it raised."""
    try:
        return f(*args)
    except DivisionByZero as exc:
        return type(exc)


def assert_same_outcome(f_new, f_ref, new_args, ref_args):
    got, want = outcome(f_new, *new_args), outcome(f_ref, *ref_args)
    if isinstance(want, type):
        assert got is want
    else:
        assert_same(got, want)


@pytest.mark.parametrize("d", [0, 2, 3, 5])
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_binary_operations_match_the_frozen_class(d, data):
    (ka, a, a_ref), (kb, b, b_ref) = data.draw(operands(d)), data.draw(operands(d))
    if ka in ("int", "fraction") and kb in ("int", "fraction"):
        (kb, b, b_ref) = data.draw(operands(d, kinds=KINDS[2:]))
    for op in BINARY:
        assert_same_outcome(op, op, (a, b), (a_ref, b_ref))
        assert_same_outcome(op, op, (b, a), (b_ref, a_ref))


@pytest.mark.parametrize("d", [0, 2, 3, 5])
@given(st.data())
@settings(max_examples=150, deadline=None)
def test_unary_operations_match_the_frozen_class(d, data):
    _, x, x_ref = data.draw(operands(d, kinds=KINDS[2:]))
    n = data.draw(st.integers(-3, 4))
    assert_same(x, x_ref)
    assert_same(-x, -x_ref)
    assert_same_outcome(FieldElement.inverse, old.FieldElement.inverse, (x,), (x_ref,))
    assert_same_outcome(pow, pow, (x, n), (x_ref, n))
    assert x.basis_coordinates() == x_ref.basis_coordinates()
    root, root_ref = field_sqrt(x), old.field_sqrt(x_ref)
    assert (root is None) == (root_ref is None)
    if root is not None:
        assert_same(root, root_ref)
    square, square_ref = x * x, x_ref * x_ref
    assert_same(field_sqrt(square), old.field_sqrt(square_ref))


@pytest.mark.parametrize("d", [0, 2, 3, 5])
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_every_result_is_a_valid_element(d, data):
    # the invariant that lets results skip the constructor's checks
    _, x, _ = data.draw(operands(d, kinds=KINDS[2:]))
    _, y, _ = data.draw(operands(d))
    results = [x + y, y + x, x - y, y - x, x * y, y * x, -x, x ** 2]
    if not x.is_zero():
        results += [x.inverse(), y / x, x ** -1]
    for r in results:
        assert type(r) is FieldElement and r.d == d
        assert all(type(c) is Fraction for c in r.basis_coordinates())
        if d == 0:
            assert not r.has_sqrt_part()


@pytest.mark.parametrize("d", [0, 2])
@given(st.data())
@settings(max_examples=100, deadline=None)
def test_a_scalar_factor_never_takes_the_general_product(d, data):
    def general_product(a, b):
        raise AssertionError(f"general product for {a} * {b}")

    _, k, _ = data.draw(operands(d, kinds=SCALAR_KINDS))
    _, x, _ = data.draw(operands(d, kinds=KINDS[2:]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_product", general_product)
        x * k, k * x
    if not isinstance(k, FieldElement):
        # an int or Fraction summand changes the rational part alone
        for r in (x + k, k + x, x - k):
            assert (r.ai, r.br, r.bi) == (x.ai, x.br, x.bi) and r.ai is x.ai


def test_the_general_product_is_still_taken(monkeypatch):
    calls = []
    product = field._product
    monkeypatch.setattr(field, "_product", lambda a, b: calls.append(1) or product(a, b))
    x = FieldElement(2, 1, 2, 3, 4)
    assert x * FieldElement(2, 0, 1) == FieldElement(2, -2, 1, -4, 3)
    assert len(calls) == 1
