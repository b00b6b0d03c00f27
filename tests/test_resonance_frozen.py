"""field.nonresonant, whose kernel test is a sign test of one basis vector,
against a frozen copy of the code it replaced (frozen_resonance): the same
verdict and witness on random tuples of one to three entries over
d in {0, 2, 3, 5}, and mutants of the sign test or of the supports caught."""
from __future__ import annotations

import inspect
import random
from fractions import Fraction

import frozen_resonance as frozen
import pytest

from foliationlab import field
from foliationlab.errors import DimensionError, FoliationLabError, ZeroEntry
from foliationlab.field import FieldElement

FIELDS = (0, 2, 3, 5)


def _outcome(f, lams):
    try:
        return f(lams)
    except FoliationLabError as e:
        return type(e)


def _q(rng, zero=False):
    q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return q if q or zero else Fraction(1)


def _element(rng, d):
    parts = [_q(rng, zero=True) for _ in range(4)]
    if d == 0:
        parts[2] = parts[3] = 0
    return FieldElement(d, *parts)


def random_tuple(rng):
    """One to three entries: general elements, rational multiples of one
    element (pair resonances and rank-one triples), or a triple whose third
    entry is a negative combination of the other two (a resonance of the
    whole support only); now and then a zero entry."""
    d = rng.choice(FIELDS)
    n = rng.randint(1, 3)
    mode = rng.choice(("general", "multiples", "combination"))
    if mode == "general":
        lams = [_element(rng, d) for _ in range(n)]
    elif mode == "multiples":
        base = _element(rng, d)
        lams = [base * _q(rng) for _ in range(n)]
    else:
        a, b = _element(rng, d), _element(rng, d)
        lams = [a, b, -(a * abs(_q(rng)) + b * abs(_q(rng)))]
        rng.shuffle(lams)
    return tuple(lams)


def tuples(count, seed=2024):
    rng = random.Random(seed)
    return [random_tuple(rng) for _ in range(count)]


def test_nonresonant_matches_the_frozen_copy():
    seen = set()
    for lams in tuples(3000):
        got = _outcome(field.nonresonant, lams)
        assert got == _outcome(frozen.nonresonant, lams)
        seen.add((len(lams), got if isinstance(got, type) else got[0]))
    # every length meets both verdicts, and the zero entry is refused alike
    for n in (1, 2, 3):
        assert (n, "nonresonant") in seen
    for n in (2, 3):
        assert (n, "resonant") in seen
    assert (1, ZeroEntry) in seen


def test_more_than_three_entries_are_refused():
    with pytest.raises(DimensionError):
        field.nonresonant(tuple(FieldElement(0, k) for k in (1, 2, 3, -4)))


def _mutant(old, new):
    source = inspect.getsource(field.nonresonant)
    assert old in source
    namespace = dict(vars(field))
    exec(source.replace(old, new), namespace)
    return namespace["nonresonant"]


MUTANTS = {
    "sign test flipped": ("any(x <= 0 for x in basis[0])", "any(x >= 0 for x in basis[0])"),
    "sign test dropped": ("any(x <= 0 for x in basis[0])", "False"),
    "pairs dropped": ("supports.sort(key=len)",
                      "supports = sorted((s for s in supports if len(s) != 2), key=len)"),
    "triples dropped": ("supports.sort(key=len)",
                        "supports = sorted((s for s in supports if len(s) != 3), key=len)"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutants_of_the_kernel_test_are_caught(name):
    mutant = _mutant(*MUTANTS[name])
    assert any(_outcome(mutant, lams) != _outcome(frozen.nonresonant, lams)
               for lams in tuples(600))
