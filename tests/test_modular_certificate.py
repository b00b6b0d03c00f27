"""The coprimality certificate over a prime field against the frozen copy of
the one that ran over Q(i, sqrt(d)) (frozen_certificate)."""
from __future__ import annotations

from fractions import Fraction

import bench_workloads
import frozen_certificate as frozen
import pytest
from hypothesis import given, settings, strategies as st

from foliationlab import poly
from foliationlab.field import FieldElement, is_square_free
from foliationlab.poly import Polynomial, gcd_many, parse_polynomial, poly_gcd


# -- the primes and the images of i and sqrt(d) --------------------------------

def test_certificate_primes_map_i_and_sqrt_d():
    for d in (d for d in range(200) if is_square_free(d)):
        primes = poly._certificate_primes(d)
        assert len(primes) == 2 and primes[0][0] < primes[1][0]
        for p, iota, sigma in primes:
            assert p % 4 == 1 and (d == 0 or d % p)
            assert iota * iota % p == p - 1
            assert sigma * sigma % p == d % p


def test_certificate_primes_are_the_first_two_that_qualify():
    sympy = pytest.importorskip("sympy")
    for d in (d for d in range(200) if is_square_free(d)):
        primes = [p for p, _, _ in poly._certificate_primes(d)]
        assert primes == [n for n in range(poly._PRIME_FLOOR + 1, primes[-1] + 1, 4)
                          if sympy.isprime(n)
                          and (d == 0 or sympy.ntheory.is_quad_residue(d, n))][:2]


def test_miller_rabin_agrees_with_sympy_above_the_floor():
    isprime = pytest.importorskip("sympy").isprime
    start = poly._PRIME_FLOOR + 1
    assert [n for n in range(start, start + 20000, 2) if poly._is_prime(n)] == \
        [n for n in range(start, start + 20000, 2) if isprime(n)]


def test_square_roots_mod_p_and_a_non_square_refused():
    is_quad_residue = pytest.importorskip("sympy").ntheory.is_quad_residue
    p, _, _ = poly._certificate_primes(0)[0]
    for a in (0, 1, 2, 4, 9, 10, p - 1, 123456789):
        if a == 0 or is_quad_residue(a, p):
            r = poly._sqrt_mod(a, p)
            assert r * r % p == a % p
        else:
            with pytest.raises(ValueError):
                poly._sqrt_mod(a, p)


# -- soundness and agreement with the frozen certificate ----------------------

@st.composite
def elements(draw, d):
    # small integers, so the planted factors vanish on the lines of the
    # specialization points now and then; fractions and sqrt(d) parts too
    ints = st.integers(-7, 7)
    q = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    parts = [draw(st.one_of(ints, q)), draw(st.one_of(st.just(0), q))]
    if d:
        parts += [draw(st.one_of(st.just(0), q)), draw(st.one_of(st.just(0), q))]
    return FieldElement(d, *parts)


def small_polys(nvars, d):
    """Polynomials of up to four terms of total degree at most 2."""
    exps = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda e: sum(e) <= 2)
    return st.dictionaries(exps, elements(d), max_size=4).map(
        lambda terms: Polynomial(nvars, d, terms))


@given(st.data(), st.sampled_from((2, 3)), st.sampled_from((0, 2, 3, 5)), st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_prime_field_certificate_is_sound_and_implies_the_frozen_one(data, nvars, d,
                                                                          planted):
    nonzero = small_polys(nvars, d).filter(lambda p: not p.is_zero())
    p, q = data.draw(nonzero), data.draw(nonzero)
    if planted:
        g = data.draw(nonzero.filter(lambda p: not p.is_constant()))
        p, q = g * p, g * q
    proved = poly._proved_coprime(p, q)
    if planted:
        assert not proved
    if proved:
        assert frozen.proved_coprime(p, q)


def test_a_leading_coefficient_vanishing_at_the_point_proves_nothing():
    # g = (x - 2)(y - 3) + 1 is 1 on both lines through the first point, where
    # its x- and y-leading coefficients vanish; the images of g*a and g*b are
    # those of a and b there, coprime, yet g is a common factor
    g, a, b = (parse_polynomial(t, 2, 0) for t in ("(x-2)*(y-3) + 1", "x + y + 1",
                                                    "x - y + 4"))
    prime, iota, sigma = poly._certificate_primes(0)[0]
    point = poly.SPECIALIZATION_POINTS[0]
    for k in (0, 1):
        images = [poly._image(poly._residues(f, prime, iota, sigma), k, point, prime)
                  for f in (g * a, g * b)]
        assert len(images[0]) == (g * a).degree_in(k)   # the leading coefficient is lost
        assert poly._gcd_degree_mod(*images, prime) == 0
    assert not poly._proved_coprime(g * a, g * b)
    assert not frozen.proved_coprime(g * a, g * b)
    assert gcd_many([g * a, g * b]) == poly_gcd(g * a, g * b) == g.monic()


def test_a_denominator_divisible_by_the_first_prime_moves_to_the_second():
    (first, iota, sigma), (second, _, _) = poly._certificate_primes(2)
    p = Polynomial(2, 2, {(1, 0): FieldElement(2, Fraction(1, first)),
                          (0, 1): FieldElement(2, 0, 0, 1)})
    q = parse_polynomial("x - y + 1", 2, 2)
    assert poly._residues(p, first, iota, sigma) is None
    assert poly._residues(p, second, *poly._certificate_primes(2)[1][1:]) is not None
    assert poly._proved_coprime(p, q) and frozen.proved_coprime(p, q)


@pytest.fixture(scope="module")
def workload_pairs():
    """Every pair gcd_many asks the certificate about, with its verdict, over
    the corpus and the three benchmark workloads at seeds 1-3."""
    pairs = []
    certificate = poly._proved_coprime

    def recorded(p, q):
        proved = certificate(p, q)
        pairs.append((p, q, proved))
        return proved
    workloads = bench_workloads.load()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_proved_coprime", recorded)
        for name, wl in workloads.items():
            for seed in ((1,) if name == "corpus" else (1, 2, 3)):
                for spec in wl.generate(seed):
                    wl.run(wl.prepare(spec))
    return pairs


def test_both_certificates_agree_on_every_workload_pair(workload_pairs):
    # 3 pairs from the corpus and 14 per plane_reduction pass; exact_blowups
    # never reaches the certificate
    assert len(workload_pairs) > 40
    for p, q, proved in workload_pairs:
        assert frozen.proved_coprime(p, q) == proved, (str(p), str(q))

