"""A frozen copy of gcd_many's coprimality certificate as it stood when it ran
its univariate Euclid over K = Q(i, sqrt(d)), before the certificate moved to
a prime field.  The differential tests hold the new certificate to it.

One edit only: the specialization points are an argument, so a test can
shorten them.
"""
from __future__ import annotations

from foliationlab.field import FieldElement
from foliationlab.poly import SPECIALIZATION_POINTS


def specialize(p, k, point):
    """Dense coefficient list in x_k of p with every other x_j set to point[j]
    ([] when that gives zero)."""
    for j in range(p.nvars):
        if j != k:
            p = p.set_var(j, FieldElement(p.d, point[j]))
    return p.univariate_coefficients(k)


def univariate_gcd(a, b):
    """gcd(a, b) by Euclid over the field, for dense coefficient lists with a
    nonzero; each divisor is made monic first, so the gcd is monic when b is
    nonzero."""
    while b:
        inv = b[-1].inverse()
        b = [c * inv for c in b]
        a = list(a)
        while len(a) >= len(b):
            top, shift = a.pop(), len(a) - len(b) + 1
            for i, c in enumerate(b[:-1]):
                a[shift + i] = a[shift + i] - top * c
            while a and a[-1].is_zero():
                a.pop()
        a, b = b, a
    return a


def univariate_gcd_degree(a, b):
    """Degree of gcd(a, b), for dense coefficient lists with a nonzero."""
    return len(univariate_gcd(a, b)) - 1


def proved_coprime(p, q, points=SPECIALIZATION_POINTS):
    """True only when the nonzero p and q have no non-constant common factor.

    For each variable x_k in both, every other variable is set to an integer
    point where lc_k(p), the leading coefficient of p in x_k, does not vanish,
    and Euclid runs on the two univariate images.  A gcd of degree 0 at one
    such point for every such x_k proves gcd(p, q) = 1.
    """
    shared = set(p.appearing_variables()) & set(q.appearing_variables())
    for k in shared:
        deg = p.degree_in(k)
        for point in points:
            pk = specialize(p, k, point)
            if len(pk) == deg + 1 and \
                    univariate_gcd_degree(pk, specialize(q, k, point)) == 0:
                break
        else:
            return False
    return True
