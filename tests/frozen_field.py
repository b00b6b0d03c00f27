"""A frozen copy of FieldElement and field_sqrt as they stood when every
product took sixteen Fraction products and every result was validated by the
full constructor, before the scalar fast paths and the trusted constructor.
The differential tests in test_field_frozen.py hold the live class to it.

Copied verbatim; the helpers they call, which did not change, are imported.
"""
from __future__ import annotations

from fractions import Fraction

from foliationlab.errors import DivisionByZero, FieldParseError
from foliationlab.field import (Sign, _frac, _gaussian_sqrt, decimal, is_square_free,
                                square_and_multiply)


class FieldElement:
    __slots__ = ("d", "ar", "ai", "br", "bi")

    def __init__(self, d, ar, ai=0, br=0, bi=0):
        d = int(d)
        if not is_square_free(d):
            raise FieldParseError(f"discriminant {d} is not square-free (or is 1)")
        ar, ai, br, bi = _frac(ar), _frac(ai), _frac(br), _frac(bi)
        if d == 0 and (br or bi):
            raise FieldParseError("sqrt part must vanish when d = 0")
        self.d = d
        self.ar, self.ai, self.br, self.bi = ar, ai, br, bi

    # -- constructors -------------------------------------------------
    @classmethod
    def sqrt_d(cls, d):
        if d == 0:
            return cls(0, 0)
        return cls(d, 0, 0, 1)

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.ar or self.ai or self.br or self.bi)

    def is_one(self) -> bool:
        return self.ar == 1 and not (self.ai or self.br or self.bi)

    def is_rational(self) -> bool:
        return not (self.ai or self.br or self.bi)

    def has_sqrt_part(self) -> bool:
        return bool(self.br or self.bi)

    # -- helpers ------------------------------------------------------
    def _pair(self, other):
        """(self, other as an element of the same field).  (None, None) for
        any other type, so Python tries its reflected operation (Polynomial's)."""
        if isinstance(other, (int, Fraction)):
            return self, FieldElement(self.d, other)
        if not isinstance(other, FieldElement):
            return None, None
        if self.d != other.d:
            raise FieldParseError(f"mixing elements of Q(i,sqrt({self.d})) and "
                                  f"Q(i,sqrt({other.d}))")
        return self, other

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return FieldElement(a.d, a.ar + b.ar, a.ai + b.ai, a.br + b.br, a.bi + b.bi)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.d, -self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return FieldElement(a.d, a.ar - b.ar, a.ai - b.ai, a.br - b.br, a.bi - b.bi)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        d = a.d
        # (p + q sqrt(d)) (r + s sqrt(d)) with Gaussian p,q,r,s
        pr, pi, qr, qi = a.ar, a.ai, a.br, a.bi
        rr, ri, sr, si = b.ar, b.ai, b.br, b.bi
        # Gaussian products
        ar = pr * rr - pi * ri + d * (qr * sr - qi * si)
        ai = pr * ri + pi * rr + d * (qr * si + qi * sr)
        br = pr * sr - pi * si + qr * rr - qi * ri
        bi = pr * si + pi * sr + qr * ri + qi * rr
        return FieldElement(d, ar, ai, br, bi)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        d = self.d
        # multiply by the sqrt-conjugate: x * (a - b sqrt(d)) = a^2 - d b^2 (Gaussian)
        gr = self.ar * self.ar - self.ai * self.ai - d * (self.br * self.br - self.bi * self.bi)
        gi = 2 * self.ar * self.ai - d * 2 * self.br * self.bi
        n = gr * gr + gi * gi
        if n == 0:
            raise DivisionByZero("inverse of zero")  # cannot happen for nonzero x, kept defensively
        # 1/g = (gr - gi I)/n ; inverse = (a - b sqrt(d)) * (1/g)
        ar = (self.ar * gr + self.ai * gi) / n
        ai = (self.ai * gr - self.ar * gi) / n
        br = (-self.br * gr - self.bi * gi) / n
        bi = (-self.bi * gr + self.br * gi) / n
        return FieldElement(d, ar, ai, br, bi)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return square_and_multiply(self, n) if n else FieldElement(self.d, 1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.ar == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        if self.d != other.d:
            return False
        return (self.ar, self.ai, self.br, self.bi) == (other.ar, other.ai, other.br, other.bi)

    def __hash__(self):
        return hash((self.ar, self.ai, self.br, self.bi, self.d if self.has_sqrt_part() else 0))

    # -- decidable sign tests -----------------------------------------
    def reality_sign(self) -> Sign:
        if self.ai or self.bi:
            return Sign.NOT_REAL
        p, q = self.ar, self.br
        if not q:
            s = (p > 0) - (p < 0)
        elif not p:
            s = 1 if q > 0 else -1
        elif (p > 0) == (q > 0):
            s = 1 if p > 0 else -1
        else:
            # p and q of opposite signs: compare p^2 against d q^2
            s = (1 if p > 0 else -1) if p * p > self.d * q * q else (1 if q > 0 else -1)
        if s > 0:
            return Sign.POSITIVE
        if s < 0:
            return Sign.NEGATIVE
        return Sign.ZERO

    def __str__(self):
        parts = []
        if self.ar or self.ai:
            if self.ai:
                if self.ar:
                    parts.append(f"({decimal(self.ar)}{'+' if self.ai > 0 else '-'}"
                                 f"{decimal(abs(self.ai))}*i)")
                else:
                    parts.append(f"{decimal(self.ai)}*i")
            else:
                parts.append(decimal(self.ar))
        if self.br or self.bi:
            if self.bi:
                if self.br:
                    coeff = (f"({decimal(self.br)}{'+' if self.bi > 0 else '-'}"
                             f"{decimal(abs(self.bi))}*i)")
                else:
                    coeff = f"{decimal(self.bi)}*i"
            else:
                coeff = decimal(self.br)
            if coeff == "1":
                parts.append(f"sqrt({self.d})")
            elif coeff == "-1":
                parts.append(f"-sqrt({self.d})")
            else:
                parts.append(f"{coeff}*sqrt({self.d})")
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"FieldElement(d={self.d}, {self})"

    def basis_coordinates(self):
        """Coordinates over the rational basis (1, i, sqrt(d), i*sqrt(d))."""
        return (self.ar, self.ai, self.br, self.bi)


def field_sqrt(x: FieldElement):
    """A square root of x inside K = Q(i, sqrt(d)), or None when none exists there.

    The search is complete.  Every element of K is u + v sqrt(d) with Gaussian
    rationals u and v, and (u + v sqrt(d))^2 = (u^2 + d v^2) + 2uv sqrt(d).
    Write x = a + b sqrt(d) with Gaussian a and b.

    - x Gaussian (b = 0): then uv = 0, so either x = u^2 or x / d = v^2 is a
      square in Q(i), and _gaussian_sqrt decides both exactly.
    - Otherwise u and v are nonzero, and the norm of x to Q(i),
      a^2 - d b^2 = (u^2 - d v^2)^2, is a Gaussian square s^2; if it is
      none, x has no root.  For one sign of s, u^2 = (a + s) / 2 and
      v = b / (2u), so trying both signs finds a root; each candidate is
      checked by squaring it.
    """
    if x.is_zero():
        return FieldElement(x.d, 0)
    if x.has_sqrt_part():
        y = _gaussian_sqrt(x.ar * x.ar - x.ai * x.ai - x.d * (x.br * x.br - x.bi * x.bi),
                           2 * x.ar * x.ai - 2 * x.d * x.br * x.bi)
        # norm-based reconstruction: x = ((u+v sqrt d))^2 needs u^2 + d v^2 = a and 2uv = b
        if y is not None:
            # u^2 = (a + s)/2 where s^2 = a^2 - d b^2 (all Gaussian)
            sr, si = y
            for sgn in (1, -1):
                u2r = (x.ar + sgn * sr) / 2
                u2i = (x.ai + sgn * si) / 2
                u = _gaussian_sqrt(u2r, u2i)
                if u is None or (u[0] == 0 and u[1] == 0):
                    continue
                ur, ui = u
                # v = b / (2u) with Gaussian division
                den = ur * ur + ui * ui
                vr = (x.br * ur + x.bi * ui) / (2 * den)
                vi = (x.bi * ur - x.br * ui) / (2 * den)
                cand = FieldElement(x.d, ur, ui, vr, vi)
                if cand * cand == x:
                    return cand
        return None
    # Gaussian-rational argument
    g = _gaussian_sqrt(x.ar, x.ai)
    if g is not None:
        return FieldElement(x.d, g[0], g[1])
    if x.d:
        # maybe x = d * w^2 for Gaussian w, so sqrt(x) = w sqrt(d)
        w = _gaussian_sqrt(x.ar / x.d, x.ai / x.d)
        if w is not None:
            return FieldElement(x.d, 0, 0, w[0], w[1])
    return None
