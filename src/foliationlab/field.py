"""Exact arithmetic in Q(i, sqrt(d)) with decidable reality, sign and ratio tests.

An element is stored as (a_r + a_i*I) + (b_r + b_i*I)*sqrt(d) with Fraction
components.  d is a square-free non-negative integer carried by the element;
d = 0 means the Gaussian rationals (sqrt part forced to zero).
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import DivisionByZero, FieldParseError, NumberTooLong, ZeroEntry


@lru_cache(maxsize=None)  # every FieldElement asks; trial division runs once per d
def is_square_free(d: int) -> bool:
    if d < 0:
        return False
    if d in (0, 1):
        return d == 0  # d = 1 is excluded: sqrt(1) is rational
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def decimal(x):
    """str(x) of an int or a Fraction; NumberTooLong when x has more digits
    than the interpreter converts to a string."""
    try:
        return str(x)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise NumberTooLong("a value has more decimal digits than a report can "
                            "hold") from None


class Sign(Enum):
    NOT_REAL = "NotReal"
    NEGATIVE = "Negative"
    ZERO = "Zero"
    POSITIVE = "Positive"


class RatioClass(Enum):
    NOT_REAL = "NotReal"
    POSITIVE_RATIONAL = "PositiveRational"
    NEGATIVE_RATIONAL = "NegativeRational"
    POSITIVE_IRRATIONAL = "PositiveIrrational"
    NEGATIVE_IRRATIONAL = "NegativeIrrational"
    UNDEFINED = "Undefined"


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def square_and_multiply(base, n: int):
    """base**n for n >= 1, starting from base: x**1 is x and x**8 squares
    three times, so no squaring goes unused."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


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
            raise _mixing(self, other)
        return self, other

    # -- arithmetic ---------------------------------------------------
    # Results come from _trusted: sums, negations and products of valid
    # elements are valid, so no result is checked again.
    def __add__(self, other):
        if isinstance(other, FieldElement):
            if self.d != other.d:
                raise _mixing(self, other)
            return _trusted(self.d, self.ar + other.ar, self.ai + other.ai,
                            self.br + other.br, self.bi + other.bi)
        if isinstance(other, (int, Fraction)):
            return _trusted(self.d, self.ar + other, self.ai, self.br, self.bi)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.d, -self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, other):
        if isinstance(other, FieldElement):
            if self.d != other.d:
                raise _mixing(self, other)
            return _trusted(self.d, self.ar - other.ar, self.ai - other.ai,
                            self.br - other.br, self.bi - other.bi)
        if isinstance(other, (int, Fraction)):
            return _trusted(self.d, self.ar - other, self.ai, self.br, self.bi)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """When either factor lies in Q (an int, a Fraction or a rational
        element, zero included) it scales the other's four components: four
        Fraction products instead of the sixteen of _product."""
        if isinstance(other, FieldElement):
            if self.d != other.d:
                raise _mixing(self, other)
            if not (other.ai or other.br or other.bi):
                x, k = self, other.ar
            elif not (self.ai or self.br or self.bi):
                x, k = other, self.ar
            else:
                return _product(self, other)
        elif isinstance(other, (int, Fraction)):
            x, k = self, other
        else:
            return NotImplemented
        return _trusted(x.d, x.ar * k, x.ai * k, x.br * k, x.bi * k)

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
        return _trusted(d, ar, ai, br, bi)

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


_new = object.__new__


def _trusted(d, ar, ai, br, bi):
    """The element with these components, unchecked: d is square-free or 0,
    the components are Fractions, and the sqrt part is zero when d = 0."""
    x = _new(FieldElement)
    x.d, x.ar, x.ai, x.br, x.bi = d, ar, ai, br, bi
    return x


def _mixing(a, b):
    return FieldParseError(f"mixing elements of Q(i,sqrt({a.d})) and Q(i,sqrt({b.d}))")


def _product(a, b):
    """a * b for elements of one field, in general: sixteen Fraction products."""
    d = a.d
    # (p + q sqrt(d)) (r + s sqrt(d)) with Gaussian p,q,r,s
    pr, pi, qr, qi = a.ar, a.ai, a.br, a.bi
    rr, ri, sr, si = b.ar, b.ai, b.br, b.bi
    # Gaussian products
    ar = pr * rr - pi * ri + d * (qr * sr - qi * si)
    ai = pr * ri + pi * rr + d * (qr * si + qi * sr)
    br = pr * sr - pi * si + qr * rr - qi * ri
    bi = pr * si + pi * sr + qr * ri + qi * rr
    return _trusted(d, ar, ai, br, bi)


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


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    a, b = isqrt(num), isqrt(den)
    if a * a == num and b * b == den:
        return Fraction(a, b)
    return None


def _gaussian_sqrt(xr: Fraction, xi: Fraction):
    """Square root of the Gaussian rational xr + xi*I inside Q(i), or None."""
    if not xi:
        t = _rational_sqrt(xr)
        if t is not None:
            return (t, Fraction(0))
        t = _rational_sqrt(-xr)
        if t is not None:
            return (Fraction(0), t)
        return None
    m2 = xr * xr + xi * xi
    m = _rational_sqrt(m2)
    if m is None:
        return None
    u = _rational_sqrt((xr + m) / 2)
    if u is None or u == 0:
        return None
    v = xi / (2 * u)
    return (u, v)


def ratio_class(r: FieldElement) -> RatioClass:
    """Class of an already formed ratio r following the saddle/nodal
    dichotomy; UNDEFINED for r = 0."""
    s = r.reality_sign()
    if s is Sign.NOT_REAL:
        return RatioClass.NOT_REAL
    if s is Sign.ZERO:
        return RatioClass.UNDEFINED
    if r.is_rational():
        return RatioClass.POSITIVE_RATIONAL if s is Sign.POSITIVE else RatioClass.NEGATIVE_RATIONAL
    return RatioClass.POSITIVE_IRRATIONAL if s is Sign.POSITIVE else RatioClass.NEGATIVE_IRRATIONAL


def classify_ratio(x: FieldElement, y: FieldElement) -> RatioClass:
    """Classification of x/y following the saddle/nodal dichotomy."""
    if y.is_zero():
        return RatioClass.UNDEFINED
    return ratio_class(x / y)


# ---------------------------------------------------------------------------
# Non-resonance test: does some nonzero m in Z_{>=0}^tau satisfy sum m_i l_i = 0?
# ---------------------------------------------------------------------------

def _kernel_basis(columns):
    """Kernel basis of the 4 x k rational matrix whose columns are given."""
    k = len(columns)
    rows = [[columns[j][i] for j in range(k)] for i in range(4)]
    # Gaussian elimination
    pivots = []
    r = 0
    for c in range(k):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(k) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * k
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return basis


def _scale_to_integers(v):
    from math import lcm
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    from math import gcd
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g else ints


def nonresonant(lams):
    """Decide Definition-style non-resonance of a tuple of field elements.

    Returns ("nonresonant", None) or ("resonant", m) where m is a nonzero
    tuple of non-negative integers with sum(m_i * lam_i) = 0.
    """
    tau = len(lams)
    if any(l.is_zero() for l in lams):
        raise ZeroEntry("resonance test requires nonzero entries")
    cols = [l.basis_coordinates() for l in lams]
    # enumerate supports by increasing size; tau <= 3 in practice
    supports = []
    for mask in range(1, 1 << tau):
        supports.append([i for i in range(tau) if mask >> i & 1])
    supports.sort(key=len)
    for sup in supports:
        sub = [cols[i] for i in sup]
        basis = _kernel_basis(sub)
        if not basis:
            continue
        pos = _positive_kernel_vector(sub, basis)
        if pos is None:
            continue
        m = [0] * tau
        ints = _scale_to_integers(pos)
        if any(x <= 0 for x in ints):
            continue
        for i, s in enumerate(sup):
            m[s] = ints[i]
        return ("resonant", tuple(m))
    return ("nonresonant", None)


def _positive_kernel_vector(columns, basis):
    """Strictly positive rational vector in the kernel, if any."""
    k = len(columns)
    if len(basis) == 1:
        v = basis[0]
        if all(x > 0 for x in v):
            return v
        if all(x < 0 for x in v):
            return [-x for x in v]
        return None
    # kernel dimension >= 2 with k <= 3 forces rank <= 1: all constraint rows
    # are multiples of a single normal vector n; solutions = {x : n.x = 0}.
    n = None
    for i in range(4):
        row = [columns[j][i] for j in range(k)]
        if any(row):
            n = row
            break
    if n is None:
        # zero matrix: every column is zero (excluded upstream), any positive vector works
        return [Fraction(1)] * k
    pos = [i for i in range(k) if n[i] > 0]
    neg = [i for i in range(k) if n[i] < 0]
    if not pos or not neg:
        return None
    sp = sum(n[i] for i in pos)
    sn = -sum(n[i] for i in neg)
    out = [Fraction(1)] * k
    for i in pos:
        out[i] = sn
    for i in neg:
        out[i] = sp
    # check: n.out = sn*sp - sp*sn + 0 = 0
    return out
