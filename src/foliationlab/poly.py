"""Multivariate polynomials over Q(i, sqrt(d)), canonical and exact.

Exponent tuples map to nonzero field coefficients; the zero polynomial has an
empty term map.  Up to three variables, named x, y, z (aliases x1, x2, x3).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import DivisionByZero, FieldParseError, NotDivisible
from .field import FieldElement, square_and_multiply

VARNAMES = ("x", "y", "z")

# Caps on a power `base^n` in parsed text, checked before it is expanded, so a
# one-line coefficient can neither hang the parser nor build a huge integer:
# the degree of the power, a bound on its term count, and n times the largest
# bit length in a coefficient of the base, a bound on the coefficients' growth.
MAX_POWER_DEGREE = 64
MAX_POWER_TERMS = 128
MAX_POWER_BITS = 1 << 16
# Digits of one integer literal: below the 4300 decimal digits past which
# Python refuses to convert between int and str, with room for the growth of
# exact values between input and report.
MAX_LITERAL_DIGITS = 1000


def _grlex_key(exps):
    return (sum(exps), exps)


class Polynomial:
    __slots__ = ("nvars", "d", "terms")

    def __init__(self, nvars, d, terms=None):
        self.nvars = nvars
        self.d = d
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero():
                    self.terms[tuple(e)] = c

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars, d):
        return cls(nvars, d)

    @classmethod
    def const(cls, c, nvars, d=None):
        if isinstance(c, (int, Fraction)):
            c = FieldElement(d if d is not None else 0, c)
        d = c.d if d is None else d
        return cls(nvars, d, {(0,) * nvars: c})

    @classmethod
    def var(cls, i, nvars, d):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, d, {tuple(e): FieldElement(d, 1)})

    def one_like(self):
        return Polynomial.const(FieldElement(self.d, 1), self.nvars, self.d)

    # -- predicates / views -------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, FieldElement(self.d, 0))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def order(self, variables=None):
        """Minimal (weighted-by-subset) degree of a term; None when zero."""
        if not self.terms:
            return None
        if variables is None:
            return min(sum(e) for e in self.terms)
        return min(sum(e[i] for i in variables) for e in self.terms)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=-1)

    def appearing_variables(self):
        out = []
        for i in range(self.nvars):
            if any(e[i] for e in self.terms):
                out.append(i)
        return out

    def leading(self):
        """Graded-lex leading (exponent, coefficient)."""
        if not self.terms:
            raise DivisionByZero("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    # -- arithmetic ---------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.const(other, self.nvars, self.d)
        if isinstance(other, FieldElement):
            return Polynomial(self.nvars, self.d, {(0,) * self.nvars: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        return Polynomial(self.nvars, self.d, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, self.d, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if len(other.terms) == 1:
            (oe, oc), = other.terms.items()
            if oc.is_one():
                # a unit monomial only shifts exponents
                return Polynomial(self.nvars, self.d, {
                    tuple(a + b for a, b in zip(e, oe)): c for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s.is_zero():
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Polynomial(self.nvars, self.d, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        return square_and_multiply(self, n) if n else self.one_like()

    def scale(self, c: FieldElement):
        return Polynomial(self.nvars, self.d, {e: v * c for e, v in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus -----------------------------------------------------
    def derivative(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                terms[tuple(e2)] = c * e[i]
        return Polynomial(self.nvars, self.d, terms)

    def evaluate(self, point):
        out = FieldElement(self.d, 0)
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                for _ in range(k):
                    v = v * point[i]
            out = out + v
        return out

    def substitute(self, images):
        """Full substitution: variable i is replaced by polynomial images[i]."""
        if not self.terms:
            return images[0].__class__.zero(images[0].nvars, self.d) if images else self
        nv = images[0].nvars
        out = Polynomial.zero(nv, self.d)
        for e, c in self.terms.items():
            t = Polynomial.const(c, nv, self.d)
            for i, k in enumerate(e):
                if k:
                    t = t * images[i] ** k
            out = out + t
        return out

    def set_var(self, i, c: FieldElement):
        """Restrict to the hyperplane {x_i = c} for a field constant c, keeping
        the variable count.

        The one restriction in the package: each term moves to e_i = 0 scaled
        by c^e_i (and is dropped when c = 0 and e_i > 0), with no substitution.
        """
        terms = {}
        for e, v in self.terms.items():
            k = e[i]
            if k:
                if c.is_zero():
                    continue
                v = v * c ** k
                e = e[:i] + (0,) + e[i + 1:]
            s = terms.get(e)
            terms[e] = v if s is None else s + v
        return Polynomial(self.nvars, self.d, terms)

    def shift(self, offsets):
        """Translate: variable i -> variable i + offsets[i].

        For each nonzero offset a, every term expands by the binomial theorem,
        x_i^k -> sum_j C(k, j) a^(k-j) x_i^j, with the powers of a computed
        once per call and no product by 1.
        """
        terms = self.terms
        for i, a in enumerate(offsets):
            top = max((e[i] for e in terms), default=0)
            if a.is_zero() or not top:
                continue
            powers = [None, a]
            for _ in range(top - 1):
                powers.append(powers[-1] * a)
            factors = {}   # (k, j) -> C(k, j) a^(k-j) for j < k, as terms ask
            out = {}
            for e, c in terms.items():
                k = e[i]
                for j in range(k + 1):
                    v = c
                    if j < k:
                        f = factors.get((k, j))
                        if f is None:
                            f = factors[k, j] = powers[k - j] * comb(k, j) if j else powers[k]
                        v = f if c.is_one() else c * f
                    t = e[:i] + (j,) + e[i + 1:]
                    s = out.get(t)
                    out[t] = v if s is None else s + v
            terms = out
        return Polynomial(self.nvars, self.d, terms)

    def drop_var(self, i):
        """Forget variable i (which must not appear), reducing nvars by one."""
        if any(e[i] for e in self.terms):
            raise NotDivisible(VARNAMES[i])
        terms = {}
        for e, c in self.terms.items():
            terms[e[:i] + e[i + 1:]] = c
        return Polynomial(self.nvars - 1, self.d, terms)

    def homogeneous_part(self, k, variables=None):
        """Terms of (subset-)degree exactly k."""
        vs = range(self.nvars) if variables is None else variables
        terms = {e: c for e, c in self.terms.items() if sum(e[i] for i in vs) == k}
        return Polynomial(self.nvars, self.d, terms)

    def initial_form(self, variables=None):
        r = self.order(variables)
        if r is None:
            return Polynomial.zero(self.nvars, self.d)
        return self.homogeneous_part(r, variables)

    # -- division -----------------------------------------------------
    def exact_div(self, q):
        """Exact polynomial division; raises NotDivisible on a remainder.

        A single-term divisor, a nonzero constant among them, divides term by
        term; any other goes through graded-lex long division.
        """
        q = self._coerce(q)
        if q.is_zero():
            raise DivisionByZero("division by zero polynomial")
        if len(q.terms) == 1:
            (qe, qc), = q.terms.items()
            terms = {}
            for e, c in self.terms.items():
                step = tuple(a - b for a, b in zip(e, qe))
                if any(s < 0 for s in step):
                    raise NotDivisible(repr(q))
                terms[step] = c
            if not qc.is_one():
                inv = qc.inverse()
                terms = {e: c * inv for e, c in terms.items()}
            return Polynomial(self.nvars, self.d, terms)
        rem = self
        quot = Polynomial.zero(self.nvars, self.d)
        le, lc = q.leading()
        lcinv = lc.inverse()
        while not rem.is_zero():
            re, rc = rem.leading()
            step = tuple(a - b for a, b in zip(re, le))
            if any(s < 0 for s in step):
                raise NotDivisible(repr(q))
            t = Polynomial(self.nvars, self.d, {step: rc * lcinv})
            quot = quot + t
            rem = rem - t * q
        return quot

    def divisible_by(self, q):
        q = self._coerce(q)
        if len(q.terms) == 1:
            (qe,) = q.terms
            return all(a >= b for e in self.terms for a, b in zip(e, qe))
        try:
            self.exact_div(q)
            return True
        except (NotDivisible, DivisionByZero):
            return False

    def monic(self):
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self.scale(lc.inverse())

    # -- univariate helpers -------------------------------------------
    def univariate_coefficients(self, i):
        """Dense coefficient list in variable i (entries are field elements).

        Requires the polynomial to involve only variable i.
        """
        for e in self.terms:
            if any(e[j] for j in range(self.nvars) if j != i):
                raise FieldParseError("polynomial is not univariate")
        n = self.degree_in(i)
        out = [FieldElement(self.d, 0)] * (n + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{VARNAMES[i]}^{k}" if k > 1 else VARNAMES[i]
                for i, k in enumerate(e) if k
            )
            cs = str(c)
            if "+" in cs or "-" in cs[1:] or "*" in cs:
                cs = f"({cs})"
            if mono:
                parts.append(f"{cs}*{mono}" if cs != "1" else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# GCD (content / primitive-part recursion with primitive pseudo-remainders)
# ---------------------------------------------------------------------------

def _coeff_in_var(p, x, k):
    """Coefficient of x^k as a polynomial with x-degree zero."""
    terms = {}
    for e, c in p.terms.items():
        if e[x] == k:
            e2 = list(e)
            e2[x] = 0
            terms[tuple(e2)] = c
    return Polynomial(p.nvars, p.d, terms)


def _pseudo_rem(p, q, x):
    dp, dq = p.degree_in(x), q.degree_in(x)
    lq = _coeff_in_var(q, x, dq)
    r = p
    while not r.is_zero() and r.degree_in(x) >= dq:
        dr = r.degree_in(x)
        lr = _coeff_in_var(r, x, dr)
        xpow = Polynomial.var(x, p.nvars, p.d) ** (dr - dq)
        r = r * lq - q * lr * xpow
    return r


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero():
        return q.monic()
    if q.is_zero():
        return p.monic()
    vs = sorted(set(p.appearing_variables()) | set(q.appearing_variables()))
    if not vs:
        return p.one_like()
    x = vs[0]

    def content(f):
        c = Polynomial.zero(f.nvars, f.d)
        for k in range(f.degree_in(x) + 1):
            ck = _coeff_in_var(f, x, k)
            if not ck.is_zero():
                c = poly_gcd(c, ck)
        return c

    cp, cq = content(p), content(q)
    pp, qq = p.exact_div(cp), q.exact_div(cq)
    if pp.degree_in(x) < qq.degree_in(x):
        pp, qq = qq, pp
    while not qq.is_zero():
        r = _pseudo_rem(pp, qq, x)
        if not r.is_zero():
            r = r.exact_div(content(r))
        pp, qq = qq, r
        if not qq.is_zero() and pp.degree_in(x) < qq.degree_in(x):
            pp, qq = qq, pp
    return (poly_gcd(cp, cq) * pp).monic()


def _univariate_gcd(a, b):
    """gcd(a, b) by Euclid over the field, for dense coefficient lists with a
    nonzero; each divisor is made monic first, so the gcd is monic when b is
    nonzero.

    poly_gcd on the same lists gives the gcd up to a unit, but its
    pseudo-remainders are never made monic and their coefficients grow.
    """
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


# ---------------------------------------------------------------------------
# Coprimality certificate over a prime field
# ---------------------------------------------------------------------------

# The certificate sets every variable but the kept one to the integer at its
# index in one of these points, tried in order until one keeps the kept
# variable's leading coefficient and gives coprime images; the number of
# points is the trial count.  A point fails when the line it fixes meets a
# common zero, so zero is left out: the germs are singular at the origin.  On
# the benchmark workloads (seeds 1-3) the first point proves every shared
# variable but one each on seeds 1 and 2, which the second proves; on 5323
# shared variables of random coprime pairs with small integer coefficients
# the third point was needed twice and a fourth never.
SPECIALIZATION_POINTS = ((2, 3, 5), (3, -2, 7), (-5, 7, -3))

# Certificate primes are scanned upward from here: a prime this large rarely
# divides a denominator or a leading coefficient's image, so an unlucky prime
# is rare.
_PRIME_FLOOR = 1 << 31
# Miller-Rabin with these bases decides primality exactly below 3215031751,
# and the scan stops at its second hit far below that.
_MILLER_RABIN_BASES = (2, 3, 5, 7)


def _is_prime(n):
    """Deterministic Miller-Rabin for odd n > 7 below 3215031751."""
    s, t = 0, n - 1
    while not t & 1:
        s, t = s + 1, t >> 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a, prime):
    """A square root of a modulo an odd prime, by Tonelli-Shanks; ValueError
    when a is no square there."""
    a %= prime
    if pow(a, (prime - 1) // 2, prime) != 1:
        if a:
            raise ValueError(f"{a} is not a square modulo {prime}")
        return 0
    s, t = 0, prime - 1
    while not t & 1:
        s, t = s + 1, t >> 1
    z = 2
    while pow(z, (prime - 1) // 2, prime) != prime - 1:
        z += 1
    c, x, b = pow(z, t, prime), pow(a, (t + 1) // 2, prime), pow(a, t, prime)
    while b != 1:
        # the least i with b^(2^i) = 1; i < s because b is a square's image
        i, b2 = 0, b
        while b2 != 1:
            b2, i = b2 * b2 % prime, i + 1
        c2 = pow(c, 1 << (s - i - 1), prime)
        s, c = i, c2 * c2 % prime
        x, b = x * c2 % prime, b * c % prime
    return x


@lru_cache(maxsize=None)  # a few discriminants per process; scanned once each
def _certificate_primes(d):
    """The first two primes P = 1 (mod 4) from _PRIME_FLOOR up with P not
    dividing d and d a square mod P, each as (P, iota, sigma): iota^2 = -1 and
    sigma^2 = d mod P, the images of i and sqrt(d) (sigma = 0 for d = 0)."""
    out = []
    n = _PRIME_FLOOR + 1
    while len(out) < 2:
        if _is_prime(n) and (d == 0 or pow(d, (n - 1) // 2, n) == 1):
            out.append((n, _sqrt_mod(-1, n), _sqrt_mod(d, n)))
        n += 4
    return tuple(out)


def _residues(p, prime, iota, sigma):
    """The terms of p as (exponents, coefficient mod P) under i -> iota and
    sqrt(d) -> sigma; None when a denominator is divisible by P."""
    out = []
    for e, c in p.terms.items():
        value = 0
        for x, unit in ((c.ar, 1), (c.ai, iota), (c.br, sigma), (c.bi, iota * sigma)):
            if x:
                num, den = x.numerator, x.denominator
                if den != 1:
                    if not den % prime:
                        return None
                    num *= pow(den, -1, prime)
                value += num * unit
        out.append((e, value % prime))
    return out


def _image(residues, k, point, prime):
    """Dense coefficient list in x_k mod P of the residue terms with every
    other x_j set to point[j]; trailing zeros stripped."""
    out = [0] * (max(e[k] for e, _ in residues) + 1)
    for e, c in residues:
        for j, ej in enumerate(e):
            if ej and j != k:
                c *= point[j] ** ej
        out[e[k]] += c
    out = [c % prime for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def _gcd_degree_mod(a, b, prime):
    """Degree of gcd(a, b) over F_P, for dense coefficient lists mod P with a
    nonzero; the same Euclid as _univariate_gcd."""
    while b:
        inv = pow(b[-1], -1, prime)
        b = [c * inv % prime for c in b]
        a = list(a)
        while len(a) >= len(b):
            top, shift = a.pop(), len(a) - len(b) + 1
            for i, c in enumerate(b[:-1]):
                a[shift + i] = (a[shift + i] - top * c) % prime
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _proved_coprime(p, q):
    """True only when the nonzero p and q have no non-constant common factor.

    For each variable x_k in both, every other variable is set to an integer
    point, the two images are mapped into F_P, and Euclid runs there.  A prime
    proves nothing at a point when a denominator of p or q is divisible by P
    or when the image of lc_k(p), the leading coefficient of p in x_k, is 0
    mod P; then the second prime is tried, then the next point.  Why a gcd of
    degree 0 mod P at one point for every such x_k proves gcd(p, q) = 1:

    1. Over K = Q(i, sqrt(d)).  A common factor g has vars(g) within vars(p)
       and vars(q).  From p = g h, lc_k(g) lc_k(h) = lc_k(p), whose value at
       the point is nonzero because its image mod P is, so g's image keeps
       its x_k-degree and divides the K-images of p and q.
    2. Over F_P.  The map i -> iota, sqrt(d) -> sigma on the elements of K
       whose denominators are prime to P is a ring map onto F_P.  Since P does
       not divide 2d, P is unramified in K, so its kernel is a prime ideal
       whose local ring R is a DVR.  The K-image of p lies in R[x_k] with a
       unit leading coefficient.  By Gauss's lemma over R, a divisor of it
       scaled to be primitive has its cofactor in R[x_k] and a unit leading
       coefficient, so its reduction keeps its degree and divides both
       images mod P.

    So coprime images mod P make the K-images coprime, g's image has degree
    0, g involves none of the shared variables, and g is constant.  False (no
    point gave coprime images for some x_k: unlucky points or primes, or a
    real common factor) proves nothing.
    """
    shared = set(p.appearing_variables()) & set(q.appearing_variables())
    reduced = {}
    for k in shared:
        deg = p.degree_in(k)
        for point in SPECIALIZATION_POINTS:
            degree = None
            for prime, iota, sigma in _certificate_primes(p.d):
                if prime not in reduced:
                    reduced[prime] = (_residues(p, prime, iota, sigma),
                                      _residues(q, prime, iota, sigma))
                rp, rq = reduced[prime]
                if rp is None or rq is None:
                    continue
                pk = _image(rp, k, point, prime)
                if len(pk) != deg + 1:
                    continue
                degree = _gcd_degree_mod(pk, _image(rq, k, point, prime), prime)
                break
            if degree == 0:
                break
        else:
            return False
    return True


def gcd_many(polys):
    """Gcd of a sequence of polynomials; None for an empty one.

    One polynomial comes back as it is, or 1 when it is a nonzero constant;
    the gcd of two or more is monic.  Three steps, in order:

    1. Monomial content.  When they are all nonzero and one is a single term,
       the gcd is their monomial content (the componentwise least exponent
       over all their terms): a monomial's only divisors are monomials.
    2. Coprimality certificate.  When some pair of the nonzero inputs is
       proved coprime by univariate images over a prime field
       (`_proved_coprime`), the gcd is 1.
    3. Otherwise poly_gcd runs pairwise, so the result is always exact.
    """
    polys = list(polys)
    if len(polys) > 1 and all(p.terms for p in polys) \
            and any(len(p.terms) == 1 for p in polys):
        content = tuple(map(min, zip(*(e for p in polys for e in p.terms))))
        p = polys[0]
        return Polynomial(p.nvars, p.d, {content: FieldElement(p.d, 1)})
    nonzero = [p for p in polys if p.terms]
    if any(_proved_coprime(p, q) for p, q in combinations(nonzero, 2)):
        return nonzero[0].one_like()
    out = None
    for p in polys:
        out = p if out is None else poly_gcd(out, p)
        if out is not None and not out.is_zero() and out.is_constant():
            return out.monic()
    return out


# ---------------------------------------------------------------------------
# Parsing: field elements and polynomials from text
# ---------------------------------------------------------------------------

class _Tokens:
    def __init__(self, text):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j - i > MAX_LITERAL_DIGITS:
                    raise FieldParseError(f"an integer literal of {j - i} digits exceeds "
                                          f"{MAX_LITERAL_DIGITS}")
                self.toks.append(("num", int(text[i:j])))
                i = j
            elif ch.isalpha():
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif text[i:i + 2] == "**":
                self.toks.append(("op", "^"))
                i += 2
            elif ch in "+-*/^()":
                self.toks.append(("op", ch))
                i += 1
            else:
                raise FieldParseError(f"unexpected character {ch!r}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        if self.pos == len(self.toks):
            raise FieldParseError("unexpected end of input")
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, value=None):
        k, v = self.next()
        if k != kind or (value is not None and v != value):
            raise FieldParseError(f"expected {value or kind}, got {v!r}")
        return v


def _check_power(base, n):
    """Refuse base^n (or base^-n) when it would pass one of the power caps."""
    deg = max(base.degree(), 0)
    if deg * n > MAX_POWER_DEGREE:
        raise FieldParseError(f"power of degree {deg * n} exceeds {MAX_POWER_DEGREE}")
    bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for c in base.terms.values() for q in (c.ar, c.ai, c.br, c.bi)), default=1)
    if bits * n > MAX_POWER_BITS:
        raise FieldParseError(f"power with exponent {n} would build coefficients "
                              f"beyond {MAX_POWER_BITS} bits")
    t = len(base.terms)
    bound = min(comb(t + n - 1, n), comb(deg * n + base.nvars, base.nvars)) if t else 0
    if bound > MAX_POWER_TERMS:
        raise FieldParseError(f"power may have {bound} terms, over {MAX_POWER_TERMS}")


def parse_polynomial(text, nvars, d) -> Polynomial:
    names = {}
    for i, n in enumerate(VARNAMES[:nvars]):
        names[n] = i
        names[f"x{i + 1}"] = i
    toks = _Tokens(text)

    def atom():
        k, v = toks.next()
        if k == "op" and v == "(":
            e = expr()
            toks.expect("op", ")")
            return e
        if k == "op" and v == "-":
            return -atom()
        if k == "op" and v == "+":
            return atom()
        if k == "num":
            return Polynomial.const(Fraction(v), nvars, d)
        if k == "name":
            if v == "i":
                return Polynomial.const(FieldElement(d, 0, 1), nvars, d)
            if v == "sqrt":
                toks.expect("op", "(")
                kk, arg = toks.next()
                if kk != "num":
                    raise FieldParseError("sqrt() takes an integer literal")
                toks.expect("op", ")")
                if arg != d and arg != 0:
                    raise FieldParseError(f"sqrt({arg}) is outside Q(i, sqrt({d}))")
                return Polynomial.const(FieldElement.sqrt_d(d) if arg else FieldElement(d, 0), nvars, d)
            if v in names:
                return Polynomial.var(names[v], nvars, d)
            raise FieldParseError(f"unknown symbol {v!r}")
        raise FieldParseError(f"unexpected token {v!r}")

    def power():
        base = atom()
        k, v = toks.peek()
        if k == "op" and v == "^":
            toks.next()
            kk, n = toks.next()
            neg = False
            if kk == "op" and n == "-":
                neg = True
                kk, n = toks.next()
            if kk != "num":
                raise FieldParseError("exponent must be an integer literal")
            _check_power(base, n)
            if neg:
                if not base.is_constant():
                    raise FieldParseError("negative exponents only on constants")
                return Polynomial.const(base.constant_term() ** (-n), nvars, d)
            return base ** n
        return base

    def term():
        out = power()
        while True:
            k, v = toks.peek()
            if k == "op" and v == "*":
                toks.next()
                out = out * power()
            elif k == "op" and v == "/":
                toks.next()
                rhs = power()
                if not rhs.is_constant():
                    raise FieldParseError("division only by constants")
                out = out.scale(rhs.constant_term().inverse())
            else:
                return out

    def expr():
        out = term()
        while True:
            k, v = toks.peek()
            if k == "op" and v in "+-":
                toks.next()
                rhs = term()
                out = out + rhs if v == "+" else out - rhs
            else:
                return out

    out = expr()
    if toks.peek() != (None, None):
        raise FieldParseError(f"trailing input near {toks.peek()[1]!r}")
    return out


def parse_element(text, d) -> FieldElement:
    p = parse_polynomial(text, 1, d)
    if not p.is_constant():
        raise FieldParseError("expected a constant expression")
    return p.constant_term()
