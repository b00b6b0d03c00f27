"""Roots of univariate polynomials with coefficients in K = Q(i, sqrt(d)).

Linear and quadratic equations are solved directly.  Past degree two,
`_field_linear_root` finds every root in K by a certified isolation in exact
integer arithmetic and returns one of them; `univariate_roots` deflates by it
and repeats.  The unsplit remainder is returned so callers can decide whether
off-field roots are an error.

The isolation of the roots in K of a dense f of degree n >= 2 (d = 0 means
K = Q(i)):

1. g = f / gcd(f, f'), by one monic Euclid over K, has the roots of f, each
   simple.  Its coefficients are scaled into Z[i, sqrt(d)]; a is its leading
   coefficient and N = |N_{K/Q}(a)|.
2. sigma_+ and sigma_- embed K in C, fixing i and sending sqrt(d) to
   +sqrt(d) and -sqrt(d) (one embedding when d = 0).  Aberth's iteration
   approximates the m roots of each g_e = sigma_e(g) by Gaussian dyadic
   rationals z_1..z_m with P fractional bits, on Python ints.
3. The approximations are certified (Neumaier, JCAM 2003; Rump, JCAM 2003).
   With the Weierstrass corrections W_j = g_e(z_j) / (a_e prod_{k != j}
   (z_j - z_k)), g_e / a_e is the characteristic polynomial of
   diag(z) - W (1, ..., 1), so by Gershgorin every root of g_e lies in the
   union of the discs D(z_j, m |W_j|), and when these are pairwise disjoint
   each holds exactly one.  Every bound is an exact rational: sqrt(d) is
   bracketed by isqrt, and each modulus is rounded outward by isqrt.
4. For each pair of discs, D_j of g_+ and D'_k of g_-, the numbers
   p = (z + w) / 2 and q = (z - w) / (2 sqrt(d)), z in D_j and w in D'_k,
   lie in boxes (p = z and q = 0 when d = 0).  P doubles until no
   coordinate interval of any box holds two points of the grid (1/4N) Z.
   The grid point of a pair, when there is one, is the candidate
   p + q sqrt(d), kept only when exact Horner evaluation of f gives 0.

Why no root of f in K is missed.  Let alpha = p + q sqrt(d) be one, p and q
in Q(i).  a alpha is an algebraic integer (a root of the monic
a^(m-1) g(t / a), whose coefficients are integers of K), so
N alpha = (N / a) (a alpha) is an integer of K too, since N / a is, up to
sign, the product of the other conjugates of a.  The integers of K lie in
(1/4) Z[i, sqrt(d)] (the integral basis of a biquadratic field; Z[i] when
d = 0), so the four coordinates of alpha lie on the grid (1/4N) Z.
sigma_+(alpha) = p + q sqrt(d) is a root of g_+, so it lies in some D_j, and
sigma_-(alpha) = p - q sqrt(d) lies in some D'_k.  The boxes of the pair
(j, k) then hold p and q, so alpha is the one grid point of that pair, and
the evaluation keeps it.  No precision gives up silently: past
MAX_ISOLATION_BITS the isolation raises RootIsolationFailed rather than
return a partial set of roots.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DivisionByZero, RootIsolationFailed
from .field import FieldElement, field_sqrt
from .poly import _univariate_gcd

# Fractional bits of the first isolation attempt, and the most the doubling
# may reach before the isolation gives up with RootIsolationFailed.
FIRST_ISOLATION_BITS = 64
MAX_ISOLATION_BITS = 1 << 13


def _strip(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def univariate_roots(coeffs):
    """All roots inside the field, with multiplicities.

    coeffs is a dense list, constant first.  Returns (roots, leftover) where
    roots is a list of (root, multiplicity) and leftover is the dense
    coefficient list of the unsplit (rootless) factor, [] when fully split.
    """
    coeffs = _strip(list(coeffs))
    if not coeffs:
        raise DivisionByZero("the zero polynomial has every point as a root")
    d = coeffs[0].d
    roots = []
    # zero roots
    k = 0
    while coeffs[k].is_zero():
        k += 1
    if k:
        roots.append((FieldElement(d, 0), k))
        coeffs = coeffs[k:]
    while len(coeffs) > 1:
        n = len(coeffs) - 1
        if n == 1:
            roots.append((-coeffs[0] / coeffs[1], 1))
            coeffs = [coeffs[1]]
            break
        if n == 2:
            a, b, c = coeffs[2], coeffs[1], coeffs[0]
            disc = b * b - 4 * a * c
            s = field_sqrt(disc)
            if s is None:
                break
            r1 = (-b + s) / (2 * a)
            r2 = (-b - s) / (2 * a)
            roots.append((r1, 1))
            if r1 == r2:
                roots[-1] = (r1, 2)
            else:
                roots.append((r2, 1))
            coeffs = [coeffs[2]]
            break
        root = _field_linear_root(coeffs, d)
        if root is None:
            break
        coeffs = _deflate(coeffs, root)
        roots.append((root, 1))
    # merge duplicates
    merged = []
    for r, m in roots:
        for idx, (r2, m2) in enumerate(merged):
            if r == r2:
                merged[idx] = (r2, m2 + m)
                break
        else:
            merged.append((r, m))
    leftover = coeffs if len(coeffs) > 1 else []
    return merged, leftover


def _divide_linear(coeffs, root):
    """Synthetic division by (t - root): (quotient, remainder = f(root))."""
    n = len(coeffs) - 1
    out = [None] * n
    carry = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    return out, carry


def _deflate(coeffs, root):
    """Synthetic division by (t - root)."""
    out, rem = _divide_linear(coeffs, root)
    if not rem.is_zero():
        raise DivisionByZero("deflation by a non-root")
    return out


def _field_linear_root(coeffs, d):
    """One root in K of a dense polynomial of degree >= 2, or None.

    Of the roots in K (see the module docstring for how all of them are
    found), the one of least multiplicity in coeffs comes first, and among
    those the largest by its coordinates (ar, ai, br, bi).
    """
    roots, square_free = _field_roots(coeffs, d)
    if len(roots) < 2:
        return roots[0] if roots else None
    if square_free:
        return max(roots, key=FieldElement.basis_coordinates)
    return max(roots, key=lambda r: (-_multiplicity(coeffs, r), r.basis_coordinates()))


# The tracer of perfbench/ reads this name for its solve.sympy_* metrics and
# wraps every binding of the same function.  The alias exists only for those
# metrics, until ROADMAP item 1 renames them after the degree >= 3 root path.
_sympy_linear_roots = _field_linear_root


def _multiplicity(coeffs, root):
    m = 0
    while len(coeffs) > 1:
        quotient, rem = _divide_linear(coeffs, root)
        if not rem.is_zero():
            break
        m, coeffs = m + 1, quotient
    return m


def _field_roots(coeffs, d):
    """(every root in K of the dense coeffs, each once; whether coeffs is
    square-free), for degree >= 1."""
    g = _square_free(coeffs)
    if len(g) == 2:
        return [-g[0] / g[1]], len(coeffs) == 2
    ints = _integral_coordinates(g)
    grid = 4 * _norm(ints[-1], d)
    signs = (1, -1) if d else (1,)
    approx = {}
    bits = FIRST_ISOLATION_BITS
    while True:
        if bits > MAX_ISOLATION_BITS:
            raise RootIsolationFailed(
                f"no certified isolation of the roots of a degree-{len(g) - 1} "
                f"polynomial within {MAX_ISOLATION_BITS} bits")
        root_d = isqrt(d << 2 * bits)   # 2^bits sqrt(d), rounded down
        discs = []
        for e in signs:
            poly = [((ar << bits) + e * br * root_d, (ai << bits) + e * bi * root_d)
                    for ar, ai, br, bi in ints]
            zs = approx.get(e) or _initial_points(poly, bits)
            _aberth(poly, zs, bits)
            approx[e] = zs
            discs.append(_certified_discs(ints, e, zs, bits, d))
        if all(discs):
            candidates = _grid_candidates(discs, bits, d, grid)
            if candidates is not None:
                break
        # refine from here at twice the bits; points that merged start afresh
        approx = {e: [(zr << bits, zi << bits) for zr, zi in zs]
                  for e, zs in approx.items() if len(set(zs)) == len(zs)}
        bits *= 2
    roots = [FieldElement(d, *(Fraction(n, grid) for n in point))
             for point in dict.fromkeys(candidates) if _vanishes_at(ints, point, grid, d)]
    return roots, len(g) == len(coeffs)


def _square_free(coeffs):
    """f / gcd(f, f') over K: the roots of f, each simple."""
    derivative = [FieldElement(c.d, k * c.ar, k * c.ai, k * c.br, k * c.bi)
                  for k, c in enumerate(coeffs)][1:]
    common = _univariate_gcd(coeffs, derivative)   # monic, since f' != 0
    if len(common) == 1:
        return coeffs
    quotient = [None] * (len(coeffs) - len(common) + 1)
    rem = list(coeffs)
    for i in range(len(quotient) - 1, -1, -1):
        top = rem.pop()
        quotient[i] = top
        for j, c in enumerate(common[:-1]):
            rem[i + j] = rem[i + j] - top * c
    return quotient


def _integral_coordinates(coeffs):
    """The coordinates of a multiple of coeffs in Z[i, sqrt(d)], as int
    4-tuples with no common factor."""
    fracs = [c.basis_coordinates() for c in coeffs]
    den = lcm(*(q.denominator for c in fracs for q in c))
    ints = [tuple(int(q * den) for q in c) for c in fracs]
    content = gcd(*(x for c in ints for x in c))
    return [tuple(x // content for x in c) for c in ints]


def _times(u, v, d):
    """Product of two elements of Z[i, sqrt(d)] given by int coordinates."""
    pr, pi, qr, qi = u
    rr, ri, sr, si = v
    return (pr * rr - pi * ri + d * (qr * sr - qi * si),
            pr * ri + pi * rr + d * (qr * si + qi * sr),
            pr * sr - pi * si + qr * rr - qi * ri,
            pr * si + pi * sr + qr * ri + qi * rr)


def _norm(coords, d):
    """|N_{K/Q}| of the element with int coordinates coords."""
    ar, ai, br, bi = coords
    if not d:
        return ar * ar + ai * ai
    # sigma_+ times sigma_- is the Gaussian integer u^2 - d v^2
    gr = ar * ar - ai * ai - d * (br * br - bi * bi)
    gi = 2 * (ar * ai - d * br * bi)
    return gr * gr + gi * gi


def _vanishes_at(ints, point, grid, d):
    """Whether the int-coordinate polynomial vanishes at point / grid, by
    Horner on grid^m times its value."""
    value = ints[-1]
    power = 1
    for c in reversed(ints[:-1]):
        power *= grid
        value = tuple(x + power * y for x, y in zip(_times(value, point, d), c))
    return not any(value)


# -- approximation: Gaussian ints scaled by 2^bits ---------------------------

def _initial_points(poly, bits):
    """Durand-Kerner's start r (0.4 + 0.9i)^k, k < m, with r a power of two
    above Fujiwara's bound 2 max |c_k / c_m|^(1 / (m - k))."""
    m = len(poly) - 1
    size = [max(abs(cr), abs(ci)).bit_length() for cr, ci in poly]
    exp = max(-(-(size[k] - size[m] + 2) // (m - k)) + 1
              for k in range(m) if size[k])
    one = 1 << bits
    z = (one << exp, 0) if exp >= 0 else (one >> -exp or 1, 0)
    br, bi = 2 * one // 5, 9 * one // 10
    points = []
    for _ in range(m):
        points.append(z)
        z = ((z[0] * br - z[1] * bi) >> bits, (z[0] * bi + z[1] * br) >> bits)
    return points


def _quotient(ar, ai, br, bi, bits):
    den = br * br + bi * bi
    return (((ar * br + ai * bi) << bits) // den, ((ai * br - ar * bi) << bits) // den)


def _aberth(poly, zs, bits):
    """Aberth's iteration, Gauss-Seidel, on zs in place: z_j -= N / (1 - N S)
    with N = g(z_j) / g'(z_j) and S = sum_{k != j} 1 / (z_j - z_k), until no
    correction exceeds 16 units of the last place."""
    one = 1 << bits
    m = len(zs)
    for _ in range(8 * m + 32):
        largest = 0
        for j in range(m):
            zr, zi = zs[j]
            pr, pi = poly[-1]
            dr = di = 0
            for cr, ci in reversed(poly[:-1]):
                dr, di = ((dr * zr - di * zi) >> bits) + pr, ((dr * zi + di * zr) >> bits) + pi
                pr, pi = ((pr * zr - pi * zi) >> bits) + cr, ((pr * zi + pi * zr) >> bits) + ci
            if not (pr or pi):
                continue
            if not (dr or di):
                zs[j] = (zr + (one >> 8) + 1, zi + (one >> 9) + 1)   # off a critical point
                largest = max(largest, one)
                continue
            nr, ni = _quotient(pr, pi, dr, di, bits)
            sr = si = 0
            for k in range(m):
                if k != j:
                    wr, wi = zr - zs[k][0], zi - zs[k][1]
                    if wr or wi:
                        qr, qi = _quotient(one, 0, wr, wi, bits)
                        sr, si = sr + qr, si + qi
            dr = one - ((nr * sr - ni * si) >> bits)
            di = -((nr * si + ni * sr) >> bits)
            cr, ci = _quotient(nr, ni, dr, di, bits) if dr or di else (nr, ni)
            zs[j] = (zr - cr, zi - ci)
            largest = max(largest, abs(cr), abs(ci))
        if largest <= 16:
            return


# -- certification: exact integers -----------------------------------------
#
# At precision `bits`, centers are ints over 2^bits, radii ints over
# 2^(2 bits), and 2^(2 bits) sqrt(d) lies in [root_d, root_d + 1).

def _abs_up(zr, zi):
    """An int >= |zr + zi i|."""
    n = zr * zr + zi * zi
    r = isqrt(n)
    return r if r * r == n else r + 1


def _abs_down(zr, zi):
    return isqrt(zr * zr + zi * zi)


def _homogeneous_horner(coeffs, zr, zi, scale):
    """sum_k c_k Z^k scale^(m - k) for Gaussian int coefficients c_k: with
    z = Z / scale, scale^m times the value at z."""
    hr, hi = coeffs[-1]
    power = 1
    for cr, ci in reversed(coeffs[:-1]):
        power *= scale
        hr, hi = hr * zr - hi * zi + cr * power, hr * zi + hi * zr + ci * power
    return hr, hi


def _certified_discs(ints, e, zs, bits, d):
    """[(center, radius)] of pairwise disjoint discs that each hold one root
    of sigma_e(g); None when these approximations give no such discs."""
    m = len(zs)
    scale = 1 << bits
    fine = 2 * bits
    root_d = isqrt(d << 2 * fine)
    a = [(ar, ai) for ar, ai, _, _ in ints]
    b = [(br, bi) for _, _, br, bi in ints]
    # |sigma_e(lead)| 2^fine >= |lead_a 2^fine + e root_d lead_b| - |lead_b|
    lead = _abs_down((a[-1][0] << fine) + e * root_d * b[-1][0],
                     (a[-1][1] << fine) + e * root_d * b[-1][1]) - _abs_up(*b[-1])
    if lead <= 0:
        return None
    radii = []
    for j, (zr, zi) in enumerate(zs):
        pr, pi = 1, 0
        for k, (wr, wi) in enumerate(zs):
            if k != j:
                pr, pi = pr * (zr - wr) - pi * (zi - wi), pr * (zi - wi) + pi * (zr - wr)
        spread = _abs_down(pr, pi)   # <= scale^(m-1) prod_{k != j} |z_j - z_k|
        if not spread:
            return None
        # 2^fine scale^m sigma_e(g)(z_j) = A 2^fine + e 2^fine sqrt(d) B, so
        # |A 2^fine + e root_d B| + |B| bounds its modulus
        ar, ai = _homogeneous_horner(a, zr, zi, scale)
        br, bi = _homogeneous_horner(b, zr, zi, scale) if d else (0, 0)
        value = _abs_up((ar << fine) + e * root_d * br, (ai << fine) + e * root_d * bi) \
            + _abs_up(br, bi)
        # m |W_j| <= m value / (scale lead spread), over 2^fine and rounded up
        radii.append(-(-(m * value << fine) // (scale * lead * spread)))
    for j in range(m):
        for k in range(j + 1, m):
            gap = _abs_down(zs[j][0] - zs[k][0], zs[j][1] - zs[k][1])
            if gap << bits <= radii[j] + radii[k]:
                return None
    return [((zr << bits, zi << bits), r) for (zr, zi), r in zip(zs, radii)]


def _grid_candidates(discs, bits, d, grid):
    """The coordinates (times grid) of the one grid point of each pair of
    discs that holds one; None when some pair holds two."""
    fine = 2 * bits
    if d:
        root_d = isqrt(d << 2 * fine)
        pairs = (((zr + wr, zi + wi, zr - wr, zi - wi), r + s)
                 for (zr, zi), r in discs[0] for (wr, wi), s in discs[1])
    else:
        pairs = (((zr, zi, 0, 0), r) for (zr, zi), r in discs[0])
    candidates = []
    for (sr, si, tr, ti), r in pairs:
        if d:
            # p = (z + w) / 2 within r / 2, over 2^(fine + 1); q = (z - w) /
            # (2 sqrt(d)) with z - w within r, over 2^fine, and 2^fine 2 sqrt(d)
            # in [2 root_d, 2 root_d + 2)
            points = [(-((grid * (r - c)) >> (fine + 1)), (grid * (c + r)) >> (fine + 1))
                      for c in (sr, si)]
            points += [(-(grid * (r - c) // (2 * (root_d + (c >= r)))),
                        grid * (c + r) // (2 * (root_d + (c < -r))))
                       for c in (tr, ti)]
        else:
            points = [(-((grid * (r - c)) >> fine), (grid * (c + r)) >> fine)
                      for c in (sr, si)] + [(0, 0), (0, 0)]
        if any(first > last for first, last in points):
            continue
        if any(first < last for first, last in points):
            return None
        candidates.append(tuple(first for first, _ in points))
    return candidates
