"""Frozen copy of field.nonresonant and its helpers as they stood before the
branches no input reaches were deleted, kept as an oracle for the tests."""
from __future__ import annotations

from fractions import Fraction

from foliationlab.errors import ZeroEntry


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
