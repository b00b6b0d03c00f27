"""Polynomial 1-forms with optional logarithmic poles along coordinate axes."""
from __future__ import annotations

from .errors import DimensionError, ZeroForm
from .poly import Polynomial, VARNAMES, gcd_many, parse_polynomial


class OneForm:
    """sum_i c_i dx_i, where a flagged coordinate contributes c_i dx_i / x_i."""

    __slots__ = ("nvars", "d", "coeffs", "log")

    def __init__(self, coeffs, log=None, nvars=None, d=None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DimensionError("a 1-form needs at least one coordinate")
        self.nvars = coeffs[0].nvars if nvars is None else nvars
        self.d = coeffs[0].d if d is None else d
        if len(coeffs) != self.nvars:
            raise DimensionError("coefficient count must match the variable count")
        self.coeffs = coeffs
        self.log = tuple(log) if log is not None else (False,) * self.nvars

    @classmethod
    def parse(cls, texts, nvars, d, log=None):
        return cls([parse_polynomial(t, nvars, d) for t in texts], log=log)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def plain_coefficients(self):
        """Coefficients of the polynomial form obtained by clearing all poles.

        The form is multiplied by the product of the flagged variables, so
        (a) dx/x + (b) dy/y becomes (a y) dx + (b x) dy.
        """
        flagged = [i for i in range(self.nvars) if self.log[i]]
        out = []
        for i, c in enumerate(self.coeffs):
            for v in flagged:
                if v != i:  # the own pole cancels against the cleared product
                    c = c * Polynomial.var(v, self.nvars, self.d)
            out.append(c)
        return out

    def plain(self):
        return OneForm(self.plain_coefficients())

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.plain_coefficients() == other.plain_coefficients()

    def __str__(self):
        parts = []
        for i, (c, f) in enumerate(zip(self.coeffs, self.log)):
            if c.is_zero():
                continue
            v = VARNAMES[i]
            parts.append(f"({c}) d{v}/{v}" if f else f"({c}) d{v}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def saturate(form: OneForm):
    """Divide out the gcd of the plain coefficients.

    Returns (saturated plain form, removed polynomial).  With two or more
    nonzero coefficients the gcd has graded-lex leading coefficient 1, so a
    monomial factor is removed exactly and logarithmic residues survive
    unscaled.  With exactly one, that coefficient is removed whole and the
    form becomes the constant 1 times its differential: (2x^2 + 4x) dx
    saturates to (1) dx, removing 2x^2 + 4x.
    """
    plain = form.plain_coefficients()
    if all(c.is_zero() for c in plain):
        raise ZeroForm("cannot saturate the zero form")
    g = gcd_many([c for c in plain if not c.is_zero()])
    sat = [c.exact_div(g) if not c.is_zero() else c for c in plain]
    return OneForm(sat), g


def invariant_axis(form: OneForm, v) -> bool:
    """Is the hyperplane {x_v = 0} invariant for the (plain) form?

    The one invariance test: every other plain coefficient is divisible by x_v.
    """
    plain = form.plain_coefficients()
    xv = Polynomial.var(v, form.nvars, form.d)
    return all(c.is_zero() or c.divisible_by(xv)
               for j, c in enumerate(plain) if j != v)


def log_coefficient(form: OneForm, v, variables):
    """c_v / prod_{w in variables, w != v} x_w for the plain coefficients c.

    The one such division.  With invariant hyperplanes {x_w = 0} it divides
    exactly: for v among them it is the logarithmic coefficient of dx_v/x_v,
    whose constant term is the residue; for a transverse v it is the factor
    left after the invariant axes.
    """
    q = form.plain_coefficients()[v]
    for w in sorted(set(variables)):
        if w != v and not q.is_zero():
            q = q.exact_div(Polynomial.var(w, form.nvars, form.d))
    return q


def singular_at_origin(form: OneForm) -> bool:
    return all(c.constant_term().is_zero() for c in form.plain_coefficients())


def wedge_d_coefficient(form: OneForm) -> Polynomial:
    """Coefficient of dx^dy^dz in w ^ dw for a three-variable plain form."""
    if form.nvars != 3:
        raise DimensionError("integrability is a three-variable question")
    a, b, c = form.plain_coefficients()
    return (a * (c.derivative(1) - b.derivative(2))
            - b * (c.derivative(0) - a.derivative(2))
            + c * (b.derivative(0) - a.derivative(1)))


def integrability_check(form: OneForm) -> bool:
    """Frobenius condition w ^ dw = 0 (identically true with two variables)."""
    if form.nvars <= 2:
        return True
    return wedge_d_coefficient(form).is_zero()
