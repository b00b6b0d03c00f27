"""Logarithmic forms, a reference for the tests: a plain form re-expressed
with dx_i/x_i poles along invariant hyperplanes, and the residues of those
hyperplanes, built on forms.invariant_axis and forms.log_coefficient."""
from __future__ import annotations

from foliationlab.errors import NotDivisible
from foliationlab.forms import OneForm, invariant_axis, log_coefficient
from foliationlab.poly import VARNAMES


def _invariant_variables(form: OneForm, variables):
    """The variables sorted; NotDivisible names the first non-invariant one."""
    variables = sorted(set(variables))
    for v in variables:
        if not invariant_axis(form, v):
            raise NotDivisible(VARNAMES[v])
    return variables


def to_log_form(form: OneForm, variables):
    """Re-express a plain form with dx_i/x_i poles along the given variables.

    Each requested hyperplane must be invariant; its own coefficient picks up
    a factor of the variable.  Raises NotDivisible otherwise.
    """
    variables = _invariant_variables(form, variables)
    return OneForm([log_coefficient(form, j, variables) for j in range(form.nvars)],
                   log=[j in variables for j in range(form.nvars)])


def log_residues(form: OneForm, variables):
    """Residues of the invariant hyperplanes {x_v = 0}: the constant terms of
    their logarithmic coefficients.  Raises NotDivisible unless all of the
    listed hyperplanes are invariant.
    """
    variables = _invariant_variables(form, variables)
    return {v: log_coefficient(form, v, variables).constant_term() for v in variables}
