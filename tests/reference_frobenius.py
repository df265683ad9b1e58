"""Frobenius integrability of a parameter polynomial of 1-forms, written out.

The pencil alpha^t = alpha_0 + t alpha_1 + ... is given by its coefficient
forms.  ``frobenius_check`` tests d(alpha^t) wedge alpha^t = 0 at every power
of t by wedging whole parameter polynomials: the derivative acts coefficient
by coefficient and the wedge is the convolution of the two coefficient
sequences.  The library reaches the same verdict through the residual
brackets of ``verify_hirota``; this module shares only the forms layer with
it, so the tests use it as the oracle for that equivalence.
"""

from __future__ import annotations

from typing import Sequence

from hirotaweb import DifferentialForm

Coefficients = Sequence[DifferentialForm]


def pencil_d(coefficients: Coefficients) -> tuple[DifferentialForm, ...]:
    """d of the pencil, coefficient by coefficient (d is parameter-free)."""
    return tuple(c.exterior_derivative() for c in coefficients)


def pencil_wedge(left: Coefficients, right: Coefficients) -> tuple[DifferentialForm, ...]:
    """Coefficient-wise convolution of the two parameter polynomials."""
    n_vars = left[0].n_vars
    degree = left[0].degree + right[0].degree
    out = [DifferentialForm.zero(n_vars, degree)
           for _ in range(len(left) + len(right) - 1)]
    for i, a in enumerate(left):
        if a.is_zero:
            continue
        for j, b in enumerate(right):
            if b.is_zero:
                continue
            out[i + j] = out[i + j] + a.wedge(b)
    return tuple(out)


def cleared(coefficients: Coefficients) -> tuple[DifferentialForm, ...]:
    """The numerators h*alpha when the nonzero coefficient forms share one
    denominator h, else the forms unchanged.  h is parameter-free, so
    d(h a) wedge (h a) = h^2 (d a wedge a) vanishes coefficient for
    coefficient exactly when the original does, and stays polynomial."""
    dens = [form.den for form in coefficients if not form.is_zero]
    if all(den == dens[0] for den in dens):
        return tuple(DifferentialForm(form.n_vars, form.degree, form.components)
                     for form in coefficients)
    return tuple(coefficients)


def pencil_self_wedge(coefficients: Coefficients) -> tuple[DifferentialForm, ...]:
    """d(alpha^t) wedge alpha^t, one 3-form per power of t, on the cleared
    numerators."""
    alpha = cleared(coefficients)
    return pencil_wedge(pencil_d(alpha), alpha)


def frobenius_check(coefficients: Coefficients) -> bool:
    """Whether d(alpha^t) wedge alpha^t vanishes for every power of t."""
    return all(form.is_zero for form in pencil_self_wedge(coefficients))
