"""Exterior algebra with polynomial components over one denominator per form.

A degree-g form maps strictly increasing g-tuples of 0-based variable indices
to polynomial numerators (zero components are never stored; the degree-0
form has the single key ()) and carries one nonzero polynomial denominator
for all of them (1 for polynomial forms).  Nothing is normalized: equality
cross-multiplies, and every writer of a form (``text``, ``to_json`` and the
CLI's JSON writer) reads one normal form, ``_normalized``: each component as
RationalFunction would normalize it, each denominator scaling once.  Wedge
products use merge-inversion signs, and the exterior derivative
differentiates every ring variable, so forms should be built over rings
whose variables are all genuine coordinates (numeric-node mode).

LambdaForm holds forms of one ring and degree as the coefficients of a
polynomial in a spectral parameter, pencil and coframe alike, and evaluates
it at a number; the pencil's integrability is the residual verdict.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DimensionError
from .polynomials import (MultiPoly, Scalar, _exact, _horner, _sum_of_products,
                          poly_text, poly_to_json)
from .ratfunc import RationalFunction, _content, _normalizer, _scaled

Index = tuple[int, ...]
Numerator = Union[MultiPoly, Scalar]
Coefficient = Union[RationalFunction, MultiPoly, Scalar]


def _poly(value: Numerator, n_vars: int) -> MultiPoly:
    return value if isinstance(value, MultiPoly) else MultiPoly.const(n_vars, value)


def _accumulate(out: dict[Index, MultiPoly], idx: Index, piece: MultiPoly) -> None:
    cur = out.get(idx)
    out[idx] = piece if cur is None else cur + piece


def _merge_indices(left: Index, right: Index) -> Optional[tuple[int, Index]]:
    """Merge two increasing index tuples; None if they share an index.

    Returns (sign, merged) where sign is the parity of the shuffle that
    sorts the concatenation.
    """
    if not left:
        return 1, right
    if not right:
        return 1, left
    inversions = 0
    for a in left:
        for b in right:
            if a == b:
                return None
            if b < a:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


class DifferentialForm:
    """Alternating form of fixed degree: polynomial numerators over one
    denominator ``den``."""

    __slots__ = ("n_vars", "degree", "components", "den")

    def __init__(self, n_vars: int, degree: int,
                 components: Optional[Mapping[Index, Numerator]] = None,
                 den: Numerator = 1):
        if degree < 0:
            raise DimensionError("negative form degree")
        self.n_vars = n_vars
        self.degree = degree
        self.den = _poly(den, n_vars)
        if self.den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        if self.den.n_vars != n_vars:
            raise DimensionError("form denominator from a different ring")
        clean: dict[Index, MultiPoly] = {}
        for idx, value in (components or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise DimensionError(f"component {idx} has wrong arity for degree {degree}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise DimensionError(f"component index {idx} is not strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= n_vars):
                raise DimensionError(f"component index {idx} out of range")
            coeff = _poly(value, n_vars)
            if coeff.is_zero:
                continue
            if coeff.n_vars != n_vars:
                raise DimensionError("component coefficient from a different ring")
            clean[idx] = coeff
        self.components = clean

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int, degree: int) -> "DifferentialForm":
        return cls(n_vars, degree)

    @classmethod
    def from_function(cls, value: Coefficient, n_vars: Optional[int] = None) -> "DifferentialForm":
        """Wrap a scalar/polynomial/rational function as a 0-form."""
        if isinstance(value, RationalFunction):
            return cls(value.n_vars, 0, {(): value.num}, value.den)
        if isinstance(value, MultiPoly):
            n_vars = value.n_vars
        elif n_vars is None:
            raise DimensionError("n_vars required for a scalar 0-form")
        return cls(n_vars, 0, {(): value})

    @classmethod
    def dx(cls, n_vars: int, var: int) -> "DifferentialForm":
        """The coordinate 1-form for the 0-based variable ``var``."""
        if not 0 <= var < n_vars:
            raise DimensionError(f"variable index {var} out of range")
        return cls(n_vars, 1, {(var,): 1})

    # -- predicates --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, idx: Iterable[int]) -> RationalFunction:
        num = self.components.get(tuple(idx), MultiPoly.zero(self.n_vars))
        return RationalFunction(num, self.den)

    def __eq__(self, other: object) -> bool:
        """Cross-multiplication, component by component."""
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if (self.n_vars != other.n_vars or self.degree != other.degree
                or self.components.keys() != other.components.keys()):
            return False
        if self.den == other.den:
            return self.components == other.components
        return all(coeff * other.den == other.components[idx] * self.den
                   for idx, coeff in self.components.items())

    __hash__ = None

    # -- linear structure ----------------------------------------------------------

    def _check_compatible(self, other: "DifferentialForm") -> None:
        if self.n_vars != other.n_vars:
            raise DimensionError("forms over different rings")
        if self.degree != other.degree:
            raise DimensionError("forms of different degree")

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compatible(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.den == other.den:
            out, den = dict(self.components), self.den
            for idx, coeff in other.components.items():
                _accumulate(out, idx, coeff)
        else:
            out = {idx: c * other.den for idx, c in self.components.items()}
            for idx, coeff in other.components.items():
                _accumulate(out, idx, coeff * self.den)
            den = self.den * other.den
        return DifferentialForm(self.n_vars, self.degree, out, den)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(self.n_vars, self.degree,
                                {idx: -c for idx, c in self.components.items()},
                                self.den)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self.__add__(other.__neg__())

    def scale(self, factor: Coefficient) -> "DifferentialForm":
        """Multiply every component by a function (0-form scaling)."""
        den = self.den
        if isinstance(factor, RationalFunction):
            factor, den = factor.num, den * factor.den
        factor = _poly(factor, self.n_vars)
        return DifferentialForm(self.n_vars, self.degree,
                                {idx: c * factor for idx, c in self.components.items()},
                                den)

    def __mul__(self, factor: Coefficient) -> "DifferentialForm":
        return self.scale(factor)

    __rmul__ = __mul__

    # -- exterior algebra --------------------------------------------------------------

    def _wedge_parts(self, other: "DifferentialForm") -> dict[Index, list]:
        """The numerator products of ``self ^ other``, grouped by output
        index: each group's ``_sum_of_products`` is that component."""
        if self.n_vars != other.n_vars:
            raise DimensionError("forms over different rings")
        parts: dict[Index, list] = {}
        for idx_a, coeff_a in self.components.items():
            for idx_b, coeff_b in other.components.items():
                merged = _merge_indices(idx_a, idx_b)
                if merged is None:
                    continue
                sign, idx = merged
                parts.setdefault(idx, []).append((coeff_a, coeff_b, sign))
        return parts

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        out = {idx: _sum_of_products(self.n_vars, group)
               for idx, group in self._wedge_parts(other).items()}
        return DifferentialForm(self.n_vars, self.degree + other.degree, out,
                                self.den * other.den)

    def exterior_derivative(self) -> "DifferentialForm":
        """d(f dx_I) summed over the numerators: each variable differentiates
        f and wedges in from the left with the appropriate shuffle sign.  A
        nonconstant denominator h then takes the quotient rule
        d(w/h) = (h dw - dh^w)/h^2."""
        n, degree = self.n_vars, self.degree
        out: dict[Index, MultiPoly] = {}
        for idx, coeff in self.components.items():
            for var in range(n):
                if var in idx:
                    continue
                partial = coeff.derivative(var)
                if partial.is_zero:
                    continue
                position = sum(1 for i in idx if i < var)
                _accumulate(out, tuple(sorted(idx + (var,))),
                            -partial if position % 2 else partial)
        h = self.den
        if h.is_constant:
            return DifferentialForm(n, degree + 1, out, h)
        dh = DifferentialForm.from_function(h).exterior_derivative()
        top = (DifferentialForm(n, degree + 1, out).scale(h)
               - dh.wedge(DifferentialForm(n, degree, self.components)))
        return DifferentialForm(n, degree + 1, top.components, h * h)

    # -- output -----------------------------------------------------------------------

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        """``body dx1^dx3 + ...`` in index order, "0" for the zero form: each
        body is its ``_normalized`` quotient ``(num)/(den)``, each denominator
        scaling rendered once, or over a constant d the numerator times 1/d."""
        if not self.components:
            return "0"
        names = names or [f"x{i + 1}" for i in range(self.n_vars)]
        den_text: dict[tuple[int, int], str] = {}
        pieces = []
        for idx, num, key, den in self._normalized():
            if den.is_constant:
                body = poly_text(num * (1 / den.constant_value()), names)
            else:
                if key not in den_text:
                    den_text[key] = poly_text(den, names)
                body = f"({poly_text(num, names)})/({den_text[key]})"
            if (" + " in body or " - " in body) and not body.startswith("("):
                body = f"({body})"
            basis = "^".join(f"d{names[i]}" for i in idx)
            pieces.append(f"{body} {basis}".strip())
        return " + ".join(pieces)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"DifferentialForm(degree={self.degree}, {self.text()!r})"

    def _normalized(self) -> Iterator[tuple[Index, MultiPoly, tuple[int, int], MultiPoly]]:
        """Each component as its normalized quotient, scaled as
        RationalFunction scales it, yielded one at a time in index order as
        (idx, numerator, (g, m), denominator), so a writer holds one scaled
        numerator at a time.  The shared denominator's content and leading
        sign are read once, off the map it keeps, so a denominator built
        packed is not unpacked, and per component only the numerator's
        content is, so each distinct scaling (g, m) of the denominator is
        computed once and yielded as the same object, which a writer
        renders once."""
        den_content = _content(self.den)
        den_negative = self.den.leading_term()[1] < 0
        dens: dict[tuple[int, int], MultiPoly] = {}
        for idx in sorted(self.components):
            num = self.components[idx]
            g, m = key = _normalizer(num, den_content, den_negative)
            if key not in dens:
                dens[key] = _scaled(self.den, m, g)
            yield idx, _scaled(num, m, g), key, dens[key]

    def to_json(self) -> dict:
        """JSON form: ``{"degree": g, "components": [{"idx": [1-based
        indices], "num": ..., "den": ...}, ...]}`` in index order, each
        component its normalized quotient as two ``poly_to_json`` dicts.
        Components with one denominator scaling share its dict."""
        den_json: dict[tuple[int, int], dict] = {}
        components = []
        for idx, num, key, den in self._normalized():
            if key not in den_json:
                den_json[key] = poly_to_json(den)
            components.append({"idx": [i + 1 for i in idx], "num": poly_to_json(num),
                               "den": den_json[key]})
        return {"degree": self.degree, "components": components}


class LambdaForm:
    """A polynomial in the spectral parameter whose coefficients are forms."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[DifferentialForm]):
        if not coefficients:
            raise DimensionError("a LambdaForm needs at least one coefficient")
        shape = (coefficients[0].n_vars, coefficients[0].degree)
        if any((form.n_vars, form.degree) != shape for form in coefficients):
            raise DimensionError("LambdaForm coefficients must match in ring and degree")
        self.coefficients = tuple(coefficients)

    def at(self, value: Scalar) -> DifferentialForm:
        """Evaluate the parameter polynomial at an exact number."""
        return _horner(self.coefficients, _exact(value))
