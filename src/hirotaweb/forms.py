"""The witness container: alternating forms with polynomial components over
one denominator per form.

A degree-g form maps strictly increasing g-tuples of 0-based variable indices
to polynomial numerators (zero components are never stored; the degree-0
form has the single key ()) and carries one nonzero polynomial denominator
for all of them (1 for polynomial forms).  Nothing is normalized: equality
cross-multiplies, and every writer of a form (``text``, ``to_json`` and the
CLI's JSON writer) reads one normal form, ``_normalized``: each component
with the scaling that normalizes it as RationalFunction would, applied as
the terms are written, each denominator scaling written once.  Of the
exterior algebra, only the operations that the benchmark's trace names stay:
wedge products with merge-inversion signs, the exterior derivative (one sum
of products per component, differentiating every ring variable, so forms
should be built over rings whose variables are all genuine coordinates) and
scaling.  Sums, coordinate forms and evaluation of a pencil live with the
tests, as their oracle.

LambdaForm holds forms of one ring and degree as the coefficients of a
polynomial in a spectral parameter: the annihilating pencil of
``veronese_form``, whose integrability is the residual verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .errors import DimensionError
from .polynomials import (MultiPoly, Scalar, _Catalog, _check_count, _check_n_vars,
                          _json_terms, _signed_text, _sum_of_products, _text_catalog,
                          default_names)
from .ratfunc import RationalFunction, _content, _normalizer, _scaled_values

Index = tuple[int, ...]
Numerator = Union[MultiPoly, Scalar]
Coefficient = Union[RationalFunction, MultiPoly, Scalar]


def _poly(value: Numerator, n_vars: int) -> MultiPoly:
    return value if isinstance(value, MultiPoly) else MultiPoly.const(n_vars, value)


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
        _check_n_vars(n_vars)
        _check_count("form degree", degree, 0, "negative form degree", DimensionError)
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
            for i in idx:
                _check_count("component index", i, error=DimensionError)
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

    # -- exterior algebra --------------------------------------------------------------

    def scale(self, factor: Coefficient) -> "DifferentialForm":
        """Multiply every component by a function (0-form scaling)."""
        den = self.den
        if isinstance(factor, RationalFunction):
            factor, den = factor.num, den * factor.den
        factor = _poly(factor, self.n_vars)
        return DifferentialForm(self.n_vars, self.degree,
                                {idx: c * factor for idx, c in self.components.items()},
                                den)

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
        """d(w/h) as one sum of products per output index J: with
        s = (-1)^#{i in J minus v : i < v} for each v in J, the quotient rule
        d(w/h) = (h dw - dh^w)/h^2 gives the parts (h, d_v w_(J minus v), s)
        and (d_v h, w_(J minus v), -s) over h^2, and a constant h the parts
        (d_v w_(J minus v), 1, s) over h."""
        n, h = self.n_vars, self.den
        constant = h.is_constant
        if constant:
            one = MultiPoly.one(n)
        else:
            partials_h = [h.derivative(v) for v in range(n)]
        parts: dict[Index, list] = {}
        for idx, coeff in self.components.items():
            for v in range(n):
                if v in idx:
                    continue
                sign = -1 if sum(1 for i in idx if i < v) % 2 else 1
                group = parts.setdefault(tuple(sorted(idx + (v,))), [])
                if constant:
                    group.append((coeff.derivative(v), one, sign))
                else:
                    group.append((h, coeff.derivative(v), sign))
                    group.append((partials_h[v], coeff, -sign))
        out = {idx: _sum_of_products(n, group) for idx, group in parts.items()}
        return DifferentialForm(n, self.degree + 1, out, h if constant else h * h)

    # -- output -----------------------------------------------------------------------

    def text(self, names: Optional[Sequence[str]] = None) -> str:
        """``body dx1^dx3 + ...`` in index order, "0" for the zero form: each
        body is its ``_normalized`` quotient ``(num)/(den)``, the
        denominator walked once and each of its scalings written once, or
        over a constant d the numerator times 1/d."""
        return "".join(self._text_chunks(names))

    def _text_chunks(self, names: Optional[Sequence[str]] = None) -> Iterator[str]:
        """``text`` one component at a time."""
        if not self.components:
            yield "0"
            return
        names = names or default_names(self.n_vars)
        constant = self.den.is_constant
        den_text: dict[tuple[int, int], str] = {}
        for position, (idx, (coeffs, monomials), den, key) in enumerate(
                self._normalized(_text_catalog(names, False).walk)):
            if constant:
                body = _signed_text([Fraction(c, den[0][0]) for c in coeffs], monomials, False)
            else:
                if key not in den_text:
                    den_text[key] = _signed_text(*den, False)
                body = f"({_signed_text(coeffs, monomials, False)})/({den_text[key]})"
            if (" + " in body or " - " in body) and not body.startswith("("):
                body = f"({body})"
            basis = "^".join(f"d{names[i]}" for i in idx)
            yield (" + " if position else "") + f"{body} {basis}".strip()

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"DifferentialForm(degree={self.degree}, {self.text()!r})"

    def _normalized(self, walk: Callable[[MultiPoly], tuple[list, list]]
                    ) -> Iterator[tuple[Index, tuple[list, list], tuple[list, list],
                                        tuple[int, int]]]:
        """Each component as its quotient normalized as RationalFunction
        normalizes it (num * m / g over den * m / g), in index order, as
        (idx, numerator, denominator, (g, m)): each polynomial as its terms
        from the writer's term walk ``walk``, (coefficients, monomials),
        the coefficients scaled as lists, so no scaled polynomial is built.
        The denominator is walked once and its content and leading sign read
        once; each of its scalings is yielded as the same pair every time,
        for a writer to write once.  Each numerator's content is read off
        the map it keeps, which refuses an inexact coefficient."""
        if not self.components:
            return
        den_coeffs, den_monomials = walk(self.den)
        den_content, den_negative = _content(den_coeffs), den_coeffs[0] < 0
        dens: dict[tuple[int, int], tuple[list, list]] = {}
        for idx in sorted(self.components):
            num = self.components[idx]
            g, m = key = _normalizer(num, den_content, den_negative)
            if key not in dens:
                dens[key] = _scaled_values(den_coeffs, m, g), den_monomials
            coeffs, monomials = walk(num)
            yield idx, (_scaled_values(coeffs, m, g), monomials), dens[key], key

    def to_json(self) -> dict:
        """JSON form: ``{"degree": g, "components": [{"idx": [1-based
        indices], "num": ..., "den": ...}, ...]}`` in index order, each
        component its normalized quotient as two ``poly_to_json`` dicts.
        Components with one denominator scaling share its dict."""
        den_json: dict[tuple[int, int], dict] = {}
        components = []
        for idx, num, den, key in self._normalized(_Catalog().walk):
            if key not in den_json:
                den_json[key] = {"nvars": self.n_vars, "terms": _json_terms(*den)}
            components.append({"idx": [i + 1 for i in idx],
                               "num": {"nvars": self.n_vars, "terms": _json_terms(*num)},
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
