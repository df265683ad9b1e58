"""The per-component form renderer: an independent route to a form's text.

``DifferentialForm.text`` renders from the form's one normal form
(``_normalized``), each denominator scaling once.  This route renders every
component as its own ``RationalFunction``, normalized on its own and
printed by ``RationalFunction.text``, shared denominator included, and is
the oracle the tests compare the library's text against.
"""

from typing import Optional, Sequence

from hirotaweb import DifferentialForm


def form_text(form: DifferentialForm, names: Optional[Sequence[str]] = None) -> str:
    if not form.components:
        return "0"
    names = names or [f"x{i + 1}" for i in range(form.n_vars)]
    pieces = []
    for idx in sorted(form.components):
        body = form.component(idx).text(names)
        if (" + " in body or " - " in body) and not body.startswith("("):
            body = f"({body})"
        basis = "^".join(f"d{names[i]}" for i in idx)
        pieces.append(f"{body} {basis}".strip())
    return " + ".join(pieces)
