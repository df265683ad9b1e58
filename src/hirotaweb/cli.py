"""Command-line front end.

Subcommands: generate, verify, flatness, restrict, properties, oracle.
Output formats: text (default), json, latex.  Exit codes: 0 when every
check passed, 1 when a mathematical check failed, 2 on input or
configuration errors (including degenerate data).

The JSON report is byte for byte ``json.dumps(payload, indent=2,
sort_keys=True)`` of the payload with every polynomial replaced by its
``poly_to_json`` dict and every form by its ``to_json`` dict, but it is
written by ``_json_chunks``.  ``Report.objects`` holds the library values
themselves (P_k and Q_l, the restricted quotient, the flatness witness),
and the writer formats their terms straight into the text through the term
walk (``polynomials._Catalog``), one catalog per depth and call, with the
coefficient and exponent types checked at C speed first: each form's
denominator is walked once and each of its scalings written once, and no
per-term dict is built.  ``main`` writes the report chunk by chunk as it is
rendered (a form one component at a time), so the whole text is never held
at once; ``run`` and ``render`` return the same bytes joined.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Sequence, Union

from .errors import (DegenerateInterpolantError, DegenerateRestrictionError,
                     DimensionError, HirotaWebError, InexactNumberError,
                     WebSpecError)
from .interpolation import WebSpec, random_numeric_instances
from .forms import DifferentialForm
from .polynomials import MultiPoly, _Catalog, _check_count, poly_text
from .webs import (HirotaSolution, VerificationReport, _bound_text, build_solution,
                   flatness_check, restrict, restricted_nodes, structural_properties,
                   verify_hirota)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int
    k: int
    l: int
    lambdas: Optional[tuple[Fraction, ...]]   # None = symbolic nodes
    mode: str = "symbolic"
    trials: int = 3
    bound: int = 10 ** 6
    seed: int = 42
    fix: Optional[tuple[int, Fraction]] = None
    format: str = "text"
    out: Optional[str] = None


@dataclass
class Report:
    command: str
    spec: WebSpec
    results: list[dict] = field(default_factory=list)
    objects: dict = field(default_factory=dict)   # name -> MultiPoly or DifferentialForm
    lines: list[str] = field(default_factory=list)
    exit_code: int = EXIT_OK
    solution: Optional[HirotaSolution] = None   # set by generate, for the LaTeX view

    def add_result(self, name: str, ok: bool, detail: str) -> None:
        self.results.append(
            {"name": name, "status": "pass" if ok else "fail", "detail": detail})
        if not ok:
            self.exit_code = EXIT_CHECK_FAILED


def _parse_lambdas(text: str, n: int) -> Optional[tuple[Fraction, ...]]:
    if text == "symbolic":
        return None
    try:
        values = tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise WebSpecError(f"cannot parse node list {text!r}: {exc}") from exc
    if len(values) != n:
        raise WebSpecError(f"expected {n} nodes, got {len(values)}")
    return values


def _parse_fix(text: str) -> tuple[int, Fraction]:
    match = re.fullmatch(r"x(\d+)=(-?\d+(?:/\d+)?)", text.strip())
    if not match:
        raise WebSpecError(f"cannot parse --fix {text!r}; expected e.g. x4=0 or x2=-3/2")
    try:
        value = Fraction(match.group(2))
    except ZeroDivisionError as exc:
        raise WebSpecError(f"cannot parse --fix {text!r}: {exc}") from exc
    return int(match.group(1)), value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hirotaweb",
        description="Exact rational solutions of the dispersionless Hirota "
                    "system, with symbolic certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n", type=int, required=True, help="dimension")
        p.add_argument("--k", type=int, required=True, help="numerator degree")
        p.add_argument("--l", type=int, required=True, help="denominator degree")
        p.add_argument("--lambdas", default=None,
                       help="comma-separated exact nodes, or 'symbolic' "
                            "(default: 1,2,...,n)")
        p.add_argument("--format", choices=("text", "json", "latex"),
                       default="text")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="also write the report to this file")

    common(sub.add_parser("generate", help="emit the leading coefficients and the solution"))

    p_verify = sub.add_parser("verify", help="check the residual system over all triples")
    common(p_verify)
    p_verify.add_argument("--mode", choices=("symbolic", "sampled"), default="symbolic")
    p_verify.add_argument("--trials", type=int, default=3)
    p_verify.add_argument("--bound", type=int, default=10 ** 6)
    p_verify.add_argument("--seed", type=int, default=42)

    common(sub.add_parser("flatness", help="certify the web flat or nonflat"))

    p_restrict = sub.add_parser("restrict", help="fix one coordinate and re-verify")
    common(p_restrict)
    p_restrict.add_argument("--fix", required=True, metavar="x<i>=<rational>")

    common(sub.add_parser("properties", help="check the structural properties "
                                             "of the leading coefficients"))

    p_oracle = sub.add_parser("oracle", help="compare the determinant interpolant "
                                             "against exact elimination on random data")
    common(p_oracle)
    p_oracle.add_argument("--trials", type=int, default=100)
    p_oracle.add_argument("--seed", type=int, default=42)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    lambdas_text = args.lambdas
    if lambdas_text is None:
        lambdas_text = ",".join(str(i) for i in range(1, args.n + 1))
    lambdas = _parse_lambdas(lambdas_text, args.n)
    trials = getattr(args, "trials", 3)
    bound = getattr(args, "bound", 10 ** 6)
    if trials < 1:
        raise WebSpecError("--trials must be at least 1")
    if bound < 10 ** 3:
        raise WebSpecError("--bound must be at least 10^3")
    fix = _parse_fix(args.fix) if getattr(args, "fix", None) else None
    return RunConfig(
        command=args.command, n=args.n, k=args.k, l=args.l, lambdas=lambdas,
        mode=getattr(args, "mode", "symbolic"), trials=trials, bound=bound,
        seed=getattr(args, "seed", 42), fix=fix, format=args.format,
        out=args.out)


def _make_spec(config: RunConfig) -> WebSpec:
    return WebSpec(config.n, config.k, config.l, config.lambdas)


def _add_verification(report: Report, outcome: VerificationReport) -> None:
    """One result per triple (or one vacuous result in dimension 2), the
    sampling budget in sampled mode, and the summary line."""
    for check in outcome.checks:
        report.add_result(f"triple {check.triple}", check.ok, check.detail)
    if not outcome.checks:
        report.add_result("residual system", True,
                          "no triples in dimension 2: vacuously verified")
    if outcome.mode == "sampled":
        report.add_result(
            "schwartz-zippel budget", True,
            f"degree bound {outcome.degree_bound}, per-trial failure bound "
            f"{_bound_text(outcome.per_trial_failure_bound)}, "
            f"trials={outcome.trials}, bound={outcome.bound}, seed={outcome.seed}")
    report.lines.append(outcome.summary())


def execute(config: RunConfig, solution_override=None) -> Report:
    """Run one command; ``solution_override`` substitutes the solution under
    test (used by the exit-code contract tests)."""
    spec = _make_spec(config)
    report = Report(config.command, spec)
    names = spec.names()

    def solution():
        return solution_override if solution_override is not None else build_solution(spec)

    # Each view is built only under the format that prints it: at n >= 6 the
    # polynomials in it are large.
    json_view, text_view = config.format == "json", config.format == "text"

    if config.command == "generate":
        sol = report.solution = solution()
        if json_view:
            report.objects["P_k"] = sol.p_top
            report.objects["Q_l"] = sol.q_top
        elif text_view:
            p_text, q_text = poly_text(sol.p_top, names), poly_text(sol.q_top, names)
            report.lines.append(f"P_k = {p_text}")
            report.lines.append(f"Q_l = {q_text}")
            report.lines.append(f"f = ({p_text})/({q_text})")
        report.add_result("generate", True,
                          f"leading coefficients built for {spec.describe()}")
        return report

    if config.command == "verify":
        # Only the text view prints f, so only it builds f.  Without an
        # override the spec itself is verified, and verify_hirota builds f
        # only where it is not sampling symbolic nodes; f already built for
        # the text view is passed instead, so it is built at most once.
        sol = solution() if text_view or solution_override is not None else None
        samples_spec = (solution_override is None and spec.is_symbolic
                        and config.mode == "sampled")
        outcome = verify_hirota(spec if sol is None or samples_spec else sol,
                                mode=config.mode, trials=config.trials,
                                bound=config.bound, seed=config.seed)
        if text_view:
            report.lines.append(
                f"f = ({poly_text(sol.p_top, names)})/({poly_text(sol.q_top, names)})")
        _add_verification(report, outcome)
        return report

    if config.command == "flatness":
        verdict = flatness_check(spec)
        report.add_result("flatness", True, verdict.status)
        report.add_result(
            "alpha_1 integrable", True, str(verdict.alpha1_integrable))
        report.add_result(
            f"alpha_{spec.n - 2} integrable", True,
            str(verdict.cross_check_integrable))
        if spec.k >= 1 and spec.l >= 1:
            report.add_result("witness identity", True,
                              "d(alpha_1)^alpha_1 built as 2 dq1^dp0^dp1")
        if json_view or text_view:
            # The text view writes it after its lines (_render_chunks).
            report.objects["witness"] = verdict.witness
        if text_view:
            report.lines.append(f"verdict: {verdict.status}")
        return report

    if config.command == "restrict":
        if config.fix is None:
            raise WebSpecError("restrict needs --fix x<i>=<value>")
        coordinate, value = config.fix
        sol = solution()
        restricted = restrict(sol, coordinate, value)
        nodes = restricted_nodes(spec, coordinate)
        if json_view:
            report.objects["restricted_num"] = restricted.num
            report.objects["restricted_den"] = restricted.den
        elif text_view:
            report.lines.append(
                f"f with x{coordinate} = {value}, remaining coordinates reindexed:")
            reduced_names = [f"x{i}" for i in range(1, spec.n)]
            report.lines.append(f"  {restricted.text(reduced_names)}")
        _add_verification(report, verify_hirota(restricted, nodes=nodes))
        return report

    if config.command == "properties":
        for check in structural_properties(spec):
            report.add_result(check.name, check.ok, check.detail)
        return report

    if config.command == "oracle":
        _check_count("trials", config.trials, 1, "the oracle needs at least one trial")
        _check_count("seed", config.seed)
        if spec.is_symbolic:
            raise WebSpecError("the oracle comparison needs numeric nodes")
        matched = sum(ok for _, _, ok in random_numeric_instances(
            config.n, config.k, config.l, config.trials, config.seed))
        report.add_result(
            "determinant-vs-elimination", matched == config.trials,
            f"{matched}/{config.trials} random instances matched "
            f"(seed={config.seed})")
        return report

    raise WebSpecError(f"unknown command {config.command!r}")


# -- rendering -----------------------------------------------------------------


def _latex_names(spec: WebSpec) -> list[str]:
    out = [f"x_{{{i}}}" for i in range(1, spec.n + 1)]
    if spec.is_symbolic:
        out += [f"\\lambda_{{{i}}}" for i in range(1, spec.n + 1)]
    return out


_COEFFICIENTS, _EXPONENTS = frozenset((int, Fraction)), frozenset((int,))


def _refuse(types: set, allowed: frozenset) -> None:
    """The stdlib encoder's TypeError for a value of a type outside ``allowed``."""
    unwritable = types - allowed
    if unwritable:
        name = min(kind.__name__ for kind in unwritable)
        raise TypeError(f"Object of type {name} is not JSON serializable")


class _PolyLayout:
    """The fixed text of a polynomial written at one depth (``nl``, see
    ``_json_chunks``), and the term walk's catalog for that depth.  A
    monomial's text runs from the end of its term's "c" to the start of the
    next term's, and is cut at the last term for the closing of the list."""

    __slots__ = ("head", "first", "next_term", "close", "empty", "catalog")

    def __init__(self, nl: str):
        inner = nl + "  "
        item = inner + "  "
        field = item + "  "
        lead = "{" + field + '"c": "'
        self.head = "{" + inner + '"nvars": %d,' + inner + '"terms": '
        self.first, self.next_term = "[" + item + lead, "," + item + lead
        self.close, self.empty = inner + "]" + nl + "}", "[]" + nl + "}"
        exps, end = '",' + field + '"e": ', item + "}" + self.next_term
        self.catalog = _Catalog(lambda v, e: int.__repr__(e), "," + field + "  ",
                                exps + "[" + field + "  ", field + "]" + end, exps + "[]" + end)

    def pieces(self, n_vars: int, coeffs: Sequence, monomials: list[str]) -> list[str]:
        """A polynomial's text, in pieces, from its walked terms."""
        if not coeffs:
            return [self.head % n_vars + self.empty]
        pieces = [None] * (2 * len(coeffs) + 1)
        pieces[0] = self.head % n_vars + self.first
        pieces[1::2] = map(str, coeffs)
        pieces[2::2] = monomials
        pieces[-1] = pieces[-1][:-len(self.next_term)] + self.close
        return pieces


def _poly_json(poly: MultiPoly, nl: str, layouts: dict) -> list[str]:
    """``poly_to_json(poly)`` as ``_json_chunks`` writes it, in pieces: every
    coefficient must be an int or a Fraction, checked at C speed before
    anything is written, and every exponent held in a tuple an int."""
    _refuse(set(map(type, poly._coefficients())), _COEFFICIENTS)
    terms = poly._terms
    if terms is not None:
        _refuse(set(map(type, chain.from_iterable(terms))), _EXPONENTS)
    layout = layouts.get(nl) or layouts.setdefault(nl, _PolyLayout(nl))
    return layout.pieces(poly.n_vars, *layout.catalog.walk(poly))


def _form_json(form: DifferentialForm, nl: str, layouts: dict) -> Iterator[list[str]]:
    """``form.to_json()`` as ``_json_chunks`` writes it, one chunk per
    component, each distinct denominator scaling (g, m) written once.  The
    coefficient types are checked before normalizing, which would turn a
    bool into an int and fail on a float."""
    inner = nl + "  "
    item = inner + "  "
    field = item + "  "
    _refuse(set(chain.from_iterable(map(type, poly._coefficients())
                                    for poly in (form.den, *form.components.values()))),
            _COEFFICIENTS)
    layout = layouts.get(field) or layouts.setdefault(field, _PolyLayout(field))
    den_pieces: dict[tuple[int, int], list[str]] = {}
    yield ["{" + inner + '"components": ']
    for position, (idx, num, den, key) in enumerate(form._normalized(layout.catalog.walk)):
        if key not in den_pieces:
            den_pieces[key] = layout.pieces(form.n_vars, *den)
        yield [("," if position else "[") + item + "{" + field + '"den": ', *den_pieces[key],
               "," + field + '"idx": ', *_json_pieces([i + 1 for i in idx], field, layouts),
               "," + field + '"num": ', *layout.pieces(form.n_vars, *num), item + "}"]
    yield [(inner + "]," if form.components else "[],") + inner + '"degree": '
           + int.__repr__(form.degree) + nl + "}"]


def _json_chunks(value, nl: str, layouts: dict) -> Iterator[list[str]]:
    """``value`` as the stdlib's JSON encoder writes it with ``indent=2,
    sort_keys=True``, in chunks of text pieces, continuing lines with
    ``nl`` (a newline plus the indent of the line ``value`` starts on).
    Only str, int, bool, None, list, dict with str keys, MultiPoly and
    DifferentialForm are accepted: anything else, floats included, is a
    TypeError.  A MultiPoly is written as its ``poly_to_json`` dict and a
    DifferentialForm as its ``to_json`` dict; ``layouts`` keeps the
    templates and catalogs of each depth for the whole call."""
    if isinstance(value, str):
        yield [encode_basestring_ascii(value)]
    elif value is None:
        yield ["null"]
    elif value is True:
        yield ["true"]
    elif value is False:
        yield ["false"]
    elif isinstance(value, int):
        yield [int.__repr__(value)]
    elif isinstance(value, list):
        if not value:
            yield ["[]"]
            return
        inner = nl + "  "
        yield ["[" + inner]
        for position, item in enumerate(value):
            if position:
                yield ["," + inner]
            yield from _json_chunks(item, inner, layouts)
        yield [nl + "]"]
    elif isinstance(value, dict):
        if not value:
            yield ["{}"]
            return
        inner = nl + "  "
        yield ["{" + inner]
        for position, key in enumerate(sorted(value)):
            yield [("," + inner if position else "") + encode_basestring_ascii(key) + ": "]
            yield from _json_chunks(value[key], inner, layouts)
        yield [nl + "}"]
    elif isinstance(value, MultiPoly):
        yield _poly_json(value, nl, layouts)
    elif isinstance(value, DifferentialForm):
        yield from _form_json(value, nl, layouts)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_pieces(value, nl: str, layouts: dict) -> list[str]:
    return list(chain.from_iterable(_json_chunks(value, nl, layouts)))


def _json_text(payload) -> str:
    """The report exactly as the stdlib's JSON encoder writes it with
    ``indent=2, sort_keys=True`` (polynomials and forms as their JSON
    dicts), without that encoder's per-token generators."""
    return "".join(_json_pieces(payload, "\n", {}))


def _render_chunks(report: Report, fmt: str) -> Iterator[list[str]]:
    """The rendered report in chunks of text pieces: a form one component
    at a time."""
    if fmt == "json":
        payload = {
            "command": report.command,
            "spec": {
                "n": report.spec.n,
                "k": report.spec.k,
                "l": report.spec.l,
                "lambdas": ("symbolic" if report.spec.is_symbolic
                            else [str(v) for v in report.spec.lambdas]),
            },
            "results": report.results,
            "objects": report.objects,
        }
        yield from _json_chunks(payload, "\n", {})
        return
    if fmt == "latex":
        lines = [f"% {report.command} for {report.spec.describe()}"]
        if report.command == "generate":
            sol = report.solution
            names = _latex_names(report.spec)
            lines.append("\\[")
            lines.append(f"f = \\frac{{{poly_text(sol.p_top, names, latex=True)}}}"
                         f"{{{poly_text(sol.q_top, names, latex=True)}}}")
            lines.append("\\]")
        lines.append("\\begin{itemize}")
        for result in report.results:
            name = result["name"].replace("_", "\\_")
            detail = result["detail"].replace("_", "\\_").replace("^", "\\^{}")
            lines.append(f"\\item {name}: {result['status']} ({detail})")
        lines.append("\\end{itemize}")
        yield ["\n".join(lines)]
        return
    # text
    yield [f"{report.command}: {report.spec.describe()}"]
    for line in report.lines:
        yield ["\n", line]
    if "witness" in report.objects:
        yield ["\nwitness d(alpha_1)^alpha_1 = "]
        yield from ([piece] for piece in report.objects["witness"]._text_chunks(
            report.spec.names()))
    lines = [f"[{result['status'].upper()}] {result['name']}: {result['detail']}"
             for result in report.results]
    overall = "OK" if report.exit_code == EXIT_OK else "CHECK FAILED"
    lines.append(f"result: {overall} (exit {report.exit_code})")
    yield ["\n", "\n".join(lines)]


def render(report: Report, fmt: str) -> str:
    return "".join(chain.from_iterable(_render_chunks(report, fmt)))


def _outcome(config: RunConfig, solution_override=None) -> tuple[int, Union[Report, str]]:
    """(exit code, report) of a command, or (exit code, message) when it
    fails with a library error."""
    try:
        report = execute(config, solution_override=solution_override)
    except (WebSpecError, DimensionError, InexactNumberError,
            DegenerateInterpolantError, DegenerateRestrictionError) as exc:
        return EXIT_CONFIG, f"error: {exc}"
    except HirotaWebError as exc:
        return EXIT_CHECK_FAILED, f"mathematical check failed: {exc}"
    return report.exit_code, report


def run(config: RunConfig, solution_override=None) -> tuple[int, str]:
    """Execute a command and render its report; returns (exit code, text)."""
    code, outcome = _outcome(config, solution_override)
    return code, outcome if isinstance(outcome, str) else render(outcome, config.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The command line: ``run``'s text and a newline to stdout, and with
    ``--out`` to a file too, written chunk by chunk as it is rendered: the
    file is opened with the first chunk and closed however the writing
    ends."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (WebSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    code, outcome = _outcome(config)
    if code == EXIT_CONFIG:
        print(outcome, file=sys.stderr)
        return code
    chunks = ([outcome] if isinstance(outcome, str)
              else map("".join, _render_chunks(outcome, config.format)))
    handle = failure = None
    try:
        for chunk in chain(chunks, ["\n"]):
            sys.stdout.write(chunk)
            if config.out and failure is None:
                try:
                    handle = handle or open(config.out, "w", encoding="utf-8")
                    handle.write(chunk)
                except OSError as exc:
                    failure = exc
    finally:
        if handle is not None:
            try:
                handle.close()
            except OSError as exc:
                failure = failure or exc
    if failure is not None:
        print(f"error: cannot write --out file: {failure}", file=sys.stderr)
        return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
