"""Command-line front end.

Subcommands: generate, verify, flatness, restrict, properties, oracle.
Output formats: text (default), json, latex.  Exit codes: 0 when every
check passed, 1 when a mathematical check failed, 2 on input or
configuration errors (including degenerate data).

The JSON report is byte for byte ``json.dumps(payload, indent=2,
sort_keys=True)`` of the payload with every polynomial replaced by its
``poly_to_json`` dict and every form by its ``to_json`` dict, but it is
written by ``_json_text``.  ``Report.objects`` holds the library values
themselves (P_k and Q_l, the restricted quotient, the flatness witness),
and the writer formats their packed maps straight into the text: one
template per depth, each packed key of a ring and width decoded once per
call into a graded-lex rank and its exponent list's text, each polynomial
one sort of its keys by rank, each distinct denominator scaling of a form
written once, and the coefficient and exponent types checked at C speed
first, so no per-term dict is built or inspected and a polynomial built
packed is never unpacked.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .errors import (DegenerateInterpolantError, DegenerateRestrictionError,
                     DimensionError, HirotaWebError, InexactNumberError,
                     WebSpecError)
from .interpolation import WebSpec, random_numeric_instances
from .forms import DifferentialForm
from .polynomials import MultiPoly, _check_count, _graded_keys, poly_text
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
        if json_view:
            report.objects["witness"] = verdict.witness
        elif text_view:
            report.lines.append(f"verdict: {verdict.status}")
            report.lines.append(
                f"witness d(alpha_1)^alpha_1 = {verdict.witness.text(names)}")
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
    ``_json_value``): one template per part, and one catalog per ring and
    packed width met at that depth."""

    __slots__ = ("head", "open", "sep", "close", "term", "exps_open", "exps_sep",
                 "exps_close", "catalogs")

    def __init__(self, nl: str):
        inner = nl + "  "
        item = inner + "  "
        field = item + "  "
        self.head = "{" + inner + '"nvars": %d,' + inner + '"terms": '
        self.open, self.sep, self.close = "[" + item, "," + item, inner + "]" + nl + "}"
        self.term = "{" + field + '"c": "%s",' + field + '"e": %s' + item + "}"
        self.exps_open, self.exps_sep = "[" + field + "  ", "," + field + "  "
        self.exps_close = field + "]"
        self.catalogs: dict[tuple[int, int], tuple[dict, dict]] = {}

    def catalog(self, n_vars: int, width: int, keys) -> tuple[dict, dict]:
        """(rank, text) for the packed keys of one ring and width: rank maps a
        key to its graded-lex rank (``_graded_keys``) and text to its
        exponent list as written at this depth.  A key is decoded the first
        time it is met and kept for the whole call."""
        catalog = self.catalogs.get((n_vars, width))
        if catalog is None:
            catalog = self.catalogs[n_vars, width] = ({}, {})
        rank, text = catalog
        unseen = keys - rank.keys()
        if unseen:
            unseen, ranks, exps = _graded_keys(n_vars, width, unseen)
            exps_text = (self.exps_open + self.exps_sep.join(["%d"] * n_vars)
                         + self.exps_close) if n_vars else "[]"
            rank.update(zip(unseen, ranks))
            text.update(zip(unseen, map(exps_text.__mod__, exps)))
        return catalog


def _poly_json(poly: MultiPoly, nl: str, out: list[str], layouts: dict) -> None:
    """Append ``poly_to_json(poly)`` as ``_json_value`` writes it, from the
    packed map: every coefficient must be an int or a Fraction, checked at
    C speed before anything is written, and the terms are one sort of the
    packed keys by their catalog rank, so a polynomial built packed is
    never unpacked.  One that holds exponent tuples has them checked for
    int exponents first, and one held as exponent tuples only is packed
    once."""
    _refuse(set(map(type, poly._coefficients())), _COEFFICIENTS)
    terms = poly._terms
    if terms is not None:
        _refuse(set(map(type, chain.from_iterable(terms))), _EXPONENTS)
    packed, width = poly._packed_map()
    layout = layouts.get(nl)
    if layout is None:
        layout = layouts[nl] = _PolyLayout(nl)
    out.append(layout.head % poly.n_vars)
    if not packed:
        out.append("[]" + nl + "}")
        return
    rank, text = layout.catalog(poly.n_vars, width, packed.keys())
    template = layout.term
    out += layout.open, layout.sep.join([
        template % (packed[key], text[key])
        for key in sorted(packed, key=rank.__getitem__, reverse=True)]), layout.close


def _form_json(form: DifferentialForm, nl: str, out: list[str], layouts: dict) -> None:
    """Append ``form.to_json()`` as ``_json_value`` writes it: each distinct
    denominator scaling is written once, on first use, keyed by its (g, m).
    The coefficient types are checked before normalizing, which would turn
    a bool into an int and fail on a float."""
    inner = nl + "  "
    item = inner + "  "
    field = item + "  "
    _refuse(set(chain.from_iterable(map(type, poly._coefficients())
                                    for poly in (form.den, *form.components.values()))),
            _COEFFICIENTS)
    den_text: dict[tuple[int, int], str] = {}
    out.append("{" + inner + '"components": ')
    for position, (idx, num, key, den) in enumerate(form._normalized()):
        if key not in den_text:
            text: list[str] = []
            _poly_json(den, field, text, layouts)
            den_text[key] = "".join(text)
        out += ("," if position else "[", item + "{" + field + '"den": ', den_text[key],
                "," + field + '"idx": ')
        _json_value([i + 1 for i in idx], field, out, layouts)
        out.append("," + field + '"num": ')
        _poly_json(num, field, out, layouts)
        out.append(item + "}")
    out.append((inner + "]," if form.components else "[],") + inner + '"degree": '
               + int.__repr__(form.degree) + nl + "}")


def _json_value(value, nl: str, out: list[str], layouts: dict) -> None:
    """Append ``value`` as the stdlib's JSON encoder writes it with
    ``indent=2, sort_keys=True``, continuing lines with ``nl`` (a newline
    plus the indent of the line ``value`` starts on).  Only str, int, bool,
    None, list, dict with str keys, MultiPoly and DifferentialForm are
    accepted: anything else, floats included, is a TypeError.  A MultiPoly
    is written as its ``poly_to_json`` dict and a DifferentialForm as its
    ``to_json`` dict, straight from their packed maps; ``layouts`` keeps the
    polynomial templates and catalogs of each depth for the whole call."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        out.append("[" + inner)
        for position, item in enumerate(value):
            if position:
                out.append("," + inner)
            _json_value(item, inner, out, layouts)
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{" + inner)
        for position, key in enumerate(sorted(value)):
            if position:
                out.append("," + inner)
            out.append(encode_basestring_ascii(key) + ": ")
            _json_value(value[key], inner, out, layouts)
        out.append(nl + "}")
    elif isinstance(value, MultiPoly):
        _poly_json(value, nl, out, layouts)
    elif isinstance(value, DifferentialForm):
        _form_json(value, nl, out, layouts)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """The report exactly as the stdlib's JSON encoder writes it with
    ``indent=2, sort_keys=True`` (polynomials and forms as their JSON
    dicts), without that encoder's per-token generators."""
    out: list[str] = []
    _json_value(payload, "\n", out, {})
    return "".join(out)


def render(report: Report, fmt: str) -> str:
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
        return _json_text(payload)
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
        return "\n".join(lines)
    # text
    lines = [f"{report.command}: {report.spec.describe()}"]
    lines.extend(report.lines)
    for result in report.results:
        lines.append(f"[{result['status'].upper()}] {result['name']}: {result['detail']}")
    overall = "OK" if report.exit_code == EXIT_OK else "CHECK FAILED"
    lines.append(f"result: {overall} (exit {report.exit_code})")
    return "\n".join(lines)


def run(config: RunConfig, solution_override=None) -> tuple[int, str]:
    """Execute a command and render its report; returns (exit code, text)."""
    try:
        report = execute(config, solution_override=solution_override)
    except (WebSpecError, DimensionError, InexactNumberError,
            DegenerateInterpolantError, DegenerateRestrictionError) as exc:
        return EXIT_CONFIG, f"error: {exc}"
    except HirotaWebError as exc:
        return EXIT_CHECK_FAILED, f"mathematical check failed: {exc}"
    return report.exit_code, render(report, config.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except (WebSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    code, text = run(config)
    if code == EXIT_CONFIG:
        print(text, file=sys.stderr)
        return code
    print(text)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write --out file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return code


if __name__ == "__main__":
    sys.exit(main())
