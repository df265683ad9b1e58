"""Command-line front end.

Subcommands: generate, verify, flatness, restrict, properties, oracle.
Output formats: text (default), json, latex.  Exit codes: 0 when every
check passed, 1 when a mathematical check failed, 2 on input or
configuration errors (including degenerate data).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (DegenerateInterpolantError, DegenerateRestrictionError,
                     DimensionError, HirotaWebError, WebSpecError)
from .interpolation import (WebSpec, interpolation_check,
                            random_numeric_instances)
from .polynomials import poly_text, poly_to_json
from .webs import (HirotaSolution, build_solution, flatness_check, restrict,
                   restricted_nodes, structural_properties, verify_hirota)

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
    objects: dict = field(default_factory=dict)
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
    return int(match.group(1)), Fraction(match.group(2))


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


def execute(config: RunConfig, solution_override=None) -> Report:
    """Run one command; ``solution_override`` substitutes the solution under
    test (used by the exit-code contract tests)."""
    spec = _make_spec(config)
    report = Report(config.command, spec)
    names = spec.names()

    def solution():
        return solution_override if solution_override is not None else build_solution(spec)

    if config.command == "generate":
        sol = report.solution = solution()
        report.objects["P_k"] = poly_to_json(sol.p_top)
        report.objects["Q_l"] = poly_to_json(sol.q_top)
        report.lines.append(f"P_k = {poly_text(sol.p_top, names)}")
        report.lines.append(f"Q_l = {poly_text(sol.q_top, names)}")
        report.lines.append(
            f"f = ({poly_text(sol.p_top, names)})/({poly_text(sol.q_top, names)})")
        report.add_result("generate", True,
                          f"leading coefficients built for {spec.describe()}")
        return report

    if config.command == "verify":
        sol = solution()
        outcome = verify_hirota(sol, mode=config.mode, trials=config.trials,
                                bound=config.bound, seed=config.seed)
        report.lines.append(
            f"f = ({poly_text(sol.p_top, names)})/({poly_text(sol.q_top, names)})")
        for check in outcome.checks:
            report.add_result(f"triple {check.triple}", check.ok, check.detail)
        if not outcome.checks:
            report.add_result("residual system", True,
                              "no triples in dimension 2: vacuously verified")
        if outcome.mode == "sampled":
            report.add_result(
                "schwartz-zippel budget", True,
                f"degree bound {outcome.degree_bound}, per-trial failure bound "
                f"{outcome.per_trial_failure_bound} "
                f"(= {float(outcome.per_trial_failure_bound):.3e}), "
                f"trials={outcome.trials}, bound={outcome.bound}, seed={outcome.seed}")
        report.lines.append(outcome.summary())
        return report

    if config.command == "flatness":
        verdict = flatness_check(spec)
        report.add_result("flatness", True, verdict.status)
        report.add_result(
            "alpha_1 integrable", True, str(verdict.alpha1_integrable))
        report.add_result(
            f"alpha_{verdict.cross_check_index} integrable", True,
            str(verdict.cross_check_integrable))
        if verdict.witness_identity_checked:
            report.add_result("witness identity", True,
                              "d(alpha_1)^alpha_1 = 2 dq1^dp0^dp1 verified")
        # The witness is large at n >= 6: render only the view that prints.
        if config.format == "json":
            report.objects["witness"] = verdict.witness.to_json()
        elif config.format == "text":
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
        reduced_names = [f"x{i}" for i in range(1, spec.n)]
        report.objects["restricted_num"] = poly_to_json(restricted.num)
        report.objects["restricted_den"] = poly_to_json(restricted.den)
        report.lines.append(
            f"f with x{coordinate} = {value}, remaining coordinates reindexed:")
        report.lines.append(f"  {restricted.text(reduced_names)}")
        outcome = verify_hirota(restricted, nodes=nodes)
        for check in outcome.checks:
            report.add_result(f"triple {check.triple}", check.ok, check.detail)
        if not outcome.checks:
            report.add_result("residual system", True,
                              "no triples in dimension 2: vacuously verified")
        report.lines.append(outcome.summary())
        return report

    if config.command == "properties":
        for check in structural_properties(spec):
            report.add_result(check.name, check.ok, check.detail)
        report.add_result("interpolation-identity", interpolation_check(spec),
                          "P(node_i) - x_i Q(node_i) = 0 for all i")
        return report

    if config.command == "oracle":
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
        return json.dumps(payload, indent=2, sort_keys=True)
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
    except (WebSpecError, DimensionError, DegenerateInterpolantError,
            DegenerateRestrictionError) as exc:
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
