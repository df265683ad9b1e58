"""Command-line contract: output formats, determinism, exit codes."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hirotaweb
from hirotaweb import (MultiPoly, RationalFunction, WebSpec, build_solution,
                       highest_coefficients, interpolation, webs)
from hirotaweb.cli import (EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, RunConfig,
                           build_parser, config_from_args, execute, main, run)
from hirotaweb.webs import HirotaSolution, web_triples
from reference_exterior import poly_from_json
from reference_residuals import expanded_factors, expanded_residual_values


def config(command="generate", n=3, k=1, l=1, lambdas=(1, 2, 3), **kw):
    from fractions import Fraction
    values = None if lambdas is None else tuple(Fraction(v) for v in lambdas)
    return RunConfig(command=command, n=n, k=k, l=l, lambdas=values, **kw)


def test_generate_text_output():
    code, text = run(config())
    assert code == EXIT_OK
    assert "f = (x1x2 - 2x1x3 + x2x3)/(-x1 + 2x2 - x3)" in text


def test_generate_json_round_trips_polynomials():
    code, text = run(config(format="json"))
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["command"] == "generate"
    assert payload["spec"] == {"n": 3, "k": 1, "l": 1, "lambdas": ["1", "2", "3"]}
    p_top, q_top = highest_coefficients(WebSpec.numeric(3, 1, 1))
    assert poly_from_json(payload["objects"]["P_k"]) == p_top
    assert poly_from_json(payload["objects"]["Q_l"]) == q_top


def test_generate_renders_each_leading_coefficient_once(monkeypatch):
    # The f = (...)/(...) line reuses the P_k and Q_l strings.
    import hirotaweb.cli as cli
    rendered = []
    original = cli.poly_text

    def counted(poly, *args, **kwargs):
        rendered.append(poly)
        return original(poly, *args, **kwargs)

    monkeypatch.setattr(cli, "poly_text", counted)
    code, text = run(config(n=4, k=1, l=2, lambdas=(1, 2, 3, 4)))
    assert code == EXIT_OK
    assert rendered == list(highest_coefficients(WebSpec.numeric(4, 1, 2)))
    p_line, q_line, f_line = (line for line in text.splitlines()
                              if line.startswith(("P_k = ", "Q_l = ", "f = ")))
    assert f_line == f"f = ({p_line[6:]})/({q_line[6:]})"


def _count_poly_text(monkeypatch):
    # Records the latex flag of each poly_text call, from the CLI or from
    # RationalFunction.text.
    import hirotaweb.cli as cli
    import hirotaweb.ratfunc as ratfunc
    calls = []
    original = cli.poly_text

    def counted(poly, *args, **kwargs):
        calls.append(kwargs.get("latex", False))
        return original(poly, *args, **kwargs)

    for module in (cli, ratfunc):
        monkeypatch.setattr(module, "poly_text", counted)
    return calls


def test_json_view_renders_no_polynomial_text(monkeypatch):
    # The text lines are built only under --format text.
    from fractions import Fraction
    calls = _count_poly_text(monkeypatch)
    nodes = (1, 2, 3, 4)
    for cfg in (config(n=4, k=1, l=2, lambdas=nodes, format="json"),
                config("verify", n=4, k=2, l=1, lambdas=nodes, format="json"),
                config("restrict", n=4, k=2, l=1, lambdas=nodes,
                       fix=(4, Fraction(0)), format="json")):
        code, text = run(cfg)
        assert code == EXIT_OK and json.loads(text)["command"] == cfg.command
    assert calls == []


def test_latex_view_renders_each_leading_coefficient_once(monkeypatch):
    calls = _count_poly_text(monkeypatch)
    code, text = run(config(n=4, k=1, l=2, lambdas=(1, 2, 3, 4), format="latex"))
    assert code == EXIT_OK and "\\frac" in text
    assert calls == [True, True]


def test_verify_symbolic_four_nodes():
    code, text = run(config("verify", n=4, k=2, l=1, lambdas=None))
    assert code == EXIT_OK
    assert text.count("[PASS] triple") == 4


def test_verify_sampled_reports_budget():
    code, text = run(config("verify", n=5, k=2, l=2, lambdas=(1, 2, 3, 4, 5),
                            mode="sampled", trials=2, bound=10 ** 6, seed=7))
    assert code == EXIT_OK
    assert "schwartz-zippel budget" in text
    assert "failure bound" in text


def test_flatness_verdicts():
    code, text = run(config("flatness", n=4, k=3, l=0, lambdas=(1, 2, 3, 4)))
    assert code == EXIT_OK
    assert "flat-certified" in text
    code, text = run(config("flatness", n=3, k=1, l=1))
    assert code == EXIT_OK
    assert "nonflat-certified" in text and "witness" in text


_EXTRA_OPTIONS = {"generate": {}, "verify": {}, "flatness": {},
                  "restrict": {"fix": (1, Fraction(-2))}, "properties": {},
                  "oracle": {"trials": 2}}


@pytest.mark.parametrize("command", sorted(_EXTRA_OPTIONS))
def test_no_report_names_two_results_alike(command):
    # At n = 3 the flatness mirror alpha_(n-2) is alpha_1 itself, whose
    # integrability is reported once.
    for n in range(3, 6):
        for k in range(n):
            report = execute(config(command, n=n, k=k, l=n - 1 - k,
                                    lambdas=range(1, n + 1), **_EXTRA_OPTIONS[command]))
            names = [result["name"] for result in report.results]
            assert len(names) == len(set(names)), (n, k, names)
            if command == "flatness":
                assert ("alpha_1 integrable" in names
                        and (f"alpha_{n - 2} integrable" in names))


def test_restrict_command():
    from fractions import Fraction
    code, text = run(config("restrict", n=4, k=2, l=1, lambdas=(1, 2, 3, 4),
                            fix=(4, Fraction(0))))
    assert code == EXIT_OK
    assert "x4 = 0" in text
    assert "[PASS] triple (1, 2, 3)" in text


def test_properties_command():
    code, text = run(config("properties", n=5, k=2, l=2, lambdas=(1, 2, 3, 4, 5)))
    assert code == EXIT_OK
    assert "[PASS] homogeneous" in text
    assert "[PASS] coefficient-sums" in text
    assert "[PASS] interpolation-identity" in text


def test_oracle_command():
    code, text = run(config("oracle", n=3, k=1, l=1, trials=20, seed=3))
    assert code == EXIT_OK
    assert "20/20" in text


def test_oracle_runs_each_private_route_once_per_instance(monkeypatch):
    # Seed 42 rejects no instance at this order, so 10 trials are 10 calls
    # of the point minors and of the elimination; the verdict calls neither
    # public Fraction-returning function.
    import hirotaweb.interpolation as interpolation
    calls = dict.fromkeys(("_point_minors", "_oracle_pairs",
                           "cauchy_interpolant", "solve_oracle"), 0)
    for name in calls:
        original = getattr(interpolation, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(interpolation, name, counted)
    code, text = run(config("oracle", n=4, k=1, l=2, lambdas=(1, 2, 3, 4),
                            trials=10))
    assert code == EXIT_OK and "10/10" in text
    assert calls == {"_point_minors": 10, "_oracle_pairs": 10,
                     "cauchy_interpolant": 0, "solve_oracle": 0}


def test_determinism_byte_identical():
    cfg = config("verify", n=4, k=2, l=1, lambdas=(1, 2, 3, 4),
                 mode="sampled", trials=3, seed=11)
    assert run(cfg) == run(cfg)


def test_corrupted_solution_fails_with_exit_one():
    spec = WebSpec.numeric(3, 1, 1)
    sol = build_solution(spec)
    x1 = MultiPoly.variable(3, 0)
    corrupted = HirotaSolution(
        spec, RationalFunction(sol.p_top + x1 * x1, sol.q_top),
        sol.p_top + x1 * x1, sol.q_top)
    code, text = run(config("verify"), solution_override=corrupted)
    assert code == EXIT_CHECK_FAILED
    assert "[FAIL]" in text and "nonzero residual" in text


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_corrupted_override_prints_refutations_and_term_counts(fmt, monkeypatch):
    # The override breaks the factored identities, so no triple is proved
    # by factors, and forcing that outcome changes no byte.  Each triple is
    # refuted by its q B at the probe point, the written-out residual's
    # value there.  With the probe at the origin, where q = Q(0) = 0, every
    # triple is zero-tested through B instead and prints the term counts
    # printed before the factored proof and the probe existed.
    lambdas = (3, 1, 7, 2, 9)
    spec = WebSpec.numeric(5, 2, 2, lambdas)
    sol = build_solution(spec)
    x1 = MultiPoly.variable(5, 0)
    p = sol.p_top + x1 * x1
    corrupted = HirotaSolution(spec, RationalFunction(p, sol.q_top), p, sol.q_top)
    cfg = config("verify", 5, 2, 2, lambdas, mode="symbolic", format=fmt)
    code, text = run(cfg, solution_override=corrupted)
    assert code == EXIT_CHECK_FAILED
    refuted = re.findall(r"nonzero residual value q\*B = (-?\d+) at x = \(([-\d, ]+)\)", text)
    assert len(refuted) == 10 and len({at for _, at in refuted}) == 1
    point = [int(v) for v in refuted[0][1].split(", ")]
    assert [int(value) for value, _ in refuted] == expanded_residual_values(
        lambdas, web_triples(5), point, expanded_factors(corrupted.f, 5))
    monkeypatch.setattr(webs, "_factored_proof", lambda *args: set())
    assert run(cfg, solution_override=corrupted) == (code, text)
    monkeypatch.setattr(webs, "_probe_point", lambda n_vars, n, symbolic: (0,) * n_vars)
    code, text = run(cfg, solution_override=corrupted)
    assert code == EXIT_CHECK_FAILED
    counts = [int(c) for c in re.findall(r"nonzero residual numerator with (\d+) term", text)]
    assert counts == [259, 258, 259, 258, 253, 259, 183, 183, 183, 183]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_corrupted_symbolic_node_solution_fails_when_sampled(fmt):
    # An override is verified as given, through eliminate at each point, not
    # through the spec's own minors: the corrupted numerator must fail.
    spec = WebSpec.symbolic(5, 2, 2)
    sol = build_solution(spec)
    x1 = MultiPoly.variable(spec.n_vars, 0)
    p = sol.p_top + x1 * x1
    corrupted = HirotaSolution(spec, RationalFunction(p, sol.q_top), p, sol.q_top)
    code, text = run(config("verify", 5, 2, 2, None, mode="sampled", format=fmt),
                     solution_override=corrupted)
    assert code == EXIT_CHECK_FAILED
    if fmt == "text":
        assert "[FAIL]" in text and "nonzero residual value" in text
    else:
        assert "fail" in {result["status"] for result in json.loads(text)["results"]}


@pytest.mark.parametrize("fmt", ["json", "latex"])
def test_symbolic_node_sampling_at_n10_builds_no_symbolic_minor(fmt, monkeypatch):
    # The json and latex views print no polynomial, so the symbolic f, with
    # 10! terms in each of P and Q, is never built.
    genuine = interpolation._block

    def refuse(n, nodes, *args):
        if nodes is None:
            raise AssertionError("a symbolic-node minor was built")
        return genuine(n, nodes, *args)

    monkeypatch.setattr(interpolation, "_block", refuse)
    code, text = run(config("verify", 10, 4, 5, None, mode="sampled", format=fmt))
    assert code == EXIT_OK
    if fmt == "json":
        statuses = [result["status"] for result in json.loads(text)["results"]
                    if result["name"].startswith("triple")]
    else:
        statuses = re.findall(r"\\item triple \(\d+, \d+, \d+\): (\w+)", text)
    assert statuses == ["pass"] * 120


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
@pytest.mark.parametrize("lambdas,mode", [(None, "sampled"), (None, "symbolic"),
                                          ((1, 2, 3, 4), "sampled"),
                                          ((1, 2, 3, 4), "symbolic")])
def test_verify_builds_the_solution_at_most_once(lambdas, mode, fmt, monkeypatch):
    # Only a symbolic-node spec sampled outside the text view skips it.
    spec = WebSpec(4, 2, 1, None if lambdas is None else tuple(map(Fraction, lambdas)))
    built = []
    original = webs.highest_coefficients

    def counting(asked):
        if asked == spec:
            built.append(asked)
        return original(asked)

    monkeypatch.setattr(webs, "highest_coefficients", counting)
    code, _ = run(config("verify", 4, 2, 1, lambdas, mode=mode, format=fmt))
    assert code == EXIT_OK
    skips = lambdas is None and mode == "sampled" and fmt != "text"
    assert len(built) == (0 if skips else 1)


def test_main_exit_codes_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["generate", "--n", "3", "--k", "1", "--l", "1",
                 "--lambdas", "1,2,3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert out.read_text().strip() == captured.out.strip()


def test_python_m_hirotaweb_runs_main(capsys):
    # A checkout without the installed script runs the same command line.
    argv = ["flatness", "--n", "4", "--k", "3", "--l", "0", "--lambdas", "1,2,3,4"]
    src = Path(hirotaweb.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "hirotaweb", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert main(argv) == EXIT_OK
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, capsys.readouterr().out, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_closes_stdout_early_gets_exit_1_and_no_traceback(fmt):
    # The n = 6 witness is megabytes, far past a pipe's buffer.
    argv = ["flatness", "--n", "6", "--k", "3", "--l", "2", "--format", fmt]
    src = Path(hirotaweb.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen([sys.executable, "-m", "hirotaweb", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == EXIT_CHECK_FAILED
    assert "Traceback" not in err and "Error" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--k", "1", "--l", "1", "--lambdas", "1,2,1e5000"],
    ["generate", "--n", "3", "--k", "1", "--l", "1", "--lambdas", "1,2,1e5000",
     "--format", "json"]])
def test_a_node_past_the_int_to_str_limit_is_printed_whole(argv):
    # 10^5000 has 5,001 digits, past the interpreter's default limit of
    # 4,300 for converting an int to str; the command line lifts it.
    src = Path(hirotaweb.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-m", "hirotaweb", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK
    assert "Traceback" not in done.stderr
    assert "1" + "0" * 5000 in done.stdout


@pytest.mark.parametrize("argv, hint", [
    (["flatness", "--n", "5", "--k", "2", "--l", "2"], ""),
    (["verify", "--n", "4", "--k", "2", "--l", "1"], "; --mode sampled needs far less"),
    (["verify", "--n", "4", "--k", "2", "--l", "1", "--mode", "sampled"], "")])
@pytest.mark.parametrize("where", ["_outcome", "_render_chunks"])
def test_running_out_of_memory_is_one_line_and_exit_2(argv, hint, where, monkeypatch):
    # Raised while the command runs, or after its report has streamed out.
    import hirotaweb.cli as cli
    streamed = run(config_from_args(build_parser().parse_args(argv)))[1]
    genuine = getattr(cli, where)

    def exhausted(*args):
        raise MemoryError

    def exhausted_after(*args):
        yield from genuine(*args)
        raise MemoryError

    monkeypatch.setattr(cli, where, exhausted if where == "_outcome" else exhausted_after)
    code, out, err = _main_output(argv)
    assert code == EXIT_CONFIG
    assert err == f"error: out of memory{hint}\n"
    assert out == ("" if where == "_outcome" else streamed)


def test_main_unwritable_out_path_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "dir" / "report.txt"
    code = main(["generate", "--n", "3", "--k", "1", "--l", "1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_main_closes_the_out_file_when_rendering_fails(tmp_path, capsys, monkeypatch):
    # The file is opened with the first piece, and a render that fails
    # after it leaves that piece on stdout and in the file, closed.
    import hirotaweb.cli as cli

    def failing(report, fmt):
        yield ["first piece"]
        raise RuntimeError("render failed")

    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "_render_chunks", failing)
    monkeypatch.setattr(cli, "open", spy, raising=False)
    out = tmp_path / "report.txt"
    with pytest.raises(RuntimeError, match="render failed"):
        main(["generate", "--n", "3", "--k", "1", "--l", "1", "--out", str(out)])
    assert len(opened) == 1 and opened[0].closed
    assert out.read_text() == "first piece"
    assert capsys.readouterr().out == "first piece"


def test_main_rejects_bad_order(capsys):
    code = main(["generate", "--n", "3", "--k", "2", "--l", "2"])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["generate --n 0 --k 0 --l 0", "flatness --n -3 --k 0 --l 0",
                                  "verify --n 1 --k 0 --l 0"])
def test_main_reports_a_small_dimension_with_default_nodes(argv, capsys):
    # The default nodes 1..n are numbers, not a node list to parse, so a
    # dimension below 2 meets the dimension check, not the parser.
    n = argv.split()[2]
    assert main(argv.split()) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dimension must be at least 2, got {n}\n"


def test_main_rejects_repeated_nodes(capsys):
    code = main(["generate", "--n", "3", "--k", "1", "--l", "1",
                 "--lambdas", "1,1,2"])
    assert code == EXIT_CONFIG


def test_main_rejects_bad_fix(capsys):
    # a malformed assignment, a zero denominator, a missing value and a
    # value that is not a finite number are all bad input, reported in one
    # line without a traceback
    for fix in ("y4=0", "x2=3/0", "x1=1/0", "x1=nan", "x1=inf", "x1=-inf", "x1=", "x1=0x10"):
        code = main(["restrict", "--n", "4", "--k", "2", "--l", "1", "--fix", fix])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot parse --fix {fix!r}")


def test_main_rejects_non_finite_nodes(capsys):
    for nodes in ("nan,2,3", "1,inf,3", "1,2,1/0"):
        code = main(["generate", "--n", "3", "--k", "1", "--l", "1", "--lambdas", nodes])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot parse node list {nodes!r}")


@pytest.mark.parametrize("written, exact", [
    (["--lambdas=1.5,2,3", "--fix", "x1=1"], ["--lambdas=3/2,2,3", "--fix", "x1=1"]),
    (["--lambdas=1e3,2,3", "--fix", "x1=1"], ["--lambdas=1000,2,3", "--fix", "x1=1"]),
    (["--fix", "x1=1.5"], ["--fix", "x1=3/2"]),
    (["--fix", "x1=+2"], ["--fix", "x1=2"]),
    (["--fix", "x2=-2.5e-1"], ["--fix", "x2=-1/4"]),
])
def test_nodes_and_fixed_values_share_one_exact_reader(written, exact, capsys):
    # --lambdas and --fix read a decimal, an exponent or a sign as the exact
    # value it names, so the report is byte for byte the one for that value
    # written as an int or a ratio.
    outputs = []
    for extra in (written, exact):
        code = main(["restrict", "--n", "3", "--k", "1", "--l", "1", *extra])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1] and outputs[0][0] == EXIT_OK


def test_main_rejects_out_of_range_coordinate(capsys):
    code = main(["restrict", "--n", "4", "--k", "2", "--l", "1",
                 "--fix", "x9=0"])
    assert code == EXIT_CONFIG


def test_main_rejects_small_bound(capsys):
    code = main(["verify", "--n", "3", "--k", "1", "--l", "1",
                 "--mode", "sampled", "--bound", "10"])
    assert code == EXIT_CONFIG


def test_float_in_a_programmatic_config_is_config_error():
    # floats bypass the CLI's Fraction parsing; they are input errors, not
    # failed mathematical checks
    for cfg in (RunConfig("verify", 3, 1, 1, (0.5, 1, 2)),
                config("restrict", n=4, k=2, l=1, lambdas=(1, 2, 3, 4), fix=(1, 0.5))):
        code, text = run(cfg)
        assert code == EXIT_CONFIG
        assert text.startswith("error: ") and "float" in text


def test_non_int_trials_or_bound_in_a_programmatic_config_is_config_error():
    # Sampled verification refuses a float trial count or bound before it
    # samples anything, and any other non-int as a spec error.
    for kw, word in ((dict(bound=10.0 ** 6), "float"), (dict(trials=2.0), "float"),
                     (dict(trials="2"), "int"), (dict(bound=Fraction(10 ** 6)), "int")):
        code, text = run(RunConfig("verify", 3, 1, 1, None, mode="sampled", **kw))
        assert code == EXIT_CONFIG, kw
        assert text.startswith("error: ") and word in text, (kw, text)


def test_non_int_seed_or_order_in_a_programmatic_config_is_config_error():
    # A seed, a dimension or an order follows the trial count's rule: a float
    # is inexact, any other non-int (a bool included) a spec error.
    for cfg, word in ((RunConfig("verify", 3, 1, 1, None, mode="sampled", seed=1.5), "float"),
                      (RunConfig("verify", 3, 1, 1, None, mode="sampled", seed=True), "int"),
                      (RunConfig("oracle", 3, 1, 1, (1, 2, 3), seed=2.0), "float"),
                      (RunConfig("oracle", 3, 1, 1, (1, 2, 3), seed="7"), "int"),
                      (RunConfig("generate", 3.0, 1, 1, None), "float"),
                      (RunConfig("generate", 3, 1, False, None), "int")):
        code, text = run(cfg)
        assert code == EXIT_CONFIG, cfg
        assert text.startswith("error: ") and word in text, (cfg, text)


def test_oracle_refuses_a_trial_count_that_is_not_a_positive_int():
    # The oracle checks its trial count the way sampled verification does:
    # a float is inexact, and a non-int, a bool or a count below 1 is a spec
    # error; none of them reaches the comparison.
    for trials, word in ((2.5, "float"), (2.0, "float"), ("3", "int"), (True, "int"),
                         (Fraction(3), "int"), (0, "at least one trial"),
                         (-4, "at least one trial")):
        code, text = run(RunConfig("oracle", 3, 1, 1, (1, 2, 3), trials=trials))
        assert code == EXIT_CONFIG, trials
        assert text.startswith("error: ") and word in text, (trials, text)
    code, text = run(RunConfig("oracle", 3, 1, 1, (1, 2, 3), trials=1))
    assert code == EXIT_OK and "1/1 random instances matched" in text
    # A bool is not a trial count in sampled verification either.
    code, text = run(RunConfig("verify", 3, 1, 1, None, mode="sampled", trials=True))
    assert code == EXIT_CONFIG and "int" in text


def test_degenerate_geometry_request_is_config_error():
    # symbolic nodes cannot feed the flatness certifier
    code, text = run(config("flatness", n=3, k=1, l=1, lambdas=None))
    assert code == EXIT_CONFIG
    assert "error" in text


def test_latex_output_is_balanced():
    code, text = run(config(format="latex"))
    assert code == EXIT_OK
    assert text.count("{") == text.count("}")
    assert "\\frac" in text
    assert "\\begin{itemize}" in text and "\\end{itemize}" in text
    code, text = run(config("properties", n=4, k=2, l=1, lambdas=None,
                            format="latex"))
    assert code == EXIT_OK
    assert text.count("{") == text.count("}")


def test_latex_generate_renders_the_solution_under_test():
    spec = WebSpec.numeric(3, 1, 1)
    sol = build_solution(spec)
    x1 = MultiPoly.variable(3, 0)
    p = sol.p_top + x1 * x1
    override = HirotaSolution(spec, RationalFunction(p, sol.q_top), p, sol.q_top)
    code, text = run(config(format="latex"), solution_override=override)
    assert code == EXIT_OK
    assert "\\frac{x_{1}^{2} + x_{1}x_{2} - 2x_{1}x_{3} + x_{2}x_{3}}" in text


# -- argv fuzz ---------------------------------------------------------------------------

_NODE_TEXTS = ("1.5", "1e3", "1/0", "x", "", "2/4", "-7/5", "0")


def _good_or_bad(good, bad):
    """A value from ``good`` about three times in four, else one from ``bad``."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda ok: good if ok else bad)


@st.composite
def _argv(draw):
    """argv from the parser's grammar: every command, n <= 4 with orders that
    may be negative or mismatched, and good and bad values for every option."""
    command = draw(st.sampled_from(("generate", "verify", "flatness", "restrict",
                                    "properties", "oracle")))
    n = draw(_good_or_bad(st.integers(2, 4), st.integers(-1, 1)))
    k = draw(_good_or_bad(st.integers(0, max(n - 1, 0)), st.integers(-1, 4)))
    l = draw(_good_or_bad(st.just(n - 1 - k), st.integers(-1, 4)))
    argv = [command, f"--n={n}", f"--k={k}", f"--l={l}",
            "--format=" + draw(st.sampled_from(("text", "json", "latex")))]
    lambdas = draw(_good_or_bad(
        st.one_of(st.none(), st.just("symbolic"),
                  st.lists(st.integers(-9, 9), min_size=max(n, 0), max_size=max(n, 0),
                           unique=True).map(lambda values: ",".join(map(str, values)))),
        st.lists(st.one_of(st.integers(-3, 3).map(str), st.sampled_from(_NODE_TEXTS)),
                 max_size=5).map(",".join)))
    if lambdas is not None:
        argv.append(f"--lambdas={lambdas}")
    if command == "verify":
        argv.append("--mode=" + draw(st.sampled_from(("symbolic", "sampled"))))
        argv.append("--bound=" + draw(_good_or_bad(
            st.sampled_from(("1000", "1000000")),
            st.sampled_from(("999", "0", "-5", "1e6", "x")))))
    if command in ("verify", "oracle"):
        # at most a few trials: the oracle runs 100 by default
        argv.append("--trials=" + draw(_good_or_bad(
            st.sampled_from(("1", "3")), st.sampled_from(("0", "-1", "1.5", "x")))))
        argv.append("--seed=" + draw(_good_or_bad(
            st.sampled_from(("0", "42", "-3")), st.sampled_from(("1.5", "x", "")))))
    if command == "restrict":
        argv.append("--fix=" + draw(_good_or_bad(
            st.builds("x{}={}".format, st.integers(1, 4),
                      st.sampled_from(("0", "1", "-3/2", "5/7", "0.5", "+2", "1e1"))),
            st.sampled_from(("x0=1", "x9=0", "x1=1/0", "x1=nan", "x1=inf", "y1=0", "x1=",
                             "")))))
    return argv


def _main_output(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in-process; an argparse
    refusal exits through SystemExit, any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_fuzzed_argv_exits_cleanly_and_deterministically(argv):
    code, out, err = _main_output(argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG)
    assert "Traceback" not in err
    assert _main_output(argv)[1] == out


@pytest.mark.parametrize("fmt", ["text", "json", "latex"])
def test_main_writes_the_report_as_it_is_rendered(fmt, tmp_path, monkeypatch):
    # main streams the chunks of the report to stdout and to --out without
    # joining them (render is never called), and writes run's text and a
    # newline to both.
    import hirotaweb.cli as cli
    argv = ["flatness", "--n", "5", "--k", "2", "--l", "2", "--format", fmt]
    code, text = run(config_from_args(build_parser().parse_args(argv)))
    monkeypatch.setattr(cli, "render", lambda *args: pytest.fail("the report was joined"))
    out = tmp_path / "report"
    assert _main_output(argv + ["--out", str(out)]) == (code, text + "\n", "")
    assert out.read_text(encoding="utf-8") == text + "\n"


@pytest.mark.parametrize("written", [0, 1])
def test_main_closes_the_out_file_when_rendering_fails(written, tmp_path, monkeypatch):
    # Rendering that raises after `written` chunks propagates; the --out
    # file is opened only with the first chunk (a failure before it leaves
    # an existing file untouched), and is closed, holding what stdout got.
    import hirotaweb.cli as cli
    opened = []
    real_open = open

    def spy_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def failing(report, fmt):
        yield from [["first chunk"]][:written]
        raise RuntimeError("rendering failed")

    monkeypatch.setattr(cli, "_render_chunks", failing)
    monkeypatch.setattr("builtins.open", spy_open)
    out = tmp_path / "report"
    out.write_text("kept", encoding="utf-8")
    stdout = io.StringIO()
    with redirect_stdout(stdout), pytest.raises(RuntimeError, match="rendering failed"):
        main(["generate", "--n", "3", "--k", "1", "--l", "1", "--out", str(out)])
    assert stdout.getvalue() == "first chunk" * written
    assert len(opened) == written and all(handle.closed for handle in opened)
    assert out.read_text(encoding="utf-8") == ("first chunk" if written else "kept")
