import io
import json
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffprog import (
    BoundViolation,
    FpFunction,
    IntPolynomial,
    ParseError,
    ProgressionSpec,
    constant,
    make_field,
    set_budget,
)
from ffprog import experiments, harmonic
from ffprog.cli import DEFAULT_SEED, build_parser, main, parse_spec, render_spec
from ffprog.counting import MAX_EXPONENT, parse_progression_spec, render_progression_spec
from ffprog.experiments import SweepReport, SweepRow


# --- spec grammar ----------------------------------------------------------


def test_parse_spec_examples():
    spec = parse_spec("m=3;P=y^3,y^4")
    assert spec.m == 3
    assert [P.coeffs for P in spec.polys] == [(0, 0, 0, 1), (0, 0, 0, 0, 1)]
    assert spec.validated

    spec = parse_spec("m=3;P=y^2")
    assert not spec.validated  # parses fine, validation records the violation

    spec = parse_spec("m=4")
    assert spec.m == 4 and spec.polys == ()

    spec = parse_spec("m=3;P=2y^4+y^3")
    assert spec.polys[0].coeffs == (0, 0, 0, 1, 2)


def test_parse_spec_errors():
    with pytest.raises(ParseError) as info:
        parse_spec("m=;P=y")
    assert info.value.position == 2
    for bad in (
        "", "m=0", "n=3", "m=3;P=", "m=3;P=y^", "m=3;P=y,,y", "m=3;Q=y", "m=3 ;P=y",
        "m=3;P=y^99999999999999999999",
    ):
        with pytest.raises(ParseError):
            parse_spec(bad)
    # an exponent past MAX_EXPONENT is refused at its offset, before any coefficient tuple
    with pytest.raises(ParseError, match=f"exponent exceeds {MAX_EXPONENT}") as info:
        parse_progression_spec("m=3;P=y^2+y^99999999999999999999")
    assert info.value.position == 12
    assert parse_progression_spec(f"m=3;P=y^{MAX_EXPONENT}").polys[0].degree == MAX_EXPONENT


@pytest.mark.parametrize(
    "bad",
    ["m=\u00b2", "m=3;P=\u00b2y", "m=" + "9" * 5000, "m=3;P=y^" + "9" * 5000],
    ids=["superscript-m", "superscript-coeff", "m-5000-digits", "exponent-5000-digits"],
)
def test_parse_spec_rejects_integers_int_cannot_read(bad):
    # superscript digits pass str.isdigit but not int(); 5000 digits pass Python's int limit
    with pytest.raises(ParseError, match="expected integer"):
        parse_spec(bad)


def test_parse_terms():
    spec = parse_spec("m=2;P=-y^3+5,0,y+y")
    assert spec.polys[0].coeffs == (5, 0, 0, -1)
    assert spec.polys[1].coeffs == ()
    assert spec.polys[2].coeffs == (0, 2)


@st.composite
def specs(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    npolys = draw(st.integers(min_value=0, max_value=3))
    polys = []
    for _ in range(npolys):
        coeffs = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7))
        polys.append(IntPolynomial(tuple(coeffs)))
    return ProgressionSpec(m=m, polys=tuple(polys))


@given(specs())
@settings(max_examples=300, deadline=None)
def test_render_parse_round_trip(spec):
    assert parse_progression_spec(render_progression_spec(spec)) == spec


def test_render_spec_exported():
    assert render_spec(ProgressionSpec(3, (IntPolynomial((0, 0, 0, 1)),))) == "m=3;P=y^3"


# --- subcommands -----------------------------------------------------------


def test_counterexample_command(capsys):
    assert main(["counterexample", "--p", "7", "--a", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "lhs=1.000000000 rhs=0.000000000"


def test_counterexample_usage_errors(capsys):
    assert main(["counterexample", "--p", "4", "--a", "1"]) == 1
    assert capsys.readouterr().err == "error: UsageError: 4 is not prime\n"
    assert main(["counterexample", "--p", "7", "--a", "0"]) == 1


def test_weil_command(capsys):
    assert main(["weil", "--p", "101", "--k", "2", "--r", "1", "--points", "0,1"]) == 0
    assert "holds=true" in capsys.readouterr().out
    assert main(["weil", "--p", "4", "--k", "2", "--r", "1", "--points", "0,1"]) == 1


def test_weil_kth_power_configuration_is_usage_error(capsys):
    # x^2 / (x-1)^2 is a square: outside the corollary, not a failed bound
    assert main(["weil", "--p", "101", "--k", "2", "--r", "2", "--points", "0,0,1,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: UsageError: the points make the rational function a k-th power "
        "(every multiplicity difference is divisible by 2)\n"
    )


def test_gowers_and_lambda_commands(tmp_path, capsys):
    ctx = make_field(11)
    rng = np.random.default_rng(0)
    paths = []
    for i in range(5):
        f = FpFunction(ctx, np.exp(2j * np.pi * rng.random(11)), bounded=True)
        path = tmp_path / f"f{i}.json"
        path.write_text(f.to_json())
        paths.append(str(path))
    assert main(["gowers", "--fixture", paths[0], "--s", "2", "--strategy", "direct"]) == 0
    direct_out = capsys.readouterr().out
    assert main(["gowers", "--fixture", paths[0], "--s", "2", "--strategy", "fast"]) == 0
    fast_out = capsys.readouterr().out
    assert direct_out == fast_out

    cmd = ["lambda", "--spec", "m=3;P=y^3,y^4", "--fixtures", ",".join(paths)]
    assert main(cmd) == 0
    assert "|lambda|" in capsys.readouterr().out


def test_discorrelate_json_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    cmd = [
        "discorrelate", "--spec", "m=3;P=y^3,y^4", "--primes", "11,13",
        "--family", "random-unimodular", "--trials", "4", "--seed", "7",
        "--format", "json",
    ]
    assert main(cmd + ["--output", str(out1)]) == 0
    assert main(cmd + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert set(report) == {"spec", "rows", "fit"}
    assert all(row["seed"] == 7 for row in report["rows"])


def test_discorrelate_invalid_spec_exit_1(capsys):
    cmd = ["discorrelate", "--spec", "m=3;P=y^2", "--primes", "11", "--trials", "1"]
    assert main(cmd) == 1
    assert "InvalidSpec" in capsys.readouterr().err


def test_csv_format(tmp_path):
    out = tmp_path / "r.csv"
    cmd = [
        "restricted-ap", "--primes", "11,13", "--m", "3", "--k", "2",
        "--trials", "2", "--format", "csv", "--output", str(out),
    ]
    assert main(cmd) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,stat,value,trials,seed"
    assert len(lines) == 5  # 2 primes x {median, max} + header
    assert all(str(DEFAULT_SEED) in line for line in lines[1:])


def test_chardecay_command(capsys):
    assert main(["chardecay", "--primes", "101", "--s", "2", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "norm" in out and "proof_bound" in out


def test_search_commands(capsys):
    assert main(["search", "--spec", "m=3", "--p", "7", "--mode", "exact"]) == 0
    out = capsys.readouterr().out
    assert "size=3" in out
    assert main(["search", "--spec", "m=3", "--p", "11", "--mode", "greedy",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p"] == 11 and data["size"] == len(data["set"])


def test_search_output(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert main(["search", "--spec", "m=3", "--p", "7", "--output", str(out)]) == 0
    assert out.read_text() == "p=7 mode=exact size=3 density=0.428571\nset: 0 1 3\n"
    assert capsys.readouterr().out == ""
    bad = str(tmp_path / "missing" / "x.json")
    cmd = ["search", "--spec", "m=3", "--p", "7", "--format", "json", "--output", bad]
    assert main(cmd) == 1
    err = capsys.readouterr().err
    assert "IoFailure" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "cmd",
    [
        ["discorrelate", "--spec", "m=3", "--primes", "11"],
        ["restricted-ap", "--primes", "11", "--k", "2"],
    ],
)
@pytest.mark.parametrize("trials", ["0", "-2", "x"])
def test_trials_must_be_positive(cmd, trials, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(cmd + ["--trials", trials]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "positive integer" in err[0]


@pytest.mark.parametrize(
    "cmd",
    [
        ["restricted-ap", "--primes", "11", "--k", "2", "--trials", "2", "--m"],
        ["weil", "--p", "11", "--k", "2", "--points", "", "--r"],
    ],
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_m_and_r_must_be_positive(cmd, value, capsys):
    assert main(cmd + [value]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "positive integer" in err[0]


@pytest.mark.parametrize(
    "cmd",
    [["discorrelate", "--spec", "m=3"], ["restricted-ap", "--k", "2"]],
)
def test_composite_prime_rejected_before_budget(cmd, capsys):
    # 1000001 = 101 * 9901; its budget estimate alone would exceed the default budget
    assert main(cmd + ["--primes", "11,1000001", "--trials", "1"]) == 1
    assert capsys.readouterr().err == "error: UsageError: 1000001 is not prime\n"


def test_search_rejects_csv(capsys):
    assert main(["search", "--spec", "m=3", "--p", "11", "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'csv'" in captured.err


@pytest.mark.parametrize(
    "fixture, detail",
    [
        ({"p": 7, "re": [0.0] * 7, "im": [0.0] * 6}, "p=7 but re shape (7,), im (6,)"),
        ({"p": 7, "re": 0.0, "im": 0.0}, "p=7 but re shape (), im ()"),
        ({"p": 7, "re": [0.0] * 7}, "'im'"),
        ([7, [0.0] * 7, [0.0] * 7], "not an object"),
    ],
)
def test_gowers_malformed_fixture(fixture, detail, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fixture))
    assert main(["gowers", "--fixture", str(path)]) == 1
    err = capsys.readouterr().err
    assert "MalformedFixture" in err and detail in err and "Traceback" not in err


def _fixture_text(p, re="[0.5, 0.5, 0.5]", im=None):
    return f'{{"p": {p}, "re": {re}, "im": {im or re}}}'


MALFORMED_FIXTURES = {
    "not-json": "{p: 7",
    "empty": "",
    "no-im": json.dumps({"p": 7, "re": [0.0] * 7}),
    "p-overflows": _fixture_text("1e400", "[]"),
    "p-string": _fixture_text('"x"'),
    "p-nan": _fixture_text("NaN"),
    "p-fraction": _fixture_text("3.9"),
    "p-bool": _fixture_text("true", "[0.5]"),
    "re-string": _fixture_text(3, '["a", 0.5, 0.5]', "[0.5, 0.5, 0.5]"),
    "re-nan": _fixture_text(3, "[NaN, 0.5, 0.5]", "[0.5, 0.5, 0.5]"),
    "re-overflows": _fixture_text(3, "[1e400, 0.5, 0.5]", "[0.5, 0.5, 0.5]"),
    "im-bool": _fixture_text(3, "[0.5, 0.5, 0.5]", "[true, 0.5, 0.5]"),
    "re-nested": _fixture_text(3, "[[0.5], [0.5], [0.5]]", "[0.5, 0.5, 0.5]"),
    "huge-p": _fixture_text(1000000007, "[]"),
    "p-5000-digits": _fixture_text("9" * 5000, "[]"),  # past Python's int-conversion limit
    "binary": b"\x89PNG\r\n\x1a\n\xff",  # not UTF-8
    "deep-nesting": "[" * 100_000,  # json.loads raises RecursionError
}


@pytest.mark.parametrize("text", MALFORMED_FIXTURES.values(), ids=MALFORMED_FIXTURES.keys())
def test_malformed_fixture_names_path(text, tmp_path, capsys, monkeypatch):
    # every check runs before the field tables exist: a huge p must not allocate them
    fields = []
    monkeypatch.setattr(harmonic, "make_field", fields.append)
    path = tmp_path / "nj.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["gowers", "--fixture", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"MalformedFixture: {path}: " in err and "Traceback" not in err
    assert fields == []


@pytest.mark.parametrize(
    "cmd",
    [
        ["discorrelate", "--spec", "m=3", "--primes", "11", "--trials", "1"],
        ["restricted-ap", "--primes", "11", "--k", "2", "--trials", "1"],
        ["search", "--spec", "m=3", "--p", "11", "--mode", "greedy"],
    ],
)
def test_seed_must_be_non_negative(cmd, capsys):
    assert main(cmd + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: UsageError: argument --seed: expected a non-negative integer, got '-1'"]


@pytest.mark.parametrize(
    "cmd",
    [
        ["counterexample", "--a", "1"],
        ["weil", "--k", "2", "--r", "1", "--points", "0,1"],
        ["search", "--spec", "m=3"],
    ],
)
def test_modulus_past_int64_products_is_usage_error(cmd, capsys):
    assert main(cmd + ["--p", str(2**61 - 1)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: UsageError: p=2305843009213693951 ")


def test_integer_flags_keep_int_syntax(capsys):
    cmd = ["restricted-ap", "--primes", "11", "--k", "2", "--trials", "+1", "--seed", " 0"]
    assert main(cmd) == 0
    capsys.readouterr()


def test_chardecay_order_is_integer_or_all(capsys):
    for order in ("x", "0", "-4"):  # 0 and -4 used to report orders 100 and 4 at p = 101
        assert main(["chardecay", "--primes", "101", "--k", order]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith("error: UsageError: argument --k: ")


@pytest.mark.parametrize("strategy", ["direct", "fast"])
@pytest.mark.parametrize("s", ["5000", "100000"])
def test_gowers_huge_s_is_refused_in_one_line(s, strategy, tmp_path, capsys):
    # p^(s +- 1) used to be built before the budget saw it: a 4,200-digit error line at
    # s = 5000, and at s = 100000 a traceback from formatting the number
    fixture = tmp_path / "f.json"
    fixture.write_text(FpFunction(make_field(7), np.ones(7), bounded=True).to_json())
    assert main(["gowers", "--fixture", str(fixture), "--s", s, "--strategy", strategy]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: BudgetExceeded: ") and len(err[0]) <= 200


def test_bad_budget_variable_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("FFPROG_BUDGET", "abc")
    assert main(["chardecay", "--primes", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = "error: UsageError: FFPROG_BUDGET must be a positive integer, got 'abc'\n"
    assert captured.err == expected


def test_parse_error_names_type_and_offset(capsys):
    assert main(["lambda", "--spec", "m=;P=y", "--fixtures", "unused.json"]) == 1
    assert capsys.readouterr().err == "error: ParseError: expected integer (at offset 2)\n"


def test_kernel_value_error_escapes_main(monkeypatch):
    # only FFProgError is a refusal; any other ValueError is a bug and must not read as usage
    def broken(*args):
        raise ValueError("kernel bug")

    monkeypatch.setattr(experiments, "character_norm_decay", broken)
    with pytest.raises(ValueError, match="kernel bug"):
        main(["chardecay", "--primes", "11"])


def test_bound_violation_exits_2(monkeypatch, capsys):
    def violated(*args):
        raise BoundViolation("synthetic")

    monkeypatch.setattr(experiments, "weil_corollary_check", violated)
    assert main(["weil", "--p", "11", "--k", "2", "--r", "1", "--points", "0,1"]) == 2
    assert capsys.readouterr().err == "error: BoundViolation: synthetic\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--spec", "m=99999999999", "--p", "7", "--mode", "exact"],
        ["--spec", "m=99999999999", "--p", "7", "--mode", "greedy"],
        ["--spec", "m=9999", "--p", "13", "--mode", "greedy"],
    ],
    ids=["huge-m-exact", "huge-m-greedy", "m-9999-greedy"],
)
def test_search_charges_before_building_tables(argv, capsys):
    # both searches are metered before config_offsets, which would hang or exhaust memory
    assert main(["search", *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: BudgetExceeded: ")


def test_search_has_no_cap_flag(capsys):
    assert main(["search", "--spec", "m=3", "--p", "7", "--cap", "31"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: UsageError: unrecognized arguments: --cap 31\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--spec", "m=3", "--p", "1000003", "--mode", "exact"],
        ["weil", "--p", "1000003", "--k", "2", "--r", "1", "--points", "0,1"],
        ["counterexample", "--p", "1000003", "--a", "1"],
    ],
    ids=["search-exact", "weil", "counterexample"],
)
def test_large_p_is_refused_before_any_table(argv, capsys):
    # make_field builds no O(p) table, and each command charges before it builds its own
    set_budget(1000)
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        set_budget(None)
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error: BudgetExceeded: ")
    assert peak < 2**20


# Every refusal of a bad argument is a UsageError (a ValueError); the spec grammar and the
# degree condition keep their own subclasses.
REFUSALS = {
    "composite-p": (["counterexample", "--p", "4", "--a", "1"], "UsageError: 4 is not prime"),
    "zero-phase": (["counterexample", "--p", "7", "--a", "0"], "UsageError: a must be nonzero"),
    "p-2": (["counterexample", "--p", "2", "--a", "1"], "UsageError: the construction divides by 2"),
    "principal": (
        ["weil", "--p", "7", "--k", "1", "--r", "1", "--points", "0,1"],
        "UsageError: k=1 reduces to the principal character mod 7",
    ),
    "kth-power": (
        ["weil", "--p", "7", "--k", "2", "--r", "2", "--points", "0,0,1,1"],
        "UsageError: the points make the rational function a k-th power "
        "(every multiplicity difference is divisible by 2)",
    ),
    "even-ladder": (
        ["discorrelate", "--spec", "m=3", "--primes", "2"],
        "UsageError: p=2 must be an odd prime",
    ),
    "composite-ladder": (
        ["restricted-ap", "--primes", "9", "--k", "2"],
        "UsageError: 9 is not prime",
    ),
    "mixed-fields": (
        ["lambda", "--spec", "m=3", "--fixtures", "{f5},{f7},{f5}"],
        "UsageError: functions live over different fields",
    ),
    "too-few-fixtures": (
        ["lambda", "--spec", "m=3", "--fixtures", "{f5},{f5}"],
        "UsageError: expected 3 functions, got 2",
    ),
    "degree-condition": (
        ["search", "--spec", "m=3;P=y^2", "--p", "7"],
        "InvalidSpec: degree condition fails: combination (1,) has degree < m=3",
    ),
    "spec-syntax": (
        ["search", "--spec", "m=", "--p", "7"],
        "ParseError: expected integer (at offset 2)",
    ),
}


@pytest.mark.parametrize("argv, line", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_are_usage_errors(argv, line, tmp_path, capsys):
    paths = {}
    for p in (5, 7):
        paths[f"f{p}"] = tmp_path / f"f{p}.json"
        paths[f"f{p}"].write_text(constant(make_field(p)).to_json())
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {line}\n")
    args = build_parser().parse_args(argv)
    with pytest.raises(ValueError) as info:
        args.run(args)
    assert f"{type(info.value).__name__}: {info.value}" == line


# --- one writer, one verdict -------------------------------------------------

# one quick, successful command line per subcommand; <f> is a fixture over F_7
COMMANDS = {
    "gowers": ["gowers", "--fixture", "<f>"],
    "lambda": ["lambda", "--spec", "m=3", "--fixtures", "<f>,<f>,<f>"],
    "discorrelate": ["discorrelate", "--spec", "m=3", "--primes", "11", "--trials", "1"],
    "counterexample": ["counterexample", "--p", "7", "--a", "1"],
    "chardecay": ["chardecay", "--primes", "11"],
    "weil": ["weil", "--p", "11", "--k", "2", "--r", "1", "--points", "0,1"],
    "restricted-ap": ["restricted-ap", "--primes", "11", "--k", "2", "--trials", "1"],
    "search": ["search", "--spec", "m=3", "--p", "7"],
}


class _FullStdout(io.StringIO):
    def write(self, data):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failed_stdout_write_is_io_failure(command, tmp_path):
    fixture = tmp_path / "f.json"
    fixture.write_text(FpFunction(make_field(7), np.ones(7), bounded=True).to_json())
    argv = [arg.replace("<f>", str(fixture)) for arg in COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 0
    assert out.getvalue() and err.getvalue() == ""
    err = io.StringIO()
    with redirect_stdout(_FullStdout()), redirect_stderr(err):
        assert main(argv) == 1
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0] == "error: IoFailure: cannot write report: [Errno 28] No space left on device"


PARTIAL = SweepReport(spec="partial", rows=[SweepRow(11, "U2[k=2] norm", 0.5, 1, 0)])


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
def test_chardecay_violation_writes_partial_report(fmt, to_file, monkeypatch, tmp_path, capsys):
    def violated(*args):
        raise BoundViolation("synthetic", report=PARTIAL)

    monkeypatch.setattr(experiments, "character_norm_decay", violated)
    path = tmp_path / "report.txt"
    argv = ["chardecay", "--primes", "11", "--format", fmt]
    assert main(argv + (["--output", str(path)] if to_file else [])) == 2
    captured = capsys.readouterr()
    expected = {"json": PARTIAL.to_json, "csv": PARTIAL.to_csv, "pretty": PARTIAL.to_pretty}[fmt]()
    assert (path.read_text() if to_file else captured.out) == expected
    assert captured.out == ("" if to_file else expected)
    assert captured.err == "error: BoundViolation: synthetic\n"


def _one_violation_line(captured) -> None:
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BoundViolation: ")
    assert "Traceback" not in captured.err


def test_weil_violation_keeps_its_line(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "weil_corollary_check", lambda *args: (0.5, 0.1, False))
    assert main(COMMANDS["weil"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "modulus=0.500000000 bound=0.100000000 holds=false\n"
    _one_violation_line(captured)


def test_counterexample_violation_keeps_its_line(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "counterexample_demo", lambda *args: (0.5, 0.1))
    assert main(COMMANDS["counterexample"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "lhs=0.500000000 rhs=0.100000000\n"
    assert captured.err == "error: BoundViolation: counterexample contract violated\n"


def test_greedy_closing_check_is_a_violation(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "find_progression", lambda *args: (0, 1))
    assert main(["search", "--spec", "m=3", "--p", "11", "--mode", "greedy"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_violation_line(captured)


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["weil", "--p", "13", "--k", "2", "--r", "1", "--points", "a,b"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# --- hostile argv ------------------------------------------------------------

# Each flag is (valid values, hostile values). A generated command line gives
# every flag a valid value except at most one, the victim, which gets a hostile
# value or is left out. Hostile integers are zero, negative, positive up to 29
# or not an integer at all, a quarter each.
INT = st.one_of(
    st.just("0"),
    st.integers(-3, -1).map(str),
    st.integers(1, 29).map(str),
    st.sampled_from(["x", "1.5", ""]),
)
PRIMES = ["3", "5", "7", "11", "13", "17", "19", "23"]


def _joined(elements, min_size=0, max_size=3):
    return st.lists(elements, min_size=min_size, max_size=max_size).map(",".join)


LADDER = (
    _joined(st.sampled_from(PRIMES), min_size=1),
    _joined(st.integers(-3, 29).map(str)) | st.sampled_from(["x", "7,,11", "7.0"]),
)
SPEC = (
    ["m=3", "m=2;P=y^2", "m=1;P=y^3", "m=3;P=y^3,y^4"],
    st.sampled_from(["m=3;P=y^2", "m=", "m=0", "m=3;P=y^", ""]),
)
DENSITY = (["0.5", "0.2"], st.sampled_from(["-1", "2", "nan", "x"]))
SEED = (["0", "7"], INT)
TRIALS = (["1", "3"], INT)
FORMAT = (["json", "csv", "pretty"], st.just("xml"))
OUTPUT = (["<out>"], st.just("<nodir>"))
BAD_VALUES = ["p-overflows", "p-string", "p-nan", "p-fraction", "re-string", "re-nan"]
FIXTURE = st.sampled_from(
    ["<f7>", "<f11>", "<bad>", "<notjson>", "<missing>", *(f"<{name}>" for name in BAD_VALUES)]
)

FLAGS = {
    "gowers": {
        "--fixture": (["<f7>", "<f11>"], FIXTURE),
        "--s": (["2", "3"], INT),
        "--strategy": (["direct", "fast"], st.just("x")),
    },
    "lambda": {
        "--spec": SPEC,
        "--fixtures": (
            ["<f7>,<f7>,<f7>", "<f7>,<f7>,<f7>,<f7>,<f7>"],
            _joined(FIXTURE, max_size=6),
        ),
    },
    "discorrelate": {
        "--spec": SPEC,
        "--primes": LADDER,
        "--family": (
            ["random-unimodular", "random-indicator", "quadratic-phase", "character-phase"],
            st.just("x"),
        ),
        "--density": DENSITY,
        "--a": (["1", "3"], INT),
        "--trials": TRIALS,
        "--seed": SEED,
        "--format": FORMAT,
        "--output": OUTPUT,
    },
    "counterexample": {"--p": (PRIMES, INT), "--a": (["1", "2"], INT)},
    "chardecay": {
        "--primes": LADDER,
        "--s": (["2", "3"], INT),
        "--k": (["all", "2", "3"], INT),
        "--format": FORMAT,
        "--output": OUTPUT,
    },
    "weil": {
        "--p": (PRIMES, INT),
        "--k": (["2", "3"], INT),
        "--r": (["1", "2"], INT),
        "--points": (["0,1", "1,2,5,7"], _joined(st.integers(-3, 29).map(str), max_size=4)),
    },
    "restricted-ap": {
        "--primes": LADDER,
        "--m": (["1", "2", "3", "4"], INT),
        "--k": (["1", "2", "3"], INT),
        "--density": DENSITY,
        "--trials": TRIALS,
        "--seed": SEED,
        "--format": FORMAT,
        "--output": OUTPUT,
    },
    "search": {
        "--spec": SPEC,
        "--p": (PRIMES, INT),
        "--mode": (["exact", "greedy"], st.just("x")),
        "--seed": SEED,
        "--format": (["json", "pretty"], st.sampled_from(["csv", "xml"])),
        "--output": OUTPUT,
    },
}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Paths that stand in for the placeholders the argv strategy draws."""
    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(1)
    files = {"<out>": root / "report.txt", "<nodir>": root / "missing" / "report.txt"}
    for p in (7, 11):
        files[f"<f{p}>"] = root / f"f{p}.json"
        f = FpFunction(make_field(p), np.exp(2j * np.pi * rng.random(p)), bounded=True)
        files[f"<f{p}>"].write_text(f.to_json())
    files["<bad>"] = root / "bad.json"
    files["<bad>"].write_text(json.dumps({"p": 7, "re": [0.0] * 6, "im": [0.0] * 7}))
    files["<notjson>"] = root / "notjson.json"
    files["<notjson>"].write_text("{p: 7")
    files["<missing>"] = root / "missing.json"
    for name in BAD_VALUES:
        files[f"<{name}>"] = root / f"{name}.json"
        files[f"<{name}>"].write_text(MALFORMED_FIXTURES[name])
    return {token: str(path) for token, path in files.items()}


@st.composite
def argvs(draw, command, victim):
    argv = [command]
    for flag, (valid, hostile) in FLAGS[command].items():
        if flag != victim:
            argv += [flag, draw(st.sampled_from(valid) if isinstance(valid, list) else valid)]
        elif draw(st.integers(0, 3)):  # left out 1 time in 4
            argv += [flag, draw(hostile)]
    return argv


@pytest.mark.parametrize(
    "command, victim", [(cmd, flag) for cmd, flags in FLAGS.items() for flag in (None, *flags)]
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_generated_argv_exit_codes(command, victim, data, argv_files):
    argv = data.draw(argvs(command, victim))
    for token, path in argv_files.items():
        argv = [arg.replace(token, path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    set_budget(10**5)  # heavy paths stop with BudgetExceeded rather than run for minutes
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    finally:
        set_budget(None)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_empty_ladder_report(tmp_path):
    # zero rows, null fit is still a valid report
    from ffprog.experiments import SweepReport

    rep = SweepReport(spec="empty")
    obj = json.loads(rep.to_json())
    assert obj["rows"] == [] and obj["fit"] is None
    assert rep.to_csv().splitlines() == ["p,stat,value,trials,seed"]
