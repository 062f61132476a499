import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffprog import FpFunction, IntPolynomial, ParseError, ProgressionSpec, make_field
from ffprog.cli import DEFAULT_SEED, main, parse_spec, render_spec
from ffprog.counting import parse_progression_spec, render_progression_spec


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
    for bad in ("", "m=0", "n=3", "m=3;P=", "m=3;P=y^", "m=3;P=y,,y", "m=3;Q=y", "m=3 ;P=y"):
        with pytest.raises(ParseError):
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
    assert "CompositeModulus" in capsys.readouterr().err
    assert main(["counterexample", "--p", "7", "--a", "0"]) == 1


def test_weil_command(capsys):
    assert main(["weil", "--p", "101", "--k", "2", "--r", "1", "--points", "0,1"]) == 0
    assert "holds=true" in capsys.readouterr().out
    assert main(["weil", "--p", "4", "--k", "2", "--r", "1", "--points", "0,1"]) == 1


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


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["weil", "--p", "13", "--k", "2", "--r", "1", "--points", "a,b"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_empty_ladder_report(tmp_path):
    # zero rows, null fit is still a valid report
    from ffprog.experiments import SweepReport

    rep = SweepReport(spec="empty")
    obj = json.loads(rep.to_json())
    assert obj["rows"] == [] and obj["fit"] is None
    assert rep.to_csv().splitlines() == ["p,stat,value,trials,seed"]
