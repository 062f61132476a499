#!/usr/bin/env python3
"""Byte probe: one `sha256 argv` line per ffprog command, so two trees compare by `diff`.

    python3 tools/probe_outputs.py > probe.txt

Run it from the root of a source checkout: it imports ffprog from ./src and the
benchmark's command lists from bench/run.py, and calls ffprog.cli.main in process for
every command. Each line is the sha256 of json [argv, budget, exit code, stdout, stderr]
followed by the command; budget is the FFPROG_BUDGET value the command ran under, or
null for the default. Fixture files go to a temporary directory whose path is written
as <tmp> in argv, stdout and stderr, so the lines of two trees match when their outputs
do. The groups:

- bench: the commands of the three benchmark workloads for seeds 0-10 (121);
- search: `search --mode exact`, pretty and json, for 9 specs at every p in 0..41
  (non-primes are refused, and so is p = 41, past the cap);
- budget: FFPROG_BUDGET refusals, before any table and in the middle of a search, the
  two budgets either side of one node charge of the exact search, and `restricted-ap
  --m 5`, whose two scans per trial are both charged;
- other: the remaining subcommands, their refusals (a prime repeated in a ladder, an
  empty or non-integer ladder and `gowers --s 1` among them), a warning, a
  discorrelation report, as csv, pretty and json, whose label renders every kind of term,
  `lambda` and `discorrelate` for `m=1;P=y^2+1`, whose AP prefix is one slot, and
  `restricted-ap --m 5|6`;
- gowers: `gowers --s 2|3|4 --strategy direct|fast` on 7-, 13- and 101-point fixtures
  (the 13-point one is the quadratic character, with its exact zero), leaving out what
  the default budget refuses, and `chardecay --s 3 --format json` on a four-prime ladder;
- greedy: `search --mode greedy --format json` for the same 9 specs at every prime
  p <= 41, seeds 0-2;
- usage: help and usage errors: lines without a subcommand, and for each subcommand
  --help, a missing required flag, an unknown flag, a trailing extra token and a bad
  --format (45). Help is wrapped at COLUMNS=80 whatever the terminal.

A whole run takes about 40 s on a 2-vCPU Xeon, most of it the p = 37 searches.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

EXACT_SPECS = (
    "m=1", "m=3", "m=4", "m=40", "m=2;P=y^2", "m=2;P=-y^2+2y^3", "m=3;P=y^3,y^4", "m=3;P=y",
    "m=1;P=y^2+1",
)


def load_bench():
    """bench/run.py as a module; it puts ./src first on sys.path."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.use_source_tree()
    return bench


def bench_commands(bench, tmp: Path):
    for seed in bench.REFERENCE_SEEDS:
        for workload in bench.WORKLOADS:
            fixtures = None
            if workload == "gowers":
                (tmp / f"seed{seed}").mkdir()
                fixtures = bench.write_fixtures(seed, tmp / f"seed{seed}")
            for op in bench.build_ops(workload, seed, fixtures):
                yield None, list(op.argv)


def search_commands():
    for spec in EXACT_SPECS:
        for p in range(42):
            for fmt in ("pretty", "json"):
                yield None, ["search", "--spec", spec, "--p", str(p), "--mode", "exact",
                             "--format", fmt]


def budget_commands(bench, tmp: Path):
    f101 = str(bench.write_fixtures(0, tmp)[bench.GOWERS_DIRECT_P])
    m4 = ["search", "--spec", "m=4", "--p", "29", "--mode", "exact"]
    yield "1000", ["discorrelate", "--spec", "m=3;P=y^3,y^4", "--primes", "101,211",
                   "--trials", "2", "--format", "json"]
    yield "1000", ["counterexample", "--p", "101", "--a", "1"]
    yield "1000", ["lambda", "--spec", "m=3;P=y^2", "--fixtures", ",".join([f101] * 4)]
    yield "1000", ["gowers", "--fixture", f101, "--s", "3", "--strategy", "direct"]
    yield "1000", ["search", "--spec", "m=3", "--p", "31", "--mode", "exact"]
    yield "1000", ["search", "--spec", "m=3", "--p", "401", "--mode", "greedy"]
    for budget in ("1000", "5000", "50000", "100000", "300000"):
        yield budget, m4
    yield "100000", ["search", "--spec", "m=5", "--p", "31", "--mode", "exact"]  # mid-search
    for budget in ("25129", "25130"):  # its fifth node charge: refused, then answered
        yield budget, ["search", "--spec", "m=3;P=y^3,y^4", "--p", "31", "--mode", "exact"]
    yield "not-a-number", m4
    # 2 * 101^2 * 5 * 2 = 204 020 terms for the two scans of each trial: over this budget
    yield "100000", ["restricted-ap", "--primes", "101", "--m", "5", "--k", "2", "--trials", "2"]


def other_commands(bench, tmp: Path):
    f101 = str(bench.write_fixtures(0, tmp)[bench.GOWERS_DIRECT_P])
    f7 = tmp / "f7.json"
    f7.write_text(json.dumps({"p": 7, "re": [0.6] * 7, "im": [0.8] * 7}))
    yield None, ["lambda", "--spec", "m=3;P=7y^4+y^3", "--fixtures", ",".join([str(f7)] * 4)]
    yield None, ["lambda", "--spec", "m=3;P=y", "--fixtures", ",".join([str(f7)] * 4)]
    yield None, ["lambda", "--spec", "m=1;P=y^2+1", "--fixtures", ",".join([str(f7)] * 2)]
    yield None, ["lambda", "--spec", "m=3", "--fixtures", str(tmp / "missing.json")]
    yield None, ["gowers", "--fixture", f101, "--s", "2"]
    yield None, ["gowers", "--fixture", f101, "--s", "99999999", "--strategy", "direct"]
    yield None, ["counterexample", "--p", "101", "--a", "3"]
    yield None, ["counterexample", "--p", "2", "--a", "1"]
    yield None, ["weil", "--p", "101", "--k", "2", "--r", "1", "--points", "0,1"]
    yield None, ["weil", "--p", "101", "--k", "2", "--r", "2", "--points", "0,0,1,1"]
    yield None, ["chardecay", "--primes", "11,13,17", "--s", "2", "--k", "all", "--format", "csv"]
    yield None, ["restricted-ap", "--primes", "11,13,17", "--k", "2", "--trials", "3"]
    yield None, ["chardecay", "--primes", "11,11,13", "--s", "2"]
    yield None, ["search", "--spec", "m=3;P=y^3,y^4", "--p", "101", "--mode", "greedy"]
    yield None, ["search", "--spec", "m=3", "--p", "1000003", "--mode", "exact"]
    yield None, ["search", "--spec", "m=3;P=y^", "--p", "11"]
    yield None, ["discorrelate", "--spec", "m=3", "--primes", ","]
    yield None, ["restricted-ap", "--primes", ",", "--k", "2"]
    yield None, ["chardecay", "--primes", ","]
    yield None, ["chardecay", "--primes", "1x1"]
    yield None, ["gowers", "--fixture", f101, "--s", "1"]
    for fmt in ("csv", "pretty", "json"):  # a label with negative, unit and constant terms
        yield None, ["discorrelate", "--spec", "m=2;P=-y^2+2y^3,3-y+y^4", "--primes",
                     "11,13,17", "--trials", "2", "--format", fmt]
    # a one-slot AP prefix: the scan stops after slot 0 before it folds in the polynomial slot
    yield None, ["discorrelate", "--spec", "m=1;P=y^2+1", "--primes", "5,7,11", "--trials", "2",
                 "--format", "json"]
    for m in ("5", "6"):  # past four terms: m is limited by the budget alone
        yield None, ["restricted-ap", "--primes", "11,13,17", "--m", m, "--k", "2", "--trials", "2",
                     "--format", "json"]


def gowers_commands(bench, tmp: Path):
    f7, f13 = tmp / "f7.json", tmp / "f13.json"
    phases = np.random.default_rng(7).random(7)
    f7.write_text(json.dumps({"p": 7, "re": np.cos(2 * np.pi * phases).tolist(),
                              "im": np.sin(2 * np.pi * phases).tolist()}))
    squares = {x * x % 13 for x in range(1, 13)}
    chi = [0] + [1 if x in squares else -1 for x in range(1, 13)]
    f13.write_text(json.dumps({"p": 13, "re": chi, "im": [0] * 13}))
    fixtures = {7: f7, 13: f13, 101: bench.write_fixtures(0, tmp)[bench.GOWERS_DIRECT_P]}
    for p, path in fixtures.items():
        for s in (2, 3, 4):
            for strategy in ("direct", "fast"):
                if strategy == "direct" and p ** (s + 1) > 10**9:  # the default budget's refusal
                    continue
                yield None, ["gowers", "--fixture", str(path), "--s", str(s), "--strategy", strategy]
    yield None, ["chardecay", "--primes", "11,13,17,101", "--s", "3", "--k", "all", "--format", "json"]


def greedy_commands():
    primes = [p for p in range(2, 42) if all(p % d for d in range(2, p))]
    for spec in EXACT_SPECS:
        for p in primes:
            for seed in range(3):
                yield None, ["search", "--spec", spec, "--p", str(p), "--mode", "greedy",
                             "--seed", str(seed), "--format", "json"]


def usage_commands(tmp: Path):
    f7 = tmp / "f7.json"
    f7.write_text(json.dumps({"p": 7, "re": [0.6] * 7, "im": [0.8] * 7}))
    flags = {  # a valid line of each subcommand, whose first flag is required
        "gowers": ["--fixture", str(f7)],
        "lambda": ["--spec", "m=3", "--fixtures", ",".join([str(f7)] * 3)],
        "discorrelate": ["--spec", "m=3", "--primes", "11", "--trials", "1"],
        "counterexample": ["--p", "7", "--a", "1"],
        "chardecay": ["--primes", "11"],
        "weil": ["--p", "11", "--k", "2", "--r", "1", "--points", "0,1"],
        "restricted-ap": ["--primes", "11", "--k", "2", "--trials", "1"],
        "search": ["--spec", "m=3", "--p", "7"],
    }
    for argv in ([], ["-h"], ["--help"], ["frobnicate"], ["--", "search", *flags["search"]]):
        yield None, argv
    for name, valid in flags.items():
        yield None, [name, "--help"]
        yield None, [name, *valid[2:]]
        yield None, [name, "--bogus"]
        yield None, [name, *valid, "extra"]
        yield None, [name, *valid, "--format", "xml"]


def run(cli, budget: str | None, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) under FFPROG_BUDGET=budget."""
    saved = os.environ.pop("FFPROG_BUDGET", None)
    if budget is not None:
        os.environ["FFPROG_BUDGET"] = budget
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a traceback breaks the CLI contract; record it and go on
        code = f"raised {type(exc).__name__}: {exc}"
    finally:
        os.environ.pop("FFPROG_BUDGET", None)
        if saved is not None:
            os.environ["FFPROG_BUDGET"] = saved
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    bench = load_bench()
    from ffprog import cli

    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal, which a pipe lacks

    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        groups = {  # generators: each group's directory is made before its first command
            "bench": bench_commands(bench, tmp / "bench"),
            "search": search_commands(),
            "budget": budget_commands(bench, tmp / "budget"),
            "other": other_commands(bench, tmp / "other"),
            "gowers": gowers_commands(bench, tmp / "gowers"),
            "greedy": greedy_commands(),
            "usage": usage_commands(tmp / "usage"),
        }
        for group, commands in groups.items():
            (tmp / group).mkdir()
            for budget, command in commands:
                code, out, err = run(cli, budget, command)
                record = [command, budget, code, out, err]
                text = json.dumps(record).replace(tmp_name, "<tmp>")
                digest = hashlib.sha256(text.encode()).hexdigest()
                shown = shlex.join(command).replace(tmp_name, "<tmp>")
                prefix = "" if budget is None else f"FFPROG_BUDGET={budget} "
                print(f"{digest} {prefix}{shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
