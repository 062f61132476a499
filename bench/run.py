#!/usr/bin/env python3
"""ffprog benchmark: seeded CLI workloads, end-to-end timings and per-layer traces.

    python3 bench/run.py --workload {sweep,gowers,freeset} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports ffprog from ./src (no
install needed). Each pass runs the workload's `ffprog` commands in-process
through `ffprog.cli.main`, on a freshly imported ffprog (as a new CLI process
would see it), with BLAS/OpenMP pinned to one thread. Each timed command is
followed by its twin, a fixed reference kernel (bench/yardstick.py), and
times are reported scaled to a reference host speed. Outputs are checked
after the timed region. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics. See bench/README.md.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

sys.dont_write_bytecode = True  # leave the checkout as it is, apart from bench/out
sys.path.insert(0, str(BENCH_DIR))
import layers  # noqa: E402
import yardstick  # noqa: E402

WORKLOADS = ("sweep", "gowers", "freeset")
DEFAULT_SEED = 0
REFERENCE_SEEDS = range(0, 11)  # seeds whose seeded outputs are stored in reference.json
SETUP_REPS = 9
MIN_PASSES = 3
MIN_TRACE_PASSES = 4  # alternating untraced/traced, so at least two of each
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
GOWERS_ROUTE_TOL = 1e-7  # direct vs fast U^3 on one fixture (acceptance criterion 01)

SWEEP_SPEC = "m=3;P=y^3,y^4"
SWEEP_PRIMES = "101,211,401,809"
RESTRICTED_PRIMES = "101,211,401"
TRIALS = "20"
GOWERS_DIRECT_P = 101
GOWERS_FAST_P = 2003

# Independent description of each searched configuration: slot offsets at difference y.
SEARCH_OFFSETS = {
    "m=3": lambda y: (0, y, 2 * y),
    "m=3;P=y^3,y^4": lambda y: (0, y, 2 * y, y**3, y**4),
}

# Functions each workload must call at least once per traced pass; a later
# rebinding that bypasses a wrapper fails the run instead of zeroing a layer.
PREDICTED_USE = {
    "sweep": (
        "cli.main",
        "experiments.discorrelation_sweep",
        "experiments.discorrelation_error",
        "experiments.TrialFunctionFamily.generate",
        "experiments.restricted_ap_experiment",
        "counting.lambda_poly",
        "counting.lambda_ap",
        "counting.lambda_ap_weighted",
        "field.make_field",
        "field.kth_power_residues",
    ),
    "gowers": (
        "cli.main",
        "harmonic.gowers_direct",
        "harmonic.gowers_fast",
        "experiments.character_norm_decay",
        "field.make_field",
        "field.mult_character",
    ),
    "freeset": (
        "cli.main",
        "counting.find_progression",
        "counting.exact_max_free_set",
        "experiments.greedy_free_set",
        "field.make_field",
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad reference file)."""


# ---------------------------------------------------------------------------
# Program under test


def use_source_tree() -> None:
    """Import ffprog from ./src, whether or not it is installed."""
    if not (SRC / "ffprog" / "__init__.py").is_file():
        raise BenchError(f"no ffprog source tree at {SRC}")
    sys.path.insert(0, str(SRC))


def fresh_import():
    """Drop every loaded ffprog module and import ffprog.cli again from ./src."""
    for name in [n for n in sys.modules if n == "ffprog" or n.startswith("ffprog.")]:
        del sys.modules[name]
    cli = importlib.import_module("ffprog.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"ffprog imported from {cli.__file__}, not from {SRC}")
    return cli


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def src_line_count() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Op:
    """One CLI invocation. `parse` turns stdout into a comparable value;
    `check` returns a list of problems with that value (empty when correct)."""

    label: str
    argv: tuple[str, ...]
    parse: Callable[[str], object]
    check: Callable[[object], list[str]]
    seeded: bool  # output depends on --seed (reference stored per seed)


def write_fixtures(seed: int, directory: Path) -> dict[int, Path]:
    """Unimodular fixture functions for the gowers workload, drawn from the seed."""
    paths = {}
    for p in (GOWERS_DIRECT_P, GOWERS_FAST_P):
        rng = random.Random(f"ffprog-bench:{seed}:{p}")
        phases = [2 * math.pi * rng.random() for _ in range(p)]
        obj = {"p": p, "re": [math.cos(t) for t in phases], "im": [math.sin(t) for t in phases]}
        paths[p] = directory / f"f{p}.json"
        paths[p].write_text(json.dumps(obj))
    return paths


def parse_norm(text: str) -> float:
    head, _, value = text.strip().partition(" = ")
    if not head.startswith("U^") or not value:
        raise ValueError(f"unexpected gowers output {text!r}")
    return float(value)


def check_sweep_report(primes: str, seed: int):
    expected_ps = sorted(int(p) for p in primes.split(","))

    def check(report) -> list[str]:
        problems = []
        if set(report) != {"spec", "rows", "fit"}:
            return [f"report keys {sorted(report)}"]
        ps = sorted({row["p"] for row in report["rows"]})
        if ps != expected_ps:
            problems.append(f"primes {ps} != {expected_ps}")
        by_p = {}
        for row in report["rows"]:
            if row["seed"] != seed or row["trials"] != int(TRIALS):
                problems.append(f"row {row} does not echo seed/trials")
            if not (math.isfinite(row["value"]) and row["value"] >= 0):
                problems.append(f"row {row} has a bad value")
            by_p.setdefault(row["p"], {})[row["stat"]] = row["value"]
        for p, stats in by_p.items():
            if set(stats) != {"median_error", "max_error"}:
                problems.append(f"p={p} stats {sorted(stats)}")
            elif stats["median_error"] > stats["max_error"]:
                problems.append(f"p={p} median exceeds max")
        if report["fit"] is None:
            problems.append("no decay fit")
        return problems

    return check


def check_chardecay(primes: str):
    expected_ps = {int(p) for p in primes.split(",")}

    def check(report) -> list[str]:
        if set(report) != {"spec", "rows", "fit"}:
            return [f"report keys {sorted(report)}"]
        ps = {row["p"] for row in report["rows"]}
        return [] if ps == expected_ps else [f"primes {sorted(ps)}"]

    return check


def is_progression_free(elements, spec: str, p: int) -> bool:
    """Pure-Python scan of every instance with y != 0 anchored at an element of the set."""
    members = set(elements)
    offsets_of = SEARCH_OFFSETS[spec]
    for y in range(1, p):
        offsets = [o % p for o in offsets_of(y)]
        for x in members:
            if all((x + o) % p in members for o in offsets):
                return False
    return True


def is_maximal(elements, spec: str, p: int) -> bool:
    """Pure-Python check that every residue outside the set would complete an instance.

    Greedy and exact search both return maximal free sets, so a search that
    rejects too much fails here even when its set is progression-free."""
    members = set(elements)
    completes = set()
    for y in range(1, p):
        offsets = [o % p for o in SEARCH_OFFSETS[spec](y)]
        for j, oj in enumerate(offsets):
            # the other points of an instance holding e in slot j sit at e + d
            rel = sorted({(o - oj) % p for o in offsets} - {0})
            for a in members:
                e = (a - rel[0]) % p
                if e not in members and all((e + d) % p in members for d in rel[1:]):
                    completes.add(e)
    return len(members) + len(completes) == p


def check_search(spec: str, p: int, mode: str):
    def check(result) -> list[str]:
        if set(result) != {"p", "mode", "size", "density", "set"}:
            return [f"result keys {sorted(result)}"]
        elements = result["set"]
        problems = []
        if result["p"] != p or result["mode"] != mode:
            problems.append(f"p/mode echo {result['p']}/{result['mode']}")
        if elements != sorted(set(elements)) or not all(0 <= e < p for e in elements):
            problems.append("set is not sorted distinct residues")
        if result["size"] != len(elements) or result["density"] != len(elements) / p:
            problems.append("size/density disagree with the set")
        if not is_progression_free(elements, spec, p):
            problems.append(f"set contains a {spec} instance")
        elif not is_maximal(elements, spec, p):
            problems.append("set is not maximal")
        return problems

    return check


def check_norm(route_value: Callable[[], float] | None):
    def check(value) -> list[str]:
        problems = [] if 0.0 <= value <= 1.0 + 1e-9 else [f"U^3 = {value} outside [0, 1]"]
        if route_value is not None:
            other = route_value()
            if abs(value - other) > GOWERS_ROUTE_TOL:
                problems.append(f"direct U^3 {value!r} vs fast {other!r}")
        return problems

    return check


def build_ops(workload: str, seed: int, fixtures: dict[int, Path] | None) -> list[Op]:
    """The workload's commands, each with its output parser and checks."""
    s = str(seed)
    if workload == "sweep":
        ops = [
            Op(
                f"discorrelate-{family}",
                ("discorrelate", "--spec", SWEEP_SPEC, "--primes", SWEEP_PRIMES,
                 "--family", family, "--trials", TRIALS, "--seed", s, "--format", "json"),
                json.loads,
                check_sweep_report(SWEEP_PRIMES, seed),
                True,
            )
            for family in ("random-unimodular", "quadratic-phase")
        ]
        ops.append(
            Op(
                "restricted-ap",
                ("restricted-ap", "--primes", RESTRICTED_PRIMES, "--m", "3", "--k", "2",
                 "--trials", TRIALS, "--seed", s, "--format", "json"),
                json.loads,
                check_sweep_report(RESTRICTED_PRIMES, seed),
                True,
            )
        )
        return ops
    if workload == "gowers":
        direct_fixture = str(fixtures[GOWERS_DIRECT_P])

        def fast_on_direct_fixture() -> float:
            harmonic = sys.modules["ffprog.harmonic"]
            f = harmonic.FpFunction.from_json(Path(direct_fixture).read_text())
            return harmonic.gowers_fast(f, 3)

        return [
            Op(
                "gowers-direct",
                ("gowers", "--fixture", direct_fixture, "--s", "3", "--strategy", "direct"),
                parse_norm,
                check_norm(fast_on_direct_fixture),
                True,
            ),
            Op(
                "gowers-fast",
                ("gowers", "--fixture", str(fixtures[GOWERS_FAST_P]),
                 "--s", "3", "--strategy", "fast"),
                parse_norm,
                check_norm(None),
                True,
            ),
            Op(
                "chardecay-s3",
                ("chardecay", "--primes", "101,211,401,809", "--s", "3", "--k", "all",
                 "--format", "json"),
                json.loads,
                check_chardecay("101,211,401,809"),
                False,
            ),
            Op(
                "chardecay-s2",
                ("chardecay", "--primes", "101,997,10007", "--s", "2", "--k", "all",
                 "--format", "json"),
                json.loads,
                check_chardecay("101,997,10007"),
                False,
            ),
        ]
    if workload == "freeset":
        runs = (
            ("m=3", 401, "greedy"),
            (SWEEP_SPEC, 211, "greedy"),
            ("m=3", 31, "exact"),
            (SWEEP_SPEC, 23, "exact"),
        )
        return [
            Op(
                f"search-{mode}-{spec}-p{p}",
                ("search", "--spec", spec, "--p", str(p), "--mode", mode, "--seed", s,
                 "--format", "json"),
                json.loads,
                check_search(spec, p, mode),
                mode == "greedy",
            )
            for spec, p, mode in runs
        ]
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running and checking


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str
    seconds: float
    twin_seconds: float | None  # time of the command's twin, run right after it


def run_pass(cli, ops: list[Op], twins: bool) -> list[Outcome]:
    """One pass over the workload's commands, each timed on its own. With
    `twins`, each command is followed at once by its timed twin."""
    outcomes = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t_op = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(op.argv))
            except Exception:  # an escaped exception is a failed operation, not a crash
                traceback.print_exc()
                rc = -1
        seconds = time.perf_counter() - t_op
        twin_seconds = timed(yardstick.TWINS[op.label][0]) if twins else None
        outcomes.append(Outcome(rc, out.getvalue(), err.getvalue(), seconds, twin_seconds))
    return outcomes


def scaled_seconds(label: str, outcome: Outcome) -> float:
    """A command's time at the reference host speed (see bench/yardstick.py)."""
    return outcome.seconds * yardstick.TWINS[label][1] / outcome.twin_seconds


def pass_estimate(passes: list[list[float]]) -> float:
    """Typical pass time: the sum over commands of each command's median time,
    so that one disturbed command does not move the whole pass."""
    return sum(statistics.median(times) for times in zip(*passes))


def close_enough(a, b) -> bool:
    """Structural equality: keys, strings and integers exact, floats within tolerance."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close_enough(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close_enough(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
            return False
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
    return type(a) is type(b) and a == b


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {REFERENCE_PATH}: {exc}") from exc


def reference_for(reference: dict, op: Op, seed: int):
    if op.seeded:
        return reference["seeded"].get(str(seed), {}).get(op.label)
    return reference["unseeded"].get(op.label)


def check_outputs(
    ops: list[Op], passes: list[list[Outcome]], seed: int, reference: dict
) -> tuple[int, int, list[str]]:
    """Check every operation of every pass; returns (attempted, failed, problems).

    Cross-route checks call ffprog again, on a fresh untraced import."""
    fresh_import()
    attempted = failed = 0
    problems: list[str] = []
    for i, op in enumerate(ops):
        first = passes[0][i].stdout
        try:
            value = op.parse(first)
            op_problems = op.check(value)
            expected = reference_for(reference, op, seed)
            if expected is not None and not close_enough(value, expected):
                op_problems.append("output differs from the stored reference")
        except (ValueError, KeyError, TypeError) as exc:
            op_problems = [f"unparseable output: {exc}"]
        problems.extend(f"{op.label}: {p}" for p in op_problems)
        for outcome in (pass_outcomes[i] for pass_outcomes in passes):
            attempted += 1
            bad = bool(op_problems) or outcome.rc != 0 or outcome.stdout != first
            if outcome.rc != 0:
                problems.append(f"{op.label}: exit {outcome.rc}: {outcome.stderr.strip()[:200]}")
            elif outcome.stdout != first:
                problems.append(f"{op.label}: output not byte-identical across passes")
            failed += bad
    return attempted, failed, problems


def setup(workload: str, seed: int, scratch: Path):
    """Everything a pass needs before it starts: a fresh ffprog import, the
    seeded inputs and the fixture files. Returns (seconds, cli module, ops)."""
    t0 = time.perf_counter()
    cli = fresh_import()
    fixture_dir = Path(tempfile.mkdtemp(prefix="fixtures-", dir=scratch))
    fixtures = write_fixtures(seed, fixture_dir) if workload == "gowers" else None
    ops = build_ops(workload, seed, fixtures)
    return time.perf_counter() - t0, cli, ops


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    use_source_tree()
    reference = load_reference()
    import numpy  # the runtime dependency; imported once, outside setup_s

    t_start = time.perf_counter()  # --seconds counts from here
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        # Set-ups are timed before the first pass and again before every pass,
        # so their samples span the whole run like the pass samples do. Each
        # one follows a timed run of its twin.
        twin, twin_ref = yardstick.SETUP_TWIN
        setup_times, setup_twin_times = [], []

        def timed_setup():
            gc.collect()
            setup_twin_times.append(timed(twin))
            elapsed, cli, ops = setup(workload, seed, scratch)
            setup_times.append(elapsed)
            return cli, ops

        for _ in range(SETUP_REPS):
            timed_setup()

        # One untimed warm-up pass, checked with the others. Peak memory is
        # read right after it, before any twin has run, so it is the
        # workload's own.
        cli, ops = timed_setup()
        outcomes = [run_pass(cli, ops, twins=False)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for op in ops:
            yardstick.TWINS[op.label][0]()  # warm-up

        tracer = layers.Tracer(workload, t_start) if trace else None
        pass_times, scaled, traced_flags = [], [], []
        min_passes = MIN_TRACE_PASSES if trace else MIN_PASSES
        while True:
            t_pass = time.perf_counter()
            cli, ops = timed_setup()
            traced = trace and len(pass_times) % 2 == 1
            if traced:
                tracer.pass_index = len(pass_times)
                tracer.install()  # rebinds cli.main too, so the call below is traced
            pass_outcomes = run_pass(cli, ops, twins=True)
            outcomes.append(pass_outcomes)
            pass_times.append(sum(o.seconds for o in pass_outcomes))
            scaled.append([scaled_seconds(op.label, o) for op, o in zip(ops, pass_outcomes)])
            traced_flags.append(traced)
            cycle = time.perf_counter() - t_pass
            if len(pass_times) >= min_passes and time.perf_counter() - t_start + cycle > seconds:
                break
        plain = pass_estimate([x for x, tr in zip(scaled, traced_flags) if not tr])
        traced_scaled = pass_estimate([x for x, tr in zip(scaled, traced_flags) if tr])
        setups = [t * twin_ref / k for t, k in zip(setup_times, setup_twin_times)]

        attempted, failed, problems = check_outputs(ops, outcomes, seed, reference)
        correct = failed == 0
        meta = {
            "workload": workload,
            "seed": seed,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "src_lines": src_line_count(),
            "passes_s": pass_times,
            "scaled_commands_s": scaled,
            "traced_passes": traced_flags,
            "setup_reps_s": setup_times,
            "setup_twin_s": setup_twin_times,
            "scaled_setups_s": setups,
            "op_s": {op.label: [o[i].seconds for o in outcomes] for i, op in enumerate(ops)},
            "twin_s": {
                op.label: [o[i].twin_seconds for o in outcomes[1:]] for i, op in enumerate(ops)
            },
        }
        if trace:
            unused = [fn for fn in PREDICTED_USE[workload] if tracer.calls[fn] == 0]
            if unused:
                correct = False
                problems.append(f"trace self-test: no calls recorded on {', '.join(unused)}")
            spans_path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
            tracer.write_spans(spans_path, meta)
            raw_traced = [t for t, tr in zip(pass_times, traced_flags) if tr]
            metrics = layer_metrics(tracer, raw_traced, plain, traced_scaled, attempted, failed)
        else:
            metrics = {
                "wall_s": plain,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        print(json.dumps({"meta": meta}, sort_keys=True))
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def layer_metrics(tracer, raw_traced, plain, traced, attempted, failed) -> dict:
    """Per-traced-pass layer numbers, tracing overhead and the failure share.

    Shares are of the measured traced passes (`raw_traced`), like the self
    times; `plain` and `traced` are scaled pass estimates."""
    n = len(raw_traced)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    module_self = dict.fromkeys(layers.TARGETS, 0.0)
    for fn in layers.FUNCTIONS:
        put(f"{fn}.calls", tracer.calls[fn] / n, "count")
        put(f"{fn}.total_s", tracer.total_s[fn] / n, "s")
        put(f"{fn}.self_s", tracer.self_s[fn] / n, "s")
        module_self[fn.split(".")[0]] += tracer.self_s[fn] / n
    mean_traced_wall = sum(raw_traced) / n
    for module, value in module_self.items():
        put(f"{module}.self_s", value, "s")
        put(f"{module}.self_share", value / mean_traced_wall, "frac")
    put("wrapped.self_share", sum(module_self.values()) / mean_traced_wall, "frac")

    counts = tracer.counts
    for name, unit in (
        ("counting.lambda_poly.terms", "count"),
        ("counting.lambda_poly.bytes_computed", "B"),
        ("harmonic.gowers_direct.terms", "count"),
        ("harmonic.gowers_fast.transforms", "count"),
        ("experiments.greedy_free_set.candidates", "count"),
    ):
        put(name, counts[name] / n, unit)
    calls = tracer.calls["counting.find_progression"]
    found = counts["counting.find_progression.found"]
    put("counting.find_progression.found_ratio", found / calls if calls else 0.0, "frac")
    candidates = counts["experiments.greedy_free_set.candidates"]
    accepted = counts["experiments.greedy_free_set.accepted"]
    accept_ratio = accepted / candidates if candidates else 0.0
    put("experiments.greedy_free_set.accept_ratio", accept_ratio, "frac")

    put("traced_wall_s", traced, "s")
    put("trace_overhead_s", traced - plain, "s")
    put("traced_passes", n, "count")
    put("fail_frac", failed / attempted, "frac")
    return metrics


def write_reference() -> None:
    """Record the outputs of one checked pass per workload and reference seed.

    Run this only when an intended change of output has been reviewed; the
    stored values are what later runs are held to."""
    use_source_tree()
    reference = {"seeded": {}, "unseeded": {}}
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR))
    try:
        for seed in REFERENCE_SEEDS:
            for workload in WORKLOADS:
                _, cli, ops = setup(workload, seed, scratch)
                outcomes = run_pass(cli, ops, twins=False)
                empty = {"seeded": {}, "unseeded": {}}
                _, failed, problems = check_outputs(ops, [outcomes], seed, empty)
                if failed:
                    raise BenchError(f"{workload} seed {seed}: {problems}")
                for op, outcome in zip(ops, outcomes):
                    value = op.parse(outcome.stdout)
                    if op.seeded:
                        reference["seeded"].setdefault(str(seed), {})[op.label] = value
                    else:
                        reference["unseeded"][op.label] = value
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true", help="re-record bench/reference.json and exit"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.write_reference:
            write_reference()
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
