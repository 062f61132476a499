"""Command-line front end: parse specs, dispatch operations, write reports.

Exit codes: 0 success, 1 usage/parse errors, 2 when a verification subcommand's
own math check fails (bound violation, contract breach).
"""

import argparse
import contextlib
import json
import os
import sys
import warnings
from pathlib import Path

from . import experiments
from .counting import exact_max_free_set, lambda_poly, parse_progression_spec
from .errors import BoundViolation, FFProgError, IoFailure, MalformedFixture, UsageError
from .experiments import SweepReport, TrialFunctionFamily, greedy_free_set
from .field import make_field
from .harmonic import FpFunction, gowers_direct, gowers_fast

DEFAULT_SEED = 0xF1E1D  # documented fixed default


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 is reserved here for failed math checks
    def error(self, message):
        raise UsageError(message)


# argparse turns a flag parser's ValueError or ArgumentTypeError into an error naming the flag
def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        message = f"expected a comma-separated list of integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _path_list(text: str) -> tuple[str, ...]:
    return tuple(tok for tok in text.split(",") if tok)


def _int_at_least(low: int, what: str):
    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):  # int() syntax: '+5' and ' 5' pass
            if int(text) >= low:
                return int(text)
        raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")

    return parse


_positive_int = _int_at_least(1, "positive")
_seed = _int_at_least(0, "non-negative")


def _order(text: str) -> int | str:
    return text if text == "all" else _positive_int(text)


def build_parser(name: str | None = None) -> _Parser:
    """The ffprog parser. When `name` is a subcommand, only its subparser is built, since
    building all eight is most of a short command's fixed cost. It parses a line that starts
    with `name`, prints its help and raises its errors as the full parser does, because the
    top level has no option but -h. Any other `name` gets the full parser."""
    parser = _Parser(prog="ffprog", description=__doc__)
    parser.set_defaults(format="pretty", output=None)  # for subcommands without these flags
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(sub_name: str, run, help: str) -> _Parser | None:
        if name not in (None, sub_name):
            return None
        sp = sub.add_parser(sub_name, help=help)
        sp.set_defaults(run=run)
        return sp

    def common_output(sp, formats=("json", "csv", "pretty")):
        sp.add_argument("--format", choices=formats, default="pretty")
        sp.add_argument("--output", default=None, help="write report here instead of stdout")

    if sp := add("gowers", _cmd_gowers, "U^s norm of a fixture function"):
        sp.add_argument("--fixture", required=True, help='JSON file {"p":int,"re":[..],"im":[..]}')
        sp.add_argument("--s", type=int, default=2)
        sp.add_argument("--strategy", choices=("direct", "fast"), default="fast")

    if sp := add("lambda", _cmd_lambda, "counting operator on fixture functions"):
        sp.add_argument("--spec", required=True)
        sp.add_argument(
            "--fixtures", type=_path_list, required=True, help="comma-separated fixture paths"
        )

    if sp := add(
        "discorrelate", _cmd_discorrelate, "discorrelation error sweep over a prime ladder"
    ):
        sp.add_argument("--spec", required=True)
        sp.add_argument("--primes", type=_int_list, required=True)
        families = sorted(kind.replace("_", "-") for kind in experiments.FAMILY_KINDS)
        sp.add_argument("--family", choices=families, default="random-unimodular")
        sp.add_argument("--density", type=float, default=0.5)
        sp.add_argument("--a", type=int, default=None)
        sp.add_argument("--trials", type=_positive_int, default=20)
        sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        common_output(sp)

    if sp := add("counterexample", _cmd_counterexample, "degree-condition failure demo"):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--a", type=int, required=True)

    if sp := add("chardecay", _cmd_chardecay, "Gowers norms of multiplicative characters"):
        sp.add_argument("--primes", type=_int_list, required=True)
        sp.add_argument("--s", type=int, default=2)
        sp.add_argument(
            "--k", type=_order, default="all", help="character order, or 'all' for every divisor"
        )
        common_output(sp)

    if sp := add("weil", _cmd_weil, "character sum against the 2r/sqrt(p) bound"):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--k", type=_positive_int, required=True)
        sp.add_argument("--r", type=_positive_int, required=True)
        sp.add_argument("--points", type=_int_list, required=True, help="comma-separated b_1..b_2r")

    if sp := add("restricted-ap", _cmd_restricted_ap, "APs with k-th power differences sweep"):
        sp.add_argument("--primes", type=_int_list, required=True)
        sp.add_argument("--m", type=_positive_int, default=3)
        sp.add_argument("--k", type=_positive_int, required=True)
        sp.add_argument("--density", type=float, default=0.5)
        sp.add_argument("--trials", type=_positive_int, default=20)
        sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        common_output(sp)

    if sp := add("search", _cmd_search, "progression-free set search"):
        sp.add_argument("--spec", required=True)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--mode", choices=("exact", "greedy"), default="exact")
        sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        common_output(sp, ("json", "pretty"))

    return parser if sub.choices else build_parser()


def _write(output: str | SweepReport, args: argparse.Namespace) -> None:
    """The only writer: a command's text, or a SweepReport in --format (JSON/CSV bit-exact,
    pretty for humans), to stdout or --output; a failed write raises IoFailure."""
    if isinstance(output, SweepReport):
        output = {"json": output.to_json, "csv": output.to_csv}.get(args.format, output.to_pretty)()
    try:
        if args.output is None:
            sys.stdout.write(output)
            sys.stdout.flush()
        else:
            Path(args.output).write_text(output)
    except OSError as exc:
        raise IoFailure(f"cannot write report: {exc}") from exc


def _load_fixture(path: str) -> FpFunction:
    try:
        return FpFunction.from_json(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read fixture {path}: {exc}") from exc
    except (UnicodeDecodeError, MalformedFixture) as exc:
        raise MalformedFixture(f"{path}: {exc}") from exc


def _cmd_gowers(args: argparse.Namespace) -> str:
    f = _load_fixture(args.fixture)
    value = gowers_direct(f, args.s) if args.strategy == "direct" else gowers_fast(f, args.s)
    return f"U^{args.s} = {value:.12g}\n"


def _cmd_lambda(args: argparse.Namespace) -> str:
    spec = parse_progression_spec(args.spec)
    fs = [_load_fixture(path) for path in args.fixtures]
    value = lambda_poly(spec, fs)
    return f"lambda = {value.real:.12g}{value.imag:+.12g}i  |lambda| = {abs(value):.12g}\n"


def _cmd_discorrelate(args: argparse.Namespace) -> SweepReport:
    spec = parse_progression_spec(args.spec)
    kind = args.family.replace("-", "_")
    family = TrialFunctionFamily(kind=kind, seed=args.seed, density=args.density, a=args.a)
    return experiments.discorrelation_sweep(args.primes, spec, family, args.trials)


def _cmd_counterexample(args: argparse.Namespace) -> str:
    ctx = make_field(args.p)
    lhs, rhs = experiments.counterexample_demo(ctx, args.a)
    line = f"lhs={lhs:.9f} rhs={rhs:.9f}\n"
    if abs(lhs - 1.0) > 1e-9 or rhs > 1e-12:
        raise BoundViolation("counterexample contract violated", report=line)
    return line


def _cmd_chardecay(args: argparse.Namespace) -> SweepReport:
    return experiments.character_norm_decay(args.primes, args.s, args.k)


def _cmd_weil(args: argparse.Namespace) -> str:
    ctx = make_field(args.p)
    modulus, bound, holds = experiments.weil_corollary_check(ctx, args.k, args.r, args.points)
    line = f"modulus={modulus:.9f} bound={bound:.9f} holds={str(holds).lower()}\n"
    if not holds:
        raise BoundViolation(f"|sum| = {modulus:.9f} exceeds 2r/sqrt(p) = {bound:.9f}", report=line)
    return line


def _cmd_restricted_ap(args: argparse.Namespace) -> SweepReport:
    family = TrialFunctionFamily(kind="random_indicator", seed=args.seed, density=args.density)
    return experiments.restricted_ap_experiment(args.primes, args.m, args.k, family, args.trials)


def _cmd_search(args: argparse.Namespace) -> str:
    spec = parse_progression_spec(args.spec)
    ctx = make_field(args.p)
    if args.mode == "exact":
        size, elements = exact_max_free_set(ctx, spec)
        density = size / ctx.p
    else:
        elements, density = greedy_free_set(ctx, spec, args.seed)
        size = len(elements)
    if args.format == "json":
        result = {"p": ctx.p, "mode": args.mode, "size": size, "density": density, "set": elements}
        return json.dumps(result, sort_keys=True) + "\n"
    listing = " ".join(map(str, elements))
    return f"p={ctx.p} mode={args.mode} size={size} density={density:.6f}\nset: {listing}\n"


def _print_warning(message, *_location) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():  # one stderr line per warning, without a source location
        warnings.showwarning = _print_warning
        try:
            argv = sys.argv[1:] if argv is None else argv
            args = build_parser(argv[0] if argv else None).parse_args(argv)
            try:
                output = args.run(args)
            except BoundViolation as exc:  # the output built before the failed check still goes out
                if exc.report is not None:
                    _write(exc.report, args)
                raise
            _write(output, args)
            return 0
        except SystemExit as exc:  # argparse --help
            return int(exc.code or 0)
        except FFProgError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2 if isinstance(exc, BoundViolation) else 1


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:  # the IoFailure is on stderr; drop the unwritten rest so exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
