"""Empirical verification harnesses for the numerically checkable theorems.

Each harness returns a SweepReport: deterministic rows keyed by prime, plus an
optional least-squares decay fit of log(error) against log(p). Reports are
bit-identical across runs for identical inputs (primes, family, seed, trials).
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .budget import charge
from .counting import (
    ProgressionSpec,
    _slot_reduce,
    config_offsets,
    find_progression,
    lambda_ap,
    lambda_ap_weighted,
    lambda_poly_and_ap,
    monomial,
    require_valid,
)
from .errors import BoundViolation, UsageError
from .field import FieldCtx, divisors, is_prime, kth_power_residues, make_field, mult_character
from .harmonic import FpFunction, gowers_fast
from . import counting


@dataclass(frozen=True)
class SweepRow:
    p: int
    stat: str
    value: float
    trials: int
    seed: int


@dataclass(frozen=True)
class DecayFit:
    c_hat: float
    r2: float


@dataclass
class SweepReport:
    spec: str
    rows: list[SweepRow] = field(default_factory=list)
    fit: DecayFit | None = None

    def to_json(self) -> str:
        obj = {
            "spec": self.spec,
            "rows": [
                {"p": r.p, "stat": r.stat, "value": r.value, "trials": r.trials, "seed": r.seed}
                for r in self.rows
            ],
            "fit": None if self.fit is None else {"c_hat": self.fit.c_hat, "r2": self.fit.r2},
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "stat", "value", "trials", "seed"])
        for r in self.rows:
            writer.writerow([r.p, r.stat, repr(r.value), r.trials, r.seed])
        return buf.getvalue()

    def to_pretty(self) -> str:
        lines = [f"spec: {self.spec}"]
        width = max((len(r.stat) for r in self.rows), default=4)
        for r in self.rows:
            lines.append(f"  p={r.p:<6d} {r.stat:<{width}s}  {r.value:.6e}  trials={r.trials}")
        if self.fit is not None:
            lines.append(f"  decay fit: c_hat={self.fit.c_hat:.4f}  R^2={self.fit.r2:.4f}")
        else:
            lines.append("  decay fit: n/a")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_json(text: str) -> "SweepReport":
        obj = json.loads(text)
        rows = [SweepRow(**row) for row in obj["rows"]]
        fit = None if obj["fit"] is None else DecayFit(**obj["fit"])
        return SweepReport(spec=obj["spec"], rows=rows, fit=fit)


def fit_decay(points: list[tuple[int, float]]) -> DecayFit | None:
    """Least squares of log(value) on log(p); c_hat is the negated slope."""
    pts = [(p, v) for p, v in points if v > 0]
    if len(pts) < 3 or len({p for p, _ in pts}) < 3:
        return None
    lx = np.log([float(p) for p, _ in pts])
    ly = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(((ly - pred) ** 2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return DecayFit(c_hat=float(-slope), r2=r2)


# ---------------------------------------------------------------------------
# Trial function families

FAMILY_KINDS = ("random_unimodular", "random_indicator", "quadratic_phase", "character_phase")


@dataclass(frozen=True)
class TrialFunctionFamily:
    """Deterministic generator of 1-bounded trial functions.

    Streams come from a Philox generator keyed by (seed, p, trial, slot), so
    generation is reproducible and independent draws never share a stream.
    """

    kind: str
    seed: int
    density: float = 0.5  # random_indicator only
    a: int | None = None  # quadratic_phase only; None draws a per slot

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise UsageError(f"unknown family kind {self.kind!r}")
        if not 0.0 <= self.density <= 1.0:  # NaN included
            raise UsageError(f"density must be in [0, 1], got {self.density}")

    def _rng(self, p: int, trial: int, slot: int) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(p, trial, slot))
        return np.random.Generator(np.random.Philox(ss))

    def generate(self, ctx: FieldCtx, trial: int, slot: int = 0) -> FpFunction:
        p = ctx.p
        rng = self._rng(p, trial, slot)
        if self.kind == "random_unimodular":
            vals = np.exp(2j * np.pi * rng.random(p))
        elif self.kind == "random_indicator":
            vals = (rng.random(p) < self.density).astype(np.complex128)
        elif self.kind == "quadratic_phase":
            a = self.a if self.a is not None else int(rng.integers(1, p))
            xs = np.arange(p, dtype=np.int64)
            vals = ctx.twiddle[(a % p) * (xs * xs % p) % p]
        else:  # character_phase
            orders = divisors(p - 1)[1:]
            if not orders:
                raise UsageError(f"p={p} has no nonprincipal character")
            k = orders[int(rng.integers(0, len(orders)))]
            vals = mult_character(ctx, k)
        return FpFunction(ctx, vals, bounded=True)

    def label(self) -> str:
        if self.kind == "random_indicator":
            return f"{self.kind}({self.density})"
        if self.kind == "quadratic_phase" and self.a is not None:
            return f"{self.kind}(a={self.a})"
        return self.kind


# ---------------------------------------------------------------------------
# Discorrelation (main counting theorem)


def discorrelation_error(spec: ProgressionSpec, fs) -> float:
    """| Lambda_{m,P...}(f_0..f_{m+k-1}) - Lambda_m(f_0..f_{m-1}) * prod_{j>=m} E f_j |."""
    require_valid(spec)
    lhs, rhs = lambda_poly_and_ap(spec, fs)
    for f in fs[spec.m :]:
        rhs *= f.mean()
    return abs(lhs - rhs)


def _checked_primes(primes) -> list[int]:
    """The sorted ladder; rejects non-primes before any budget is charged."""
    out = []
    for p in primes:
        ctx_p = int(p)
        if ctx_p % 2 == 0 or ctx_p == 1:
            raise UsageError(f"p={ctx_p} must be an odd prime")
        if not is_prime(ctx_p):
            raise UsageError(f"{ctx_p} is not prime")
        out.append(ctx_p)
    return sorted(out)


def _error_sweep(label: str, ladder, trials: int, seed: int, errors) -> SweepReport:
    """Median/max rows per prime of the `trials` errors that `errors(ctx)` yields, plus a decay fit."""
    rows: list[SweepRow] = []
    medians: list[tuple[int, float]] = []
    for p in ladder:
        errs = np.fromiter(errors(make_field(p)), dtype=float, count=trials)
        med = float(np.median(errs))
        rows.append(SweepRow(p, "median_error", med, trials, seed))
        rows.append(SweepRow(p, "max_error", float(errs.max()), trials, seed))
        medians.append((p, med))
    return SweepReport(spec=label, rows=rows, fit=fit_decay(medians))


def discorrelation_sweep(
    primes, spec: ProgressionSpec, family: TrialFunctionFamily, trials: int
) -> SweepReport:
    """Median/max discorrelation error per prime over seeded trials, plus a decay fit."""
    require_valid(spec)
    ladder = _checked_primes(primes)
    n = spec.total_points
    for p in ladder:
        charge(p * p * n * trials, f"discorrelation_sweep(p={p})")

    def errors(ctx):
        for t in range(trials):
            yield discorrelation_error(spec, [family.generate(ctx, t, j) for j in range(n)])

    label = f"{counting.render_progression_spec(spec)} | {family.label()}"
    return _error_sweep(label, ladder, trials, family.seed, errors)


def counterexample_demo(ctx: FieldCtx, a: int) -> tuple[float, float]:
    """The degree-condition failure demo for x, x+y, x+2y, x+y^2.

    Builds quadratic phases whose exponents cancel along the configuration, so
    the full counting operator equals 1 while the factorized side vanishes.
    Returns (|Lambda|, |Lambda_3 * E f_3|) after exhaustively checking the
    cancellation identity mod p.
    """
    p = ctx.p
    if p == 2:
        raise UsageError("the construction divides by 2")
    a = a % p
    if a == 0:
        raise UsageError("a must be nonzero")
    charge(4 * p * p, f"counterexample_demo(p={p})")  # one gather per (x, y, slot) below
    inv2 = pow(2, p - 2, p)
    t = np.arange(p, dtype=np.int64)
    tsq = t * t % p
    q0 = (-inv2 * tsq - t) % p
    q1 = tsq
    q2 = (-inv2) * tsq % p
    q3 = t
    spec = ProgressionSpec(m=3, polys=(monomial(2),))
    # identity Q_0(x) + Q_1(x+y) + Q_2(x+2y) + Q_3(x+y^2) == 0 on all of F_p^2
    for _, _, total in _slot_reduce([q0, q1, q2, q3], config_offsets(spec, p), p, np.add, np.int64):
        if (total % p).any():
            raise BoundViolation("phase cancellation identity failed")
    fs = [FpFunction(ctx, ctx.twiddle[a * q % p], bounded=True) for q in (q0, q1, q2, q3)]
    lam, lam_ap = lambda_poly_and_ap(spec, fs)  # the spec is invalid on purpose: no require_valid
    return abs(lam), abs(lam_ap * fs[3].mean())


# ---------------------------------------------------------------------------
# Gowers norms of multiplicative characters


def character_norm_decay(primes, s: int, orders="all") -> SweepReport:
    """||chi_k||_{U^s} against both character bounds, for each requested order.

    Asserts the sharper bound ||chi||_{U^s}^{2^s} <= 2^s p^{-1/2} + p^{-s}
    (zero violations permitted; BoundViolation carries the partial report).
    Rows also record the headline bound 2 p^{-2^{-(s+1)}}.
    """
    if s not in (2, 3):
        raise UsageError("s must be 2 or 3")
    if orders != "all" and int(orders) < 1:
        raise UsageError(f"k must be >= 1, got {orders}")
    plan: list[tuple[int, list[int]]] = []
    for p in _checked_primes(primes):
        # one U^s evaluation costs p^{s-1} log p; charge every prime before any table is built,
        # and one evaluation's worth before the O(sqrt p) scan for the divisors of p - 1
        cost = p ** (s - 1) * max(1, math.ceil(math.log2(p)))
        charge(cost, f"character_norm_decay(p={p})")
        if orders == "all":
            ks = divisors(p - 1)
        else:
            ks = [math.gcd(int(orders), p - 1)]
        charge(len(ks) * cost, f"character_norm_decay(p={p})")
        plan.append((p, ks))
    rows: list[SweepRow] = []
    norm_points: list[tuple[int, float]] = []
    violations: list[str] = []
    for p, ks in plan:
        ctx = make_field(p)
        for k in ks:
            if k == 1:
                rows.append(SweepRow(p, f"U{s}[k=1] skipped (principal)", 0.0, 0, 0))
                continue
            chi = FpFunction(ctx, mult_character(ctx, k), bounded=True)
            value = gowers_fast(chi, s)
            proof_rhs = 2**s * p**-0.5 + float(p) ** -s
            headline = 2.0 * p ** -(2.0 ** -(s + 1))
            rows.append(SweepRow(p, f"U{s}[k={k}] norm", value, 1, 0))
            rows.append(SweepRow(p, f"U{s}[k={k}] proof_bound", proof_rhs ** (1.0 / 2**s), 1, 0))
            rows.append(SweepRow(p, f"U{s}[k={k}] headline_bound", headline, 1, 0))
            norm_points.append((p, value))
            if value ** (2**s) > proof_rhs + 1e-12:
                violations.append(f"p={p} k={k}: U{s}^{2**s}={value ** (2**s):.6e} > {proof_rhs:.6e}")
    report = SweepReport(spec=f"character U^{s} decay", rows=rows, fit=fit_decay(norm_points))
    if violations:
        raise BoundViolation("; ".join(violations), report=report)
    return report


def weil_corollary_check(ctx: FieldCtx, k: int, r: int, points) -> tuple[float, float, bool]:
    """|E_x chi((x-b_1)..(x-b_r)) conj(chi)((x-b_{r+1})..(x-b_{2r}))| against 2r p^{-1/2}.

    The Weil bound does not apply, and the points are refused, when the argument is a k-th
    power: each point's count among b_1..b_r minus its count among b_{r+1}..b_{2r} is
    divisible by gcd(k, p - 1), e.g. when all points coincide."""
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if r < 1:
        raise UsageError(f"r must be >= 1, got {r}")
    p = ctx.p
    kk = math.gcd(int(k), p - 1)
    if kk == 1:
        raise UsageError(f"k={k} reduces to the principal character mod {p}")
    bs = [int(b) % p for b in points]
    if len(bs) != 2 * r:
        raise UsageError(f"need 2r={2 * r} points, got {len(bs)}")
    # n(b): multiplicity of x - b in the numerator minus that in the denominator
    n = {b: bs[:r].count(b) - bs[r:].count(b) for b in bs}
    if all(nb % kk == 0 for nb in n.values()):
        raise UsageError(
            "the points make the rational function a k-th power "
            f"(every multiplicity difference is divisible by {kk})"
        )
    charge((2 * r + 1) * p, f"weil_corollary_check(p={p}, r={r})")  # 2r products and the terms
    chi = mult_character(ctx, kk)
    x = np.arange(p, dtype=np.int64)
    prod_left = np.ones(p, dtype=np.int64)
    for b in bs[:r]:
        prod_left = prod_left * ((x - b) % p) % p
    prod_right = np.ones(p, dtype=np.int64)
    for b in bs[r:]:
        prod_right = prod_right * ((x - b) % p) % p
    terms = chi[prod_left] * np.conjugate(chi[prod_right])
    modulus = abs(complex(terms.mean()))
    bound = 2 * r * p**-0.5
    return modulus, bound, modulus <= bound + 1e-12


# ---------------------------------------------------------------------------
# APs with k-th power differences (restricted-variable counting)


def restricted_ap_experiment(
    primes, m: int, k: int, family: TrialFunctionFamily, trials: int
) -> SweepReport:
    """Error of the restricted-difference AP count against (1/k') times the full count.

    Per trial draws one indicator set A from the family and measures
    | E prod 1_A(x+jy) 1_{Q_k}(y) - (1/k') E prod 1_A(x+jy) |, k' = gcd(k, p-1).
    """
    if m < 1:
        raise UsageError(f"m must be >= 1, got {m}")
    if m > 4:
        raise UsageError("m <= 4 enforced (cost p^2 m per trial)")
    ladder = _checked_primes(primes)
    for p in ladder:
        charge(p * p * m * trials, f"restricted_ap_experiment(p={p})")

    def errors(ctx):
        kp = math.gcd(k, ctx.p - 1)
        weight = kth_power_residues(ctx, k).astype(np.float64)
        for t in range(trials):
            fs = [family.generate(ctx, t, 0)] * m
            yield abs(lambda_ap_weighted(fs, weight) - lambda_ap(fs) / kp)

    label = f"restricted AP m={m} k={k} | {family.label()}"
    return _error_sweep(label, ladder, trials, family.seed, errors)


# ---------------------------------------------------------------------------
# Progression-free sets


def greedy_free_set(ctx: FieldCtx, spec: ProgressionSpec, seed: int) -> tuple[list[int], float]:
    """Randomized greedy progression-free set; deterministic for a fixed seed."""
    require_valid(spec)
    p = ctx.p
    n = spec.total_points
    charge(p * n * n * (p - 1), f"greedy_free_set(p={p})")  # the gathers through rel, below
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(p, 0x67EE))
    rng = np.random.Generator(np.random.Philox(ss))
    order = rng.permutation(p)
    # bits stays progression-free, so an instance in bits + {e} has e in some slot j:
    # rel[j][i][y] is where slot i sits, relative to e, when slot j is at e (y != 0).
    offsets = np.stack(config_offsets(spec, p))[:, 1:]
    rel = (offsets[None, :, :] - offsets[:, None, :]) % p
    # twice holds bits twice over, so rel + e (< 2p) indexes it with no % p per candidate
    twice = np.zeros(2 * p, dtype=bool)
    for e in order:
        twice[e] = twice[e + p] = True
        if twice[rel + e].all(axis=1).any():
            twice[e] = twice[e + p] = False
    bits = twice[:p]
    witness = find_progression(bits, spec)
    if witness is not None:
        raise BoundViolation(f"greedy set contains the instance (x, y) = {witness}")
    elements = [int(e) for e in np.flatnonzero(bits)]
    return elements, len(elements) / p
