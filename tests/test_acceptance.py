"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import math
import time

import numpy as np

import ffprog as fp
from ffprog.cli import main as cli_main
from ffprog.counting import parse_progression_spec
from ffprog.harmonic import fourier, gowers_direct, gowers_fast, mult_derivative


def _report(n: int, desc: str, failures: list, elapsed: float, limit: float):
    ok = not failures and elapsed <= limit
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} ({elapsed:6.1f}s): {desc}"
    print(line)
    assert not failures, f"criterion {n}: " + "; ".join(str(f) for f in failures[:10])
    assert elapsed <= limit, f"criterion {n}: runtime {elapsed:.1f}s > {limit}s"


def _unimodular_family(seed):
    return fp.TrialFunctionFamily(kind="random_unimodular", seed=seed)


def test_criterion_01_gowers_suite():
    t0 = time.time()
    failures = []
    fam = _unimodular_family(101)
    counts = {7: 67, 11: 67, 13: 66}  # 200 functions total
    for p, n in counts.items():
        ctx = fp.make_field(p)
        for trial in range(n):
            f = fam.generate(ctx, trial)
            u1 = gowers_direct(f, 1)
            u2 = gowers_direct(f, 2)
            u3 = gowers_direct(f, 3)
            if not (u1 <= u2 + 1e-9 and u2 <= u3 + 1e-9):
                failures.append(f"monotonicity p={p} trial={trial}")
            l4 = float((np.abs(fourier(f, "fast")) ** 4).sum() ** 0.25)
            if abs(u2 - l4) >= 1e-9:
                failures.append(f"U2 != l4(fourier) p={p} trial={trial}")
            if abs(u3 - gowers_fast(f, 3)) >= 1e-7:
                failures.append(f"U3 direct/fast p={p} trial={trial}")
            for s in (2, 3):
                lhs = gowers_direct(f, s) ** (1 << s)
                rhs = np.mean(
                    [
                        gowers_direct(mult_derivative(f, h), s - 1) ** (1 << (s - 1))
                        for h in range(p)
                    ]
                )
                if abs(lhs - rhs) >= 1e-8:
                    failures.append(f"recursion s={s} p={p} trial={trial}")
    _report(1, "Gowers suite: monotone, U2=l4, direct=fast, recursion", failures,
            time.time() - t0, 30.0)


def test_criterion_02_fourier_suite():
    t0 = time.time()
    failures = []
    fam = _unimodular_family(202)
    for p in (7, 97, 997, 10007):
        ctx = fp.make_field(p)
        f = fam.generate(ctx, 0)
        naive = fourier(f, "naive")
        fast = fourier(f, "fast")
        gap = float(np.abs(naive - fast).max())
        if gap >= 1e-9:
            failures.append(f"naive/fast linf={gap:.2e} at p={p}")
        parseval = abs((np.abs(fast) ** 2).sum() - (np.abs(f.values) ** 2).mean())
        if parseval >= 1e-9:
            failures.append(f"Parseval gap={parseval:.2e} at p={p}")
    _report(2, "Fourier suite: naive vs fast + Parseval at p up to 10007", failures,
            time.time() - t0, 10.0)


def test_criterion_03_counterexample():
    t0 = time.time()
    failures = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        ctx = fp.make_field(p)
        for a in range(1, p):
            lhs, rhs = fp.counterexample_demo(ctx, a)  # verifies the identity internally
            if abs(lhs - 1) >= 1e-9:
                failures.append(f"lhs={lhs} at p={p} a={a}")
            if rhs >= 1e-12:
                failures.append(f"rhs={rhs} at p={p} a={a}")
    _report(3, "counterexample: lhs=1, rhs=0 for all odd p<=31, all a!=0", failures,
            time.time() - t0, 5.0)


def test_criterion_04_discorrelation_decay():
    t0 = time.time()
    failures = []
    spec = parse_progression_spec("m=3;P=y^3,y^4")
    ladder = [101, 211, 401, 809]
    for kind in ("random_unimodular", "quadratic_phase"):
        fam = fp.TrialFunctionFamily(kind=kind, seed=7)
        rep = fp.discorrelation_sweep(ladder, spec, fam, trials=20)
        med = {r.p: r.value for r in rep.rows if r.stat == "median_error"}
        if not med[809] < med[101]:
            failures.append(f"{kind}: median(809)={med[809]} !< median(101)={med[101]}")
        if rep.fit is None or not rep.fit.c_hat > 0:
            failures.append(f"{kind}: fitted exponent not positive ({rep.fit})")
    _report(4, "discorrelation error decays on {101,211,401,809}, both families",
            failures, time.time() - t0, 600.0)


def test_criterion_05_character_norm_bound():
    t0 = time.time()
    failures = []
    try:
        fp.character_norm_decay([101, 997, 10007], 2, "all")
    except fp.BoundViolation as exc:
        failures.append(f"s=2: {exc}")
    try:
        fp.character_norm_decay([101, 499], 3, 2)
    except fp.BoundViolation as exc:
        failures.append(f"s=3: {exc}")
    # headline bound 2 p^{-2^-(s+1)} at s=2, p=10007, every k | p-1
    p = 10007
    ctx = fp.make_field(p)
    headline = 2.0 * p ** -(2.0**-3)
    for k in (2, 5003, 10006):
        chi = fp.FpFunction(ctx, fp.mult_character(ctx, k), bounded=True)
        value = gowers_fast(chi, 2)
        if not value <= headline:
            failures.append(f"headline violated at k={k}: {value} > {headline}")
    _report(5, "character U^s proof bound (zero violations) + headline at p=10007",
            failures, time.time() - t0, 300.0)


def test_criterion_06_weil_corollary():
    t0 = time.time()
    failures = []
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(606)))
    combos = [(p, r) for p in (13, 101, 997) for r in (1, 2)]
    ctxs = {p: fp.make_field(p) for p in (13, 101, 997)}
    divisors = {p: [k for k in range(2, p) if (p - 1) % k == 0] for p in ctxs}
    for i in range(500):
        p, r = combos[i % len(combos)]
        k = divisors[p][rng.integers(0, len(divisors[p]))]
        bs = rng.choice(p, size=2 * r, replace=False).tolist()
        modulus, bound, holds = fp.weil_corollary_check(ctxs[p], k, r, bs)
        if not holds:
            failures.append(f"p={p} k={k} r={r} b={bs}: {modulus} > {bound}")
    _report(6, "Weil corollary: 500 random valid configurations, zero violations",
            failures, time.time() - t0, 30.0)


def test_criterion_07_restricted_counting():
    t0 = time.time()
    failures = []
    fam = fp.TrialFunctionFamily(kind="random_indicator", seed=77, density=0.5)
    rep1 = fp.restricted_ap_experiment([101, 211, 401], 3, 1, fam, trials=10)
    for r in rep1.rows:
        if r.stat == "max_error" and r.value > 2 / r.p:
            failures.append(f"k'=1 boundary at p={r.p}: {r.value} > {2 / r.p}")
    rep2 = fp.restricted_ap_experiment([101, 211, 401], 3, 2, fam, trials=20)
    med = [r.value for r in rep2.rows if r.stat == "median_error"]
    if not (med[0] > med[1] > med[2]):
        failures.append(f"medians not decreasing: {med}")
    _report(7, "restricted counting: k'=1 within 2/p; m=3,k=2 medians decrease",
            failures, time.time() - t0, 300.0)


def _oracle_max_free(p: int, spec) -> int:
    """Independent 2^p enumeration; instances built from scratch with pow()."""
    points_per_y = []
    for y in range(1, p):
        pts = [j * y % p for j in range(spec.m)]
        for P in spec.polys:
            value = sum(c * pow(y, i, p) for i, c in enumerate(P.coeffs)) % p
            pts.append(value)
        points_per_y.append(pts)
    masks = set()
    for pts in points_per_y:
        for x in range(p):
            mask = 0
            for pt in pts:
                mask |= 1 << ((x + pt) % p)
            masks.add(mask)
    masks = sorted(masks)
    best = 0
    for bits in range(1 << p):
        if all(bits & mask != mask for mask in masks):
            best = max(best, bits.bit_count())
    return best


def test_criterion_08_exact_extremal_oracle():
    t0 = time.time()
    failures = []
    for text in ("m=3", "m=3;P=y^3,y^4"):
        spec = parse_progression_spec(text)
        for p in (3, 5, 7, 11):
            ctx = fp.make_field(p)
            got, _ = fp.exact_max_free_set(ctx, spec)
            want = _oracle_max_free(p, spec)
            if got != want:
                failures.append(f"{text} p={p}: exact={got} oracle={want}")
    plain5, _ = fp.exact_max_free_set(fp.make_field(5), parse_progression_spec("m=3"))
    if plain5 != 2:
        failures.append(f"p=5 plain AP value {plain5} != 2")
    _report(8, "exact search matches 2^p oracle on p in {3,5,7,11}, both specs",
            failures, time.time() - t0, 120.0)


def test_criterion_09_residue_and_character_identities():
    t0 = time.time()
    failures = []
    primes = [p for p in range(3, 102) if fp.is_prime(p)]
    for p in primes:
        ctx = fp.make_field(p)
        for k in range(1, 13):
            got = fp.kth_power_residues(ctx, k)
            direct = {pow(x, k, p) for x in range(1, p)}
            if set(np.flatnonzero(got).tolist()) != direct:
                failures.append(f"Q_k mismatch p={p} k={k}")
            reduced = fp.kth_power_residues(ctx, math.gcd(k, p - 1))
            if not np.array_equal(got, reduced):
                failures.append(f"Q_k != Q_gcd p={p} k={k}")
        for k in [k for k in range(1, 13) if (p - 1) % k == 0]:
            q = fp.kth_power_residues(ctx, k)
            for x in range(p):
                want = 1.0 if q[x] else 0.0
                got_ind = fp.residue_indicator_via_characters(ctx, k, x)
                if abs(got_ind - want) >= 1e-9:
                    failures.append(f"indicator p={p} k={k} x={x}")
    _report(9, "Q_k = Q_gcd(k,p-1) and character indicator, p<=101, k<=12",
            failures, time.time() - t0, 10.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    failures = []
    cmd = [
        "discorrelate", "--spec", "m=3;P=y^3,y^4", "--primes", "101,211,401,809",
        "--family", "random-unimodular", "--trials", "20", "--seed", "7",
        "--format", "json",
    ]
    out1 = tmp_path / "run1.json"
    out2 = tmp_path / "run2.json"
    if cli_main(cmd + ["--output", str(out1)]) != 0:
        failures.append("first run failed")
    if cli_main(cmd + ["--output", str(out2)]) != 0:
        failures.append("second run failed")
    if not failures and out1.read_bytes() != out2.read_bytes():
        failures.append("outputs differ byte-for-byte")
    _report(10, "criterion 4's command is byte-identical across runs", failures,
            time.time() - t0, 600.0)
