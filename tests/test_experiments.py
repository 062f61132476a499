import math
import warnings

import numpy as np
import pytest

from ffprog import (
    BoundViolation,
    BudgetExceeded,
    FpFunction,
    IntPolynomial,
    InvalidSpec,
    LinearSystemSpec,
    ParseError,
    ProgressionSpec,
    SweepReport,
    TrialFunctionFamily,
    UsageError,
    additive_char,
    character_norm_decay,
    constant,
    counterexample_demo,
    discorrelation_error,
    discorrelation_sweep,
    exact_max_free_set,
    find_progression,
    fourier,
    gowers_direct,
    gowers_fast,
    greedy_free_set,
    indicator,
    kth_power_residues,
    lambda_ap,
    make_field,
    monomial,
    mult_character,
    mult_derivative,
    parse_progression_spec,
    residue_indicator_via_characters,
    restricted_ap_experiment,
    set_budget,
    weil_corollary_check,
)
from ffprog import counting, experiments
from ffprog.experiments import DecayFit, SweepRow
from ffprog.field import pow_mod

SPEC34 = ProgressionSpec(3, (monomial(3), monomial(4)))


def test_family_determinism_and_boundedness():
    ctx = make_field(31)
    for kind in ("random_unimodular", "random_indicator", "quadratic_phase", "character_phase"):
        fam = TrialFunctionFamily(kind=kind, seed=11)
        f1 = fam.generate(ctx, trial=4, slot=2)
        f2 = fam.generate(ctx, trial=4, slot=2)
        assert np.array_equal(f1.values, f2.values)
        assert np.abs(f1.values).max() <= 1 + 1e-12
        g = fam.generate(ctx, trial=4, slot=3)
        if kind != "character_phase":  # character draws may repeat an order
            assert not np.array_equal(f1.values, g.values)


def test_family_rejects_unknown_kind():
    with pytest.raises(ValueError):
        TrialFunctionFamily(kind="white_noise", seed=0)


def test_discorrelation_error_examples():
    ctx = make_field(11)
    assert discorrelation_error(SPEC34, [constant(ctx)] * 5) == 0.0
    with pytest.raises(InvalidSpec):
        discorrelation_error(ProgressionSpec(3, (monomial(2),)), [constant(ctx)] * 4)


def test_discorrelation_error_warns_once_on_degree_collapse():
    # 101y^4 + y^3 passes the degree condition over Q but has degree 3 mod 101
    ctx = make_field(101)
    spec = parse_progression_spec("m=3;P=101y^4+y^3")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        discorrelation_error(spec, [constant(ctx)] * 4)
    assert len(caught) == 1 and "loses degree mod 101" in str(caught[0].message)
    assert caught[0].filename == experiments.__file__


def test_discorrelation_error_charges_one_scan():
    # both counts come from one p^2 n scan, so p^2 n terms is exactly enough
    ctx = make_field(101)
    fs = [constant(ctx)] * 5
    set_budget(101 * 101 * 5 - 1)
    try:
        with pytest.raises(BudgetExceeded, match=r"\(x, y\) scan\(p=101, slots=5\)"):
            discorrelation_error(SPEC34, fs)
        set_budget(101 * 101 * 5)
        assert discorrelation_error(SPEC34, fs) == 0.0
    finally:
        set_budget(None)


def test_discorrelation_failure_example_is_large():
    # the invalid configuration x, x+y, x+2y, x+y^2 has error ~ 1 at the
    # counterexample phases: lambda = 1 while the factorized side vanishes
    ctx = make_field(11)
    lhs, rhs = counterexample_demo(ctx, 1)
    assert abs(lhs - 1) < 1e-9
    assert rhs < 1e-12


def test_discorrelation_sweep_rows_and_determinism():
    fam = TrialFunctionFamily(kind="random_unimodular", seed=3)
    rep1 = discorrelation_sweep([13, 11], SPEC34, fam, trials=4)
    rep2 = discorrelation_sweep([11, 13], SPEC34, fam, trials=4)
    assert rep1.to_json() == rep2.to_json()  # ladder order normalized, bit-identical
    assert [r.p for r in rep1.rows] == [11, 11, 13, 13]
    assert all(r.seed == 3 and r.trials == 4 for r in rep1.rows)
    assert rep1.fit is None  # only two ladder points
    with pytest.raises(InvalidSpec):
        discorrelation_sweep([11], ProgressionSpec(3, (monomial(2),)), fam, 1)
    with pytest.raises(UsageError, match="p=2 must be an odd prime"):
        discorrelation_sweep([2], SPEC34, fam, 1)


def test_sweep_single_prime_constant_functions():
    # density-1 indicators are identically 1, so the error row is exactly 0
    fam = TrialFunctionFamily(kind="random_indicator", seed=0, density=1.0)
    rep = discorrelation_sweep([11], SPEC34, fam, trials=1)
    assert [r.value for r in rep.rows] == [0.0, 0.0]
    assert rep.fit is None


def test_counterexample_sampled_larger_primes():
    # exhaustive below 31 lives in the acceptance suite; sample beyond it here
    rng = np.random.default_rng(13)
    for p in (37, 53, 79, 101):
        ctx = make_field(p)
        for a in rng.integers(1, p, size=3):
            lhs, rhs = counterexample_demo(ctx, int(a))
            assert abs(lhs - 1) < 1e-9 and rhs < 1e-12


def test_sweep_report_serialization_round_trip():
    fam = TrialFunctionFamily(kind="random_indicator", seed=8, density=0.4)
    rep = restricted_ap_experiment([11, 13, 17], 3, 2, fam, trials=3)
    back = SweepReport.from_json(rep.to_json())
    assert back == rep
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "p,stat,value,trials,seed"
    assert len(csv_text.splitlines()) == len(rep.rows) + 1


# nan, inf and -0.0 values, and a stat that csv must quote; a fit of None and a fit
PINNED_ROWS = [
    SweepRow(11, 'say "a, b"', math.nan, 2, 5),
    SweepRow(13, "max_error", math.inf, 2, 5),
    SweepRow(17, "median_error", -0.0, 2, 5),
]
PINNED_JSON_ROWS = (
    '"rows":[{"p":11,"seed":5,"stat":"say \\"a, b\\"","trials":2,"value":NaN},'
    '{"p":13,"seed":5,"stat":"max_error","trials":2,"value":Infinity},'
    '{"p":17,"seed":5,"stat":"median_error","trials":2,"value":-0.0}],'
    '"spec":"m=3 | random_unimodular"}\n'
)


@pytest.mark.parametrize("fit, json_fit", [
    (None, "null"), (DecayFit(0.5, -math.inf), '{"c_hat":0.5,"r2":-Infinity}'),
], ids=["no-fit", "fit"])
def test_sweep_report_writers_exact_bytes(fit, json_fit):
    rep = SweepReport(spec="m=3 | random_unimodular", rows=PINNED_ROWS, fit=fit)
    assert rep.to_json() == '{"fit":' + json_fit + "," + PINNED_JSON_ROWS
    assert rep.to_csv() == (
        'p,stat,value,trials,seed\n11,"say ""a, b""",nan,2,5\n13,max_error,inf,2,5\n'
        "17,median_error,-0.0,2,5\n"
    )


def test_counterexample_exhaustive_small():
    for p in (3, 5, 7, 11, 13):
        ctx = make_field(p)
        for a in range(1, p):
            lhs, rhs = counterexample_demo(ctx, a)
            assert abs(lhs - 1) < 1e-9, (p, a)
            assert rhs < 1e-12, (p, a)


def test_counterexample_charges_before_the_identity_check():
    # 4 p^2 terms: one gather per (x, y) and slot of x, x+y, x+2y, x+y^2
    ctx = make_field(101)
    set_budget(4 * 101 * 101 - 1)
    try:
        with pytest.raises(BudgetExceeded, match="counterexample_demo"):
            counterexample_demo(ctx, 1)
        set_budget(4 * 101 * 101)
        lhs, rhs = counterexample_demo(ctx, 1)
    finally:
        set_budget(None)
    assert abs(lhs - 1) < 1e-9 and rhs < 1e-12


def test_counterexample_errors():
    ctx = make_field(7)
    with pytest.raises(UsageError, match="a must be nonzero"):
        counterexample_demo(ctx, 0)
    with pytest.raises(UsageError, match="a must be nonzero"):
        counterexample_demo(ctx, 7)  # 7 ≡ 0
    with pytest.raises(UsageError, match="the construction divides by 2"):
        counterexample_demo(make_field(2), 1)


def test_character_norm_decay_rows():
    rep = character_norm_decay([101], 2, "all")
    stats = [r.stat for r in rep.rows]
    assert any("skipped" in s for s in stats)  # k=1 marked
    norm_rows = [r for r in rep.rows if r.stat.endswith("norm")]
    # divisors of 100 greater than 1
    assert len(norm_rows) == 8
    for r in norm_rows:
        assert 0 < r.value < 1


def test_character_norm_proof_bound_holds():
    for rep_args in (([101, 997], 2, "all"), ([101, 499], 3, 2)):
        rep = character_norm_decay(*rep_args)
        s = rep_args[1]
        norms = {r.stat: r.value for r in rep.rows if r.stat.endswith("norm")}
        bounds = {r.stat.replace(" proof_bound", " norm"): r.value
                  for r in rep.rows if "proof_bound" in r.stat}
        assert norms and set(norms) == set(bounds)
        for stat, val in norms.items():
            assert val <= bounds[stat] + 1e-12, stat
        del s


@pytest.mark.parametrize("k", [0, -4])
def test_character_norm_decay_rejects_orders_below_one(k):
    with pytest.raises(UsageError, match="k must be >= 1"):
        character_norm_decay([101], 2, k)


def test_character_norm_order_normalization():
    # specific k not dividing p-1 normalizes via gcd; gcd collapse to 1 is skipped
    rep = character_norm_decay([13], 2, 8)  # gcd(8, 12) = 4
    assert any("k=4" in r.stat for r in rep.rows)
    rep = character_norm_decay([13], 2, 7)  # gcd(7, 12) = 1 -> principal, skipped
    assert all("skipped" in r.stat for r in rep.rows)


def test_character_norm_decay_charges_before_building_fields(monkeypatch):
    # p=101 at s=3 overshoots the budget, so no field table may be built, not even p=11's
    built = []
    monkeypatch.setattr(experiments, "make_field", lambda p: built.append(p) or make_field(p))
    set_budget(10_000)
    try:
        with pytest.raises(BudgetExceeded, match="p=101"):
            character_norm_decay([11, 101], 3)
    finally:
        set_budget(None)
    assert built == []


def test_character_norm_decay_huge_prime_is_refused_by_budget():
    # one evaluation's charge comes before the O(sqrt p) scan for the divisors of p - 1
    with pytest.raises(BudgetExceeded, match="p=2305843009213693951"):
        character_norm_decay([2**61 - 1], 2)


@pytest.mark.parametrize("p", [101, 211, 401, 809])
def test_character_u3_matches_symmetry_route(p):
    # Delta_{ah} chi(a x) = Delta_h chi(x) for a != 0, so ||Delta_h chi||_{U^2} only depends on
    # whether h = 0: ||chi||_{U^3}^8 = (|| |chi|^2 ||_{U^2}^4 + (p-1) ||Delta_1 chi||_{U^2}^4) / p
    ctx = make_field(p)
    for k in range(2, p):
        if (p - 1) % k:
            continue
        chi = FpFunction(ctx, mult_character(ctx, k), bounded=True)
        abs_sq = FpFunction(ctx, np.abs(chi.values) ** 2, bounded=True)
        u2_4 = [gowers_fast(g, 2) ** 4 for g in (abs_sq, mult_derivative(chi, 1))]
        symmetric = (u2_4[0] + (p - 1) * u2_4[1]) / p
        assert abs(gowers_fast(chi, 3) ** 8 - symmetric) < 1e-12, k


def test_weil_examples():
    ctx = make_field(101)
    modulus, bound, holds = weil_corollary_check(ctx, 2, 1, (0, 1))
    assert holds and modulus <= bound <= 0.2
    ctx13 = make_field(13)
    _, _, holds = weil_corollary_check(ctx13, 3, 2, (1, 5, 7, 2))
    assert holds
    with pytest.raises(UsageError, match="every multiplicity difference is divisible by 3"):
        weil_corollary_check(ctx13, 3, 2, (4, 4, 4, 4))
    with pytest.raises(UsageError, match="k=1 reduces to the principal character mod 13"):
        weil_corollary_check(ctx13, 1, 1, (0, 1))
    with pytest.raises(ValueError):
        weil_corollary_check(ctx13, 2, 2, (0, 1))  # wrong point count
    with pytest.raises(ValueError):
        weil_corollary_check(ctx13, 2, 0, ())  # no factors: modulus 1 against bound 0


def test_weil_refuses_non_integer_points():
    # truncated, 0.5 and 1.7 would read as the points 0 and 1
    ctx = make_field(101)
    with pytest.raises(UsageError, match="residue must be an integer, got 0.5"):
        weil_corollary_check(ctx, 2, 1, [0.5, 1.7])
    as_ints = weil_corollary_check(ctx, 2, 1, (0, 1))
    assert weil_corollary_check(ctx, 2, 1, np.array([0, 102], dtype=np.int64)) == as_ints


@pytest.mark.parametrize("k", [0, -2])
def test_weil_refuses_orders_below_one(k):
    # gcd would read k = 0 as order p - 1 and k = -2 as order 2
    with pytest.raises(UsageError, match=f"k must be >= 1, got {k}"):
        weil_corollary_check(make_field(101), k, 1, (0, 1))


@pytest.mark.parametrize(
    "p, k, r, points",
    [
        (101, 2, 2, (0, 0, 1, 1)),  # x^2 / (x-1)^2
        (101, 2, 2, (0, 1, 1, 0)),  # x(x-1) / (x-1)x = 1
        (13, 3, 3, (0, 0, 0, 1, 1, 1)),  # x^3 / (x-1)^3, chi of order 3
        (101, 4, 1, (5, 5)),  # all points coincide
    ],
)
def test_weil_rejects_kth_power_configurations(p, k, r, points):
    with pytest.raises(UsageError, match="the points make the rational function a k-th power"):
        weil_corollary_check(make_field(p), k, r, points)


def test_weil_repeated_points_outside_kth_powers():
    # repeated points whose multiplicity differences are not all divisible by gcd(k, p-1)
    _, _, holds = weil_corollary_check(make_field(101), 2, 2, (0, 0, 1, 2))
    assert holds
    _, _, holds = weil_corollary_check(make_field(101), 2, 3, (0, 0, 0, 1, 1, 1))
    assert holds
    _, _, holds = weil_corollary_check(make_field(13), 4, 2, (0, 0, 1, 1))
    assert holds


def test_weil_random_configurations():
    rng = np.random.default_rng(2024)
    for p in (13, 101):
        ctx = make_field(p)
        divisors = [k for k in range(2, p) if (p - 1) % k == 0]
        for r in (1, 2):
            for _ in range(40):
                k = divisors[rng.integers(0, len(divisors))]
                bs = rng.choice(p, size=2 * r, replace=False).tolist()
                _, _, holds = weil_corollary_check(ctx, k, r, bs)
                assert holds, (p, k, r, bs)


def test_restricted_ap_k1_is_boundary_only():
    fam = TrialFunctionFamily(kind="random_indicator", seed=6, density=0.5)
    rep = restricted_ap_experiment([101, 211], 3, 1, fam, trials=8)
    for r in rep.rows:
        if r.stat == "max_error":
            assert r.value <= 2 / r.p


def test_restricted_ap_full_set():
    # A = F_p: both counts are 1 up to boundary terms
    ctx = make_field(101)
    from ffprog import kth_power_residues, lambda_ap
    from ffprog.counting import lambda_ap_weighted

    f = constant(ctx)
    weight = kth_power_residues(ctx, 2).astype(float)
    lhs = lambda_ap_weighted([f] * 3, weight)
    rhs = lambda_ap([f] * 3) / 2
    assert abs(lhs - rhs) <= 2 / 101


def test_greedy_free_set():
    ctx = make_field(5)
    spec = ProgressionSpec(3)
    elements, density = greedy_free_set(ctx, spec, seed=3)
    assert find_progression(elements, spec, p=5) is None
    assert density == len(elements) / 5
    # greedy matches the exact optimum at p=5
    assert len(elements) == exact_max_free_set(ctx, spec)[0]
    again, _ = greedy_free_set(ctx, spec, seed=3)
    assert again == elements


def test_greedy_free_set_polynomial_spec():
    ctx = make_field(11)
    spec = parse_progression_spec("m=1;P=y^3")
    elements, _ = greedy_free_set(ctx, spec, seed=9)
    assert find_progression(elements, spec, p=11) is None


def _greedy_by_full_rescan(spec, p, seed):
    """The greedy definition: accept e iff bits + {e} holds no instance (full rescan)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(p, 0x67EE))
    order = np.random.Generator(np.random.Philox(ss)).permutation(p)
    bits = np.zeros(p, dtype=bool)
    for e in order:
        bits[e] = True
        if find_progression(bits, spec) is not None:
            bits[e] = False
    return [int(e) for e in np.flatnonzero(bits)]


def _completes_instance(spec, p, members, e):
    """Pure Python: does members + {e} hold an instance (y != 0) through e?"""
    inside = set(members) | {e}
    for y in range(1, p):
        offs = [j * y % p for j in range(spec.m)] + [P.eval_mod(y, p) for P in spec.polys]
        for off in offs:
            x = e - off
            if all((x + o) % p in inside for o in offs):
                return True
    return False


@pytest.mark.parametrize(
    "text", ["m=3", "m=4", "m=1;P=y^3", "m=2;P=-y^2+2y^3", "m=3;P=y^3,y^4", "m=1", "m=2", "m=40"]
)
def test_greedy_free_set_matches_full_rescan(text):
    spec = parse_progression_spec(text)
    # at small p, every {x} is an m=1 instance, every pair an m=2 one and F_p an m=40 one
    for p in (2, 3, 5, 7) if text in ("m=1", "m=2", "m=40") else (11, 13, 29, 101):
        ctx = make_field(p)
        for seed in range(4):
            elements, _ = greedy_free_set(ctx, spec, seed)
            assert elements == _greedy_by_full_rescan(spec, p, seed), (p, seed)
            # maximal: every residue left out would complete an instance
            left_out = sorted(set(range(p)) - set(elements))
            assert all(_completes_instance(spec, p, elements, e) for e in left_out), (p, seed)


def _greedy_with_wraparound(spec, p, seed):
    """greedy_free_set's loop over a length-p bitset, reducing each probe with % p."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(p, 0x67EE))
    order = np.random.Generator(np.random.Philox(ss)).permutation(p)
    offsets = np.stack(counting.config_offsets(spec, p))[:, 1:]
    rel = (offsets[None, :, :] - offsets[:, None, :]) % p
    bits = np.zeros(p, dtype=bool)
    for e in order:
        bits[e] = True
        if bits[(rel + e) % p].all(axis=1).any():
            bits[e] = False
    return [int(e) for e in np.flatnonzero(bits)]


@pytest.mark.parametrize(
    "text, p", [("m=3", 401), ("m=3;P=y^3,y^4", 211), ("m=4", 101), ("m=2;P=y^2", 211)]
)
def test_greedy_free_set_matches_the_wraparound_loop(text, p):
    spec = parse_progression_spec(text)
    ctx = make_field(p)
    for seed in range(10):
        elements, _ = greedy_free_set(ctx, spec, seed)
        assert elements == _greedy_with_wraparound(spec, p, seed), seed


@pytest.mark.parametrize(
    "name, search",
    [
        ("greedy_free_set", lambda ctx, spec: greedy_free_set(ctx, spec, 0)),
        ("exact_max_free_set", exact_max_free_set),
    ],
    ids=["greedy", "exact"],
)
def test_free_set_searches_charge_before_building_tables(name, search, monkeypatch):
    # m = 10^11 would make config_offsets build 10^11 arrays; the charge must come first
    def no_tables(*args):
        raise AssertionError("config_offsets reached before the budget check")

    monkeypatch.setattr(experiments, "config_offsets", no_tables)
    monkeypatch.setattr(counting, "config_offsets", no_tables)
    with pytest.raises(BudgetExceeded, match=name):
        search(make_field(7), ProgressionSpec(99_999_999_999))


def test_greedy_free_set_charges_its_gathers(monkeypatch):
    # m=3 at p=101: rel (9 * 100) and the closing scan (100 * 101 * 3) are 31 200 up front,
    # then 900 per accepted element; seed 0 accepts 15, 44 700 in all
    ctx, spec = make_field(101), ProgressionSpec(3)
    try:
        set_budget(44_700)
        assert len(greedy_free_set(ctx, spec, 0)[0]) == 15
        set_budget(44_699)  # refused at the last accept
        with pytest.raises(BudgetExceeded, match=r"needs ~44700 elementary"):
            greedy_free_set(ctx, spec, 0)
        set_budget(31_199)  # refused before rel is built
        monkeypatch.setattr(experiments, "config_offsets", None)
        with pytest.raises(BudgetExceeded, match=r"needs ~31200 elementary"):
            greedy_free_set(ctx, spec, 0)
    finally:
        set_budget(None)


def test_greedy_free_set_answers_at_p_10559_under_the_default_budget():
    # 210 accepts, 354 495 408 terms in all, though p * n^2 * (p - 1) is over 10^9
    elements, _ = greedy_free_set(make_field(10559), ProgressionSpec(3), 0)
    assert len(elements) == 210


def test_bound_violation_carries_report():
    # force a violation by asserting against an artificially tiny budget bound:
    # no honest violation exists, so synthesize one through a fake norm check
    with pytest.raises(BoundViolation) as info:
        raise BoundViolation("synthetic", report=SweepReport(spec="x"))
    assert info.value.report is not None


def test_prime_ladders_refuse_a_modulus_that_is_not_an_integer():
    fam = TrialFunctionFamily(kind="random_indicator", seed=1)
    with pytest.raises(UsageError, match="p must be an integer, got 101.7"):
        discorrelation_sweep([101.7, 211.2, 401.0], SPEC34, fam, 1)
    with pytest.raises(UsageError, match="p must be an integer, got 101.5"):
        character_norm_decay([101.5], 2)
    with pytest.raises(UsageError, match="p must be an integer, got '101'"):
        restricted_ap_experiment(["101"], 3, 2, fam, 1)
    rep = discorrelation_sweep([np.int64(11)], SPEC34, fam, 1)
    assert [r.p for r in rep.rows] == [11, 11]


def test_odd_primes_required():
    fam = TrialFunctionFamily(kind="random_indicator", seed=1)
    with pytest.raises(UsageError, match="p=2 must be an odd prime"):
        restricted_ap_experiment([2], 3, 2, fam, 1)
    with pytest.raises(UsageError, match="9 is not prime"):
        restricted_ap_experiment([9], 3, 2, fam, 1)
    for m in (0, -1):
        with pytest.raises(UsageError, match=f"m must be >= 1, got {m}"):
            restricted_ap_experiment([11], m, 2, fam, 1)


def _restricted_ap_by_definition(p, m, k, fam, trials):
    """(median, max) over trials of |E_{x,y} prod_{j<m} 1_A(x+jy) (1_{Q_k}(y) - 1/k')|,
    summed in pure Python with Q_k read off {y^k}."""
    ctx = make_field(p)
    kp = math.gcd(k, p - 1)
    residues = {pow(y, k, p) for y in range(1, p)}
    errs = []
    for t in range(trials):
        a = [bool(v) for v in fam.generate(ctx, t, 0).values.real]
        total = 0.0
        for y in range(p):
            weight = (1.0 if y in residues else 0.0) - 1.0 / kp
            for x in range(p):
                if all(a[(x + j * y) % p] for j in range(m)):
                    total += weight
        errs.append(abs(total / (p * p)))
    return float(np.median(errs)), max(errs)


@pytest.mark.parametrize("m", [5, 6])
def test_restricted_ap_runs_past_four_terms(m):
    # m is limited by the budget alone; both scans of each trial are charged
    fam = TrialFunctionFamily(kind="random_indicator", seed=3)
    rep = restricted_ap_experiment([11, 13], m, 2, fam, trials=2)
    for p in (11, 13):
        med, top = _restricted_ap_by_definition(p, m, 2, fam, 2)
        rows = {r.stat: r.value for r in rep.rows if r.p == p}
        assert abs(rows["median_error"] - med) < 1e-12
        assert abs(rows["max_error"] - top) < 1e-12
    terms = 2 * 13 * 13 * m * 2  # two m-slot scans per trial, two trials, at p = 13
    try:
        set_budget(terms - 1)
        with pytest.raises(BudgetExceeded, match=r"restricted_ap_experiment\(p=13\)"):
            restricted_ap_experiment([11, 13], m, 2, fam, trials=2)
        set_budget(terms)
        restricted_ap_experiment([11, 13], m, 2, fam, trials=2)
    finally:
        set_budget(None)


def test_fit_requires_three_positive_rows():
    fam = TrialFunctionFamily(kind="random_unimodular", seed=3)
    rep = discorrelation_sweep([11, 13, 17], SPEC34, fam, trials=2)
    assert rep.fit is not None
    assert math.isfinite(rep.fit.c_hat) and -1 <= rep.fit.r2 <= 1


def test_quadratic_phase_family_fixed_a():
    ctx = make_field(13)
    fam = TrialFunctionFamily(kind="quadratic_phase", seed=0, a=5)
    f = fam.generate(ctx, 0, 0)
    xs = np.arange(13, dtype=np.int64)
    expected = ctx.twiddle[5 * (xs * xs % 13) % 13]
    assert np.abs(f.values - expected).max() == 0.0


# Every integer a caller passes is read by one helper: a float, a string, a bool or NaN is
# refused by name and shown as given, never truncated (k = 2.5 used to check k = 2). Each
# entry maps a value to one call, and names the parameter its refusal names.
F7 = make_field(7)
ON_F7 = TrialFunctionFamily(kind="random_indicator", seed=1)
INTEGER_SITES = {
    "make_field": ("p", make_field),
    "set_budget": ("budget", set_budget),
    "ProgressionSpec-m": ("m", lambda v: ProgressionSpec(m=v)),
    "IntPolynomial": ("coefficient", lambda v: IntPolynomial((1, v))),
    "LinearSystemSpec-d": ("d", lambda v: LinearSystemSpec(d=v, forms=((1,),), powers=(1,))),
    "LinearSystemSpec-form": (
        "form coefficient", lambda v: LinearSystemSpec(d=1, forms=((v,),), powers=(1,))
    ),
    "LinearSystemSpec-power": (
        "power", lambda v: LinearSystemSpec(d=1, forms=((1,),), powers=(v,))
    ),
    "find_progression-p": ("p", lambda v: find_progression([0, 1], ProgressionSpec(3), p=v)),
    # find_progression reads its residues through indicator's mask (test_counting.py)
    "indicator": ("residue", lambda v: indicator(F7, [0, v])),
    "additive_char": ("a", lambda v: additive_char(F7, v)),
    "shift": ("t", lambda v: constant(F7).shift(v)),  # 2.5 used to shift by 2
    "mult_derivative": ("h", lambda v: mult_derivative(constant(F7), v)),  # 2.7 read as 2
    "monomial": ("degree", monomial),
    "dual_function": (
        "omit", lambda v: counting.dual_function(ProgressionSpec(3), [constant(F7)] * 3, v)
    ),
    "pow_mod": ("k", lambda v: pow_mod(np.arange(7), v, 7)),
    "kth_power_residues": ("k", lambda v: kth_power_residues(F7, v)),
    "mult_character": ("k", lambda v: mult_character(F7, v)),
    "residue_indicator-k": ("k", lambda v: residue_indicator_via_characters(F7, v, 1)),
    "residue_indicator-x": ("x", lambda v: residue_indicator_via_characters(F7, 2, v)),
    "gowers_direct": ("s", lambda v: gowers_direct(constant(F7), v)),
    "gowers_fast": ("s", lambda v: gowers_fast(constant(F7), v)),
    "weil-k": ("k", lambda v: weil_corollary_check(F7, v, 1, [0, 1])),
    "weil-r": ("r", lambda v: weil_corollary_check(F7, 2, v, [0, 1])),
    "weil-point": ("residue", lambda v: weil_corollary_check(F7, 2, 1, [0, v])),
    "chardecay-p": ("p", lambda v: character_norm_decay([11, v], 2)),
    "chardecay-s": ("s", lambda v: character_norm_decay([11], v)),
    "chardecay-k": ("k", lambda v: character_norm_decay([11], 2, v)),
    "discorrelate-p": ("p", lambda v: discorrelation_sweep([v], SPEC34, ON_F7, 1)),
    "discorrelate-trials": ("trials", lambda v: discorrelation_sweep([11], SPEC34, ON_F7, v)),
    "restricted-p": ("p", lambda v: restricted_ap_experiment([v], 3, 2, ON_F7, 1)),
    "restricted-m": ("m", lambda v: restricted_ap_experiment([11], v, 2, ON_F7, 1)),
    "restricted-k": ("k", lambda v: restricted_ap_experiment([11], 3, v, ON_F7, 1)),
    "restricted-trials": ("trials", lambda v: restricted_ap_experiment([11], 3, 2, ON_F7, v)),
    "counterexample": ("a", lambda v: counterexample_demo(F7, v)),
    "family-seed": ("seed", lambda v: TrialFunctionFamily(kind="random_indicator", seed=v)),
    "family-a": ("a", lambda v: TrialFunctionFamily(kind="quadratic_phase", seed=0, a=v)),
    "greedy-seed": ("seed", lambda v: greedy_free_set(F7, ProgressionSpec(3), v)),
    "generate-trial": ("trial", lambda v: ON_F7.generate(F7, v)),
    "generate-slot": ("slot", lambda v: ON_F7.generate(F7, 0, v)),
}


@pytest.mark.parametrize(
    "value", [2.5, "3", math.nan, 3.0, True], ids=["2.5", "'3'", "nan", "3.0", "True"]
)
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_parameters_refuse_other_values(site, value):
    what, call = INTEGER_SITES[site]
    try:
        with pytest.raises(UsageError) as info:
            call(value)
    finally:
        set_budget(None)
    assert str(info.value) == f"{what} must be an integer, got {value!r}"


# (entry point, value below its range, the refusal): a plain range check or numpy's own
# ValueError used to answer these
BELOW_RANGE = {
    "set_budget": (lambda: set_budget(0), "budget must be >= 1, got 0"),
    "gowers_fast": (lambda: gowers_fast(constant(F7), 1), "s must be >= 2, got 1"),
    "discorrelate-trials": (
        lambda: discorrelation_sweep([11], SPEC34, ON_F7, 0), "trials must be >= 1, got 0"
    ),
    "restricted-trials": (
        lambda: restricted_ap_experiment([11], 3, 2, ON_F7, 0), "trials must be >= 1, got 0"
    ),
    "family-seed": (
        lambda: TrialFunctionFamily(kind="random_indicator", seed=-1), "seed must be >= 0, got -1"
    ),
    "greedy-seed": (
        lambda: greedy_free_set(F7, ProgressionSpec(3), -1), "seed must be >= 0, got -1"
    ),
    "LinearSystemSpec-power": (
        lambda: LinearSystemSpec(d=1, forms=((1,),), powers=(0,)), "power must be >= 1, got 0"
    ),
    "generate-trial": (lambda: ON_F7.generate(F7, -1), "trial must be >= 0, got -1"),
    "generate-slot": (lambda: ON_F7.generate(F7, 0, -1), "slot must be >= 0, got -1"),
}


@pytest.mark.parametrize("site", BELOW_RANGE)
def test_integer_parameters_refuse_values_below_their_range(site):
    call, message = BELOW_RANGE[site]
    with pytest.raises(UsageError) as info:
        call()
    assert str(info.value) == message


# refusals of the library that no other test reaches: (call, exception type, message)
LIBRARY_REFUSALS = {
    "fourier-strategy": (
        lambda: fourier(constant(F7), "bogus"), UsageError, "unknown strategy 'bogus'"
    ),
    "linear-powers": (
        lambda: LinearSystemSpec(d=2, forms=((1, 0),), powers=(1,)),
        UsageError,
        "need one power per variable",
    ),
    "linear-form-length": (
        lambda: LinearSystemSpec(d=2, forms=((1, 0, 0),), powers=(1, 1)),
        UsageError,
        "each form needs d coefficients",
    ),
    "linear-zero-form": (
        lambda: LinearSystemSpec(d=2, forms=((0, 0),), powers=(1, 1)),
        UsageError,
        "zero linear form",
    ),
    "values_mod-int64": (
        lambda: IntPolynomial((0, 1)).values_mod(3037000507),
        UsageError,
        "p=3037000507 too large for int64 vectorized evaluation",
    ),
    "spec-trailing-character": (
        lambda: parse_progression_spec("m=3;P=y^2)"),
        ParseError,
        "unexpected character ')' (at offset 9)",
    ),
    "character-phase-p2": (
        lambda: TrialFunctionFamily("character_phase", 0).generate(make_field(2), 0),
        UsageError,
        "p=2 has no nonprincipal character",
    ),
    "lambda_ap-empty": (lambda: lambda_ap([]), UsageError, "need at least one function"),
}


@pytest.mark.parametrize("site", LIBRARY_REFUSALS)
def test_library_refusals(site):
    call, kind, message = LIBRARY_REFUSALS[site]
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind and str(info.value) == message
    if kind is ParseError:
        assert info.value.position == 9


@pytest.mark.parametrize("sweep", [
    lambda: discorrelation_sweep([], SPEC34, ON_F7, 1),
    lambda: restricted_ap_experiment([], 3, 2, ON_F7, 1),
    lambda: character_norm_decay([], 2),
], ids=["discorrelation_sweep", "restricted_ap_experiment", "character_norm_decay"])
def test_empty_ladders_are_refused(sweep):
    with pytest.raises(UsageError, match="^need at least one prime$"):
        sweep()


def test_integer_parameters_take_numpy_integers():
    # what the helper reads is the int it stands for, so outputs do not move
    fam = TrialFunctionFamily(kind="quadratic_phase", seed=np.int64(3), a=np.int64(5))
    assert (type(fam.seed), type(fam.a), fam.label()) == (int, int, "quadratic_phase(a=5)")
    assert ProgressionSpec(m=np.int64(3)) == ProgressionSpec(3)
    assert IntPolynomial((np.int64(0), np.int32(2))) == IntPolynomial((0, 2))
    assert np.array_equal(mult_character(F7, np.int64(3)), mult_character(F7, 3))
    assert gowers_fast(constant(F7), np.int64(3)) == gowers_fast(constant(F7), 3)
    assert character_norm_decay([11], np.int64(2), np.int64(5)) == character_norm_decay([11], 2, 5)
