import math
import warnings

import numpy as np
import pytest

from ffprog import (
    BoundViolation,
    BudgetExceeded,
    FpFunction,
    InvalidSpec,
    ProgressionSpec,
    SweepReport,
    TrialFunctionFamily,
    UsageError,
    character_norm_decay,
    constant,
    counterexample_demo,
    discorrelation_error,
    discorrelation_sweep,
    exact_max_free_set,
    find_progression,
    gowers_fast,
    greedy_free_set,
    make_field,
    monomial,
    mult_character,
    mult_derivative,
    parse_progression_spec,
    restricted_ap_experiment,
    set_budget,
    weil_corollary_check,
)
from ffprog import counting, experiments

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
    "text", ["m=3", "m=4", "m=1;P=y^3", "m=2;P=-y^2+2y^3", "m=3;P=y^3,y^4"]
)
def test_greedy_free_set_matches_full_rescan(text):
    spec = parse_progression_spec(text)
    for p in (11, 13, 29, 101):
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


def test_bound_violation_carries_report():
    # force a violation by asserting against an artificially tiny budget bound:
    # no honest violation exists, so synthesize one through a fake norm check
    with pytest.raises(BoundViolation) as info:
        raise BoundViolation("synthetic", report=SweepReport(spec="x"))
    assert info.value.report is not None


def test_odd_primes_required():
    fam = TrialFunctionFamily(kind="random_indicator", seed=1)
    with pytest.raises(UsageError, match="p=2 must be an odd prime"):
        restricted_ap_experiment([2], 3, 2, fam, 1)
    with pytest.raises(UsageError, match="9 is not prime"):
        restricted_ap_experiment([9], 3, 2, fam, 1)
    for m in (5, 0, -1):  # m outside 1..4
        with pytest.raises(ValueError):
            restricted_ap_experiment([11], m, 2, fam, 1)


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
