import itertools
import math

import numpy as np
import pytest

from ffprog import (
    BudgetExceeded,
    FpFunction,
    IntPolynomial,
    LinearSystemSpec,
    ProgressionSpec,
    UsageError,
    constant,
    dual_function,
    exact_max_free_set,
    find_progression,
    fourier,
    gowers_fast,
    indicator,
    inner,
    kth_power_residues,
    lambda_ap,
    lambda_linear,
    lambda_poly,
    make_field,
    monomial,
    parse_progression_spec,
    set_budget,
    validate_spec,
)
from ffprog.counting import _instance_masks, lambda_ap_weighted


def unimodular(ctx, seed):
    rng = np.random.default_rng(seed)
    return FpFunction(ctx, np.exp(2j * np.pi * rng.random(ctx.p)), bounded=True)


# --- polynomials ----------------------------------------------------------


def test_polynomial_normalization():
    P = IntPolynomial((1, 2, 0, 0))
    assert P.coeffs == (1, 2)
    assert P.degree == 1
    zero = IntPolynomial((0, 0))
    assert zero.coeffs == ()
    assert zero.degree == -math.inf


def test_eval_mod_matches_vectorized():
    P = IntPolynomial((3, -7, 0, 2, 11))
    for p in (5, 13, 101):
        vals = P.values_mod(p)
        for y in range(p):
            direct = sum(c * y**i for i, c in enumerate(P.coeffs)) % p
            assert vals[y] == direct == P.eval_mod(y, p)


# --- validate_spec --------------------------------------------------------


def test_validate_examples():
    assert validate_spec(ProgressionSpec(3, (monomial(3), monomial(4)))).valid
    v = validate_spec(ProgressionSpec(3, (monomial(2),)))
    assert not v.valid and v.witness == (1,)
    v = validate_spec(ProgressionSpec(3, (monomial(3), IntPolynomial((0, 1, 0, 1)))))
    assert not v.valid and v.witness == (1, -1)


def test_validate_empty_and_witness_correctness():
    assert validate_spec(ProgressionSpec(4)).valid
    # witness really does produce a low-degree combination
    spec = ProgressionSpec(3, (IntPolynomial((0, 0, 0, 2)), IntPolynomial((0, 5, 0, 3))))
    v = validate_spec(spec)
    assert not v.valid
    combo = np.zeros(8)
    for a, P in zip(v.witness, spec.polys):
        for i, c in enumerate(P.coeffs):
            combo[i] += a * c
    assert any(combo[:3]) and not any(combo[3:])


def test_validate_rational_kernel():
    # 3*y^4 - 2*(y^4 + y) needs rational elimination: combination 2*P0 - 3*P1? no:
    # P0 = 2y^4, P1 = 3y^4 + y -> 3*P0 - 2*P1 = -2y has degree 1 < 3
    spec = ProgressionSpec(3, (IntPolynomial((0, 0, 0, 0, 2)), IntPolynomial((0, 1, 0, 0, 3))))
    v = validate_spec(spec)
    assert not v.valid and v.witness == (3, -2)


# --- counting operators ---------------------------------------------------


def test_lambda_ap_examples():
    ctx = make_field(5)
    assert lambda_ap([constant(ctx)] * 3) == 1.0
    ind = indicator(ctx, [0, 1])
    assert abs(lambda_ap([ind] * 3) - 2 / 25) < 1e-15


def test_lambda_ap_phase_cancellation():
    # phases with Q_0(x) + Q_1(x+y) + Q_2(x+2y) = 0 force modulus 1; for pure
    # 3-APs the identity pins the quadratic parts to zero, so the triple is linear
    p = 7
    ctx = make_field(p)
    t = np.arange(p, dtype=np.int64)
    q0, q1, q2 = 3 * t % p, (-6 * t) % p, 3 * t % p
    x, y = t[:, None], t[None, :]
    total = (q0[x] + q1[(x + y) % p] + q2[(x + 2 * y) % p]) % p
    assert not total.any()
    fs = [FpFunction(ctx, ctx.twiddle[q], bounded=True) for q in (q0, q1, q2)]
    assert abs(abs(lambda_ap(fs)) - 1) < 1e-12


def test_lambda_context_mismatch():
    f5 = constant(make_field(5))
    f7 = constant(make_field(7))
    with pytest.raises(UsageError, match="functions live over different fields"):
        lambda_ap([f5, f7, f5])
    with pytest.raises(UsageError, match="expected 4 functions, got 3"):
        lambda_poly(ProgressionSpec(3, (monomial(3),)), [f5, f5, f5])  # wrong arity


def test_lambda_poly_counterexample_phases():
    # spec example at p=7: the four-phase system sums to exactly 1
    p = 7
    ctx = make_field(p)
    inv2 = pow(2, p - 2, p)
    t = np.arange(p, dtype=np.int64)
    tsq = t * t % p
    qs = [(-inv2 * tsq - t) % p, tsq, (-inv2 * tsq) % p, t]
    fs = [FpFunction(ctx, ctx.twiddle[q], bounded=True) for q in qs]
    val = lambda_poly(ProgressionSpec(3, (monomial(2),)), fs)
    assert abs(val - 1) < 1e-12


def test_lambda_poly_weyl_sum():
    # m=1 with P=y^2: |Lambda| = |E e_p(a y^2)| ~ p^{-1/2} (Gauss sum)
    for p in (11, 101):
        ctx = make_field(p)
        f1 = FpFunction(ctx, ctx.twiddle[(3 * (np.arange(p) ** 2 % p)) % p], bounded=True)
        val = lambda_poly(ProgressionSpec(1, (monomial(2),)), [constant(ctx), f1])
        brute = np.mean([ctx.e(3 * y * y) for y in range(p)])
        assert abs(val - brute) < 1e-12
        assert abs(val) <= 1.5 * p**-0.5


def test_lambda_poly_empty_equals_lambda_ap():
    ctx = make_field(11)
    fs = [unimodular(ctx, i) for i in range(3)]
    assert lambda_poly(ProgressionSpec(3), fs) == lambda_ap(fs)


@pytest.mark.parametrize("text", ["m=3;P=y^3,y^4", "m=2;P=-y^2+2y^3"])
def test_lambda_poly_matches_double_sum(text):
    p = 13
    ctx = make_field(p)
    spec = parse_progression_spec(text)
    fs = [unimodular(ctx, 70 + i) for i in range(spec.total_points)]
    total = 0j
    for x in range(p):
        for y in range(p):
            points = [x + j * y for j in range(spec.m)]
            points += [x + P.eval_mod(y, p) for P in spec.polys]
            term = 1 + 0j
            for f, pt in zip(fs, points):
                term *= complex(f.values[pt % p])
            total += term
    assert abs(lambda_poly(spec, fs) - total / p**2) < 1e-12


def test_lambda_multilinearity():
    ctx = make_field(11)
    spec = ProgressionSpec(2, (monomial(2),))
    fs = [unimodular(ctx, i) for i in range(3)]
    g = unimodular(ctx, 99)
    for j in range(3):
        lhs_fs = list(fs)
        lhs_fs[j] = FpFunction(ctx, 0.25 * fs[j].values + 0.5 * g.values)
        combo = lambda_poly(spec, lhs_fs)
        a_fs = list(fs)
        b_fs = list(fs)
        b_fs[j] = g
        split = 0.25 * lambda_poly(spec, a_fs) + 0.5 * lambda_poly(spec, b_fs)
        assert abs(combo - split) < 1e-9


def test_translation_invariance():
    ctx = make_field(13)
    spec = ProgressionSpec(3, (monomial(3),))
    fs = [unimodular(ctx, 10 + i) for i in range(4)]
    base_poly = lambda_poly(spec, fs)
    base_ap = lambda_ap(fs[:3])
    for t in (1, 5, 12):
        shifted = [f.shift(t) for f in fs]
        assert abs(lambda_poly(spec, shifted) - base_poly) < 1e-9
        assert abs(lambda_ap(shifted[:3]) - base_ap) < 1e-9


def test_generalized_von_neumann():
    # |Lambda_3(f0,f1,f2)| <= min_j U^2(f_j) + 1e-8
    for p in (11, 31):
        ctx = make_field(p)
        for seed in range(50):
            fs = [unimodular(ctx, 1000 * p + 3 * seed + j) for j in range(3)]
            lam = abs(lambda_ap(fs))
            bound = min(gowers_fast(f, 2) for f in fs)
            assert lam <= bound + 1e-8


# 1451 is the first prime p with (1 << 21) // p < p: the y range spans two chunks.
MULTI_CHUNK_P = 1451


def test_dual_function_identity():
    spec = ProgressionSpec(3, (monomial(3), monomial(4)))
    for p in (11, MULTI_CHUNK_P):
        ctx = make_field(p)
        fs = [unimodular(ctx, 40 + i) for i in range(5)]
        lam = lambda_poly(spec, fs)
        for j in range(5):
            F = dual_function(spec, fs, j)
            conj_fj = FpFunction(ctx, np.conjugate(fs[j].values), bounded=True)
            assert abs(inner(F, conj_fj) - lam) < 1e-9
    with pytest.raises(UsageError, match=r"omit=5 outside \[0, 5\)"):
        dual_function(spec, fs, 5)


def test_dual_function_trivial_cases():
    ctx = make_field(7)
    spec = ProgressionSpec(3, (monomial(3),))
    ones = [constant(ctx)] * 4
    F = dual_function(spec, ones, 2)
    assert np.abs(F.values - 1).max() < 1e-12
    degenerate = dual_function(ProgressionSpec(1), [constant(ctx)], 0)
    assert np.abs(degenerate.values - 1).max() < 1e-12


# --- linear systems -------------------------------------------------------


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystemSpec(d=2, forms=((1, 1), (2, 2)), powers=(1, 1))  # dependent
    with pytest.raises(ValueError):
        LinearSystemSpec(d=2, forms=((0, 3), (1, 1)), powers=(1, 2))  # 3*x_2 with k_2>1
    LinearSystemSpec(d=2, forms=((0, 3), (1, 1)), powers=(1, 1))  # fine when k_2=1


def test_lambda_linear_modes():
    ctx = make_field(13)
    sysspec = LinearSystemSpec(d=2, forms=((1, 0), (1, 1), (1, 2)), powers=(1, 2))
    ones = [constant(ctx)] * 3
    assert abs(lambda_linear(sysspec, ones, restricted=True) - 1) < 1e-12
    assert abs(lambda_linear(sysspec, ones, restricted=False) - 1) < 1e-12

    A = indicator(ctx, [0, 2, 3, 7, 8, 11])
    fs = [A] * 3
    # restricted count by brute force
    brute = 0.0
    for x1 in range(13):
        for x2 in range(13):
            pts = (x1, (x1 + x2 * x2) % 13, (x1 + 2 * x2 * x2) % 13)
            if all(A.values[pt].real > 0.5 for pt in pts):
                brute += 1
    brute /= 13**2
    assert abs(lambda_linear(sysspec, fs, restricted=True) - brute) < 1e-12


def test_restricted_equals_weighted_residue_count():
    # E prod 1_A(L_i(x1, x2^2)) = k' * E prod 1_A(...) 1_{Q_k}(x2) + x2=0 boundary
    ctx = make_field(13)
    sysspec = LinearSystemSpec(d=2, forms=((1, 0), (1, 1), (1, 2)), powers=(1, 2))
    A = indicator(ctx, [0, 1, 4, 6, 9, 12])
    fs = [A] * 3
    lhs = lambda_linear(sysspec, fs, restricted=True)
    q2 = kth_power_residues(ctx, 2).elements.astype(float)
    weighted = lambda_ap_weighted(fs, q2)
    # boundary: x2 = 0 contributes 1_A(x1)^3 to lhs once per x1
    boundary = sum(A.values[x].real for x in range(13)) / 13**2
    assert abs(lhs - (2 * weighted + boundary)) < 1e-12


def test_lambda_ap_weighted_needs_a_function():
    with pytest.raises(ValueError, match="need at least one function"):
        lambda_ap_weighted([], np.ones(7))


@pytest.mark.parametrize("length", [6, 8])
def test_lambda_ap_weighted_weight_shape(length):
    ctx = make_field(7)
    with pytest.raises(UsageError, match=r"shape \(%d,\), expected \(7,\)" % length):
        lambda_ap_weighted([unimodular(ctx, 1)] * 3, np.ones(length))


def test_restricted_unrestricted_equal_when_k1():
    ctx = make_field(11)
    sysspec = LinearSystemSpec(d=2, forms=((1, 0), (1, 1)), powers=(1, 1))
    fs = [unimodular(ctx, 5), unimodular(ctx, 6)]
    assert lambda_linear(sysspec, fs, True) == lambda_linear(sysspec, fs, False)
    # and matches lambda_ap on 2-term APs
    assert abs(lambda_linear(sysspec, fs, False) - lambda_ap(fs)) < 1e-12


def test_lambda_ap_matches_linear_forms_across_chunks():
    ctx = make_field(MULTI_CHUNK_P)
    sysspec = LinearSystemSpec(d=2, forms=((1, 0), (1, 1), (1, 2)), powers=(1, 1))
    fs = [unimodular(ctx, 80 + i) for i in range(3)]
    assert abs(lambda_ap(fs) - lambda_linear(sysspec, fs, restricted=False)) < 1e-12


@pytest.mark.parametrize("p", [101, MULTI_CHUNK_P])
def test_lambda_ap_matches_roth_identity(p):
    # Lambda_3(f0, f1, f2) = sum_xi g0^(xi) g1^(-2 xi) g2^(xi), g^(xi) = E_x g(x) e_p(-xi x)
    ctx = make_field(p)
    rng = np.random.default_rng(p)
    neg_xi = -np.arange(p) % p
    for fs in (
        [unimodular(ctx, p + i) for i in range(3)],
        [indicator(ctx, np.flatnonzero(rng.random(p) < 0.5)) for _ in range(3)],
    ):
        g0, g1, g2 = (fourier(f).coeffs for f in fs)
        roth = (g0[neg_xi] * g1[-2 * neg_xi % p] * g2[neg_xi]).sum()
        assert abs(lambda_ap(fs) - roth) < 1e-12


def test_lambda_linear_budget():
    ctx = make_field(101)
    sysspec = LinearSystemSpec(d=3, forms=((1, 0, 0), (0, 1, 0), (0, 0, 1)), powers=(1, 1, 1))
    set_budget(1000)
    try:
        with pytest.raises(BudgetExceeded, match="lambda_linear"):
            lambda_linear(sysspec, [constant(ctx)] * 3, False)
    finally:
        set_budget(None)
    with pytest.raises(ValueError):
        lambda_linear(
            LinearSystemSpec(d=4, forms=((1, 0, 0, 0), (0, 1, 0, 0)), powers=(1, 1, 1, 1)),
            [constant(ctx)] * 2,
            False,
        )


# --- search ---------------------------------------------------------------


def test_find_progression_examples():
    spec3 = ProgressionSpec(3)
    assert find_progression(np.ones(5, dtype=bool), spec3) is not None
    assert find_progression(np.zeros(5, dtype=bool), spec3) is None
    assert find_progression(np.zeros(0, dtype=bool), spec3) is None
    A = np.zeros(5, dtype=bool)
    A[[0, 1, 3]] = True
    assert find_progression(A, spec3) == (1, 2)
    # witness from a set of residues
    assert find_progression([0, 1, 3], spec3, p=5) == (1, 2)


def test_find_progression_requires_nonzero_y():
    # {0} alone has no instance of a 3-AP with y != 0 at p=5
    A = np.zeros(5, dtype=bool)
    A[0] = True
    assert find_progression(A, ProgressionSpec(3)) is None


def test_find_progression_in_a_later_block():
    # at p = 3001 a block of the scan holds 698 values of y, so y = 1000 is in the second block
    assert find_progression([0, 1000, 2000], ProgressionSpec(3), p=3001) == (0, 1000)


def _slot_offsets(spec, y, p):
    return [j * y % p for j in range(spec.m)] + [P.eval_mod(y, p) for P in spec.polys]


def _first_progression(members, spec, p):
    """find_progression by a pure-Python scan, y then x ascending."""
    members = set(members)
    for y in range(1, p):
        offs = _slot_offsets(spec, y, p)
        for x in sorted(members):
            if all((x + o) % p in members for o in offs):
                return x, y
    return None


@pytest.mark.parametrize("text", ["m=3", "m=3;P=y^3,y^4"])
@pytest.mark.parametrize("p", [1451, 3001])
def test_find_progression_matches_python_scan(p, text):
    spec = parse_progression_spec(text)
    rng = np.random.default_rng(p)
    found = set()
    for density in (0.004, 0.01, 0.05, 0.3):
        for _ in range(2):
            members = np.flatnonzero(rng.random(p) < density).tolist()
            expected = _first_progression(members, spec, p)
            assert find_progression(members, spec, p=p) == expected, (density, members)
            found.add(expected is None or expected[1] > (1 << 21) // p)
    assert found == {True, False}  # some scans run past the first block, some stop in it


@pytest.mark.parametrize("text", ["m=3", "m=4", "m=3;P=y^3,y^4", "m=2;P=-y^2+2y^3"])
@pytest.mark.parametrize("p", [5, 11, 13, 31])
def test_instance_masks_match_python_enumeration(p, text):
    spec = parse_progression_spec(text)
    expected = set()
    for y in range(1, p):
        offs = _slot_offsets(spec, y, p)
        for x in range(p):
            expected.add(sum(1 << pt for pt in {(x + o) % p for o in offs}))
    assert _instance_masks(spec, p) == sorted(expected)


def test_exact_max_free_set_examples():
    assert exact_max_free_set(make_field(5), ProgressionSpec(3))[0] == 2
    assert exact_max_free_set(make_field(3), ProgressionSpec(3))[0] == 2
    # golden value, frozen from the exhaustive 2^7 oracle
    size7, set7 = exact_max_free_set(make_field(7), ProgressionSpec(3))
    assert size7 == 3 and set7 == [0, 1, 3]


def test_exact_max_free_set_cap():
    with pytest.raises(BudgetExceeded):
        exact_max_free_set(make_field(37), ProgressionSpec(3))


def test_exact_max_free_set_meters_its_search():
    # the instance table costs 29 * 28 * 4 terms; the ~1.3 million DFS nodes are charged as
    # they are popped, so a budget of 10^5 stops the search
    set_budget(10**5)
    try:
        with pytest.raises(BudgetExceeded, match="exact_max_free_set"):
            exact_max_free_set(make_field(29), ProgressionSpec(4))
    finally:
        set_budget(None)


def _smallest_max_free_set(spec, p):
    """Scan subsets of F_p, largest first and each size in lexicographic order."""
    for size in range(p, -1, -1):
        for members in itertools.combinations(range(p), size):
            if find_progression(list(members), spec, p=p) is None:
                return size, list(members)


def test_exact_max_free_set_matches_bruteforce():
    for text in ("m=3;P=y^3,y^4", "m=3", "m=4", "m=1;P=y^3", "m=2;P=-y^2+2y^3"):
        spec = parse_progression_spec(text)
        for p in (3, 5, 7, 11):
            expected = _smallest_max_free_set(spec, p)
            assert exact_max_free_set(make_field(p), spec) == expected, (text, p)


def test_exact_max_free_set_golden_sets():
    # the sets the freeset benchmark workload checks
    size, elements = exact_max_free_set(make_field(31), ProgressionSpec(3))
    assert size == 8 and elements == [0, 1, 3, 4, 9, 10, 12, 13]
    size, elements = exact_max_free_set(make_field(23), parse_progression_spec("m=3;P=y^3,y^4"))
    assert size == 10 and elements == [0, 1, 3, 4, 6, 9, 11, 17, 18, 21]
