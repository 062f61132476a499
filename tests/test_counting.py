import itertools
import math
import tracemalloc
import warnings

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
from ffprog import counting
from ffprog.counting import (
    _closing_masks,
    _instance_masks,
    _interval_bounds,
    _largest_free_set,
    _slot_reduce,
    config_offsets,
    lambda_ap_weighted,
    lambda_poly_and_ap,
)
from ffprog.harmonic import _shift_rows


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
        brute = np.mean([ctx.twiddle[3 * y * y % ctx.p] for y in range(p)])
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


@pytest.mark.parametrize("p", [101, 3001])
@pytest.mark.parametrize("text", ["m=3;P=y^3,y^4", "m=3", "m=1;P=y^3", "m=2;P=-y^2+2y^3"])
def test_lambda_poly_and_ap_equals_both_routes(text, p):
    # a block holds 2^21 // p rows of y (698 at p = 3001), so there the sums cross blocks;
    # at m=3 the AP prefix is the whole configuration
    ctx = make_field(p)
    spec = parse_progression_spec(text)
    n = spec.total_points
    rng = np.random.default_rng(p)
    for fs in (
        [unimodular(ctx, p + j) for j in range(n)],
        [indicator(ctx, np.flatnonzero(rng.random(p) < 0.5)) for _ in range(n)],
    ):
        assert lambda_poly_and_ap(spec, fs) == (lambda_poly(spec, fs), lambda_ap(fs[: spec.m]))


def test_lambda_poly_and_ap_checks_its_inputs():
    ctx = make_field(11)
    spec = parse_progression_spec("m=3;P=y^3")
    with pytest.raises(UsageError, match="expected 4 functions, got 3"):
        lambda_poly_and_ap(spec, [constant(ctx)] * 3)
    with pytest.raises(UsageError, match="different fields"):
        lambda_poly_and_ap(spec, [constant(ctx)] * 3 + [constant(make_field(13))])
    for count in (lambda_poly_and_ap, lambda_poly):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            count(parse_progression_spec("m=3;P=11y^4+y^3"), [constant(ctx)] * 4)
        assert [w.filename for w in caught] == [__file__], count  # points at the caller


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
    # a 1-point spec leaves no slot once its only one is omitted: F is the empty product, 1
    for p in (2, 3, MULTI_CHUNK_P):
        F = dual_function(ProgressionSpec(1), [unimodular(make_field(p), p)], 0)
        assert F.values.shape == (p,) and (F.values == 1).all(), p
        assert F.bounded is True


# --- linear systems -------------------------------------------------------


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystemSpec(d=2, forms=((1, 1), (2, 2)), powers=(1, 1))  # dependent
    with pytest.raises(ValueError):
        LinearSystemSpec(d=2, forms=((0, 3), (1, 1)), powers=(1, 2))  # 3*x_2 with k_2>1
    LinearSystemSpec(d=2, forms=((0, 3), (1, 1)), powers=(1, 1))  # fine when k_2=1


def test_linear_system_needs_a_form():
    # with no forms lambda_linear used to fail with an IndexError on its empty function list
    with pytest.raises(UsageError, match="need at least one linear form"):
        LinearSystemSpec(d=1, forms=(), powers=(1,))


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
    q2 = kth_power_residues(ctx, 2).astype(float)
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
        g0, g1, g2 = (fourier(f) for f in fs)
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


@pytest.mark.parametrize(
    "scan, terms",
    [
        (lambda spec, fs, bits: lambda_poly(spec, fs), 101 * 101 * 4),
        (lambda spec, fs, bits: dual_function(spec, fs, 1), 101 * 101 * 3),
        (lambda spec, fs, bits: find_progression(bits, spec), 101 * 100 * 4),
    ],
    ids=["lambda_poly", "dual_function", "find_progression"],
)
def test_scans_charge_before_the_first_block(scan, terms):
    # p^2 n, p^2 (n - 1) and p (p - 1) n terms for the spec's n = 4 slots at p = 101
    ctx = make_field(101)
    spec = parse_progression_spec("m=3;P=y^2")
    fs = [unimodular(ctx, seed) for seed in range(4)]
    bits = np.ones(101, dtype=bool)
    set_budget(terms - 1)
    try:
        with pytest.raises(BudgetExceeded, match=r"\(x, y\) scan\(p=101"):
            scan(spec, fs, bits)
        set_budget(terms)
        scan(spec, fs, bits)
    finally:
        set_budget(None)


# --- the (x, y) scan ------------------------------------------------------


def _straight_slot_reduce(arrays, offsets, p, ufunc, dtype, prefix=None):
    """The scan without strips, kept as the reference: each slot gathered over a whole block."""
    windows = [_shift_rows(a) for a in arrays]
    chunk = max(1, (1 << 21) // max(p, 1))
    for y0 in range(0, len(offsets[0]), chunk):
        ys = slice(y0, y0 + chunk)
        acc = windows[0][offsets[0][ys]].astype(dtype, copy=False)
        for taken in range(1, len(windows)):
            if taken == prefix:
                yield y0, taken, acc
            ufunc(acc, windows[taken][offsets[taken][ys]], out=acc)
        yield y0, len(windows), acc


def _assert_same_blocks(*args):
    """_slot_reduce and the reference yield the same (y0, taken) and the same block bits."""
    pairs = itertools.zip_longest(_slot_reduce(*args), _straight_slot_reduce(*args))
    for new, old in pairs:
        assert new is not None and old is not None
        assert new[:2] == old[:2]
        assert new[2].dtype == old[2].dtype and new[2].shape == old[2].shape
        assert np.array_equal(new[2], old[2]) and new[2].tobytes() == old[2].tobytes()


def _scan_by_definition(arrays, offsets, p, op, dtype):
    """acc[y, x] = op over slots of arrays[j][(x + offsets[j][y]) % p], one entry at a time."""
    rows = len(offsets[0])
    acc = np.empty((rows, p), dtype=dtype)
    for y in range(rows):
        for x in range(p):
            value = arrays[0][(x + offsets[0][y]) % p]
            for a, off in zip(arrays[1:], offsets[1:]):
                value = op(value, a[(x + off[y]) % p])
            acc[y, x] = value
    return acc


# p = 809: 20-row strips do not divide the 809 rows. p = 1451: the y range spans two blocks.
@pytest.mark.parametrize("p", [5, 101, 809, MULTI_CHUNK_P])
def test_slot_reduce_matches_straight_scan(p):
    spec = parse_progression_spec("m=3;P=y^3,y^4")
    rng = np.random.default_rng(p)
    offsets = config_offsets(spec, p)
    n = spec.total_points
    values = [np.exp(2j * np.pi * rng.random(p)) for _ in range(n)]
    for prefix in (None, spec.m, n):
        _assert_same_blocks(values, offsets, p, np.multiply, np.complex128, prefix)
    nonzero_y = [off[1:] for off in offsets]
    bits = rng.random(p) < 0.7
    _assert_same_blocks([bits] * n, nonzero_y, p, np.logical_and, bool)
    masks = [rng.integers(0, 1 << 62, p, dtype=np.int64) for _ in range(n)]
    _assert_same_blocks(masks, nonzero_y, p, np.bitwise_or, np.int64)


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("text", ["m=1", "m=3", "m=3;P=y^2"])
def test_slot_reduce_on_small_fields(p, text):
    spec = parse_progression_spec(text)
    rng = np.random.default_rng(10 * p + spec.total_points)
    n = spec.total_points
    offsets = config_offsets(spec, p)
    values = [np.exp(2j * np.pi * rng.random(p)) for _ in range(n)]
    seen = []
    for y0, taken, acc in _slot_reduce(values, offsets, p, np.multiply, np.complex128, spec.m):
        seen.append((y0, taken))
        expected = _scan_by_definition(values[:taken], offsets[:taken], p, np.multiply, complex)
        assert acc.tobytes() == expected.tobytes()
    assert seen == ([(0, spec.m)] if spec.m < n else []) + [(0, n)]  # prefix n is not yielded
    # rows = p - 1, as in find_progression and _instance_masks: y runs over 1 .. p-1
    nonzero_y = [off[1:] for off in offsets]
    masks = [np.left_shift(1, np.arange(p, dtype=np.int64))] * n
    blocks = list(_slot_reduce(masks, nonzero_y, p, np.bitwise_or, np.int64))
    assert len(blocks) == 1 and blocks[0][2].shape == (p - 1, p)
    expected = _scan_by_definition(masks, nonzero_y, p, np.bitwise_or, np.int64)
    assert np.array_equal(blocks[0][2], expected)


@pytest.mark.parametrize("rows", ["p", "p - 1"])
def test_slot_reduce_with_a_short_last_strip(monkeypatch, rows):
    # 33-entry strips are 3 rows at p = 11: 11 rows take strips of 3, 3, 3 and 2, 10 rows
    # take 3, 3, 3 and 1
    p = 11
    monkeypatch.setattr(counting, "_STRIP", 33)
    spec = parse_progression_spec("m=3;P=y^3,y^4")
    offsets = config_offsets(spec, p)
    if rows == "p - 1":
        offsets = [off[1:] for off in offsets]
    assert len(offsets[0]) % (33 // p) != 0
    rng = np.random.default_rng(7)
    values = [np.exp(2j * np.pi * rng.random(p)) for _ in range(spec.total_points)]
    seen = []
    for y0, taken, acc in _slot_reduce(values, offsets, p, np.multiply, np.complex128, spec.m):
        seen.append((y0, taken))
        expected = _scan_by_definition(values[:taken], offsets[:taken], p, np.multiply, complex)
        assert acc.tobytes() == expected.tobytes()
    assert seen == [(0, spec.m), (0, spec.total_points)]
    _assert_same_blocks(values, offsets, p, np.multiply, np.complex128, spec.m)


def test_lambda_poly_and_ap_memory_is_one_block():
    # the block of p^2 complex entries is the only full-size array; a whole-block gather per
    # slot would double the peak
    p = 809
    ctx = make_field(p)
    spec = parse_progression_spec("m=3;P=y^3,y^4")
    fs = [unimodular(ctx, seed) for seed in range(spec.total_points)]
    lambda_poly_and_ap(spec, fs)
    tracemalloc.start()
    try:
        lambda_poly_and_ap(spec, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * p * p * 16


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


def test_find_progression_input_handling():
    spec3, square = ProgressionSpec(3), parse_progression_spec("m=3;P=y^2")
    with pytest.raises(UsageError, match="bitset must have length 7"):
        find_progression(np.ones(5, dtype=bool), spec3, p=7)
    with pytest.raises(UsageError, match="pass p explicitly"):
        find_progression([0, 1, 3], spec3)
    with pytest.raises(UsageError, match="p must be >= 0, got -5"):
        find_progression([0, 1, 3], spec3, p=-5)
    # residues are read mod p: -4 = 1 and 8 = 3 mod 5
    assert find_progression([0, -4, 8], spec3, p=5) == find_progression([0, 1, 3], spec3, p=5)
    # the empty field has no configuration, for a polynomial spec too (it used to divide by 0)
    for spec in (spec3, square):
        assert find_progression(np.zeros(0, dtype=bool), spec) is None
        assert find_progression([], spec, p=0) is None


@pytest.mark.parametrize("residues", [[0.5, 1.7, 3.2], np.array([0.0, 1.0, 2.0]), ["0"]])
def test_find_progression_refuses_non_integer_residues(residues):
    # truncated, 0.5, 1.7, 3.2 would read as {0, 1, 3}, which holds the progression (1, 2)
    with pytest.raises(UsageError, match="residues must be integers, got "):
        find_progression(residues, ProgressionSpec(3), p=5)
    assert find_progression(np.array([0, 1, 2]), ProgressionSpec(3), p=5) == (0, 1)


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


def test_find_progression_in_a_later_strip():
    # at p = 809 a strip of the scan holds 20 values of y, so y = 100 is in the first block's
    # sixth strip; the scan still returns the first hit in y, then x
    p = 809
    assert (1 << 21) // p > 100 >= 2 * (counting._STRIP // p)
    members = [0, 100, 200, 500]
    assert _first_progression(members, ProgressionSpec(3), p) == (0, 100)
    assert find_progression(members, ProgressionSpec(3), p=p) == (0, 100)


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
        exact_max_free_set(make_field(41), ProgressionSpec(3))


def test_exact_max_free_set_meters_its_search():
    # the instance table costs 29 * 28 * 4 = 3248 terms; the ~323 000 DFS nodes are charged
    # as they are popped, every 4096, so a budget of 10^5 stops the search at the first
    # multiple of 4096 nodes past it, whatever the shape of the tree
    set_budget(10**5)
    try:
        with pytest.raises(BudgetExceeded) as refused:
            exact_max_free_set(make_field(29), ProgressionSpec(4))
    finally:
        set_budget(None)
    assert str(refused.value) == (
        "exact_max_free_set(p=29) needs ~101552 elementary terms, budget is 100000"
    )


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


@pytest.mark.parametrize("text", ["m=3", "m=3;P=y^3,y^4"])
def test_exact_max_free_set_matches_bruteforce_at_13(text):
    spec = parse_progression_spec(text)
    assert exact_max_free_set(make_field(13), spec) == _smallest_max_free_set(spec, 13)


def _largest_free_interval_subset(spec, p, n):
    """Size of the largest subset of {0..n-1} holding no y != 0 instance inside {0..n-1}."""
    inside = set()
    for y in range(1, p):
        for x in range(p):
            points = {(x + o) % p for o in _slot_offsets(spec, y, p)}
            if max(points) < n:
                inside.add(sum(1 << pt for pt in points))
    subsets = np.arange(1 << n)
    free = np.ones(1 << n, dtype=bool)
    for mask in inside:
        free &= (subsets & mask) != mask
    return max(bin(s).count("1") for s in np.flatnonzero(free))


@pytest.mark.parametrize("text", ["m=3;P=y^3,y^4", "m=3", "m=4", "m=1;P=y^3", "m=2;P=-y^2+2y^3"])
@pytest.mark.parametrize("p", [11, 13])
def test_interval_bounds_match_bruteforce(p, text):
    spec = parse_progression_spec(text)
    bound = _interval_bounds(_closing_masks(spec, p), min(p, 12))
    expected = [_largest_free_interval_subset(spec, p, n) for n in range(min(p, 12) + 1)]
    assert bound == expected


def test_interval_bounds_past_the_exact_range_stay_upper_bounds():
    spec = ProgressionSpec(3)
    bound = _interval_bounds(_closing_masks(spec, 31), 16)
    # below p / 2 a 3-AP mod 31 inside {0..n-1} is an integer one, so R[n] = r_3(n) (A003002)
    assert bound[:13] == [0, 1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6]
    for n in range(13, 17):
        assert bound[n] >= _largest_free_interval_subset(spec, 31, n)


def test_exact_max_free_set_edge_specs():
    # m > p: every instance covers F_p, so all but one element is free
    assert exact_max_free_set(make_field(31), ProgressionSpec(40)) == (30, list(range(30)))
    assert exact_max_free_set(make_field(3), ProgressionSpec(40)) == (2, [0, 1])
    # m = 1: every singleton is an instance, so even {0} is forbidden
    assert exact_max_free_set(make_field(31), ProgressionSpec(1)) == (0, [])


def _unpinned_search(spec, p):
    """exact_max_free_set's search from {0} alone, the root it takes when it cannot pin 1."""
    closing = _closing_masks(spec, p)
    size, mask = _largest_free_set(
        closing, _interval_bounds(closing, p - 1), p, 1, 1, start=(1, 1, 1)
    )
    return size, [e for e in range(p) if mask >> e & 1]


@pytest.mark.parametrize("m", [3, 4, 5, 40])
def test_pinned_search_matches_unpinned(m):
    spec = ProgressionSpec(m)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if p > 23 and m != 3:
            continue
        assert exact_max_free_set(make_field(p), spec) == _unpinned_search(spec, p), p


def test_unpinnable_specs_answer_as_before():
    # {0, 1} is an instance of m=2 at every p and of m=3 at p = 2, and a spec with a
    # polynomial slot is not closed under x -> a*x: these searches start from {0}
    for p in (3, 7, 31):
        assert exact_max_free_set(make_field(p), ProgressionSpec(2)) == (1, [0])
    assert exact_max_free_set(make_field(2), ProgressionSpec(3)) == (1, [0])
    spec = parse_progression_spec("m=2;P=y^2")
    assert exact_max_free_set(make_field(31), spec) == (7, [0, 2, 5, 7, 12, 17, 22])
    # {0, 1} is free here, but no largest set holds both 0 and 1: the search from {0, 1}
    # would stop at 4 elements
    spec = parse_progression_spec("m=3;P=2y^3")
    assert exact_max_free_set(make_field(11), spec) == (5, [0, 2, 4, 6, 8])


def test_pinned_search_meters_few_nodes(monkeypatch):
    # one charge for the instance table, then one per 4096 DFS nodes: the search from
    # {0, 1} pops 15 524 nodes for m=3 at p = 31, the one from {0} alone 66 419 (16 charges)
    charged = []
    monkeypatch.setattr(counting, "charge", lambda terms, what: charged.append(terms))
    assert exact_max_free_set(make_field(31), ProgressionSpec(3))[0] == 8
    assert len(charged) - 1 <= 4


def test_exact_max_free_set_golden_p37():
    # golden value: the search without the interval bound returns the same set
    size, elements = exact_max_free_set(make_field(37), ProgressionSpec(3))
    assert size == 10 and elements == [0, 1, 3, 7, 17, 24, 25, 28, 29, 35]


def test_exact_max_free_set_golden_sets():
    # the sets the freeset benchmark workload checks
    size, elements = exact_max_free_set(make_field(31), ProgressionSpec(3))
    assert size == 8 and elements == [0, 1, 3, 4, 9, 10, 12, 13]
    size, elements = exact_max_free_set(make_field(23), parse_progression_spec("m=3;P=y^3,y^4"))
    assert size == 10 and elements == [0, 1, 3, 4, 6, 9, 11, 17, 18, 21]
