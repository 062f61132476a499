import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from ffprog import (
    BudgetExceeded,
    FpFunction,
    MalformedFixture,
    UsageError,
    additive_char,
    constant,
    fourier,
    gowers_direct,
    gowers_fast,
    indicator,
    inner,
    make_field,
    max_fourier_coeff,
    mult_character,
    mult_derivative,
    norms,
    set_budget,
)
from ffprog.field import divisors
from ffprog.harmonic import _dft_sums, _nested_derivatives, _shift_rows


def random_unimodular(ctx, seed):
    rng = np.random.default_rng(seed)
    return FpFunction(ctx, np.exp(2j * np.pi * rng.random(ctx.p)), bounded=True)


def test_fourier_of_constant():
    ctx = make_field(7)
    coeffs = fourier(constant(ctx), "naive")
    assert abs(coeffs[0] - 1) < 1e-12
    assert np.abs(coeffs[1:]).max() < 1e-12


def test_fourier_of_point_mass():
    ctx = make_field(5)
    coeffs = fourier(indicator(ctx, [0]), "fast")
    assert np.abs(coeffs - 0.2).max() < 1e-12


def test_fourier_of_character_is_delta():
    ctx = make_field(11)
    beta = 4
    coeffs = fourier(additive_char(ctx, beta), "fast")
    expected = np.zeros(11)
    expected[(11 - beta) % 11] = 1.0
    assert np.abs(coeffs - expected).max() < 1e-9


@pytest.mark.parametrize("p", [7, 97, 997])
def test_naive_fast_agreement(p):
    ctx = make_field(p)
    f = random_unimodular(ctx, p)
    naive = fourier(f, "naive")
    fast = fourier(f, "fast")
    assert np.abs(naive - fast).max() < 1e-9


def test_parseval():
    ctx = make_field(97)
    f = random_unimodular(ctx, 3)
    coeffs = fourier(f, "fast")
    lhs = (np.abs(coeffs) ** 2).sum()
    rhs = (np.abs(f.values) ** 2).mean()
    assert abs(lhs - rhs) < 1e-9


def test_indicator_reads_integer_residues_mod_p():
    ctx = make_field(5)
    values = indicator(ctx, [0, -2, 8, np.int64(13)]).values
    assert values.tolist() == [1, 0, 0, 1, 0]
    for subset in ([2.7], [np.float64(1.0)]):
        with pytest.raises(UsageError, match="residue must be an integer, got "):
            indicator(ctx, subset)


def test_norms_examples():
    ctx = make_field(5)
    L2, l2 = norms(constant(ctx), 2)
    assert abs(L2 - 1) < 1e-12 and abs(l2 - math.sqrt(5)) < 1e-12
    ind = indicator(ctx, [0, 3])
    L1, _ = norms(ind, 1)
    assert abs(L1 - 2 / 5) < 1e-12
    Linf, linf = norms(ind, math.inf)
    assert Linf == linf == 1.0
    f = random_unimodular(ctx, 0)
    assert abs(inner(f, f) - norms(f, 2)[0] ** 2) < 1e-12


@pytest.mark.parametrize("s", [0.5, -math.inf, math.nan], ids=["0.5", "-inf", "nan"])
def test_norms_refuse_s_below_one_and_nan(s):
    # NaN fails every comparison, so the check must be `not s >= 1`, not `s < 1`
    with pytest.raises(UsageError, match=r"^s must be >= 1 or infinity$"):
        norms(constant(make_field(7)), s)


def test_mult_derivative():
    ctx = make_field(11)
    f = random_unimodular(ctx, 1)
    d0 = mult_derivative(f, 0)
    assert np.abs(d0.values - np.abs(f.values) ** 2).max() < 1e-12
    phase = additive_char(ctx, 3)
    d = mult_derivative(phase, 5)
    assert np.abs(d.values - ctx.twiddle[15 % ctx.p]).max() < 1e-12  # constant e_p(a h)
    ones = constant(ctx)
    assert np.abs(mult_derivative(ones, 3).values - 1).max() < 1e-12


def test_gowers_direct_examples():
    ctx = make_field(5)
    assert abs(gowers_direct(constant(ctx), 1) - 1) < 1e-12
    assert abs(gowers_direct(constant(ctx), 3) - 1) < 1e-9
    assert gowers_direct(additive_char(ctx, 2), 1) < 1e-9
    assert abs(gowers_direct(indicator(ctx, [0, 1]), 1) - 0.4) < 1e-12


def test_u1_equals_mean_equals_coeff_zero():
    ctx = make_field(13)
    f = random_unimodular(ctx, 7)
    u1 = gowers_direct(f, 1)
    assert abs(u1 - abs(f.mean())) < 1e-9
    assert abs(u1 - abs(fourier(f, "fast")[0])) < 1e-9


def test_gowers_budget():
    set_budget(10_000)
    try:
        ctx = make_field(11)
        f = constant(ctx)
        with pytest.raises(BudgetExceeded):
            gowers_direct(f, 3)  # 11^4 = 14641 > 10000
        gowers_direct(f, 2)  # 11^3 fits
    finally:
        set_budget(None)


def test_naive_fourier_is_metered():
    # p^2 = 4 012 009 terms at p = 2003; the chirp route charges nothing and answers
    f = constant(make_field(2003))
    set_budget(1000)
    try:
        with pytest.raises(BudgetExceeded, match=r"fourier\(naive, p=2003\)"):
            fourier(f, "naive")
        assert abs(fourier(f, "fast")[0] - 1) < 1e-9
    finally:
        set_budget(None)


def test_u2_fourier_identity():
    for p in (7, 11, 13):
        ctx = make_field(p)
        for seed in range(10):
            f = random_unimodular(ctx, seed)
            u2 = gowers_direct(f, 2)
            l4 = float((np.abs(fourier(f, "fast")) ** 4).sum() ** 0.25)
            assert abs(u2 - l4) < 1e-9


def test_quadratic_phase_u2():
    for p in (7, 11, 13):
        ctx = make_field(p)
        xs = np.arange(p, dtype=np.int64)
        f = FpFunction(ctx, ctx.twiddle[xs * xs % p], bounded=True)
        coeffs = fourier(f, "fast")
        # Gauss-sum modulus: every coefficient has |.|^2 = 1/p
        assert np.abs(np.abs(coeffs) ** 2 * p - 1).max() < 1e-9
        assert abs(gowers_fast(f, 2) - p**-0.25) < 1e-9


def test_monotonicity_and_cross_strategy():
    for p in (7, 11, 13):
        ctx = make_field(p)
        for seed in range(20):
            f = random_unimodular(ctx, 100 * p + seed)
            u1 = gowers_direct(f, 1)
            u2 = gowers_direct(f, 2)
            u3 = gowers_direct(f, 3)
            assert u1 <= u2 + 1e-9
            assert u2 <= u3 + 2e-9
            assert abs(u3 - gowers_fast(f, 3)) < 1e-7
            assert abs(u2 - gowers_fast(f, 2)) < 1e-9


def _corner_sum_average(values, s):
    """E_{x, h in F_p^s} prod_{w in {0,1}^s} C^{|w|} f(x + w.h), one term at a time."""
    p = len(values)
    corners = list(itertools.product((0, 1), repeat=s))
    total = 0j
    for x in range(p):
        for h in itertools.product(range(p), repeat=s):
            term = 1 + 0j
            for w in corners:
                v = complex(values[(x + sum(wi * hi for wi, hi in zip(w, h))) % p])
                term *= v.conjugate() if sum(w) % 2 else v
            total += term
    return total.real / p ** (s + 1)


@pytest.mark.parametrize(
    "p, s", [(p, s) for p in (2, 3, 5) for s in (1, 2, 3, 4)] + [(7, s) for s in (1, 2, 3)]
)
def test_gowers_direct_matches_corner_sum(p, s):
    # s = 4 is the first order with two nested derivatives ahead of the (a, b, x) block;
    # compared as 2^s-th powers, the averages themselves, which no root amplifies near 0
    ctx = make_field(p)
    rng = np.random.default_rng(10 * p + s)
    amplitude = FpFunction(ctx, rng.random(p) * np.exp(2j * np.pi * rng.random(p)), bounded=True)
    for f in (random_unimodular(ctx, p + s), amplitude):
        assert abs(gowers_direct(f, s) ** (1 << s) - _corner_sum_average(f.values, s)) < 1e-12


def _gowers_direct_per_block(values, s):
    """gowers_direct with a fresh window view of every block of D, built by numpy's own
    sliding_window_view: the same products and sums, block by block."""
    p = len(values)
    rows = max(1, (1 << 16) // (p * p))
    acc = 0.0 + 0j
    for d in _nested_derivatives(values, max(s - 2, 0)):
        shifted = sliding_window_view(np.concatenate([d, d]), p)[:p]
        for a0 in range(0, p, rows):
            D = shifted[a0 : a0 + rows] * np.conjugate(d)
            if s == 1:
                acc += D.sum()
            else:
                windows = sliding_window_view(np.concatenate([D, D], axis=-1), p, axis=-1)
                acc += (windows[:, :p] * np.conjugate(D)[:, None, :]).sum()
    return max(float((acc / p ** (s + 1)).real), 0.0) ** (1.0 / (1 << s))


@pytest.mark.parametrize(
    "p, s",
    [(p, s) for p in (2, 3, 5, 7, 13) for s in (1, 2, 3, 4)] + [(101, s) for s in (1, 2, 3)],
)
def test_gowers_direct_matches_the_per_block_route(p, s):
    # at p = 101 a block holds 6 rows of D, and 6 does not divide 101: the last block is short
    ctx = make_field(p)
    rng = np.random.default_rng(11 * p + s)
    amplitude = FpFunction(ctx, rng.random(p) * np.exp(2j * np.pi * rng.random(p)), bounded=True)
    for f in (random_unimodular(ctx, 5 * p + s), amplitude):
        assert gowers_direct(f, s) == _gowers_direct_per_block(f.values, s)


def test_shift_rows_is_the_sliding_window_view():
    rng = np.random.default_rng(4)
    for values in (rng.random(7) + 1j * rng.random(7), rng.random((3, 5)) > 0.5, np.arange(1)):
        view = _shift_rows(values)
        doubled = np.concatenate([values, values], axis=-1)
        expected = sliding_window_view(doubled, values.shape[-1], axis=-1)
        assert view.shape == expected.shape and np.array_equal(view, expected)
        assert not view.flags.writeable


def test_gowers_direct_memory_is_one_block():
    # a block of D is 6 of the 101 rows at p = 101: one (6, 101, 101) temporary, under 1 MiB
    f = random_unimodular(make_field(101), 5)
    tracemalloc.start()
    try:
        gowers_direct(f, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("p", [5, 7])
def test_gowers_fast_matches_direct_u4(p):
    f = random_unimodular(make_field(p), 40 + p)
    assert abs(gowers_fast(f, 4) - gowers_direct(f, 4)) < 1e-12


def _gowers_fast_by_row(f, s):
    """gowers_fast's U^2-Fourier identity with one chirp transform per derivative row."""
    p = f.p
    acc = 0.0
    for d in _nested_derivatives(f.values, s - 2):
        coeffs = fourier(FpFunction(f.ctx, d), "fast")
        acc += float((np.abs(coeffs) ** 4).sum())
    return (acc / p ** (s - 2)) ** (1.0 / (1 << s))


@pytest.mark.parametrize(
    "p, s",
    [(p, s) for p in (2, 3, 5, 7, 13, 101, 2003) for s in (2, 3)]
    + [(p, 4) for p in (5, 7, 13)]
    + [(211, s) for s in (2, 3)],
)
def test_gowers_fast_matches_the_row_by_row_route(p, s):
    # p % 8 != 0 throughout, so the last block of rows is short; p < 8 is one short block
    ctx = make_field(p)
    rng = np.random.default_rng(7 * p + s)
    amplitude = FpFunction(ctx, rng.random(p) * np.exp(2j * np.pi * rng.random(p)), bounded=True)
    fs = [random_unimodular(ctx, 3 * p + s), amplitude]
    if p in (101, 211):  # chardecay's inputs: chi(0) = 0 and other exact zeros in the rows
        fs += [FpFunction(ctx, mult_character(ctx, k)) for k in divisors(p - 1) if k > 1]
    for f in fs:
        assert gowers_fast(f, s) == _gowers_fast_by_row(f, s)


@pytest.mark.parametrize("p", [2, 7, 13, 101, 2003])
def test_dft_sums_block_matches_one_row_blocks(p):
    # the batched rows rest on pocketfft giving each row of a block the bits of its 1-D call
    rng = np.random.default_rng(p)
    block = rng.random((8, p)) + 1j * rng.random((8, p))
    for r in (1, 3, 8):
        rows = np.concatenate(list(_dft_sums([row[None] for row in block[:r]], p, 1)))
        (sums,) = _dft_sums([block[:r]], p, r)
        assert sums.tobytes() == rows.tobytes()


def test_gowers_fast_memory_is_a_few_row_blocks():
    # a block of rows holds a few (8, L) temporaries; all p rows at once would be ~130 MiB each
    f = random_unimodular(make_field(2003), 5)
    gowers_fast(f, 2)  # caches the chirp plan
    tracemalloc.start()
    try:
        gowers_fast(f, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_derivative_recursion():
    for p in (7, 11, 13):
        ctx = make_field(p)
        f = random_unimodular(ctx, p + 17)
        for s in (2, 3):
            lhs = gowers_direct(f, s) ** (1 << s)
            rhs = np.mean(
                [gowers_direct(mult_derivative(f, h), s - 1) ** (1 << (s - 1)) for h in range(p)]
            )
            assert abs(lhs - rhs) < 1e-8


def test_u2_inverse_sandwich():
    for p in (7, 11, 13):
        ctx = make_field(p)
        for seed in range(10):
            f = random_unimodular(ctx, 31 * p + seed)
            coeffs = fourier(f, "fast")
            big = float(np.abs(coeffs).max())
            l4 = float((np.abs(coeffs) ** 4).sum() ** 0.25)
            assert big <= l4 + 1e-9
            assert l4 <= big**0.5 + 1e-9


def test_max_fourier_coeff():
    ctx = make_field(7)
    assert max_fourier_coeff(constant(ctx)) == (0, pytest.approx(1.0))
    alpha, mag = max_fourier_coeff(additive_char(ctx, 3))
    assert alpha == 4 and abs(mag - 1) < 1e-9
    # dense random set: the mean dominates every other coefficient
    ctx = make_field(31)
    rng = np.random.default_rng(5)
    subset = [x for x in range(31) if rng.random() < 0.8]
    f = indicator(ctx, subset)
    alpha, mag = max_fourier_coeff(f)
    brute = np.abs(fourier(f, "naive"))
    assert alpha == int(np.argmax(brute))
    assert alpha == 0 and abs(mag - len(subset) / 31) < 1e-9


def test_bounded_flag_enforced():
    ctx = make_field(5)
    with pytest.raises(ValueError):
        FpFunction(ctx, np.full(5, 2.0), bounded=True)
    with pytest.raises(ValueError):
        FpFunction(ctx, np.zeros(4))


def test_values_frozen():
    ctx = make_field(5)
    f = constant(ctx)
    with pytest.raises(ValueError):
        f.values[0] = 0


def test_json_round_trip():
    ctx = make_field(11)
    f = random_unimodular(ctx, 2)
    g = FpFunction.from_json(f.to_json())
    assert g.p == 11
    assert np.abs(g.values - f.values).max() < 1e-15
    obj = json.loads(f.to_json())
    assert set(obj) == {"p", "re", "im"} and len(obj["re"]) == 11


def test_from_json_rejects_non_json():
    with pytest.raises(MalformedFixture, match="not JSON"):
        FpFunction.from_json("{p: 7")
