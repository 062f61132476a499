import math
import subprocess
import sys

import numpy as np
import pytest

from ffprog import (
    BoundViolation,
    UsageError,
    is_prime,
    kth_power_residues,
    make_field,
    mult_character,
    residue_indicator_via_characters,
)
from ffprog.field import FieldCtx, divisors, pow_mod

PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def test_make_field_examples():
    assert make_field(7).g == 3
    assert make_field(2).g == 1
    with pytest.raises(UsageError, match="9 is not prime"):
        make_field(9)
    with pytest.raises(UsageError, match="1 is not prime"):
        make_field(1)
    for p in (7.9, 7.0, "7", np.float64(7.0), None):  # read as an integer, never truncated
        with pytest.raises(UsageError, match="p must be an integer, got"):
            make_field(p)
    ctx = make_field(np.int64(7))
    assert (ctx.p, ctx.g) == (7, 3) and type(ctx.p) is int
    ctx.twiddle  # a cached table is not a dataclass field, so the repr leaves it out
    assert repr(ctx) == "FieldCtx(p=7, g=3)"


def test_make_field_rejects_moduli_past_int64_products():
    # 2^61 - 1 is prime, but p^2 overflows int64 and numpy cannot hold its tables
    assert is_prime(2**61 - 1)
    with pytest.raises(UsageError, match="int64"):
        make_field(2**61 - 1)


def test_divisors_match_the_brute_scan():
    # character_norm_decay lists every k | p - 1, the character-phase family those past k = 1
    for p in list(range(2, 2001)) + [10007, 1000003]:
        assert divisors(p - 1) == [k for k in range(1, p) if (p - 1) % k == 0], p


def test_primitive_root_has_full_order():
    for p in PRIMES_TO_101:
        ctx = make_field(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            seen.add(x)
            x = x * ctx.g % p
        assert len(seen) == p - 1


def test_make_field_picks_the_smallest_primitive_root():
    # g fixes FieldCtx.powers and so every character table; full order alone does not pin it
    def order(g, p):
        x, e = g % p, 1
        while x != 1:
            x, e = x * g % p, e + 1
        return e

    for p in (q for q in range(2, 2000) if is_prime(q)):
        assert make_field(p).g == next(g for g in range(1, p) if order(g, p) == p - 1), p


def test_twiddle_table_accuracy():
    ctx = make_field(97)
    expected = np.exp(2j * np.pi * np.arange(97) / 97)
    assert np.abs(ctx.twiddle - expected).max() < 1e-12


@pytest.mark.parametrize("p", PRIMES_TO_101 + [10007])
def test_power_table_walks_the_generator(p):
    ctx = make_field(p)
    assert "powers" not in vars(ctx)  # make_field builds no table
    powers = ctx.powers
    assert not powers.flags.writeable
    assert powers.dtype == np.int64 and powers[0] == 1
    assert np.array_equal(np.sort(powers), np.arange(1, p))
    assert np.array_equal(powers[1:], ctx.g * powers[:-1] % p)


@pytest.mark.parametrize("p", [2, 11, 101])
@pytest.mark.parametrize("k", ["1", "2", "3", "p-1", "p", "2^70+3"])
def test_pow_mod_matches_python_pow(p, k):
    k = {"p-1": p - 1, "p": p, "2^70+3": 2**70 + 3}.get(k) or int(k)
    xs = np.arange(p)
    assert pow_mod(xs, k, p).tolist() == [pow(x, k, p) for x in range(p)]
    with pytest.raises(UsageError, match="k must be >= 0"):
        pow_mod(xs, -k, p)


def _walk(ctx, step):
    """g^0, g^step, g^(2 step), ... up to g^(p - 1), one Python multiplication at a time."""
    x = 1
    for _ in range((ctx.p - 1) // step):
        yield x
        x = x * pow(ctx.g, step, ctx.p) % ctx.p


@pytest.mark.parametrize("p", [101, 10007])
def test_tables_match_the_generator_walk(p):
    ctx = make_field(p)
    for k in [k for k in range(1, p) if (p - 1) % k == 0]:
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        chi = np.zeros(p, dtype=np.complex128)
        for l, x in enumerate(_walk(ctx, 1)):
            chi[x] = roots[l % k]
        q = np.zeros(p, dtype=bool)
        q[list(_walk(ctx, k))] = True
        got_chi, got_q = mult_character(ctx, k), kth_power_residues(ctx, k)
        assert got_chi.tobytes() == chi.tobytes() and got_q.tobytes() == q.tobytes()
        assert not got_chi.flags.writeable and not got_q.flags.writeable


def test_kth_power_residue_examples():
    ctx = make_field(7)
    assert sorted(np.flatnonzero(kth_power_residues(ctx, 2))) == [1, 2, 4]
    assert sorted(np.flatnonzero(kth_power_residues(ctx, 1))) == [1, 2, 3, 4, 5, 6]
    assert sorted(np.flatnonzero(kth_power_residues(ctx, 3))) == [1, 6]


def test_residues_match_direct_exponentiation():
    # oracle equivalence for all p <= 101, k <= 12
    for p in PRIMES_TO_101:
        ctx = make_field(p)
        for k in range(1, 13):
            got = kth_power_residues(ctx, k)
            direct = {pow(x, k, p) for x in range(1, p)}
            assert set(np.flatnonzero(got).tolist()) == direct
            d = math.gcd(k, p - 1)
            assert got.sum() * d == p - 1
            reduced = kth_power_residues(ctx, d)
            assert np.array_equal(got, reduced)


def test_character_order_must_divide():
    ctx = make_field(7)
    with pytest.raises(UsageError, match="k=4 does not divide p-1=6"):
        mult_character(ctx, 4)


def test_quadratic_character_is_euler_criterion():
    for p in (7, 11, 13, 31):
        ctx = make_field(p)
        chi = mult_character(ctx, 2)
        assert chi[0] == 0
        for x in range(1, p):
            euler = pow(x, (p - 1) // 2, p)
            expected = 1.0 if euler == 1 else -1.0
            assert abs(chi[x] - expected) < 1e-12


def test_character_multiplicativity_exhaustive():
    for p in PRIMES_TO_101:
        ctx = make_field(p)
        for k in [k for k in range(1, p) if (p - 1) % k == 0][:4]:
            vals = mult_character(ctx, k)
            xs = np.arange(1, p)
            prod_table = vals[np.outer(xs, xs) % p]
            assert np.abs(prod_table - np.outer(vals[1:], vals[1:])).max() < 1e-9


def test_character_values_are_kth_roots():
    ctx = make_field(31)
    for k in (2, 3, 5, 6, 10, 15, 30):
        units = mult_character(ctx, k)[1:]
        assert np.abs(units**k - 1.0).max() < 1e-9


def test_character_detects_residues():
    ctx = make_field(31)
    for k in (2, 3, 5):
        chi = mult_character(ctx, k)
        q = kth_power_residues(ctx, k)
        for x in range(31):
            in_q = bool(q[x])
            assert (abs(chi[x] - 1) < 1e-9) == in_q


def test_indicator_refuses_what_the_character_refuses():
    ctx = make_field(7)
    with pytest.raises(UsageError, match="k must be >= 1"):
        residue_indicator_via_characters(ctx, 0, 2)
    with pytest.raises(UsageError, match="k=4 does not divide p-1=6"):
        residue_indicator_via_characters(ctx, 4, 2)


def test_indicator_decomposition_principal():
    ctx = make_field(7)
    for x in range(1, 7):
        assert abs(residue_indicator_via_characters(ctx, 1, x) - 1) < 1e-12
    assert abs(residue_indicator_via_characters(ctx, 1, 0)) < 1e-12


def test_indicator_decomposition_examples():
    ctx = make_field(7)
    assert abs(residue_indicator_via_characters(ctx, 2, 2) - 1) < 1e-9
    assert abs(residue_indicator_via_characters(ctx, 2, 0)) < 1e-9
    assert abs(residue_indicator_via_characters(ctx, 2, 3)) < 1e-9


def test_indicator_decomposition_everywhere():
    for p in PRIMES_TO_101:
        ctx = make_field(p)
        for k in [k for k in range(1, p) if (p - 1) % k == 0]:
            q = kth_power_residues(ctx, k)
            for x in range(p):
                want = 1.0 if q[x] else 0.0
                assert abs(residue_indicator_via_characters(ctx, k, x) - want) < 1e-9


def test_residue_table_check_is_a_bound_violation():
    # 3 has order 5 mod 11, so the subgroup it generates misses half of Q_1 = F_11^x
    bad = FieldCtx(p=11, g=3)
    with pytest.raises(BoundViolation, match="Q_1 mod 11 from the powers of g"):
        kth_power_residues(bad, 1)


def test_residue_table_check_runs_under_optimize(child_env):
    code = (
        "from ffprog import BoundViolation, kth_power_residues, make_field\n"
        "from ffprog.field import FieldCtx\n"
        "bad = FieldCtx(p=11, g=3)\n"
        "try:\n"
        "    kth_power_residues(bad, 1)\n"
        "except BoundViolation:\n"
        "    print('refused')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=child_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\n"
