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
from ffprog.field import FieldCtx

PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]


def test_make_field_examples():
    assert make_field(7).g == 3
    assert make_field(2).g == 1
    with pytest.raises(UsageError, match="9 is not prime"):
        make_field(9)
    with pytest.raises(UsageError, match="1 is not prime"):
        make_field(1)


def test_make_field_rejects_moduli_past_int64_products():
    # 2^61 - 1 is prime, but p^2 overflows int64 and numpy cannot hold its tables
    assert is_prime(2**61 - 1)
    with pytest.raises(UsageError, match="int64"):
        make_field(2**61 - 1)


def test_primitive_root_has_full_order():
    for p in PRIMES_TO_101:
        ctx = make_field(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            seen.add(x)
            x = x * ctx.g % p
        assert len(seen) == p - 1


def test_twiddle_table_accuracy():
    ctx = make_field(97)
    expected = np.exp(2j * np.pi * np.arange(97) / 97)
    assert np.abs(ctx.twiddle - expected).max() < 1e-12


def test_kth_power_residue_examples():
    ctx = make_field(7)
    assert sorted(np.flatnonzero(kth_power_residues(ctx, 2).elements)) == [1, 2, 4]
    assert sorted(np.flatnonzero(kth_power_residues(ctx, 1).elements)) == [1, 2, 3, 4, 5, 6]
    assert sorted(np.flatnonzero(kth_power_residues(ctx, 3).elements)) == [1, 6]


def test_residues_match_direct_exponentiation():
    # oracle equivalence for all p <= 101, k <= 12
    for p in PRIMES_TO_101:
        ctx = make_field(p)
        for k in range(1, 13):
            got = kth_power_residues(ctx, k)
            direct = {pow(x, k, p) for x in range(1, p)}
            assert set(np.flatnonzero(got.elements).tolist()) == direct
            d = math.gcd(k, p - 1)
            assert got.size() * d == p - 1
            reduced = kth_power_residues(ctx, d)
            assert np.array_equal(got.elements, reduced.elements)


def test_character_order_must_divide():
    ctx = make_field(7)
    with pytest.raises(UsageError, match="k=4 does not divide p-1=6"):
        mult_character(ctx, 4)


def test_quadratic_character_is_euler_criterion():
    for p in (7, 11, 13, 31):
        ctx = make_field(p)
        chi = mult_character(ctx, 2)
        assert chi(0) == 0
        for x in range(1, p):
            euler = pow(x, (p - 1) // 2, p)
            expected = 1.0 if euler == 1 else -1.0
            assert abs(chi(x) - expected) < 1e-12


def test_character_multiplicativity_exhaustive():
    for p in PRIMES_TO_101:
        ctx = make_field(p)
        for k in [k for k in range(1, p) if (p - 1) % k == 0][:4]:
            chi = mult_character(ctx, k)
            vals = chi.values
            xs = np.arange(1, p)
            prod_table = vals[np.outer(xs, xs) % p]
            assert np.abs(prod_table - np.outer(vals[1:], vals[1:])).max() < 1e-9


def test_character_values_are_kth_roots():
    ctx = make_field(31)
    for k in (2, 3, 5, 6, 10, 15, 30):
        chi = mult_character(ctx, k)
        units = chi.values[1:]
        assert np.abs(units**k - 1.0).max() < 1e-9


def test_character_detects_residues():
    ctx = make_field(31)
    for k in (2, 3, 5):
        chi = mult_character(ctx, k)
        q = kth_power_residues(ctx, k)
        for x in range(31):
            in_q = bool(q.elements[x])
            assert (abs(chi(x) - 1) < 1e-9) == in_q


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
                want = 1.0 if q.elements[x] else 0.0
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
