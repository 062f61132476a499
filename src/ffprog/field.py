"""Exact arithmetic in F_p: primality, primitive roots, power residues, characters."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundViolation, UsageError, _integer

# Largest modulus for which int64 products of two residues cannot overflow (p^2 < 2^63).
_MAX_VECTOR_MODULUS = 3_037_000_499

# Deterministic Miller-Rabin witnesses, valid for every n < 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def divisors(n: int) -> list[int]:
    """Divisors of n >= 1 in ascending order, by trial division up to sqrt(n)."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def smallest_primitive_root(p: int) -> int:
    """Smallest g generating F_p^x, found by checking g^((p-1)/q) != 1 for prime q | p-1."""
    if p == 2:
        return 1
    checks = [(p - 1) // q for q in divisors(p - 1) if is_prime(q)]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in checks):
            return g
    raise ArithmeticError(f"no primitive root found for p={p}")  # unreachable for prime p


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """A prime field F_p with a fixed generator and its additive-character and power tables.

    twiddle[j] = exp(2*pi*i*j/p) and powers[l] = g^l mod p (0 <= l < p - 1), each built on
    first use and read-only; safe to share across workers.
    """

    p: int
    g: int

    @cached_property
    def twiddle(self) -> np.ndarray:
        twiddle = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        twiddle.flags.writeable = False
        return twiddle

    @cached_property
    def powers(self) -> np.ndarray:
        # doubling: t <- t ++ t * g^len(t), cut to p - 1 entries; int64 holds p^2 < 2^63
        n, t = self.p - 1, np.ones(1, dtype=np.int64)
        while len(t) < n:
            t = np.concatenate([t, t[: n - len(t)] * pow(self.g, len(t), self.p) % self.p])
        t.flags.writeable = False
        return t


def make_field(p: int) -> FieldCtx:
    p = _integer(p, "p")
    if p > _MAX_VECTOR_MODULUS:
        raise UsageError(f"p={p} is above {_MAX_VECTOR_MODULUS}, the int64 limit of the tables")
    if p < 2 or not is_prime(p):
        raise UsageError(f"{p} is not prime")
    return FieldCtx(p=p, g=smallest_primitive_root(p))


def pow_mod(x, k: int, p: int) -> np.ndarray:
    """x^k mod p elementwise on int64 residues, by square-and-multiply (p^2 < 2^63)."""
    k = _integer(k, "k", low=0)
    base = np.asarray(x, dtype=np.int64) % p
    out = np.full_like(base, 1 % p)
    while k:
        if k & 1:
            out = out * base % p
        base = base * base % p
        k >>= 1
    return out


def kth_power_residues(ctx: FieldCtx, k: int) -> np.ndarray:
    """Q_k = {x^k : x in F_p^x} as a read-only length-p bitset: the powers of g^gcd(k, p-1),
    checked against the x^k scan."""
    k = _integer(k, "k", low=1)
    p = ctx.p
    d = math.gcd(k, p - 1)
    elements = np.zeros(p, dtype=bool)
    elements[ctx.powers[::d]] = True
    direct = np.zeros(p, dtype=bool)
    direct[pow_mod(np.arange(1, p), k, p)] = True
    if not np.array_equal(elements, direct):
        raise BoundViolation(f"Q_{k} mod {p} from the powers of g^{d} differs from the x^{k} scan")
    elements.flags.writeable = False
    return elements


def mult_character(ctx: FieldCtx, k: int) -> np.ndarray:
    """chi_k as a read-only length-p table: chi_k(g^l) = exp(2*pi*i*l/k), chi_k(0) = 0.

    Requires k | p-1; normalize with gcd(k, p-1) first if needed.
    """
    k = _integer(k, "k", low=1)
    p = ctx.p
    if (p - 1) % k != 0:
        raise UsageError(f"k={k} does not divide p-1={p - 1}")
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    values = np.zeros(p, dtype=np.complex128)
    values[ctx.powers] = roots[np.arange(p - 1) % k]
    values.flags.writeable = False
    return values


def residue_indicator_via_characters(ctx: FieldCtx, k: int, x: int) -> complex:
    """1_{Q_k}(x) recovered as (1 + chi(x) + ... + chi(x)^{k-1})/k - (1/k)*1_{x=0}."""
    x = _integer(x, "x") % ctx.p
    cx = mult_character(ctx, k)[x]
    total = 1.0 + 0j  # the j=0 term is literally 1, also at x=0
    power = 1.0 + 0j
    for _ in range(k - 1):
        power *= cx
        total += power
    total /= k
    if x == 0:
        total -= 1.0 / k
    return complex(total)
