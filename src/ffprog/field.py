"""Exact arithmetic in F_p: primality, primitive roots, power residues, characters."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundViolation, UsageError

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


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def smallest_primitive_root(p: int) -> int:
    """Smallest g generating F_p^x, found by checking g^((p-1)/q) != 1 for prime q | p-1."""
    if p == 2:
        return 1
    checks = [(p - 1) // q for q in prime_factors(p - 1)]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in checks):
            return g
    raise ArithmeticError(f"no primitive root found for p={p}")  # unreachable for prime p


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """A prime field F_p with a fixed generator and additive-character table.

    twiddle[j] = exp(2*pi*i*j/p), built on first use; immutable, safe to share across workers.
    """

    p: int
    g: int

    @cached_property
    def twiddle(self) -> np.ndarray:
        twiddle = np.exp(2j * np.pi * np.arange(self.p) / self.p)
        twiddle.flags.writeable = False
        return twiddle

    def e(self, j: int) -> complex:
        """Additive character e_p(j)."""
        return complex(self.twiddle[j % self.p])

    def __repr__(self):
        return f"FieldCtx(p={self.p}, g={self.g})"


def make_field(p: int) -> FieldCtx:
    p = int(p)
    if p > _MAX_VECTOR_MODULUS:
        raise UsageError(f"p={p} is above {_MAX_VECTOR_MODULUS}, the int64 limit of the tables")
    if p < 2 or not is_prime(p):
        raise UsageError(f"{p} is not prime")
    return FieldCtx(p=p, g=smallest_primitive_root(p))


@dataclass(frozen=True, eq=False)
class ResidueClass:
    """The set Q_k of k-th power residues in F_p^x, as a length-p bitset.

    k is the order parameter as requested; the effective order is gcd(k, p-1).
    """

    p: int
    k: int
    elements: np.ndarray

    def __contains__(self, x: int) -> bool:
        return bool(self.elements[x % self.p])

    def size(self) -> int:
        return int(self.elements.sum())


def kth_power_residues(ctx: FieldCtx, k: int) -> ResidueClass:
    """Q_k = {x^k : x in F_p^x}, built from the subgroup generated by g^gcd(k, p-1)."""
    if k < 1:
        raise UsageError("k must be >= 1")
    p = ctx.p
    d = math.gcd(k, p - 1)
    elements = np.zeros(p, dtype=bool)
    step = pow(ctx.g, d, p)
    x = 1
    for _ in range((p - 1) // d):
        elements[x] = True
        x = x * step % p
    direct = np.zeros(p, dtype=bool)
    for y in range(1, p):
        direct[pow(y, k, p)] = True
    if not np.array_equal(elements, direct):
        raise BoundViolation(f"Q_{k} mod {p} from the powers of g^{d} differs from the x^{k} scan")
    elements.flags.writeable = False
    return ResidueClass(p=p, k=k, elements=elements)


@dataclass(frozen=True, eq=False)
class MultCharacter:
    """Multiplicative character of order k on F_p, tabulated; values[0] = 0."""

    p: int
    k: int
    values: np.ndarray

    def __call__(self, x: int) -> complex:
        return complex(self.values[x % self.p])


def mult_character(ctx: FieldCtx, k: int) -> MultCharacter:
    """chi_k with chi_k(g^l) = exp(2*pi*i*l/k), extended by chi_k(0) = 0.

    Requires k | p-1; normalize with gcd(k, p-1) first if needed.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    p = ctx.p
    if (p - 1) % k != 0:
        raise UsageError(f"k={k} does not divide p-1={p - 1}")
    roots = np.exp(2j * np.pi * np.arange(k) / k)
    values = np.zeros(p, dtype=np.complex128)
    x = 1
    for l in range(p - 1):
        values[x] = roots[l % k]
        x = x * ctx.g % p
    values.flags.writeable = False
    return MultCharacter(p=p, k=k, values=values)


def residue_indicator_via_characters(ctx: FieldCtx, k: int, x: int) -> complex:
    """1_{Q_k}(x) recovered as (1 + chi(x) + ... + chi(x)^{k-1})/k - (1/k)*1_{x=0}."""
    p = ctx.p
    if (p - 1) % k != 0:
        raise UsageError(f"k={k} does not divide p-1={p - 1}")
    chi = mult_character(ctx, k)
    x = x % p
    cx = chi.values[x]
    total = 1.0 + 0j  # the j=0 term is literally 1, also at x=0
    power = 1.0 + 0j
    for _ in range(k - 1):
        power *= cx
        total += power
    total /= k
    if x == 0:
        total -= 1.0 / k
    return complex(total)
