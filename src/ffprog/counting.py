"""Weighted counting operators for polynomial progressions and linear-form systems.

The configuration attached to a ProgressionSpec (m, [P_m, ..., P_{m+k-1}]) is

    x, x+y, ..., x+(m-1)y, x+P_m(y), ..., x+P_{m+k-1}(y).

Counting expectations E_{x,y} range over all of F_p x F_p (y = 0 included);
only the search operations exclude y = 0, matching the forbidden-configuration
convention.

Spec string grammar (the single source of truth for configurations):

    spec := "m=" INT [";P=" poly ("," poly)*]
    poly := ["-"] term (("+"|"-") term)*
    term := [INT] ["y" ["^" INT]]

e.g. "m=3;P=y^3,y^4", "m=3;P=2y^4+y^3", "m=4". The optional leading "-" is a
strict extension of the base grammar so every integer polynomial is renderable.
An exponent may not exceed MAX_EXPONENT.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .budget import charge
from .errors import BudgetExceeded, InvalidSpec, ParseError, UsageError
from .field import _MAX_VECTOR_MODULUS, FieldCtx, pow_mod
from .harmonic import FpFunction, _require_same_ctx, _residue_mask, _shift_rows

# Largest spec exponent: polynomials are dense coefficient tuples, and tabulating y^d mod p
# costs about d * p steps (degree 10^4 at p = 10007: ~0.5 s on a 2-vCPU Xeon VM).
MAX_EXPONENT = 10**4

# Largest p the exact free-set search admits; its int64 instance masks could not go past 62.
MAX_EXACT_P = 37


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial in one variable y, lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def eval_mod(self, y: int, p: int) -> int:
        """Horner evaluation with reduction at every step."""
        acc = 0
        y = y % p
        for c in reversed(self.coeffs):
            acc = (acc * y + c) % p
        return acc

    def values_mod(self, p: int) -> np.ndarray:
        """P(y) mod p for all y in F_p at once."""
        if p > _MAX_VECTOR_MODULUS:
            raise UsageError(f"p={p} too large for int64 vectorized evaluation")
        ys = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for c in reversed(self.coeffs):
            acc = (acc * ys + c % p) % p
        return acc


def monomial(degree: int, coefficient: int = 1) -> IntPolynomial:
    return IntPolynomial((0,) * degree + (coefficient,))


@dataclass(frozen=True)
class ProgressionSpec:
    """(m, [P_m, ..., P_{m+k-1}]): an m-term AP followed by k polynomial offsets."""

    m: int
    polys: tuple[IntPolynomial, ...] = ()

    def __post_init__(self):
        if self.m < 1:
            raise UsageError("m must be >= 1")
        object.__setattr__(self, "polys", tuple(self.polys))

    @property
    def total_points(self) -> int:
        return self.m + len(self.polys)


@dataclass(frozen=True)
class SpecValidation:
    """Result of the degree-condition check; witness is set only on violation."""

    valid: bool
    witness: tuple[int, ...] | None = None


def _rational_kernel_vector(rows: list[list[Fraction]]) -> list[Fraction] | None:
    """A nonzero kernel vector of the linear map a -> a @ rows, or None.

    rows[j] is the coefficient list of the j-th generator; exact arithmetic.
    """
    n = len(rows)
    if n == 0:
        return None
    width = max((len(r) for r in rows), default=0)
    mat = [list(r) + [Fraction(0)] * (width - len(r)) for r in rows]
    # Gauss-Jordan on the transpose-free system: eliminate to find dependent row.
    pivots: list[tuple[int, int]] = []  # (row index, column) in reduced order
    combo = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]  # track row ops
    for i in range(n):
        # reduce row i by previous pivots
        for pr, pc in pivots:
            factor = mat[i][pc]
            if factor:
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[pr])]
                combo[i] = [a - factor * b for a, b in zip(combo[i], combo[pr])]
        col = next((c for c, v in enumerate(mat[i]) if v != 0), None)
        if col is None:
            return combo[i]  # row i is a combination of earlier rows
        inv = Fraction(1) / mat[i][col]
        mat[i] = [v * inv for v in mat[i]]
        combo[i] = [v * inv for v in combo[i]]
        pivots.append((i, col))
    return None


def _normalize_witness(vec: list[Fraction]) -> tuple[int, ...]:
    denom = math.lcm(*(f.denominator for f in vec)) if vec else 1
    ints = [int(f * denom) for f in vec]
    g = math.gcd(*(abs(v) for v in ints if v != 0))
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(ints)


@lru_cache(maxsize=4096)
def validate_spec(spec: ProgressionSpec) -> SpecValidation:
    """Degree condition: every nonzero rational combination of the polys has degree >= m.

    Equivalent to the kernel of the degree->=m coefficient matrix being trivial;
    a nonzero kernel vector is returned (integer-normalized) as the witness.
    """
    if not spec.polys:
        return SpecValidation(valid=True)
    rows = []
    for P in spec.polys:
        high = P.coeffs[spec.m :]  # coefficients of y^m, y^{m+1}, ...
        rows.append([Fraction(c) for c in high])
    kernel = _rational_kernel_vector(rows)
    if kernel is None:
        return SpecValidation(valid=True)
    return SpecValidation(valid=False, witness=_normalize_witness(kernel))


def require_valid(spec: ProgressionSpec) -> None:
    check = validate_spec(spec)
    if not check.valid:
        raise InvalidSpec(
            f"degree condition fails: combination {check.witness} has degree < m={spec.m}",
            witness=check.witness,
        )


def config_offsets(spec: ProgressionSpec, p: int) -> list[np.ndarray]:
    """Per-slot offset arrays: slot j at difference y sits at x + offsets[j][y]."""
    y = np.arange(p, dtype=np.int64)
    offs = [(j * y) % p for j in range(spec.m)]
    offs.extend(P.values_mod(p) for P in spec.polys)
    return offs


def _warn_on_degree_collapse(spec: ProgressionSpec, p: int) -> None:
    for i, P in enumerate(spec.polys):
        if P.coeffs and P.coeffs[-1] % p == 0:
            warnings.warn(
                f"P_{spec.m + i} loses degree mod {p} (leading coefficient divisible by p); "
                "the degree condition was checked over the rationals",
                stacklevel=4,  # past _product_means, to the caller of the public operator
            )


# Entries per strip of rows in _slot_reduce: a strip of the block and one slot's gather (256 KiB
# each in complex128) stay in L2. A 5-slot scan at p = 809 / 1451 on a 2-vCPU Xeon (2 MiB L2
# per core) took 2.6 / 2.6 ns per slot-entry with strips of 2^14 or 2^15 entries, 3.2-4.1 ns
# with 2^12-2^13, 3.5-3.9 ns with 2^17, and 4.2 / 4.9 ns gathering whole blocks; do not go
# back to whole-block gathers. Below p ~ 250 a block fits in L2 and strips gain nothing.
# np.take(view, rows, axis=0, out=...) is no way to gather in place: it first copies the
# whole p x p shift view (~60x slower than indexing, per strip at p = 809).
_STRIP = 1 << 14


def _slot_reduce(arrays, offsets, p: int, ufunc, dtype, prefix=None):
    """Yield (y0, taken, acc) over blocks of y, acc[y - y0, x] = ufunc_{j<taken} a_j(x + o_j[y]).

    a_j is arrays[j] and o_j is offsets[j]. This is the one (x, y) scan behind Lambda, dual
    functions, find_progression, the exact search's instance table and the counterexample
    identity. A block holds about 2^21 entries, and it is the only full-size array: it is
    filled one strip of about _STRIP entries at a time, slot 0's gather copied in and each
    later slot's gather, a strip-sized temporary, folded in by ufunc in slot order. A block
    is yielded once all its slots are in (taken = len(arrays)) and, before that, after its
    first `prefix` slots, so a caller reads a prefix of the configuration from the same pass;
    it must read a block before it asks for the next. At least one slot and p >= 1 are
    required; the rows are the values of y in offsets[0]. The budget is charged
    rows * p * slots before the first block.
    """
    windows = [_shift_rows(a) for a in arrays]  # row j of a shift view is x -> a(x + j)
    chunk = max(1, (1 << 21) // p)
    strip = max(1, _STRIP // p)
    rows = len(offsets[0])
    n = len(windows)
    charge(rows * p * n, f"(x, y) scan(p={p}, slots={n})")
    stops = [prefix, n] if prefix is not None and 0 < prefix < n else [n]
    for y0 in range(0, rows, chunk):
        y1 = min(y0 + chunk, rows)
        acc = np.empty((y1 - y0, p), dtype=dtype)
        start = 0
        for stop in stops:
            for r0 in range(y0, y1, strip):
                ys = slice(r0, min(r0 + strip, y1))
                part = acc[r0 - y0 : ys.stop - y0]
                if start == 0:
                    part[...] = windows[0][offsets[0][ys]]
                for j in range(max(start, 1), stop):
                    ufunc(part, windows[j][offsets[j][ys]], out=part)
            yield y0, stop, acc
            start = stop


def _field_of(fs, n: int) -> FieldCtx:
    """The one field of the n functions fs; refuses another count or a mix of fields."""
    if len(fs) != n:
        raise UsageError(f"expected {n} functions, got {len(fs)}")
    return _require_same_ctx(fs)


def _product_means(spec: ProgressionSpec, fs, prefix=None, y_weight=None) -> dict[int, complex]:
    """{taken: E_{x,y} prod_{j<taken} f_j(x + o_j(y)) [* y_weight(y)]} from one scan of spec's
    configuration, for taken = len(fs) and, if it is a proper prefix, taken = prefix. The
    weight is multiplied into each block in place, so it holds only on scans without a prefix."""
    p = fs[0].ctx.p
    _warn_on_degree_collapse(spec, p)
    totals = {}
    values = [f.values for f in fs]
    offsets = config_offsets(spec, p)
    for y0, taken, prod in _slot_reduce(values, offsets, p, np.multiply, np.complex128, prefix):
        if y_weight is not None:
            prod *= y_weight[y0 : y0 + len(prod), None]
        totals[taken] = totals.get(taken, 0.0 + 0j) + prod.sum()
    return {taken: total / (p * p) for taken, total in totals.items()}


def lambda_poly(spec: ProgressionSpec, fs) -> complex:
    """The counting operator for the full configuration, direct O(p^2 (m+k))."""
    _field_of(fs, spec.total_points)
    return _product_means(spec, fs)[spec.total_points]


def lambda_poly_and_ap(spec: ProgressionSpec, fs) -> tuple[complex, complex]:
    """(lambda_poly(spec, fs), lambda_ap(fs[:m])) from one scan: the AP count is the mean of
    the product over the configuration's first m slots, read before the k polynomial slots."""
    _field_of(fs, spec.total_points)
    means = _product_means(spec, fs, prefix=spec.m)
    return means[spec.total_points], means[spec.m]


def lambda_ap(fs) -> complex:
    """Normalized m-term AP count: E_{x,y} prod_j f_j(x + j y)."""
    if not fs:
        raise UsageError("need at least one function")
    return lambda_poly(ProgressionSpec(m=len(fs)), fs)


def lambda_ap_weighted(fs, y_weight) -> complex:
    """lambda_ap with the y-average weighted by y_weight (e.g. a residue-set indicator)."""
    if not fs:
        raise UsageError("need at least one function")
    ctx = _field_of(fs, len(fs))
    weight = np.asarray(y_weight, dtype=np.complex128)
    if weight.shape != (ctx.p,):
        raise UsageError(f"y_weight has shape {weight.shape}, expected ({ctx.p},)")
    return _product_means(ProgressionSpec(m=len(fs)), fs, y_weight=weight)[len(fs)]


def dual_function(spec: ProgressionSpec, fs, omit: int) -> FpFunction:
    """F(x) = E_y prod_{j != omit} f_j(x + P_j(y) - P_omit(y)); <F, conj(f_omit)> = Lambda."""
    if not 0 <= omit < spec.total_points:
        raise UsageError(f"omit={omit} outside [0, {spec.total_points})")
    ctx = _field_of(fs, spec.total_points)
    p = ctx.p
    if spec.total_points == 1:  # no other slot: F is the empty product, 1
        return FpFunction(ctx, np.ones(p, dtype=np.complex128), bounded=True)
    offsets = config_offsets(spec, p)
    others = [f for j, f in enumerate(fs) if j != omit]
    shifts = [(off - offsets[omit]) % p for j, off in enumerate(offsets) if j != omit]
    out = np.zeros(p, dtype=np.complex128)
    blocks = _slot_reduce([f.values for f in others], shifts, p, np.multiply, np.complex128)
    for _, _, prod in blocks:
        out += prod.sum(axis=0)
    out /= p
    bounded = all(f.bounded for f in others)
    return FpFunction(ctx, out, bounded=bounded)


@dataclass(frozen=True)
class LinearSystemSpec:
    """m pairwise-independent linear forms in d variables plus per-variable powers k_j."""

    d: int
    forms: tuple[tuple[int, ...], ...]
    powers: tuple[int, ...]

    def __post_init__(self):
        forms = tuple(tuple(int(c) for c in row) for row in self.forms)
        powers = tuple(int(k) for k in self.powers)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "powers", powers)
        if len(powers) != self.d:
            raise UsageError("need one power per variable")
        if not forms:
            raise UsageError("need at least one linear form")
        if any(k < 1 for k in powers):
            raise UsageError("powers must be >= 1")
        for row in forms:
            if len(row) != self.d:
                raise UsageError("each form needs d coefficients")
            if not any(row):
                raise UsageError("zero linear form")
        for a, b in itertools.combinations(forms, 2):
            if all(a[i] * b[j] == a[j] * b[i] for i in range(self.d) for j in range(self.d)):
                raise UsageError(f"forms {a} and {b} are linearly dependent")
        for j, k in enumerate(powers):
            if k > 1:
                for row in forms:
                    if row[j] != 0 and all(c == 0 for i, c in enumerate(row) if i != j):
                        raise UsageError(
                            f"form {row} is a multiple of x_{j + 1}, which has power {k} > 1"
                        )


def lambda_linear(sys_spec: LinearSystemSpec, fs, restricted: bool) -> complex:
    """E_{x_1..x_d} prod_i f_i(L_i(...)); restricted substitutes x_j^{k_j} for x_j."""
    if sys_spec.d > 3:
        raise UsageError("d <= 3 enforced (cost p^d)")
    p = _field_of(fs, len(sys_spec.forms)).p
    charge(p**sys_spec.d * len(sys_spec.forms), f"lambda_linear(p={p}, d={sys_spec.d})")
    axes = []
    for j, k in enumerate(sys_spec.powers):
        t = pow_mod(np.arange(p), k if restricted else 1, p)
        shape = [1] * sys_spec.d
        shape[j] = p
        axes.append(t.reshape(shape))
    prod = np.ones((p,) * sys_spec.d, dtype=np.complex128)
    for f, row in zip(fs, sys_spec.forms):
        arg = np.zeros((p,) * sys_spec.d, dtype=np.int64)
        for c, t in zip(row, axes):
            if c % p:
                arg = (arg + (c % p) * t) % p
        prod *= f.values[arg]
    return complex(prod.mean())


def find_progression(A, spec: ProgressionSpec, p: int | None = None):
    """First (x, y) with y != 0 whose configuration lies in A, or None.

    A is a length-p boolean bitset (p inferred) or an iterable of integer residues, read
    mod p (p required). Exhaustive O(p^2) scan with early exit, y then x ascending. The empty
    field (p = 0) holds no configuration.
    """
    bits = np.asarray(A)
    if p is not None and p < 0:
        raise UsageError(f"p must be >= 0, got {p}")
    if bits.dtype == bool:
        p = len(bits) if p is None else p
        if bits.shape != (p,):
            raise UsageError(f"bitset must have length {p}")
    elif p is None:
        raise UsageError("pass p explicitly when A is not a boolean bitset")
    elif p:  # the empty field has no residue to mark
        bits = _residue_mask(np.atleast_1d(bits), p)
    if p == 0:
        return None
    offsets = [off[1:] for off in config_offsets(spec, p)]  # y = 1 .. p-1
    for y0, _, hit in _slot_reduce([bits] * len(offsets), offsets, p, np.logical_and, bool):
        first = int(hit.argmax())  # row-major: the smallest y, then the smallest x
        if hit.flat[first]:
            return first % p, 1 + y0 + first // p
    return None


def _instance_masks(spec: ProgressionSpec, p: int) -> list[int]:
    """Distinct point sets of all y != 0 configuration instances, as bitmask ints.

    The masks are int64 ORs of the weights 1 << x, so they need p < 63;
    exact_max_free_set refuses larger p (by default, p > 37) before it builds this table.
    """
    offsets = [off[1:] for off in config_offsets(spec, p)]
    weights = np.left_shift(1, np.arange(p, dtype=np.int64))
    blocks = _slot_reduce([weights] * len(offsets), offsets, p, np.bitwise_or, np.int64)
    return sorted({mask for _, _, acc in blocks for mask in acc.ravel().tolist()})


def _closing_masks(spec: ProgressionSpec, p: int) -> list[list[int]]:
    """closing[e]: every instance whose largest point is e, as the mask of its other points.

    The searches add elements in ascending order, so adding e can only close an instance
    filed under e, and an instance filed under e < n lies inside {0..n-1}.
    """
    closing: list[list[int]] = [[] for _ in range(p)]
    for mask in _instance_masks(spec, p):
        top = mask.bit_length() - 1
        closing[top].append(mask & ~(1 << top))
    return closing


def _largest_free_set(
    closing, bound, n: int, best_size: int, best_mask: int, meter=None, start=(1, 1, 1)
):
    """(size, mask) of the lexicographically smallest largest subset of {0..n-1} that holds
    the root's elements and closes no instance of `closing`, if its size beats best_size;
    else the best passed in.

    The root start = (i, mask, size) has decided 0..i-1 and holds the elements of mask; the
    default holds just 0. Depth-first over i..n-1 in ascending order, the include branch
    popped first, so the first set of a size is the smallest. A node at element i can add
    at most bound[n - i] of i..n-1, so it is cut when that cannot beat the best.
    meter(nodes) runs every 4096 nodes popped.
    """
    stack = [start]
    nodes = 0
    while stack:
        nodes += 1
        if meter is not None and not nodes & 4095:
            meter(nodes)
        i, current, size = stack.pop()
        if size > best_size:
            best_size, best_mask = size, current
        if i == n or size + bound[n - i] <= best_size:
            continue
        stack.append((i + 1, current, size))
        for other in closing[i]:
            if other & current == other:
                break
        else:
            stack.append((i + 1, current | 1 << i, size + 1))
    return best_size, best_mask


# Interval lengths up to which _interval_bounds searches R[n] exactly; longer ones take the
# subadditive bound. m=3 at p = 31 on a 2-vCPU Xeon: 63 ms for the search this way, 233 ms
# with R exact up to n = 30 (the longer exact searches cost more than their tighter cuts save).
_EXACT_BOUND_LEN = 12


def _interval_bounds(closing, top: int) -> list[int]:
    """R[n] for n <= top: at least the size of the largest subset of {0..n-1} holding no
    instance that lies inside {0..n-1}; exact for n <= _EXACT_BOUND_LEN. {0} must be free.

    A set of R[n-1] + 1 elements must hold 0 and n-1, or a translate of it would fit in n-1
    places, so an exact R[n] is R[n-1] or R[n-1] + 1: one search from 0, cut by the R values
    already found, decides it. Past _EXACT_BOUND_LEN, R[n] = min_a R[a] + R[n-a].
    """
    bound = [0, 1]
    for n in range(2, top + 1):
        if n <= _EXACT_BOUND_LEN:
            bound.append(_largest_free_set(closing, bound, n, bound[-1], 0)[0])
        else:
            bound.append(min(bound[a] + bound[n - a] for a in range(1, n // 2 + 1)))
    return bound


def exact_max_free_set(ctx: FieldCtx, spec: ProgressionSpec) -> tuple[int, list[int]]:
    """Maximum subset of F_p containing no configuration instance with y != 0.

    Branch and bound over elements in ascending order; translation symmetry
    pins 0 into the set. Returns the lexicographically smallest maximum set.
    With no polynomial slots the instances are also closed under x -> a*x
    (a != 0), so when {0, 1} is free some maximum set holds 0 and 1, and so
    does the smallest: the search starts from {0, 1}.
    A node that has decided 0..i-1 is cut unless its size plus R[p-i] beats the
    best set so far, where R[n] bounds the largest subset of {0..n-1} holding no
    instance inside {0..n-1} (the classical interval bound for r_3(n)): the
    instances are closed under x -> x + t, so the set's part in {i..p-1},
    shifted down by i, is such a subset. The cut drops only subtrees that
    cannot beat the best, so the answer is the one an uncut search finds.
    The budget is charged for the instance table, then again every 4096 DFS
    nodes for the table plus the nodes popped so far. The R table is built
    after the first charge and is not charged: its searches pop fewer than
    2^13 nodes in all. The table packs point sets into int64 masks, so p is
    refused past min(MAX_EXACT_P, 62).
    """
    require_valid(spec)
    p = ctx.p
    if p > min(MAX_EXACT_P, 62):
        raise BudgetExceeded(f"p={p} exceeds search cap {min(MAX_EXACT_P, 62)}")
    table = p * (p - 1) * spec.total_points
    what = f"exact_max_free_set(p={p})"
    charge(table, what)
    closing = _closing_masks(spec, p)
    if closing[0]:
        # {0} already forbidden; by translation invariance so is every singleton
        return 0, []
    bound = _interval_bounds(closing, p - 1)
    start = (2, 0b11, 2) if not spec.polys and not closing[1] else (1, 1, 1)
    size, mask = _largest_free_set(
        closing, bound, p, 1, 1, lambda nodes: charge(table + nodes, what), start
    )
    return size, [e for e in range(p) if mask >> e & 1]


# ---------------------------------------------------------------------------
# Spec string grammar


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    try:
        return int(text[start:pos]), pos
    except ValueError:  # no digits, a digit int() does not read ('²'), or past the digit limit
        raise ParseError("expected integer", start) from None


def _parse_term(text: str, pos: int) -> tuple[int, int, int]:
    """Returns (coefficient, exponent, new position)."""
    coeff = None
    if pos < len(text) and text[pos].isdigit():
        coeff, pos = _parse_int(text, pos)
    if pos < len(text) and text[pos] == "y":
        pos += 1
        exponent = 1
        if pos < len(text) and text[pos] == "^":
            exponent, end = _parse_int(text, pos + 1)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", pos + 1)
            pos = end
        return (1 if coeff is None else coeff), exponent, pos
    if coeff is None:
        raise ParseError("expected term (integer or 'y')", pos)
    return coeff, 0, pos


def _parse_poly(text: str, pos: int) -> tuple[IntPolynomial, int]:
    coeffs: dict[int, int] = {}
    sign = 1
    if pos < len(text) and text[pos] == "-":
        sign = -1
        pos += 1
    while True:
        c, e, pos = _parse_term(text, pos)
        coeffs[e] = coeffs.get(e, 0) + sign * c
        if pos < len(text) and text[pos] in "+-":
            sign = 1 if text[pos] == "+" else -1
            pos += 1
            continue
        break
    degree = max(coeffs, default=0)
    return IntPolynomial(tuple(coeffs.get(d, 0) for d in range(degree + 1))), pos


def parse_progression_spec(text: str) -> ProgressionSpec:
    """Parse the spec grammar; raises ParseError with the offending offset."""
    if not text.startswith("m="):
        raise ParseError("expected 'm='", 0)
    m, pos = _parse_int(text, 2)
    if m < 1:
        raise ParseError("m must be >= 1", 2)
    if pos == len(text):
        return ProgressionSpec(m=m)
    if not text.startswith(";P=", pos):
        raise ParseError("expected ';P='", pos)
    pos += 3
    polys = []
    while True:
        poly, pos = _parse_poly(text, pos)
        polys.append(poly)
        if pos < len(text) and text[pos] == ",":
            pos += 1
            continue
        break
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return ProgressionSpec(m=m, polys=tuple(polys))


def render_poly(P: IntPolynomial) -> str:
    if not P.coeffs:
        return "0"
    parts = []
    for d in range(len(P.coeffs) - 1, -1, -1):
        c = P.coeffs[d]
        if c == 0:
            continue
        mag = abs(c)
        if d == 0:
            body = str(mag)
        elif d == 1:
            body = "y" if mag == 1 else f"{mag}y"
        else:
            body = f"y^{d}" if mag == 1 else f"{mag}y^{d}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


def render_progression_spec(spec: ProgressionSpec) -> str:
    out = f"m={spec.m}"
    if spec.polys:
        out += ";P=" + ",".join(render_poly(P) for P in spec.polys)
    return out
