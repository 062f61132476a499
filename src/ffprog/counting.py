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

from .budget import charge, charge_power
from .errors import BudgetExceeded, InvalidSpec, ParseError, UsageError, _integer
from .field import _MAX_VECTOR_MODULUS, FieldCtx, pow_mod
from .harmonic import FpFunction, _require_same_ctx, _residue_mask, _shift_rows

# Largest spec exponent: polynomials are dense coefficient tuples, and tabulating y^d mod p
# costs about d * p steps (degree 10^4 at p = 10007: ~0.5 s on a 2-vCPU Xeon VM).
MAX_EXPONENT = 10**4

# Largest p the exact free-set search admits. It must stay <= 62: the instance masks are int64.
MAX_EXACT_P = 37


@dataclass(frozen=True)
class IntPolynomial:
    """Integer-coefficient polynomial in one variable y, lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(_integer(c, "coefficient") for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

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


def monomial(degree: int) -> IntPolynomial:
    return IntPolynomial((0,) * _integer(degree, "degree", low=0) + (1,))


@dataclass(frozen=True)
class ProgressionSpec:
    """(m, [P_m, ..., P_{m+k-1}]): an m-term AP followed by k polynomial offsets."""

    m: int
    polys: tuple[IntPolynomial, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "m", _integer(self.m, "m", low=1))
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

    rows[j] is the coefficient list of the j-th generator; exact arithmetic. Row i is reduced
    with the unit vector e_i appended, so its tail is the combination of generators it has
    become: the first row whose coefficient part vanishes returns its tail.
    """
    n = len(rows)
    width = max((len(r) for r in rows), default=0)
    pivots: list[tuple[list[Fraction], int]] = []  # (reduced row, its pivot column)
    for i, r in enumerate(rows):
        row = list(r) + [Fraction(0)] * (width - len(r))
        row += [Fraction(int(i == j)) for j in range(n)]
        for pivot_row, pc in pivots:
            factor = row[pc]
            if factor:
                row = [a - factor * b for a, b in zip(row, pivot_row)]
        col = next((c for c in range(width) if row[c] != 0), None)
        if col is None:
            return row[width:]
        inv = 1 / row[col]
        pivots.append(([v * inv for v in row], col))
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


@lru_cache(maxsize=16)
def config_offsets(spec: ProgressionSpec, p: int) -> tuple[np.ndarray, ...]:
    """Per-slot offset arrays: slot j at difference y sits at x + offsets[j][y].

    Built once per (spec, p): a sweep scans the same configuration on every trial. The
    cached arrays are shared, so they are read-only.
    """
    y = np.arange(p, dtype=np.int64)
    offs = [(j * y) % p for j in range(spec.m)] + [P.values_mod(p) for P in spec.polys]
    for off in offs:
        off.flags.writeable = False
    return tuple(offs)


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
# back to whole-block gathers. Below p ~ 250 a block fits in L2 and strips gain nothing; there
# the broadcast slot 0 (see _slot_reduce) saves more than their calls cost: lambda_poly_and_ap
# on m=3;P=y^3,y^4 took 0.117 / 0.337 ms at p = 101 / 211 with slot 0 gathered and copied,
# 0.084 / 0.279 ms broadcast. Folding a gathered slot 0 with ufunc(g0, g1, out=part) instead
# of the copy took dual_function at p = 101 from 0.095 to 0.20 ms, so shifted scans copy it.
# np.take(view, rows, axis=0, out=...) is no way to gather in place: it first copies the
# whole p x p shift view (~60x slower than indexing, per strip at p = 809).
_STRIP = 1 << 14


def _charge_scan(rows: int, p: int, slots: int) -> None:
    """The budget charge of an (x, y) scan: rows values of y, p of x, slots gathers each."""
    charge(rows * p * slots, f"(x, y) scan(p={p}, slots={slots})")


def _slot_reduce(arrays, offsets, ufunc, prefix=None):
    """Yield (y0, taken, acc) over blocks of y, acc[y - y0, x] = ufunc_{j<taken} a_j(x + o_j[y]).

    a_j is arrays[j] and o_j is offsets[j]. This is the one (x, y) scan behind Lambda, dual
    functions, find_progression, the exact search's instance table and the counterexample
    identity. A block holds about 2^21 entries, and it is the only full-size array: it is
    filled one strip of about _STRIP entries at a time, slot 0 first and each later slot's
    gather, a strip-sized temporary, folded in by ufunc in slot order. Slot 0's gather is
    copied in, unless o_0 is all zero, as in every configuration scan (slot 0 sits at
    x + 0y): then slot 0 is the same row a_0 for every y, so it is not gathered but
    broadcast as ufunc's first operand in slot 1's fold, or copied into a stage that ends
    after slot 0. Either way each entry gets the same ufunc calls in the same order. A block is
    yielded once all its slots are in (taken = len(arrays)) and, before that, after its
    first `prefix` slots, so a caller reads a prefix of the configuration from the same pass;
    it must read a block before it asks for the next. At least one slot and p >= 1 are
    required. p is the length of the slots and the block's dtype is theirs (all slots share
    one); the rows are the values of y in offsets[0]. The budget is charged rows * p * slots
    before the shift views and the first block.
    """
    p, rows, n = len(arrays[0]), len(offsets[0]), len(arrays)
    _charge_scan(rows, p, n)
    flat = not offsets[0].any()  # slot 0 is the row a_0 for every y
    # row j of a shift view is x -> a(x + j); a broadcast slot 0 needs none
    windows = [None if j == 0 and flat else _shift_rows(a) for j, a in enumerate(arrays)]
    chunk = max(1, (1 << 21) // p)
    strip = max(1, _STRIP // p)
    stops = [prefix, n] if prefix is not None and 0 < prefix < n else [n]
    for y0 in range(0, rows, chunk):
        y1 = min(y0 + chunk, rows)
        acc = np.empty((y1 - y0, p), dtype=arrays[0].dtype)
        start = 0
        for stop in stops:
            for r0 in range(y0, y1, strip):
                ys = slice(r0, min(r0 + strip, y1))
                part = acc[r0 - y0 : ys.stop - y0]
                first = start  # the first slot still to fold in
                if start == 0 and flat and stop > 1:
                    ufunc(arrays[0], windows[1][offsets[1][ys]], out=part)
                    first = 2
                elif start == 0:
                    part[...] = arrays[0] if flat else windows[0][offsets[0][ys]]
                    first = 1
                for j in range(first, stop):
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
    for y0, taken, prod in _slot_reduce(values, offsets, np.multiply, prefix):
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
    if not 0 <= (omit := _integer(omit, "omit")) < spec.total_points:
        raise UsageError(f"omit={omit} outside [0, {spec.total_points})")
    ctx = _field_of(fs, spec.total_points)
    p = ctx.p
    if spec.total_points == 1:  # no other slot: F is the empty product, 1
        return FpFunction(ctx, np.ones(p, dtype=np.complex128), bounded=True)
    offsets = config_offsets(spec, p)
    others = [f for j, f in enumerate(fs) if j != omit]
    shifts = [(off - offsets[omit]) % p for j, off in enumerate(offsets) if j != omit]
    out = np.zeros(p, dtype=np.complex128)
    for _, _, prod in _slot_reduce([f.values for f in others], shifts, np.multiply):
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
        object.__setattr__(self, "d", _integer(self.d, "d", low=1))
        forms = tuple(tuple(_integer(c, "form coefficient") for c in row) for row in self.forms)
        powers = tuple(_integer(k, "power", low=1) for k in self.powers)
        object.__setattr__(self, "forms", forms)
        object.__setattr__(self, "powers", powers)
        if len(powers) != self.d:
            raise UsageError("need one power per variable")
        if not forms:
            raise UsageError("need at least one linear form")
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
    p = _field_of(fs, len(sys_spec.forms)).p
    charge_power(p, sys_spec.d, len(sys_spec.forms), f"lambda_linear(p={p}, d={sys_spec.d})")
    axes = np.ix_(*(pow_mod(np.arange(p), k if restricted else 1, p) for k in sys_spec.powers))
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
    field (p = 0) holds no configuration. The scan is charged before A is read.
    """
    bits = np.asarray(A)
    if p is not None:
        p = _integer(p, "p", low=0)
    if bits.dtype == bool:
        p = len(bits) if p is None else p
        if bits.shape != (p,):
            raise UsageError(f"bitset must have length {p}")
    elif p is None:
        raise UsageError("pass p explicitly when A is not a boolean bitset")
    if p == 0:
        return None
    _charge_scan(p - 1, p, spec.total_points)
    if bits.dtype != bool:
        bits = _residue_mask(np.atleast_1d(bits), p)
    offsets = [off[1:] for off in config_offsets(spec, p)]  # y = 1 .. p-1
    for y0, _, hit in _slot_reduce([bits] * len(offsets), offsets, np.logical_and):
        first = int(hit.argmax())  # row-major: the smallest y, then the smallest x
        if hit.flat[first]:
            return first % p, 1 + y0 + first // p
    return None


def _forbid_table(spec: ProgressionSpec, p: int) -> list[list[tuple[int, int]]] | None:
    """forbids[a]: the instances whose second-largest point is a, grouped by the mask of
    their points below a, as (lower, tops) pairs in ascending lower; tops ORs their largest
    points. None when an instance is a single point: by translation every point is one.

    An instance is the distinct point set of a y != 0 configuration. The searches add
    elements in ascending order, so adding a to a set that holds lower leaves each instance
    of the pair one point short, its largest: those become forbidden. The masks are int64
    ORs of the weights 1 << x, so they need p < 63; exact_max_free_set refuses p >
    MAX_EXACT_P before it builds this table.
    """
    offsets = [off[1:] for off in config_offsets(spec, p)]
    weights = np.left_shift(1, np.arange(p, dtype=np.int64))
    blocks = _slot_reduce([weights] * len(offsets), offsets, np.bitwise_or)
    grouped: list[dict[int, int]] = [{} for _ in range(p)]
    for mask in {mask for _, _, acc in blocks for mask in acc.ravel().tolist()}:
        top = 1 << mask.bit_length() - 1
        rest = mask & ~top
        if not rest:
            return None
        a = rest.bit_length() - 1
        lower = rest & ~(1 << a)
        grouped[a][lower] = grouped[a].get(lower, 0) | top
    return [sorted(pairs.items()) for pairs in grouped]


def _free_search(forbids, bound, n: int, best: int, wrap: int, meter, nodes=0, first=True):
    """(mask, nodes popped): a subset of {0..n-1} that holds 0, closes no instance of
    `forbids` (a _forbid_table) and has more than `best` elements, or mask 0 if none has:
    the first such set, or with `first` false the last of those that each raised `best`,
    a largest.

    Depth-first over 1..n-1 in ascending order, the include branch popped first, so the
    first set of a size is the lexicographically smallest. Only sets whose wrap gap
    wrap - max is at least each inner gap are searched (wrap >= 2n admits every set): a
    node carries hi = min(n - 1, wrap - G), G its largest inner gap, and adds i only when
    the new gap i - last is at most wrap - i. It also carries forb, the elements that would
    close an instance whose other points it holds; adding a ORs in the tops of forbids[a]
    whose lower points it holds. A node at element i can add at most bound[hi + 1 - i] of
    i..hi, and none of forb, so it is cut when either count cannot beat best.
    meter(nodes) runs every 4096 nodes popped, counted on from `nodes`.
    """
    found = 0
    stack = [(1, 1, 1, sum(tops for _, tops in forbids[0]), n - 1)]  # nothing lies below 0
    while stack:
        nodes += 1
        if not nodes & 4095:
            meter(nodes)
        i, current, size, forb, hi = stack.pop()
        if size > best:
            if first:
                return current, nodes
            best, found = size, current
        if size + bound[hi + 1 - i] <= best:  # i == hi + 1 is cut here: bound[0] = 0
            continue
        if size + (~forb >> i & (1 << hi + 1 - i) - 1).bit_count() <= best:
            continue
        stack.append((i + 1, current, size, forb, hi))
        if not forb >> i & 1 and (gap := i - current.bit_length() + 1) <= wrap - i:
            for lower, tops in forbids[i]:
                if lower & current == lower:
                    forb |= tops
            stack.append((i + 1, current | 1 << i, size + 1, forb, min(hi, wrap - gap)))
    return found, nodes


# Interval lengths up to which _interval_bounds searches R[n] exactly; longer ones take the
# subadditive bound. m=3 at p = 31 on a 2-vCPU Xeon: 63 ms for the search this way, 233 ms
# with R exact up to n = 30 (the longer exact searches cost more than their tighter cuts save).
_EXACT_BOUND_LEN = 12


def _interval_bounds(forbids, top: int) -> list[int]:
    """R[n] for n <= top: at least the size of the largest subset of {0..n-1} holding no
    instance of `forbids` (a _forbid_table) that lies inside {0..n-1}; exact for
    n <= _EXACT_BOUND_LEN.

    A set of R[n-1] + 1 elements must hold 0 and n-1, or a translate of it would fit in n-1
    places, so an exact R[n] is R[n-1] or R[n-1] + 1: one search from 0, cut by the R values
    already found, decides it. Past _EXACT_BOUND_LEN, R[n] = min_a R[a] + R[n-a].
    """
    bound = [0, 1]
    for n in range(2, top + 1):
        if n <= _EXACT_BOUND_LEN:
            found = _free_search(forbids, bound, n, bound[-1], 2 * n, lambda nodes: None)[0]
            bound.append(bound[-1] + (found > 0))
        else:
            bound.append(min(bound[a] + bound[n - a] for a in range(1, n // 2 + 1)))
    return bound


def exact_max_free_set(ctx: FieldCtx, spec: ProgressionSpec) -> tuple[int, list[int]]:
    """Maximum subset of F_p containing no configuration instance with y != 0.

    Returns the lexicographically smallest maximum set, from two depth-first searches over
    the elements in ascending order. The instances are closed under x -> x + t, so every
    free set has a translate that holds 0 and whose wrap gap p - max is at least each of
    its inner gaps (rotate 0 to follow a largest gap). Both searches are _free_search. The
    proof searches only such sets, for the largest size s. The find searches every set
    holding 0 and returns the first that beats s - 1: the first set of size s in
    include-first order, which is the smallest. Both cut a node at element i unless its
    size plus R[n] beats the best, where i..i+n-1 are the elements it may still add and
    R[n] bounds the largest subset of {0..n-1} holding no instance inside {0..n-1} (the
    classical interval bound for r_3(n)); and unless its size plus the count of those
    elements outside its forbidden mask beats the best. That mask holds the elements that
    would close an instance whose other points the node holds; adding a can close only
    instances whose second-largest point is a, so one table grouped by that point
    (_forbid_table) updates it. The cuts drop only subtrees that cannot beat the best.
    The budget is charged for the instance table, then again every 4096 nodes of the two
    searches together for the table plus the nodes popped so far. The R table is built
    after the first charge and is not charged: its searches, which also stop at the first
    set that beats R[n-1], pop fewer than 2^13 nodes in all. p is refused past MAX_EXACT_P.
    """
    require_valid(spec)
    p = ctx.p
    if p > MAX_EXACT_P:
        raise BudgetExceeded(f"p={p} exceeds search cap {MAX_EXACT_P}")
    table = p * (p - 1) * spec.total_points
    what = f"exact_max_free_set(p={p})"
    charge(table, what)
    forbids = _forbid_table(spec, p)
    if forbids is None:  # every point is an instance
        return 0, []
    bound = _interval_bounds(forbids, p - 1)

    def meter(nodes):
        charge(table + nodes, what)

    mask, nodes = _free_search(forbids, bound, p, 1, p, meter, first=False)
    size = max(mask.bit_count(), 1)
    mask, _ = _free_search(forbids, bound, p, size - 1, 2 * p, meter, nodes)
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
    out = ""
    for d in range(len(P.coeffs) - 1, -1, -1):
        if c := P.coeffs[d]:  # sign, magnitude unless a unit on y^d, monomial
            out += ("-" if c < 0 else "+") + ("" if abs(c) == 1 and d else str(abs(c)))
            out += "" if d == 0 else "y" if d == 1 else f"y^{d}"
    return out.removeprefix("+") or "0"


def render_progression_spec(spec: ProgressionSpec) -> str:
    out = f"m={spec.m}"
    if spec.polys:
        out += ";P=" + ",".join(render_poly(P) for P in spec.polys)
    return out
