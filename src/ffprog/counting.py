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
from .field import _MAX_VECTOR_MODULUS, FieldCtx
from .harmonic import FpFunction, _require_same_ctx, _shift_rows

# Largest spec exponent: polynomials are dense coefficient tuples, and tabulating y^d mod p
# costs about d * p steps (degree 10^4 at p = 10007: ~0.5 s on a 2-vCPU Xeon VM).
MAX_EXPONENT = 10**4

# Largest p the exact free-set search admits; its int64 instance masks could not go past 62.
MAX_EXACT_P = 31


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

    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __str__(self):
        return render_poly(self)


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
    def k(self) -> int:
        return len(self.polys)

    @property
    def total_points(self) -> int:
        return self.m + self.k

    @property
    def validated(self) -> bool:
        return validate_spec(self).valid


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
        if P.coeffs and P.leading_coefficient() % p == 0:
            warnings.warn(
                f"P_{spec.m + i} loses degree mod {p} (leading coefficient divisible by p); "
                "the degree condition was checked over the rationals",
                stacklevel=3,
            )


def _slot_reduce(arrays, offsets, p: int, ufunc, dtype):
    """Yield (y0, acc) over blocks of y: acc[y - y0, x] = ufunc_j arrays[j][x + offsets[j][y]].

    The one (x, y) scan behind Lambda, dual functions, find_progression, the exact search's
    instance table and the counterexample identity. acc starts at the ufunc's identity and
    takes the slots in order, each gathered straight into it, so a block of about 2^21
    entries is the largest temporary. With no slots the blocks still cover p values of y.
    """
    windows = [_shift_rows(a) for a in arrays]  # row j of a shift view is x -> a(x + j)
    chunk = max(1, (1 << 21) // max(p, 1))  # an empty bitset (p = 0) scans no rows
    rows = len(offsets[0]) if offsets else p
    for y0 in range(0, rows, chunk):
        acc = np.full((min(chunk, rows - y0), p), ufunc.identity, dtype=dtype)
        for w, off in zip(windows, offsets):
            ufunc(acc, w[off[y0 : y0 + chunk]], out=acc)
        yield y0, acc


def _product_mean(fs, offsets, p: int, y_weight=None) -> complex:
    """E_{x,y} prod_j f_j(x + offsets[j](y)) [* y_weight(y)]."""
    total = 0.0 + 0j
    for y0, prod in _slot_reduce([f.values for f in fs], offsets, p, np.multiply, np.complex128):
        if y_weight is not None:
            prod *= y_weight[y0 : y0 + len(prod), None]
        total += prod.sum()
    return total / (p * p)


def lambda_poly(spec: ProgressionSpec, fs) -> complex:
    """The counting operator for the full configuration, direct O(p^2 (m+k))."""
    if len(fs) != spec.total_points:
        raise UsageError(f"expected {spec.total_points} functions, got {len(fs)}")
    ctx = _require_same_ctx(fs)
    _warn_on_degree_collapse(spec, ctx.p)
    return _product_mean(fs, config_offsets(spec, ctx.p), ctx.p)


def lambda_ap(fs) -> complex:
    """Normalized m-term AP count: E_{x,y} prod_j f_j(x + j y)."""
    if not fs:
        raise UsageError("need at least one function")
    return lambda_poly(ProgressionSpec(m=len(fs)), fs)


def lambda_ap_weighted(fs, y_weight) -> complex:
    """lambda_ap with the y-average weighted by y_weight (e.g. a residue-set indicator)."""
    if not fs:
        raise UsageError("need at least one function")
    ctx = _require_same_ctx(fs)
    spec = ProgressionSpec(m=len(fs))
    weight = np.asarray(y_weight, dtype=np.complex128)
    if weight.shape != (ctx.p,):
        raise UsageError(f"y_weight has shape {weight.shape}, expected ({ctx.p},)")
    return _product_mean(fs, config_offsets(spec, ctx.p), ctx.p, y_weight=weight)


def dual_function(spec: ProgressionSpec, fs, omit: int) -> FpFunction:
    """F(x) = E_y prod_{j != omit} f_j(x + P_j(y) - P_omit(y)); <F, conj(f_omit)> = Lambda."""
    if not 0 <= omit < spec.total_points:
        raise UsageError(f"omit={omit} outside [0, {spec.total_points})")
    if len(fs) != spec.total_points:
        raise UsageError(f"expected {spec.total_points} functions, got {len(fs)}")
    ctx = _require_same_ctx(fs)
    p = ctx.p
    offsets = config_offsets(spec, p)
    others = [f for j, f in enumerate(fs) if j != omit]
    shifts = [(off - offsets[omit]) % p for j, off in enumerate(offsets) if j != omit]
    out = np.zeros(p, dtype=np.complex128)
    for _, prod in _slot_reduce([f.values for f in others], shifts, p, np.multiply, np.complex128):
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

    @property
    def num_forms(self) -> int:
        return len(self.forms)


def lambda_linear(sys_spec: LinearSystemSpec, fs, restricted: bool) -> complex:
    """E_{x_1..x_d} prod_i f_i(L_i(...)); restricted substitutes x_j^{k_j} for x_j."""
    if sys_spec.d > 3:
        raise UsageError("d <= 3 enforced (cost p^d)")
    if len(fs) != sys_spec.num_forms:
        raise UsageError(f"expected {sys_spec.num_forms} functions, got {len(fs)}")
    ctx = _require_same_ctx(fs)
    p = ctx.p
    charge(p**sys_spec.d * sys_spec.num_forms, f"lambda_linear(p={p}, d={sys_spec.d})")
    axes = []
    for j, k in enumerate(sys_spec.powers):
        if restricted and k > 1:
            t = np.fromiter((pow(x, k, p) for x in range(p)), dtype=np.int64, count=p)
        else:
            t = np.arange(p, dtype=np.int64)
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


def as_bitset(A, p: int) -> np.ndarray:
    """Normalize a subset of F_p (bool array or iterable of ints) to a length-p bitset."""
    arr = np.asarray(A)
    if arr.dtype == bool:
        if arr.shape != (p,):
            raise UsageError(f"bitset must have length {p}")
        return arr
    out = np.zeros(p, dtype=bool)
    for x in np.atleast_1d(arr):
        out[int(x) % p] = True
    return out


def find_progression(A, spec: ProgressionSpec, p: int | None = None):
    """First (x, y) with y != 0 whose configuration lies in A, or None.

    A is a length-p boolean bitset (p inferred) or an iterable of residues
    (p required). Exhaustive O(p^2) scan with early exit, y then x ascending.
    """
    if p is None:
        arr = np.asarray(A)
        if arr.dtype != bool:
            raise UsageError("pass p explicitly when A is not a boolean bitset")
        p = len(arr)
    bits = as_bitset(A, p)
    offsets = [off[1:] for off in config_offsets(spec, p)]  # y = 1 .. p-1
    for y0, hit in _slot_reduce([bits] * len(offsets), offsets, p, np.logical_and, bool):
        first = int(hit.argmax())  # row-major: the smallest y, then the smallest x
        if hit.flat[first]:
            return first % p, 1 + y0 + first // p
    return None


def _instance_masks(spec: ProgressionSpec, p: int) -> list[int]:
    """Distinct point sets of all y != 0 configuration instances, as bitmask ints.

    The masks are int64 ORs of the weights 1 << x, so they need p < 63;
    exact_max_free_set refuses larger p (by default, p > 31) before it builds this table.
    """
    offsets = [off[1:] for off in config_offsets(spec, p)]
    weights = np.left_shift(1, np.arange(p, dtype=np.int64))
    blocks = _slot_reduce([weights] * len(offsets), offsets, p, np.bitwise_or, np.int64)
    return sorted({mask for _, acc in blocks for mask in acc.ravel().tolist()})


def exact_max_free_set(ctx: FieldCtx, spec: ProgressionSpec) -> tuple[int, list[int]]:
    """Maximum subset of F_p containing no configuration instance with y != 0.

    Branch and bound over elements in ascending order; translation symmetry
    pins 0 into the set. Returns the lexicographically smallest maximum set.
    The budget is charged for the instance table, then again every 4096 DFS
    nodes for the table plus the nodes popped so far. The table packs point
    sets into int64 masks, so p is refused past min(MAX_EXACT_P, 62).
    """
    require_valid(spec)
    p = ctx.p
    if p > min(MAX_EXACT_P, 62):
        raise BudgetExceeded(f"p={p} exceeds search cap {min(MAX_EXACT_P, 62)}")
    table = p * (p - 1) * spec.total_points
    charge(table, f"exact_max_free_set(p={p})")
    # Elements join in ascending order, so adding e can only close an instance
    # whose largest point is e: file each instance under its top bit.
    closing: list[list[int]] = [[] for _ in range(p)]
    for mask in _instance_masks(spec, p):
        top = mask.bit_length() - 1
        closing[top].append(mask & ~(1 << top))

    def can_add(current: int, e: int) -> bool:
        for other in closing[e]:
            if other & current == other:
                return False
        return True

    if not can_add(0, 0):
        # {0} already forbidden; by translation invariance so is every singleton
        return 0, []

    # DFS stack of (next element, current mask, size); include branch pushed last
    # so it pops first, making the first maximum found lexicographically smallest.
    stack = [(1, 1, 1)]
    best_size, best_mask = 1, 1
    nodes = 0
    while stack:
        nodes += 1
        if not nodes & 4095:
            charge(table + nodes, f"exact_max_free_set(p={p})")
        i, current, size = stack.pop()
        if size > best_size:
            best_size, best_mask = size, current
        if i == p or size + (p - i) <= best_size:
            continue
        stack.append((i + 1, current, size))
        if can_add(current, i):
            stack.append((i + 1, current | 1 << i, size + 1))
    elements = [e for e in range(p) if best_mask >> e & 1]
    return best_size, elements


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
