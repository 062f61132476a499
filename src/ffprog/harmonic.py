"""Functions on F_p: Fourier transforms, norms, multiplicative derivatives, Gowers norms.

All transforms and averages use expectation normalization: the Fourier
coefficient at alpha is E_x f(x) e_p(alpha x) with e_p(t) = exp(2*pi*i*t/p).
"""

import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .budget import charge_power
from .errors import MalformedFixture, UsageError, _integer
from .field import FieldCtx, make_field

BOUND_TOL = 1e-12


@dataclass(eq=False)
class FpFunction:
    """A complex-valued function on F_p, stored densely.

    `bounded` asserts sup|f| <= 1 (checked at construction). Values are
    frozen after construction; derived functions are new objects.
    """

    ctx: FieldCtx
    values: np.ndarray
    bounded: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.ctx.p,):
            raise UsageError(f"expected {self.ctx.p} values, got shape {vals.shape}")
        if self.bounded and np.abs(vals).max(initial=0.0) > 1.0 + BOUND_TOL:
            raise UsageError("bounded flag set but sup|f| > 1")
        vals = vals.copy()
        vals.flags.writeable = False
        self.values = vals

    @property
    def p(self) -> int:
        return self.ctx.p

    def mean(self) -> complex:
        return complex(self.values.mean())

    def shift(self, t: int) -> "FpFunction":
        """x -> f(x + t)."""
        shifted = np.roll(self.values, -(_integer(t, "t") % self.p))
        return FpFunction(self.ctx, shifted, self.bounded)

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "re": self.values.real.tolist(), "im": self.values.imag.tolist()}
        )

    @staticmethod
    def from_json(text: str) -> "FpFunction":
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also: too many digits, deep nesting
            raise MalformedFixture(f"fixture is not JSON: {exc}") from exc
        try:
            p, real, imag = obj["p"], obj["re"], obj["im"]
        except (KeyError, TypeError) as exc:
            raise MalformedFixture(f"fixture is not an object with p, re, im: {exc!r}") from exc
        # JSON reads 3.9, 1e400 and NaN as floats and true as a bool, none of them a modulus
        if type(p) is not int:
            raise MalformedFixture(f"fixture p must be an integer, got {p!r}")
        shapes = [(len(v),) if isinstance(v, list) else () for v in (real, imag)]
        if shapes != [(p,), (p,)]:
            raise MalformedFixture(f"fixture has p={p} but re shape {shapes[0]}, im {shapes[1]}")
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in real + imag):
            raise MalformedFixture("fixture re and im must hold finite numbers")
        values = np.asarray(real, dtype=float) + 1j * np.asarray(imag, dtype=float)
        return FpFunction(make_field(p), values)


def constant(ctx: FieldCtx, c: complex = 1.0) -> FpFunction:
    return FpFunction(ctx, np.full(ctx.p, c, dtype=np.complex128), bounded=abs(c) <= 1 + BOUND_TOL)


def _residue_mask(values, p: int) -> np.ndarray:
    """Length-p boolean mask of the integers in values, read mod p; refuses any other value."""
    mask = np.zeros(p, dtype=bool)
    for x in values:
        mask[_integer(x, "residue") % p] = True
    return mask


def indicator(ctx: FieldCtx, subset) -> FpFunction:
    return FpFunction(ctx, _residue_mask(subset, ctx.p).astype(np.complex128), bounded=True)


def additive_char(ctx: FieldCtx, a: int) -> FpFunction:
    """x -> e_p(a x)."""
    idx = (_integer(a, "a") % ctx.p) * np.arange(ctx.p, dtype=np.int64) % ctx.p
    return FpFunction(ctx, ctx.twiddle[idx], bounded=True)


def _require_same_ctx(fs) -> FieldCtx:
    ctx = fs[0].ctx
    for f in fs[1:]:
        if f.ctx.p != ctx.p or f.ctx.g != ctx.g:
            raise UsageError("functions live over different fields")
    return ctx


@lru_cache(maxsize=64)
def _bluestein_plan(p: int):
    # Chirp transform: nk = (n^2 + k^2 - (k-n)^2)/2, so the DFT with kernel
    # e_p(+nk) becomes one cyclic convolution of power-of-two length L >= 2p-1.
    # n^2 is reduced mod 2p before exponentiation to keep the phase argument small.
    n = np.arange(p, dtype=np.int64)
    sq = (n * n) % (2 * p)
    chirp = np.exp(1j * np.pi * sq / p)  # omega^{n^2/2}, omega = e_p(1)
    L = 1 << max(1, int(2 * p - 2)).bit_length()
    kernel = np.zeros(L, dtype=np.complex128)
    kernel[:p] = np.conjugate(chirp)
    kernel[L - p + 1 :] = np.conjugate(chirp[1:][::-1])
    fkernel = np.fft.fft(kernel)
    chirp.flags.writeable = False
    fkernel.flags.writeable = False
    return chirp, fkernel, L


def _dft_sum_fast(values: np.ndarray) -> np.ndarray:
    """X[..., k] = sum_n values[..., n] e_p(nk) via the chirp reduction (any length, primes
    included), along the last axis: each row of a block gets the bits of its own 1-D call."""
    p = values.shape[-1]
    chirp, fkernel, L = _bluestein_plan(p)
    fa = np.fft.fft(values * chirp, L, axis=-1)
    conv = np.fft.ifft(fa * fkernel, axis=-1)[..., :p]
    return chirp * conv


def _dft_sum_naive(values: np.ndarray, twiddle: np.ndarray) -> np.ndarray:
    """X[k] = sum_n values[n] e_p(nk) by direct summation, chunked to cap memory."""
    p = len(values)
    out = np.empty(p, dtype=np.complex128)
    xs = np.arange(p, dtype=np.int64)
    chunk = max(1, (1 << 22) // p)
    for start in range(0, p, chunk):
        alphas = np.arange(start, min(start + chunk, p), dtype=np.int64)
        idx = (alphas[:, None] * xs[None, :]) % p
        out[start : start + len(alphas)] = twiddle[idx] @ values
    return out


def fourier(f: FpFunction, strategy: str = "fast") -> np.ndarray:
    """The coefficients coeffs[alpha] = E_x f(x) e_p(alpha x) of f; `strategy` is "naive"
    (direct O(p^2), charged p^2) or "fast" (chirp)."""
    if strategy == "naive":
        charge_power(f.p, 2, 1, f"fourier(naive, p={f.p})")
        sums = _dft_sum_naive(f.values, f.ctx.twiddle)
    elif strategy == "fast":
        sums = _dft_sum_fast(f.values)
    else:
        raise UsageError(f"unknown strategy {strategy!r}")
    return sums / f.p


def norms(f: FpFunction, s: float) -> tuple[float, float]:
    """(L^s, l^s) norms of f; s may be math.inf."""
    a = np.abs(f.values)
    if s == math.inf:
        m = float(a.max())
        return m, m
    if not s >= 1:  # NaN included
        raise UsageError("s must be >= 1 or infinity")
    powered = a**s
    return float(powered.mean() ** (1.0 / s)), float(powered.sum() ** (1.0 / s))


def inner(f: FpFunction, g: FpFunction) -> complex:
    """<f, g> = E_x f(x) conj(g(x))."""
    _require_same_ctx([f, g])
    return complex(np.vdot(g.values, f.values) / f.p)


def mult_derivative(f: FpFunction, h: int) -> FpFunction:
    """Delta_h f: x -> f(x+h) conj(f(x)); preserves 1-boundedness."""
    vals = np.roll(f.values, -(_integer(h, "h") % f.p)) * np.conjugate(f.values)
    return FpFunction(f.ctx, vals, bounded=f.bounded)


def _nested_derivatives(values: np.ndarray, t: int):
    """Yield Delta_{h_1..h_t} of the values for every t-tuple, in lexicographic order."""
    for tup in itertools.product(range(len(values)), repeat=t):
        d = values
        for h in tup:
            d = np.roll(d, -h) * np.conjugate(d)
        yield d


def _windows(doubled: np.ndarray) -> np.ndarray:
    """A read-only view whose row j (of the last two axes) is doubled[..., j : j + p], where
    the last axis of doubled, C-contiguous, has length 2p."""
    p, step = doubled.shape[-1] // 2, doubled.itemsize
    shape, strides = (*doubled.shape[:-1], p + 1, p), (*doubled.strides[:-1], step, step)
    view = np.ndarray(shape, doubled.dtype, doubled, strides=strides)
    view.flags.writeable = False
    return view


def _shift_rows(values: np.ndarray) -> np.ndarray:
    """A read-only view whose row j (of the last two axes) is x -> values(x + j)."""
    return _windows(np.concatenate([values, values], axis=-1))


def _gowers_box_average(values: np.ndarray, s: int) -> float:
    """E_{x,h_1..h_s} of the conjugation-alternating product over {0,1}^s corners.

    With d = Delta_{h_1..h_{s-2}} f and D[a, x] = d(x+a) conj d(x), the sum over
    the last two h and x is sum_{a,b,x} D[a, x+b] conj D[a, x]; s = 1 is sum D.
    """
    p = len(values)
    # D is built a few rows of a at a time, so the (a, b, x) temporary stays near 2^16
    # entries (p^2 once p > 256) and the oracle's peak memory stays small at any s
    rows = min(p, max(1, (1 << 16) // (p * p)))
    # each block writes D into both halves of twice, so one window view serves every block
    twice = np.empty((rows, 2 * p), dtype=np.complex128)
    windows = _windows(twice)[:, :p]
    acc = 0.0 + 0j
    for d in _nested_derivatives(values, max(s - 2, 0)):
        shifted, conj_d = _shift_rows(d)[:p], np.conjugate(d)
        for a0 in range(0, p, rows):
            D = shifted[a0 : a0 + rows] * conj_d
            if s == 1:
                acc += D.sum()
            else:
                r = len(D)
                twice[:r, :p] = twice[:r, p:] = D
                acc += (windows[:r] * np.conjugate(D)[:, None, :]).sum()
    return float((acc / p ** (s + 1)).real)


def gowers_direct(f: FpFunction, s: int) -> float:
    """U^s norm by direct averaging over s-dimensional parallelepipeds, cost O(p^{s+1})."""
    s = _integer(s, "s", low=1)
    charge_power(f.p, s + 1, 1, f"gowers_direct(s={s}, p={f.p})")
    avg = _gowers_box_average(f.values, s)
    # roundoff can leave a tiny negative; the average is provably nonnegative
    return max(avg, 0.0) ** (1.0 / (1 << s))


# Derivative rows per chirp transform in gowers_fast. An (8, L) block stays in cache; all p
# rows at once lost from p ~ 401, and 32 rows was already slower at p = 2003. On the padded
# path 16 rows gave the gowers bench -1.7 % wall time (4 pairs) for +1.0 MiB peak RSS.
_ROW_BLOCK = 8


def gowers_fast(f: FpFunction, s: int) -> float:
    """U^s norm via the U^2-Fourier identity.

    s=2 is one fast transform (U^2 = l^4 norm of the spectrum); s>2 averages
    ||Delta_{h_1..h_{s-2}} f||_{U^2}^4 over all tuples, cost O(p^{s-1} log p). The rows
    Delta_h d of the last level go through the chirp transform a block at a time, written
    into the first p columns of a zeroed (_ROW_BLOCK, L) block: rows already of length L take
    pocketfft's multi-row path, where fft(x, L) zero-fills one row at a time. The cost and
    the result are those of one _dft_sum_fast call per row.
    """
    s = _integer(s, "s", low=2)
    p = f.p
    logp = max(1, math.ceil(math.log2(p)))
    charge_power(p, s - 1, logp, f"gowers_fast(s={s}, p={p})")
    if s == 2:
        acc = float((np.abs(_dft_sum_fast(f.values) / p) ** 4).sum())
    else:
        chirp, fkernel, L = _bluestein_plan(p)
        padded = np.zeros((_ROW_BLOCK, L), dtype=np.complex128)  # columns p.. stay zero
        spectrum = np.empty_like(padded)
        acc = 0.0
        for d in _nested_derivatives(f.values, s - 3):
            shifted, conj_d = _shift_rows(d)[:p], np.conjugate(d)
            for h0 in range(0, p, _ROW_BLOCK):
                r = min(_ROW_BLOCK, p - h0)
                np.multiply(shifted[h0 : h0 + r] * conj_d, chirp, out=padded[:r, :p])
                work = np.fft.fft(padded[:r], axis=-1, out=spectrum[:r])
                work *= fkernel
                np.fft.ifft(work, axis=-1, out=work)
                # |z * (1/p)| == |z / p|: numpy divides by p + 0j as (re + im*0) * fl(1/p), so
                # only the sign of an exact zero can differ, and |.| drops it
                coeffs = chirp * work[:, :p] * (1.0 / p)
                # one add per row, in order: a block .sum() would reorder the float additions
                for v in (np.abs(coeffs) ** 4).sum(axis=-1):
                    acc += float(v)
    return (acc / p ** (s - 2)) ** (1.0 / (1 << s))


def max_fourier_coeff(f: FpFunction) -> tuple[int, float]:
    """(argmax_alpha |f^(alpha)|, the maximum magnitude); ties go to the smallest alpha."""
    mags = np.abs(fourier(f, "fast"))
    alpha = int(np.argmax(mags))
    return alpha, float(mags[alpha])
