"""Fixed reference kernels ("twins") that measure how fast the host runs now.

The benchmark is run on shared virtual machines whose speed drifts by up to
about 1.7x within minutes, while the code stays the same. So every timed
command of a workload is followed at once by its twin: a smaller copy of the
same kind of code, frozen here as ffprog's hot paths were when the benchmark
was written and never changed with ffprog. A twin's time moves only with the
host. The benchmark reports a command's time as

    measured time * REF_S / twin time

where REF_S is the twin's median time on the machine the benchmark was tuned
on, so the host's drift is divided out and a change to ffprog is not.
"""

import itertools
import random

import numpy as np

AP3 = (lambda y: 0 * y, lambda y: y, lambda y: 2 * y)
POLY = AP3 + (lambda y: y**3, lambda y: y**4)


def _offsets(p: int, slots) -> list[np.ndarray]:
    y = np.arange(p, dtype=np.int64)
    return [f(y) % p for f in slots]


# --- freeset: bitset scans with early exit, integer-mask branch and bound -----


def _has_instance(bits: np.ndarray, slots) -> bool:
    p = len(bits)
    offsets = _offsets(p, slots)
    for y in range(1, p):
        mask = bits.copy()
        for off in offsets:
            mask &= np.roll(bits, -int(off[y]))
            if not mask.any():
                break
        else:
            return True
    return False


def greedy(p: int, slots, seed: int = 1) -> int:
    order = list(range(p))
    random.Random(seed).shuffle(order)
    bits = np.zeros(p, dtype=bool)
    for e in order:
        bits[e] = True
        if _has_instance(bits, slots):
            bits[e] = False
    return int(bits.sum())


def exact(p: int, slots) -> int:
    full = (1 << p) - 1
    offsets = _offsets(p, slots)
    masks = set()
    for y in range(1, p):
        base = 0
        for off in offsets:
            base |= 1 << int(off[y])
        for x in range(p):
            masks.add(((base << x) | (base >> (p - x))) & full)
    incident = [[m & ~(1 << e) for m in sorted(masks) if m >> e & 1] for e in range(p)]
    best = 1
    stack = [(1, 1, 1)]
    while stack:
        i, current, size = stack.pop()
        best = max(best, size)
        if i == p or size + (p - i) <= best:
            continue
        stack.append((i + 1, current, size))
        new = current | 1 << i
        if all(o & new != o for o in incident[i]):
            stack.append((i + 1, new, size + 1))
    return best


# --- gowers: Python-looped box averages and looped chirp transforms ------------


def _unimodular(p: int, seed: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.random.default_rng(seed).random(p))


def box_average(p: int, prefixes: int) -> complex:
    """The direct U^3 average at modulus p, over its first `prefixes` (h1, h2)."""
    values = _unimodular(p, 3)
    conj = np.conjugate(values)
    corners = list(itertools.product((0, 1), repeat=3))
    x = np.arange(p, dtype=np.int64)
    acc = 0j
    for prefix in itertools.islice(itertools.product(range(p), repeat=2), prefixes):
        corner_arrays = []
        for w in corners:
            base = sum(wi * hi for wi, hi in zip(w[:-1], prefix)) % p
            src = values if sum(w) % 2 == 0 else conj
            corner_arrays.append((bool(w[-1]), np.roll(src, -base)))
        hs = np.arange(p, dtype=np.int64)
        grid = (hs[:, None] + x[None, :]) % p
        term = np.ones((p, p), dtype=np.complex128)
        for moves_with_h, rolled in corner_arrays:
            term *= rolled[grid] if moves_with_h else rolled[None, :]
        acc += term.sum()
    return acc


def chirp_u3(p: int, shifts: int) -> float:
    """Sum of |DFT(Delta_h f)|^4 over the first `shifts` h, by chirp transforms."""
    values = _unimodular(p, 5)
    n = np.arange(p, dtype=np.int64)
    chirp = np.exp(1j * np.pi * ((n * n) % (2 * p)) / p)
    length = 1 << max(1, 2 * p - 2).bit_length()
    kernel = np.zeros(length, dtype=np.complex128)
    kernel[:p] = np.conjugate(chirp)
    kernel[length - p + 1 :] = np.conjugate(chirp[1:][::-1])
    fkernel = np.fft.fft(kernel)
    acc = 0.0
    for h in range(shifts):
        d = np.roll(values, -h) * np.conjugate(values)
        conv = np.fft.ifft(np.fft.fft(d * chirp, length) * fkernel)[:p]
        acc += float((np.abs(chirp * conv / p) ** 4).sum())
    return acc


# --- sweep: dense complex gathers over (x, y) grids ---------------------------


def _product_mean(fs, offsets, p: int, y_weight=None) -> complex:
    x = np.arange(p, dtype=np.int64)
    total = 0j
    chunk = max(1, (1 << 21) // p)
    for y0 in range(0, p, chunk):
        y1 = min(y0 + chunk, p)
        prod = np.ones((y1 - y0, p), dtype=np.complex128)
        for f, off in zip(fs, offsets):
            prod *= f[(x[None, :] + off[y0:y1, None]) % p]
        if y_weight is not None:
            prod *= y_weight[y0:y1, None]
        total += prod.sum()
    return total / (p * p)


def discorrelation(primes, calls: int) -> float:
    """`calls` five-point and three-point gather averages at each prime."""
    rng = np.random.default_rng(11)
    acc = 0.0
    for p in primes:
        offsets = _offsets(p, POLY)
        for _ in range(calls):
            fs = [np.exp(2j * np.pi * rng.random(p)) for _ in POLY]
            acc += abs(_product_mean(fs, offsets, p) - _product_mean(fs[:3], offsets[:3], p))
    return acc


def weighted_ap(primes, calls: int) -> float:
    """`calls` three-point gather averages with a y-weight at each prime."""
    rng = np.random.default_rng(13)
    acc = 0.0
    for p in primes:
        offsets = _offsets(p, AP3)
        weight = (np.arange(p) % 2).astype(np.complex128)
        for _ in range(calls):
            fs = [np.exp(2j * np.pi * rng.random(p)) for _ in AP3]
            acc += abs(_product_mean(fs, offsets, p, y_weight=weight))
    return acc


# --- set-up: compiling Python source, as a fresh import does -----------------

_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    c = [a * k for k in range({i} % 7 + 1) if k != b[0]]\n"
    f"    return {{'s': sum(c), 'n': len(c), 'b': b}}\n"
    for i in range(120)
)


def compile_source() -> int:
    return sum(len(compile(_SOURCE, f"<yardstick{i}>", "exec").co_consts) for i in range(4))


# Command label -> (twin, REF_S). Each twin takes about a quarter of its
# command's time. REF_S is the twin's median time inside the benchmark on a
# shared 2-vCPU VM (Python 3.11.7, numpy 2.4.6).
TWINS = {
    "discorrelate-random-unimodular": (lambda: discorrelation((101, 211, 401, 809), 4), 0.57),
    "discorrelate-quadratic-phase": (lambda: discorrelation((101, 211, 401, 809), 4), 0.58),
    "restricted-ap": (lambda: weighted_ap((101, 211, 401), 10), 0.087),
    "gowers-direct": (lambda: box_average(101, 2500), 0.98),
    "gowers-fast": (lambda: chirp_u3(2003, 750), 0.177),
    "chardecay-s3": (lambda: chirp_u3(401, 5000), 0.52),
    "chardecay-s2": (lambda: chirp_u3(10007, 3), 0.0139),
    "search-greedy-m=3-p401": (lambda: greedy(211, AP3), 0.5),
    "search-greedy-m=3;P=y^3,y^4-p211": (lambda: greedy(127, POLY), 0.47),
    "search-exact-m=3-p31": (lambda: exact(27, AP3), 0.101),
    "search-exact-m=3;P=y^3,y^4-p23": (lambda: exact(21, POLY) + exact(21, POLY), 0.099),
}
SETUP_TWIN = (compile_source, 0.055)
