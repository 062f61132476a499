#!/usr/bin/env python3
"""Tour of the harmonic-analysis layer: transforms, norms, Gowers uniformity.

Everything lives on F_p with expectation normalization, so a "spread out"
function has tiny Fourier coefficients and tiny U^s norms, while structured
functions (characters, quadratic phases) light up in predictable ways.
"""

import numpy as np

import ffprog as fp

p = 97
ctx = fp.make_field(p)
print(f"working in F_{p}, primitive root g={ctx.g}")

# --- Fourier transform: two strategies, one answer -------------------------

rng = np.random.default_rng(0)
f = fp.FpFunction(ctx, np.exp(2j * np.pi * rng.random(p)), bounded=True)

naive = fp.fourier(f, "naive")
fast = fp.fourier(f, "fast")
print(f"naive vs chirp transform, sup difference: {np.abs(naive - fast).max():.2e}")

L2, l2 = fp.norms(f, 2)
print(f"Parseval: sum|f^|^2 = {(np.abs(fast) ** 2).sum():.12f}  E|f|^2 = {L2 ** 2:.12f}")

# an additive character has a single spike at minus its frequency
g = fp.additive_char(ctx, 5)
alpha, mag = fp.max_fourier_coeff(g)
print(f"e_p(5x): spike at alpha={alpha} (= p-5 = {p - 5}), magnitude {mag:.6f}")

# --- Gowers norms -----------------------------------------------------------

print("\nGowers norms, three ways")
small = fp.make_field(13)
h = fp.FpFunction(small, np.exp(2j * np.pi * np.random.default_rng(1).random(13)), bounded=True)
u1 = fp.gowers_direct(h, 1)
u2 = fp.gowers_direct(h, 2)
u3 = fp.gowers_direct(h, 3)
print(f"  direct:  U^1={u1:.6f}  U^2={u2:.6f}  U^3={u3:.6f}  (monotone increasing)")
print(f"  fast:    U^2={fp.gowers_fast(h, 2):.6f}  U^3={fp.gowers_fast(h, 3):.6f}")

# U^2 is exactly the l^4 norm of the spectrum
l4 = float((np.abs(fp.fourier(h, 'fast')) ** 4).sum() ** 0.25)
print(f"  U^2 - l4(spectrum) = {u2 - l4:.2e}")

# the recursion that powers the fast path: U^s in terms of derivatives
rec = np.mean([fp.gowers_direct(fp.mult_derivative(h, t), 2) ** 4 for t in range(13)])
print(f"  U^3^8 - E_h U^2(D_h f)^4 = {u3 ** 8 - rec:.2e}")

# a quadratic phase is maximally U^2-uniform among "structured" functions:
# every Fourier coefficient has the same Gauss-sum magnitude p^{-1/2}
xs = np.arange(13, dtype=np.int64)
quad = fp.FpFunction(small, small.twiddle[xs * xs % 13], bounded=True)
print(f"\nquadratic phase on F_13: U^2 = {fp.gowers_fast(quad, 2):.6f} = 13^(-1/4) = {13 ** -0.25:.6f}")
print(f"but U^3 = {fp.gowers_direct(quad, 3):.6f}  (U^3 sees quadratic structure)")
