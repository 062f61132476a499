#!/usr/bin/env python3
"""Power residues, multiplicative characters, and how uniform characters are.

Characters of order k pick out the k-th power residues Q_k; complete character
sums over polynomial arguments obey square-root cancellation (Weil), and that
cancellation makes every nonprincipal character Gowers-uniform.
"""

import numpy as np

import ffprog as fp

p = 101
ctx = fp.make_field(p)

# --- residues and characters -------------------------------------------------

q4 = fp.kth_power_residues(ctx, 4)
print(f"Q_4 in F_{p}: {q4.sum()} elements (= (p-1)/gcd(4,p-1) = {(p - 1) // 4})")
print("Q_4 = Q_gcd(4, 100):", np.array_equal(q4, fp.kth_power_residues(ctx, 4)))

chi = fp.mult_character(ctx, 4)
print(f"chi_4(g) = {chi[ctx.g]:.6f}, chi_4(0) = {chi[0]}")

# the orthogonality decomposition recovers the indicator of Q_4 pointwise
errs = [
    abs(fp.residue_indicator_via_characters(ctx, 4, x) - (1.0 if q4[x] else 0.0))
    for x in range(p)
]
print(f"indicator via characters, max pointwise error: {max(errs):.2e}")

# --- Weil-type cancellation ----------------------------------------------------

print("\ncomplete sums E_x chi((x-b1)..(x-br)) conj(chi)((x-b_{r+1})..(x-b_2r)):")
rng = np.random.default_rng(12)
for r in (1, 2):
    bs = rng.choice(p, size=2 * r, replace=False).tolist()
    modulus, bound, holds = fp.weil_corollary_check(ctx, 2, r, bs)
    print(f"  r={r} b={bs}: |sum| = {modulus:.6f} <= 2r/sqrt(p) = {bound:.6f}  ({holds})")

# --- Gowers norms of characters ------------------------------------------------

# 2^s p^{-1/2} + p^{-s} bounds ||chi||^{2^s}; the headline form is 2 p^{-1/(2^{s+1})}
report = fp.character_norm_decay([101, 997, 10007], s=2, orders=2)
print("\nquadratic character, U^2 norm vs bounds:")
for row in report.rows:
    if row.stat.endswith("norm"):
        print(f"  p={row.p:<6d} U^2 = {row.value:.6f}")
    elif "headline" in row.stat:
        print(f"           headline bound = {row.value:.6f}")
print(f"decay fit across the ladder: c^ = {report.fit.c_hat:.4f}")
print("(U^2 of a character is ((p-1)/p^2)^(1/4) ~ p^(-1/4): pure square-root cancellation)")
