#!/usr/bin/env python3
"""Progression-free sets: exhaustive optima at tiny p, greedy density elsewhere."""

import ffprog as fp

# --- exact extremal sizes by branch and bound ---------------------------------

print("largest subsets of F_p avoiding x, x+y, x+2y (y != 0):")
spec = fp.parse_progression_spec("m=3")
for p in (3, 5, 7, 11, 13, 17):
    ctx = fp.make_field(p)
    size, elements = fp.exact_max_free_set(ctx, spec)
    print(f"  p={p:<3d} size={size}  lexicographically-smallest optimum: {elements}")

print("\nappending polynomial points makes the configuration rarer, so sets grow:")
spec45 = fp.parse_progression_spec("m=3;P=y^3,y^4")
for p in (5, 7, 11, 13):
    ctx = fp.make_field(p)
    size, elements = fp.exact_max_free_set(ctx, spec45)
    print(f"  p={p:<3d} avoid 5-point configuration: size={size}  {elements}")

# --- seeded greedy at larger p --------------------------------------------------

print("\nrandomized greedy (seeded, reproducible) on larger fields:")
for p in (31, 101):
    ctx = fp.make_field(p)
    elements, density = fp.greedy_free_set(ctx, spec, seed=0xF1E1D)
    witness = fp.find_progression(elements, spec, p=p)
    print(f"  p={p:<4d} greedy density = {density:.3f} ({len(elements)} elements), "
          f"verified free: {witness is None}")

# a witness-producing scan, for contrast
A = [0, 1, 3, 6, 10, 11]
hit = fp.find_progression(A, spec, p=31)
print(f"\n{A} in F_31 contains the 3-AP at (x={hit[0]}, y={hit[1]}):",
      [(hit[0] + j * hit[1]) % 31 for j in range(3)])
