"""The skew quadric-coefficient matrix, its pfaffian kernel quartics, and
the invariant quartic threefold they parametrize.

The five signed sub-pfaffians annihilate the skew matrix identically; the
closure of their image is interpolated as the unique quartic and matched
against the symmetric matrix through its second partials.
"""

import random

from weddle.burkhardt import (count_base_locus_ff, count_fibers_ff,
                              derive_burkhardt_exact, hessian_match,
                              matrix_minus, steinerian_minus,
                              steinerian_quartics)
from weddle.fields import QQ
from weddle.linalg import mat_vec

Mm = matrix_minus()
print("skew matrix rows (quadrics in Z):")
for row in Mm:
    print("  ", [repr(x) for x in row])

qs = steinerian_quartics()
print("\nkernel quartics annihilate the matrix:",
      all(p.is_zero() for p in mat_vec(Mm, qs)))
r = steinerian_minus([1, 1, 1, 1], QQ)
print("kernel at (1,1,1,1):", [str(x / r[2]) for x in r])

exact = derive_burkhardt_exact(random.Random(0))
B = exact.quartic
print("\ninterpolated invariant quartic (symbolically certified: %s):" % exact.certified)
for e in sorted(B.terms, reverse=True):
    print("   %s  %s" % (e, B.terms[e]))

matches = hessian_match(B)
print("second partials reproduce the symmetric matrix: scalar",
      matches[0].scalar, "with", len(matches), "pattern symmetries")

print("\nfinite-field counts:")
print("  base locus over F_31:", count_base_locus_ff(31, 1))
print("  base locus over F_49:", count_base_locus_ff(7, 2))
hist = count_fibers_ff(31)["fiber_histogram"]
print("  fiber histogram over F_31:", hist)
