"""The level-3 Heisenberg group and its nine-dimensional representation.

Shows the group law, the Weil pairing as a commutator, the basis-flip
involution with its 5 + 4 eigensplit, and a Schur intertwiner realizing a
symplectic matrix projectively.
"""

import random

import numpy as np

from weddle.heisenberg import (HeisElement, block_split, commutator_exponent,
                               compose_rows, enumerate_group, h_index, h_mul,
                               intertwiner, intertwines, involution_j,
                               lift_symplectic, schrodinger,
                               schrodinger_table, standard_sp4_generators,
                               weil_pairing)

rng = random.Random(0)
G = enumerate_group(2)
print("group order at genus 2:", len(G))

h1 = HeisElement(0, (1, 0), (0, 0))
h2 = HeisElement(0, (0, 0), (1, 0))
print("h1 h2 =", h_mul(h1, h2))
print("h2 h1 =", h_mul(h2, h1))
print("commutator exponent:", commutator_exponent(h1, h2),
      "= pairing", weil_pairing(h1.u(), h2.u()))

# U(h) is a generalized permutation: column a goes to row perm[a], scaled
# by w^expo[a]
h = rng.choice(G)
perm, expo = schrodinger(h)
print("\nU(h) for h =", h)
print("  permutation:", tuple(perm.tolist()))
print("  exponents:  ", tuple(expo.tolist()))

j = involution_j()
jj_perm, jj_expo = compose_rows(j, j)
print("\nj squared is the identity:",
      jj_perm.tolist() == list(range(9)) and not jj_expo.any())

# the intertwiner in w-exponent form: T[i, j] = w^E[i, j], 0 where E is -1
M = standard_sp4_generators()[0]
E = intertwiner(M)
plus, minus, off = block_split(E)
print("intertwiner of a transvection preserves the eigensplit:", off)
print("  even block is 5 x 5, odd block is 4 x 4:",
      (plus.nrows, plus.ncols), (minus.nrows, minus.ncols))
phi = lift_symplectic(M)
table_perm, table_expo = schrodinger_table()    # U(h) in row h_index(h)
k = np.array([h_index(rng.choice(G)) for _ in range(10)])
phi_k = phi.on_indices(k)
ok = intertwines(E, (table_perm[k], table_expo[k]),
                 (table_perm[phi_k], table_expo[phi_k]))
print("T U(h) = U(phi h) T on random elements:", ok)
