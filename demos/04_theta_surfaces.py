"""Theta-function side: theta-nulls, the commuting square with the two
Steinerian maps, and the six-node quartic surface with its 25 lines.
"""

import random

import numpy as np

from weddle.burkhardt import steinerian_plus
from weddle.linalg import chordal_distance
from weddle.symplectic import BASE_ODD, all_characteristics
from weddle.theta import (OMEGA_GENERIC, steinerian_of_theta_null,
                          surface_quadrics, theta_null, weddle_from_theta)

om = OMEGA_GENERIC
rng = random.Random(0)

sq = surface_quadrics(om, rng)
print("invariant quadric coefficients:", np.round(sq.r, 4))
print("all nine translates vanish on fresh samples: residual %.1e"
      % sq.fresh_residual)

print("\ntheta-nulls:")
for m in all_characteristics(2):
    tn = theta_null(m, om)
    if m.parity == 1:
        print("  even %s%s  det of symmetric matrix: %.1e"
              % (m.a, m.b, tn.det_plus_normalized))
    else:
        d = chordal_distance(steinerian_of_theta_null(tn), sq.r)
        print("  odd  %s%s  Steinerian image matches the quadric: %.1e"
              % (m.a, m.b, d))

tn = theta_null(all_characteristics(2)[0], om)
status, kern = steinerian_plus(list(tn.eigen_coords))
print("\nkernel at an even theta-null vs surface quadric: %.1e"
      % chordal_distance(kern, sq.r))

rep = weddle_from_theta(om, BASE_ODD, rng)
print("\nsix-node quartic from the odd eigenspace:")
print("  fit nullity", rep.fit_nullity, "| nodes", len(rep.nodes))
print("  node gradients: %.1e | 25 lines: %.1e"
      % (rep.node_gradient_residual, rep.line_residual))
print("  quadrics through nodes vanishing on the divisor image span dim",
      rep.net_dimension)
