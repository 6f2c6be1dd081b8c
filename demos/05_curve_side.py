"""Genus-2 curve side over a prime field: the tricanonical embedding, the
six-node quartic from secants, the classifying map with its sixteen-node
image, and the degree-8 secant hypersurface tangent along the hyperplane.
"""

import random

from weddle.curves import (GenusTwoCurve, kummer_fit, quadrics_through_curve,
                           sec_octic, secant_point, tricanonical,
                           weddle_prime_fit)
from weddle.fields import GF

rng = random.Random(0)
curve = GenusTwoCurve(GF(101), roots=[0, 1, 2, 3, 4, 5])

p = curve.sample_point(rng)
q = curve.sample_point(rng)
print("two curve points:", (p.x.val, p.y.val), (q.x.val, q.y.val))
print("embedded:", [v.val for v in tricanonical(p, curve.domain)])
print("secant meets the invariant hyperplane at:",
      [v.val for v in secant_point(p, q, curve.domain)])

w = weddle_prime_fit(curve, rng)
print("\nquartic through secant samples: nullity", w.fit_nullity)
print("singular at the six branch images:", w.nodes_singular)
print("all 25 lines on it:", all(ok for ok, _ in w.line_results))
print("quartics through the 25 lines: dimension", w.rigidity_nullity,
      "spanned by the same quartic:", w.rigidity_matches)

quad = quadrics_through_curve(curve, rng)
print("\nquadrics through the embedded curve: dimension", len(quad.forms))

k = kummer_fit(curve, quad.forms, rng)
print("image quartic: nullity", k.fit_nullity, "| nodes", len(k.nodes),
      "distinct and singular:", k.nodes_distinct and k.nodes_singular)
print("six tangent lines at branch points share one image:",
      k.origin_node_consistent)

o = sec_octic(curve, rng, weddle=w.quartic)
print("\ndegree-8 secant hypersurface: nullity", o.fit_nullity)
print("restriction to the hyperplane is the quartic squared:",
      o.restriction_is_weddle_square)
