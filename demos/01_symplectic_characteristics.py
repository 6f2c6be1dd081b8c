"""Finite symplectic groups and half-integer characteristics.

Counts Sp(4, Z/2) and Sp(4, Z/3) by closure, splits the sixteen
characteristics into their two orbits, and classifies a few integral
matrices by congruence level.
"""

from weddle.symplectic import (BASE_ODD, Characteristic, SymplecticMat,
                               classify_gamma, gamma_index, group_order,
                               orbit_characteristics, stabilizer,
                               transvection)

print("order of Sp(4, Z/2):", group_order(2, 2))
print("order of Sp(4, Z/3):", group_order(2, 3))
print("congruence indices:", [gamma_index(2, n) for n in (2, 3, 6)])

even = orbit_characteristics(Characteristic(2, (0, 0), (0, 0)))
odd = orbit_characteristics(BASE_ODD)
print("\norbit sizes:", len(even), "and", len(odd))
print("parities constant on orbits:",
      {m.parity for m in even}, {m.parity for m in odd})

rep = stabilizer(BASE_ODD)
print("\nstabilizer of an odd form: order", rep.order,
      "with orbits", rep.orbit_sizes_on_odd, "on the six odd forms")

print("\ncongruence labels:")
for name, G in [("identity", SymplecticMat.identity(2)),
                ("transvection scaled by 6", transvection((1, 0, 0, 0), 6)),
                ("transvection scaled by 3", transvection((0, 1, 0, 0), 3))]:
    print("  %-26s %s" % (name, sorted(classify_gamma(G))))
