"""Finite symplectic actions on theta characteristics, the level-3
Heisenberg representation, the invariant quartic threefold with its two
Steinerian maps, numeric theta functions, and the six-node / sixteen-node
quartic surfaces built from both the abelian-surface and the genus-2-curve
side, cross-verified against each other.
"""

from .fields import CC, GF, QQ, QW, Cyc, Fp, domain_by_name
from .poly import SparsePoly, exponents_of_degree, poly_from_text, poly_to_text
from .linalg import (Matrix, adjugate, chordal_distance, det_bareiss, det_ring,
                     fit_hypersurface, nullspace, pfaffian, rank,
                     sub_pfaffian_kernel)
from .symplectic import (Characteristic, SymplecticMat, QuadFormF2,
                         act_characteristic, classify_gamma, gamma_index,
                         group_order, orbit_characteristics, stabilizer,
                         torsor_action, transvection)
from .heisenberg import (HeisAutomorphism, HeisElement, h_mul, intertwiner,
                         involution_j, lift_symplectic, schrodinger,
                         weil_pairing, zeta)
from .burkhardt import (count_base_locus_ff, count_fibers_ff,
                        derive_burkhardt, derive_burkhardt_exact,
                        hessian_match, matrix_minus, matrix_plus, quadrics_f,
                        steinerian_minus, steinerian_plus, steinerian_quartics)
from .theta import (PeriodMatrix, ThetaValue, halfperiod, level3_coords,
                    surface_quadrics, theta_char, theta_halfint, theta_null,
                    weddle_from_theta)
from .curves import (CurvePoint, GenusTwoCurve, kummer_fit, phi,
                     quadrics_through_curve, sec_octic, secant_point,
                     symmetroid, tricanonical, weddle_prime_fit)
from .suite import RunConfig, run_suite

__version__ = "0.1.0"
