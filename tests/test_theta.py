import cmath
import math
import random

import numpy as np
import pytest

from weddle.burkhardt import steinerian_plus
from weddle.curves import web_of_quadrics
from weddle.fields import CC, GF
from weddle.heisenberg import plus_minus_components
from weddle.linalg import chordal_distance
from weddle.symplectic import BASE_ODD, Characteristic, all_characteristics
from weddle.theta import (DomainError, OMEGA_DIAGONALISH,
                          OMEGA_GENERIC, PeriodMatrix, half_period_census,
                          halfperiod, involution_matrix, level2_coords,
                          level3_contract_check, level3_coords,
                          quadric_space_nullity, random_z,
                          steinerian_of_theta_null, surface_quadrics,
                          symmetroid, symmetroid_singular_count_mod_p,
                          theta_char, theta_divisor_points, theta_halfint,
                          theta_null, weddle_from_theta)

rng = random.Random(0)
CHARS = all_characteristics(2)


def test_period_matrix_validation():
    with pytest.raises(DomainError):
        PeriodMatrix([[1j, 0.5], [0.4, 1j]])        # not symmetric
    with pytest.raises(DomainError):
        PeriodMatrix([[1j, 2j], [2j, 1j]])          # Im not positive definite
    with pytest.raises(DomainError):
        PeriodMatrix([[-1j, 0.0], [0.0, 1j]])
    assert OMEGA_GENERIC.min_im_eigenvalue() > 0


def test_parity_of_theta():
    for m in CHARS:
        for _ in range(2):
            z = random_z(OMEGA_DIAGONALISH, rng)
            t1 = theta_halfint(m, z, OMEGA_DIAGONALISH, 1e-12)
            t2 = theta_halfint(m, -z, OMEGA_DIAGONALISH, 1e-12)
            assert abs(t2.value - m.parity * t1.value) < 2e-12


def test_odd_theta_constants_vanish():
    for m in CHARS:
        if m.parity == -1:
            tv = theta_halfint(m, np.zeros(2), OMEGA_DIAGONALISH, 1e-12)
            assert abs(tv.value) < 1e-12


def test_stacked_sums_equal_single_characteristic_sums():
    om = OMEGA_GENERIC
    r = random.Random(7)
    # uniform draws, and draws near the far corner Om (1, 1) + (1, 1)
    draws = [random_z(om, r) for _ in range(6)]
    draws += [om.m @ np.array([1 - 1e-3 * r.random(), 1 - 1e-3 * r.random()])
              + np.array([1 - 1e-3 * r.random(), 1 - 1e-3 * r.random()]) for _ in range(4)]
    for n, coords in ((3, level3_coords), (2, level2_coords)):
        for z in draws:
            for w in (z, -z):
                single = [theta_char(np.array(s) / n, np.zeros(2), n * w, om.scaled(n)).value
                          for s in np.ndindex(n, n)]
                assert coords(w, om).tolist() == single
    odd = [m for m in CHARS if m.parity == -1]
    stack = theta_char(np.array([m.a for m in odd]) / 2.0,
                       np.array([m.b for m in odd]) / 2.0, np.zeros(2), om)
    singles = [theta_halfint(m, np.zeros(2), om) for m in odd]
    assert stack.value.tolist() == [tv.value for tv in singles]
    assert all(stack.bound == tv.bound for tv in singles)


def test_quasi_periodicity():
    om = OMEGA_DIAGONALISH
    for _ in range(20):
        m = rng.choice(CHARS)
        al = np.array(m.a) / 2.0
        be = np.array(m.b) / 2.0
        z = random_z(om, rng)
        n = np.array([rng.randint(-1, 1), rng.randint(-1, 1)])
        p = np.array([rng.randint(-1, 1), rng.randint(-1, 1)])
        lhs = theta_char(al, be, z + om.m @ n + p, om, 1e-12).value
        fac = cmath.exp(2j * math.pi * float(al @ p)
                        - 1j * math.pi * complex(n @ om.m @ n)
                        - 2j * math.pi * complex(n @ (z + be)))
        rhs = fac * theta_char(al, be, z, om, 1e-12).value
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_tail_bound_honesty():
    om = OMEGA_DIAGONALISH
    for _ in range(50):
        m = rng.choice(CHARS)
        z = random_z(om, rng)
        v1 = theta_halfint(m, z, om, 1e-8)
        v2 = theta_halfint(m, z, om, 5e-9)
        assert abs(v2.value - v1.value) <= v1.bound
        assert v2.bound <= v1.bound


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        theta_halfint(CHARS[0], np.zeros(2), OMEGA_DIAGONALISH, 0.0)


def test_half_period_doubling():
    om = OMEGA_GENERIC.m
    for m in CHARS:
        lattice_point = om @ np.array(m.a, dtype=float) + np.array(m.b, dtype=float)
        assert np.abs(2 * halfperiod(m, OMEGA_GENERIC) - lattice_point).max() < 1e-14


def test_level3_contract():
    rep = level3_contract_check(OMEGA_GENERIC, random.Random(1))
    assert rep.max_residual() < 1e-8


def test_involution_all_characteristics():
    for m in CHARS:
        rep = involution_matrix(m, OMEGA_GENERIC, random.Random(2))
        assert rep.sign == m.parity
        assert rep.square_residual == 0.0
        assert rep.invariant_dimension == (5 if m.parity == 1 else 4)
        assert rep.defining_residual < 1e-8


def test_theta_null_membership_and_determinant():
    for m in CHARS:
        tn = theta_null(m, OMEGA_GENERIC)
        assert tn.membership_residual < 1e-8
        if m.parity == 1:
            assert tn.det_plus_normalized < 1e-6
            assert len(tn.eigen_coords) == 5
        else:
            assert tn.det_plus_normalized is None
            assert len(tn.eigen_coords) == 4


def test_half_period_census_counts_six():
    census = half_period_census(BASE_ODD, OMEGA_GENERIC)
    in_minus = [row for row in census if row["in_minus"]]
    assert len(in_minus) == 6
    # membership is cleanly separated
    for row in census:
        assert row["anti_residual"] < 1e-8 or row["anti_residual"] > 1e-3


def test_level2_coordinates_are_even_functions():
    # at even level the odd eigenspace vanishes: every second-order
    # coordinate is an even function, so all ten quadratic combinations
    # are inversion invariant componentwise
    for _ in range(10):
        z = random_z(OMEGA_GENERIC, rng)
        a = level2_coords(z, OMEGA_GENERIC)
        b = level2_coords(-z, OMEGA_GENERIC)
        assert max(abs(a - b)) < 1e-10 * max(1.0, max(abs(a)))


def test_quadric_space_nullity_nine():
    nullity, s = quadric_space_nullity(OMEGA_GENERIC, random.Random(3))
    assert nullity == 9
    assert s[-9] < 1e-8 * s[0] < s[-10]


def test_surface_quadrics_and_commuting_square():
    sq = surface_quadrics(OMEGA_GENERIC, random.Random(4))
    assert sq.fresh_residual < 1e-7
    for m in CHARS:
        if m.parity == -1:
            st = steinerian_of_theta_null(theta_null(m, OMEGA_GENERIC))
            assert chordal_distance(st, sq.r) < 1e-6


def test_plus_kernel_matches_surface():
    sq = surface_quadrics(OMEGA_GENERIC, random.Random(5))
    for m in CHARS:
        if m.parity == 1:
            tn = theta_null(m, OMEGA_GENERIC)
            status, kern = steinerian_plus(list(tn.eigen_coords))
            assert status == "kernel"
            assert chordal_distance(kern, sq.r) < 1e-6


def test_steinerian_of_theta_null_needs_odd():
    with pytest.raises(ValueError):
        steinerian_of_theta_null(theta_null(Characteristic(2, (0, 0), (0, 0)),
                                            OMEGA_GENERIC))


def test_theta_divisor_points_lie_on_divisor():
    pts = theta_divisor_points(BASE_ODD, OMEGA_GENERIC, random.Random(6), count=5)
    for z in pts:
        tv = theta_halfint(BASE_ODD, z, OMEGA_GENERIC, 1e-13)
        assert abs(tv.value) < 1e-9


def test_weddle_from_theta_full_report():
    rep = weddle_from_theta(OMEGA_GENERIC, BASE_ODD, random.Random(7))
    assert rep.fit_nullity == 1
    assert rep.fresh_residual < 1e-6
    assert len(rep.nodes) == 6
    assert rep.node_gradient_residual < 1e-5
    assert rep.lines_checked == 25
    assert rep.line_residual < 1e-6
    assert rep.net_dimension == 3
    assert rep.rigidity_nullity == 1
    assert rep.rigidity_match < 1e-6


def test_weddle_needs_odd_characteristic():
    with pytest.raises(ValueError):
        weddle_from_theta(OMEGA_GENERIC, Characteristic(2, (0, 0), (0, 0)),
                          random.Random(0))


def test_symmetroid_exact():
    dom = GF(101)
    r = random.Random(8)
    nodes = [[dom.random(r) for _ in range(4)] for _ in range(6)]
    rep = symmetroid(nodes, dom)
    assert rep.quadric_space_dim == 4
    assert len(rep.rank3_points) == 6
    assert len(rep.rank2_points) == 10
    assert rep.gradient_residual == 0.0
    assert symmetroid_singular_count_mod_p(rep, 101) == 16


def test_symmetroid_floating_from_theta_nodes():
    # the odd parts of the half periods in the odd eigenspace, at max-abs 1
    odd = [np.array(plus_minus_components(row["coords"])[1])
           for row in half_period_census(BASE_ODD, OMEGA_GENERIC) if row["in_minus"]]
    rep = symmetroid([list(v / np.abs(v).max()) for v in odd], CC)
    assert rep.quadric_space_dim == 4
    assert rep.gradient_residual < 1e-8


def test_floating_web_of_quadrics_ignores_node_scale():
    # the same nodes unscaled: the fit scales each point, so the kernel is 4
    odd = [plus_minus_components(row["coords"])[1]
           for row in half_period_census(BASE_ODD, OMEGA_GENERIC) if row["in_minus"]]
    assert len(web_of_quadrics(odd, CC)) == 4
