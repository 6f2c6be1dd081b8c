import hashlib
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weddle.symplectic
from weddle.heisenberg import STANDARD_SP4_F3_VECTORS
from weddle.linalg import STATE_CAP, ResourceCapError
from weddle.symplectic import (BASE_ODD, Characteristic,
                               InvariantViolation, J_matrix, QuadFormF2,
                               SymplecticMat, _code_entries, _is_symplectic,
                               act_characteristic, all_characteristics,
                               all_quad_forms, classify_gamma, code_to_mat,
                               gamma_index, group_order,
                               orbit_characteristics, sp_group_codes,
                               stabilizer, standard_transvections,
                               torsor_action, transvection)


def test_parity_examples():
    assert Characteristic(2, (0, 0), (0, 0)).parity == 1
    assert Characteristic(2, (1, 0), (1, 0)).parity == -1
    census = [m.parity for m in all_characteristics(2)]
    assert census.count(1) == 10 and census.count(-1) == 6


def test_characteristic_validation():
    with pytest.raises(ValueError):
        Characteristic(2, (0, 2), (0, 0))
    with pytest.raises(ValueError):
        Characteristic(2, (0,), (0, 0))


def test_symplectic_validation():
    bad = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(InvariantViolation):
        SymplecticMat(bad, 3)
    with pytest.raises(ValueError):
        SymplecticMat.identity(2, 3) * SymplecticMat.identity(1, 3)
    SymplecticMat.identity(2, 3)
    with pytest.raises(InvariantViolation):
        SymplecticMat([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_transvections_are_symplectic():
    rng = random.Random(0)
    for _ in range(20):
        v = tuple(rng.randint(-3, 3) for _ in range(4))
        if all(x == 0 for x in v):
            continue
        transvection(v, rng.randint(1, 6))  # constructor validates


def _code(M: SymplecticMat) -> int:
    """The code of M: its row-major entries as base-n digits, the first
    most significant."""
    digits = [x for row in M.entries for x in row]
    return sum(x * M.n ** k for k, x in enumerate(reversed(digits)))


CODES23 = sp_group_codes(2, 3).tolist()
CODE_SET23 = frozenset(CODES23)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CODES23), st.sampled_from(CODES23))
def test_products_of_group_elements_are_symplectic(a, b):
    M, N = code_to_mat(a, 2, 3), code_to_mat(b, 2, 3)
    assert (_code(M), _code(N)) == (a, b)
    P = M * N
    assert _is_symplectic(P.entries, 3)
    assert P == SymplecticMat(P.entries, 3)
    assert _code(P) in CODE_SET23


def test_action_identity_and_parity():
    m = Characteristic(2, (1, 0), (0, 1))
    ident = SymplecticMat.identity(2, 2)
    assert act_characteristic(ident, m) == m
    rng = random.Random(1)
    codes = sp_group_codes(2, 2)
    for _ in range(200):
        M = code_to_mat(rng.choice(codes), 2, 2)
        x = rng.choice(all_characteristics(2))
        assert act_characteristic(M, x).parity == x.parity


def test_action_is_left_action():
    rng = random.Random(2)
    codes = sp_group_codes(2, 2)
    for _ in range(100):
        M = code_to_mat(rng.choice(codes), 2, 2)
        N = code_to_mat(rng.choice(codes), 2, 2)
        m = rng.choice(all_characteristics(2))
        assert act_characteristic(M * N, m) == act_characteristic(
            M, act_characteristic(N, m))


def test_orbits_partition():
    even_orbit = orbit_characteristics(Characteristic(2, (0, 0), (0, 0)))
    odd_orbit = orbit_characteristics(BASE_ODD)
    assert len(even_orbit) == 10 and len(odd_orbit) == 6
    assert all(m.parity == 1 for m in even_orbit)
    assert all(m.parity == -1 for m in odd_orbit)
    assert even_orbit | odd_orbit == set(all_characteristics(2))


def test_torsor_action():
    kappa = QuadFormF2.from_characteristic(Characteristic(2, (0, 0), (0, 0)))
    zero = (0, 0, 0, 0)
    assert torsor_action(zero, kappa) == kappa
    for x in product((0, 1), repeat=4):
        assert torsor_action(x, kappa).epsilon == kappa(x) * kappa.epsilon
    translates = {torsor_action(x, kappa) for x in product((0, 1), repeat=4)}
    assert len(translates) == 16
    assert translates == set(all_quad_forms(2))


def test_quadratic_form_validation_and_census():
    forms = all_quad_forms(2)
    eps = [q.epsilon for q in forms]
    assert eps.count(1) == 10 and eps.count(-1) == 6
    # the multiplicative quadratic identity is enforced by the constructor
    QuadFormF2(2, forms[0].table)
    bad = list(forms[0].table)
    bad[3] = -bad[3]
    with pytest.raises(InvariantViolation):
        QuadFormF2(2, bad)


def test_group_orders():
    assert group_order(2, 2) == 720
    assert group_order(2, 3) == 51840
    # brute force at genus 1: every invertible 2x2 matrix mod 2 is symplectic
    count = 0
    for entries in product((0, 1), repeat=4):
        M = [[entries[0], entries[1]], [entries[2], entries[3]]]
        det = (entries[0] * entries[3] - entries[1] * entries[2]) % 2
        if det == 1:
            count += 1
    assert group_order(1, 2) == count == 6


def _brute_force_codes(g, n):
    """Sorted codes of all n^(4g^2) matrices with M^t J M = J mod n."""
    size = 2 * g
    place = n ** np.arange(size * size - 1, -1, -1)
    codes = np.arange(n ** (size * size))
    M = (codes[:, None] // place % n).reshape(-1, size, size)
    J = np.array(J_matrix(g))
    ok = np.all((M.transpose(0, 2, 1) @ J @ M - J) % n == 0, axis=(1, 2))
    return codes[ok]


@pytest.mark.parametrize("g, n", [(1, 2), (1, 3), (2, 2)])
def test_closure_equals_brute_force(g, n):
    assert np.array_equal(sp_group_codes(g, n), _brute_force_codes(g, n))


def test_closure_sp4_f3_digest():
    # the row-major entries of every element, one byte each, in code order
    digest = hashlib.sha256(_code_entries(sp_group_codes(2, 3), 2, 3).tobytes()).hexdigest()
    assert digest == "2b493323ef2c9ca5f159a5cd8d12c29e24925436d949213c486e81fc5ba8954c"


def test_closure_codes_do_not_depend_on_the_block(monkeypatch):
    codes = sp_group_codes(2, 3)
    assert codes.dtype == np.int64 and not codes.flags.writeable
    # the uncached closure, its frontier walked 64 codes at a time
    monkeypatch.setattr(weddle.linalg, "STATE_BLOCK", 64)
    assert np.array_equal(sp_group_codes.__wrapped__(2, 3), codes)


@pytest.mark.parametrize("g, n", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_codes_decode_to_the_byte_keys(g, n):
    codes = sp_group_codes(g, n)
    entries = _code_entries(codes, g, n)
    assert entries.dtype == np.uint8 and entries.shape == (len(codes), 2 * g, 2 * g)
    # a code is the row-major entries as base-n digits, the first most
    # significant: the decoded entries, one byte each, are those digits
    places = [n ** k for k in reversed(range(4 * g * g))]
    keys = entries.reshape(len(codes), -1)
    assert [bytes(c // w % n for w in places) for c in codes.tolist()] == \
        [row.tobytes() for row in keys]
    # the entries, coded row-major, are the codes, strictly increasing
    assert np.array_equal(keys @ np.array(places, dtype=np.int64), codes)
    assert (np.diff(codes) > 0).all()
    # code_to_mat decodes one code alike, into a validated symplectic matrix
    a = random.Random(n)
    for _ in range(100):
        i = a.randrange(len(codes))
        M = code_to_mat(codes[i], g, n)
        assert M == SymplecticMat(entries[i].tolist(), n) and _code(M) == codes[i]


def test_groups_within_the_cap_fit_int64_codes(monkeypatch):
    # the closure codes a matrix as n^(4g^2) base-n digits in one int64
    def no_closure(*args):
        raise AssertionError("the group closure must not start")

    monkeypatch.setattr(weddle.symplectic, "standard_transvections", no_closure)
    for g, n in product(range(1, 5), (2, 3)):
        if gamma_index(g, n) <= STATE_CAP:
            assert n ** (4 * g * g) < 2 ** 63
        else:
            with pytest.raises(ResourceCapError):
                sp_group_codes(g, n)


def test_group_order_cap():
    with pytest.raises(ResourceCapError):
        sp_group_codes(2, 5)
    assert group_order(2, 5) == gamma_index(2, 5)
    # |Sp(6, F_3)| is far above the enumeration cap: refused before the closure
    with pytest.raises(ResourceCapError):
        sp_group_codes(3, 3)


def test_one_resource_cap_error():
    import weddle.cli
    # defined once, in linalg; the closure raises it and the CLI catches it
    assert ResourceCapError.__module__ == "weddle.linalg"
    assert weddle.symplectic.ResourceCapError is ResourceCapError
    assert weddle.cli.ResourceCapError is ResourceCapError


def test_gamma_index_values():
    assert gamma_index(2, 3) == 51840
    assert gamma_index(2, 2) == 720
    assert gamma_index(2, 6) == 720 * 51840
    assert gamma_index(2, 6) // gamma_index(2, 3) == 720


def test_gamma_index_factors_the_level_up_to_its_square_root():
    def sp_order(g, p):    # |Sp(2g, F_p)| = p^(g^2) prod_k (p^(2k) - 1)
        out = p ** (g * g)
        for k in range(1, g + 1):
            out *= p ** (2 * k) - 1
        return out

    # a prime level, the largest prime below the cap among them; Sp(0) is
    # the trivial group
    assert gamma_index(0, 2) == gamma_index(0, 6) == group_order(0, 3) == 1
    for g, p in ((1, 2), (2, 3), (3, 5), (1, 1000000007), (2, 999999999989)):
        assert gamma_index(g, p) == sp_order(g, p)
    # a prime power, and coprime factors multiply (Chinese remainders)
    assert gamma_index(2, 9) == 3 ** 10 * sp_order(2, 3)
    assert gamma_index(2, 2 * 9 * 1000003) == \
        sp_order(2, 2) * 3 ** 10 * sp_order(2, 3) * sp_order(2, 1000003)
    # two large primes, factored by trial division up to the smaller one
    assert gamma_index(1, 999983 * 999979) == sp_order(1, 999983) * sp_order(1, 999979)


@pytest.mark.parametrize("g, n, match", [
    (-1, 2, "genus"), (-5, 3, "genus"), (2, 1, "level"), (2, -3, "level"),
    (1, 10 ** 12 + 39, "cap of 10"), (60, 5, "digits"), (2000, 5, "digits"),
    (10 ** 9, 2, "digits")])
def test_gamma_index_refuses_inputs_beyond_its_cost_bound(g, n, match):
    with pytest.raises(ValueError, match=match):
        gamma_index(g, n)


def test_stabilizers():
    odd = stabilizer(BASE_ODD)
    assert odd.order == 120
    assert odd.orbit_sizes_on_odd == (1, 5)
    even = stabilizer(Characteristic(2, (0, 0), (0, 0)))
    assert even.order == 72
    assert even.orbit_sizes_on_odd == (6,)
    # index bookkeeping: [Sp : O-] = 6
    assert 720 // odd.order == 6


def test_stabilizer_is_the_fixer_of_the_characteristic():
    # independent route: the elements whose action on characteristics fixes
    # m; their transposes are the stabilizer of the quadratic form of m
    codes = sp_group_codes(2, 2)
    for m in all_characteristics(2):
        fixers = set()
        for code in codes.tolist():
            M = code_to_mat(code, 2, 2)
            if act_characteristic(M, m) == m:
                fixers.add(_code(SymplecticMat(list(zip(*M.entries)), 2)))
        rep = stabilizer(m)
        assert rep.codes == fixers
        assert (rep.order, rep.orbit_sizes_on_odd) == (
            (120, (1, 5)) if m.parity == -1 else (72, (6,)))


def test_reduce_needs_a_compatible_modulus():
    t_int = transvection((1, 0, 0, 0), 1)
    t4 = transvection((1, 0, 0, 0), 1, 4)
    assert t_int.n is None and t_int.reduce(4) == t4
    assert t4.reduce(2) == t_int.reduce(2) and t4.reduce(4) is t4
    for m in all_characteristics(2):
        assert act_characteristic(t4, m) == act_characteristic(t_int, m)
    t3 = transvection((1, 0, 0, 0), 1, 3)
    for n in (2, 4, 1):
        with pytest.raises(ValueError):
            t3.reduce(n)
    with pytest.raises(ValueError):
        act_characteristic(t3, BASE_ODD)


def test_integral_and_modular_products():
    a, b = transvection((1, 0, 0, 0), 2), transvection((0, 1, 1, 0), -1)
    P = a * b
    assert P.n is None and P == SymplecticMat(P.entries)
    assert P.reduce(3) == a.reduce(3) * b.reduce(3)
    with pytest.raises(ValueError):
        a * a.reduce(3)
    assert a.apply((0, 0, 1, 0)) == (-2, 0, 1, 0)
    assert a.reduce(3).apply((0, 0, 1, 0)) == (1, 0, 1, 0)


def test_classify_identity():
    labels = classify_gamma(SymplecticMat.identity(2))
    assert labels == {"Gamma2", "Gamma2(2)", "Gamma2(3)", "Gamma2(6)",
                      "Gamma2(3,6)", "Gamma2(3)-"}


def test_classify_level_six_transvection():
    labels = classify_gamma(transvection((1, 0, 0, 0), 6))
    assert {"Gamma2(6)", "Gamma2(3,6)", "Gamma2(3)-", "Gamma2(3)"} <= labels
    assert "Gamma2(2)" in labels


def test_classify_level_three_transvections():
    inside = classify_gamma(transvection((1, 0, 0, 0), 3))
    assert "Gamma2(3)" in inside and "Gamma2(3)-" in inside
    assert "Gamma2(6)" not in inside
    outside = classify_gamma(transvection((0, 1, 0, 0), 3))
    assert "Gamma2(3)" in outside and "Gamma2(3)-" not in outside


def test_classify_rejects_non_symplectic():
    with pytest.raises(InvariantViolation):
        classify_gamma([[1, 0], [0, 1]])
    with pytest.raises(InvariantViolation):
        classify_gamma(SymplecticMat.identity(2, 6))


def test_standard_transvections():
    assert standard_transvections(1, 3) == [transvection(v, 1, 3)
                                            for v in ((1, 0), (0, 1), (1, 1))]
    vecs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1)]
    assert list(STANDARD_SP4_F3_VECTORS) == vecs
    for n in (2, 3):
        assert standard_transvections(2, n) == [transvection(v, 1, n) for v in vecs]
    assert len(standard_transvections(4, 2)) == 18
    # the closure over them reaches the whole group at every enumerable (g, n)
    for g, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        assert len(sp_group_codes(g, n)) == gamma_index(g, n)
