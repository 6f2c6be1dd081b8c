import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weddle.fields import Cyc, QW, omega_power
import weddle.heisenberg
from weddle.heisenberg import (HeisAutomorphism, HeisElement,
                               RepresentationError, beta, block_split,
                               commutator_exponent, compose_rows, d_minus_one,
                               eigenbasis_minus, eigenbasis_plus,
                               enumerate_group, exponent_matrix,
                               exponent_product, h_identity,
                               h_index, h_inv, h_mul, h_mul_index,
                               heisenberg_generators, identity_automorphism,
                               idx2, intertwiner, intertwines, involution_j,
                               lift_symplectic, plus_minus_components,
                               schrodinger, schrodinger_table,
                               standard_sp4_generators,
                               upsilon_plus_block, weil_pairing, zeta)
from weddle.linalg import proj_ratio, rank
from weddle.symplectic import (InvariantViolation, SymplecticMat, code_to_mat,
                               sp_group_codes)

rng = random.Random(0)
G2 = enumerate_group(2)


def rand_h():
    return rng.choice(G2)


# dense matrices over Q(w) are object arrays of Cyc, multiplied by np.dot,
# whose sums start from their first term


def _dense(U) -> np.ndarray:
    """The 9 x 9 matrix over Q(w) of a (perm, expo) row: column a has
    w^expo[a] in row perm[a]."""
    perm, expo = (np.asarray(x).tolist() for x in U)
    rows = np.full((9, 9), Cyc(0), dtype=object)
    for a in range(9):
        rows[perm[a], a] = omega_power(expo[a] % 3)
    return rows


def _expand(E) -> np.ndarray:
    """The 9 x 9 matrix over Q(w) of a w-exponent array: w^E[i, j], 0 for -1."""
    return np.array([[Cyc(0) if e < 0 else omega_power(e) for e in row]
                     for row in np.asarray(E).tolist()], dtype=object)


def _row(U):
    """A (perm, expo) row as a hashable pair of tuples."""
    return tuple(U[0].tolist()), tuple(U[1].tolist())


def test_group_law_basics():
    e = h_identity(2)
    for h in G2:
        assert h_mul(h, e) == h == h_mul(e, h)
        assert h_mul(h, h_inv(h)) == e == h_mul(h_inv(h), h)
        assert h_inv(h_inv(h)) == h
    h1 = HeisElement(0, (1, 0), (0, 0))
    h2 = HeisElement(0, (0, 0), (1, 0))
    p12, p21 = h_mul(h1, h2), h_mul(h2, h1)
    assert (p12.x, p12.xs) == (p21.x, p21.xs)
    assert (p12.t - p21.t) % 3 != 0  # the two orders differ by a scalar twist


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.sampled_from(G2)] * 3))
def test_group_law_associative_random(triple):
    a, b, c = triple
    assert h_mul(h_mul(a, b), c) == h_mul(a, h_mul(b, c))


def test_genus_mismatch():
    with pytest.raises(ValueError):
        h_mul(h_identity(1), h_identity(2))


def test_group_orders_by_closure():
    assert len(enumerate_group(1)) == 27
    assert len(enumerate_group(2)) == 243
    seen = {h_identity(1)}
    frontier = [h_identity(1)]
    gens = [HeisElement(1, (0,), (0,)), HeisElement(0, (1,), (0,)),
            HeisElement(0, (0,), (1,))]
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                x = h_mul(h, g)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    assert len(seen) == 27


def test_weil_pairing_examples():
    u = (1, 0, 0, 0)
    assert weil_pairing(u, u) == 0
    u = (1, 0, 0, 0)   # x = e1, x* = 0
    v = (0, 0, 1, 0)   # y = 0, y* = e1
    assert weil_pairing(u, v) == (-1) % 3


def test_weil_pairing_is_commutator():
    for _ in range(100):
        h1, h2 = rand_h(), rand_h()
        assert commutator_exponent(h1, h2) == weil_pairing(h1.u(), h2.u())


def test_weil_pairing_nondegenerate():
    from weddle.fields import GF
    dom = GF(3)
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    gram = [[dom.from_int(weil_pairing(u, v)) for v in basis] for u in basis]
    assert rank(gram, dom) == 4


def test_schrodinger_translation_is_permutation():
    perm, expo = schrodinger(HeisElement(0, (1, 0), (0, 0)))
    assert all(e == 0 for e in expo)
    assert sorted(perm) == list(range(9))


def test_schrodinger_character_is_diagonal():
    xs = (1, 2)
    perm, expo = schrodinger(HeisElement(0, (0, 0), xs))
    assert perm.tolist() == list(range(9))
    for s0 in range(3):
        for s1 in range(3):
            assert expo[s0 * 3 + s1] == (xs[0] * s0 + xs[1] * s1) % 3


def test_schrodinger_center_is_scalar():
    for t in range(3):
        perm, expo = schrodinger(HeisElement(t, (0, 0), (0, 0)))
        assert perm.tolist() == list(range(9))
        assert all(e == t for e in expo)


def _oracle_schrodinger(h: HeisElement):
    """U(h) one basis vector at a time: U(t, x, x*) X_a = w^(t + x*.a) X_{a+x}."""
    perm, expo = [], []
    for i in range(9):
        a = divmod(i, 3)
        perm.append(idx2((a[0] + h.x[0], a[1] + h.x[1])))
        expo.append((h.t + h.xs[0] * a[0] + h.xs[1] * a[1]) % 3)
    return tuple(perm), tuple(expo)


def test_schrodinger_table_rows_match_the_formula():
    perm, expo = schrodinger_table()
    assert perm.shape == expo.shape == (243, 9)
    assert perm.dtype == expo.dtype == np.int64
    assert not perm.flags.writeable and not expo.flags.writeable
    for k, h in enumerate(G2):
        assert h_index(h) == k
        U = _oracle_schrodinger(h)
        assert (tuple(perm[k].tolist()), tuple(expo[k].tolist())) == U
        assert _row(schrodinger(h)) == U
    # an element with unreduced coordinates indexes its reduction
    assert h_index(HeisElement(4, (5, -1), (3, 7))) == h_index(HeisElement(1, (2, 2), (0, 1)))


def test_vectorised_group_law_matches_h_mul():
    for g in (1, 2):
        G = enumerate_group(g)
        a, b = np.divmod(np.arange(len(G) ** 2), len(G))
        got = h_mul_index(a, b, g).tolist()
        assert got == [h_index(h_mul(G[i], G[j])) for i, j in zip(a.tolist(), b.tolist())]


def test_automorphism_on_indices_matches_its_call():
    D = d_minus_one()
    autos = [D, zeta((1, 2, 0, 1)), lift_symplectic(rand_sp3()),
             lift_symplectic(rand_sp3()).compose(zeta((0, 1, 1, 2)))]
    for phi in autos:
        assert phi.on_indices(np.arange(243)).tolist() == [h_index(phi(h)) for h in G2]


def test_composed_table_rows_match_dense_products():
    perm, expo = schrodinger_table()
    a, b = np.divmod(np.arange(243 * 243), 243)
    cp, ce = compose_rows((perm[a], expo[a]), (perm[b], expo[b]))
    assert cp.shape == ce.shape == (243 * 243, 9)
    for k in random.Random(3).sample(range(243 * 243), 500):
        AB = np.dot(_dense(schrodinger(G2[a[k]])), _dense(schrodinger(G2[b[k]])))
        assert _dense((cp[k], ce[k])).tolist() == AB.tolist()
    # a single row broadcasts against a stack, on either side
    j = involution_j()
    jp, je = compose_rows(j, (perm, expo))
    pj, ej = compose_rows((perm, expo), j)
    for k in random.Random(4).sample(range(243), 50):
        U = _dense((perm[k], expo[k]))
        assert _dense((jp[k], je[k])).tolist() == np.dot(_dense(j), U).tolist()
        assert _dense((pj[k], ej[k])).tolist() == np.dot(U, _dense(j)).tolist()


def test_schrodinger_multiplicative_and_faithful():
    for _ in range(500):
        h1, h2 = rand_h(), rand_h()
        assert _row(schrodinger(h_mul(h1, h2))) == \
            _row(compose_rows(schrodinger(h1), schrodinger(h2)))
    images = {_row(schrodinger(h)) for h in G2}
    assert len(images) == 243


_rows = st.one_of(
    st.tuples(st.permutations(range(9)).map(np.array),
              st.lists(st.integers(0, 2), min_size=9, max_size=9).map(np.array)),
    st.builds(schrodinger, st.sampled_from(G2)))


def _stacked(*Us):
    return np.array([U[0] for U in Us]), np.array([U[1] for U in Us])


@settings(max_examples=100, deadline=None)
@given(_rows, _rows, st.lists(st.integers(-1, 2), min_size=81, max_size=81))
def test_rows_match_full_matrix_product(A, B, exps):
    assert _dense(compose_rows(A, B)).tolist() == np.dot(_dense(A), _dense(B)).tolist()
    # a matrix of zeros and powers of w against the two generalized
    # permutations, in w-exponent form and as dense products
    E = np.array(exps).reshape(9, 9)
    S = _expand(E)
    assert exponent_matrix(E) == S.tolist()
    dense = np.dot(S, _dense(A)).tolist() == np.dot(_dense(B), S).tolist()
    assert intertwines(E, _stacked(A), _stacked(B)) == dense


def test_involution_j():
    j = involution_j()
    assert all(x.dtype == np.int64 and x.shape == (9,) for x in j)
    assert _row(compose_rows(j, j)) == (tuple(range(9)), (0,) * 9)
    # column s goes to row -s, with coefficient 1
    assert j[0].tolist() == [idx2((-s0, -s1)) for s0, s1 in (divmod(i, 3) for i in range(9))]
    assert len(eigenbasis_plus()) == 5
    assert len(eigenbasis_minus()) == 4
    D = d_minus_one()
    for _ in range(50):
        h = rand_h()
        assert _row(compose_rows(compose_rows(j, schrodinger(h)), j)) == \
            _row(schrodinger(D(h)))


def test_plus_minus_components_roundtrip():
    vec = [QW.random(rng) for _ in range(9)]
    plus, minus = plus_minus_components(vec)
    ys = eigenbasis_plus()
    zs = eigenbasis_minus()
    recon = [QW.zero()] * 9
    for c, b in zip(plus, ys):
        recon = [r + c * x * 2 for r, x in zip(recon, b)]
    recon = [r - (plus[0] * y0) for r, y0 in zip(recon, ys[0])]  # Y0 not halved
    for c, b in zip(minus, zs):
        recon = [r + c * x * 2 for r, x in zip(recon, b)]
    assert recon == vec


def _block_diag(plus, minus):
    zero = QW.zero()
    return np.array([r + [zero] * 4 for r in plus] + [[zero] * 5 + r for r in minus],
                    dtype=object)


def test_block_split_conjugates_through_the_eigenbasis():
    cols = eigenbasis_plus() + eigenbasis_minus()
    P = np.array(cols, dtype=object).T
    for M in standard_sp4_generators():
        E = intertwiner(M)
        plus, minus, off = block_split(E)
        assert off
        assert np.dot(P, _block_diag(plus, minus)).tolist() == np.dot(_expand(E), P).tolist()
    r = random.Random(4)
    E = np.array([[r.randint(-1, 2) for _ in range(9)] for _ in range(9)])
    plus, minus, off = block_split(E)
    assert not off


def test_zeta_properties():
    assert zeta((0, 0, 0, 0)) == identity_automorphism()
    a = (1, 2, 0, 1)
    b = (0, 1, 2, 2)
    ab = tuple((x + y) % 3 for x, y in zip(a, b))
    assert zeta(a).compose(zeta(b)) == zeta(ab)
    D = d_minus_one()
    commuting = [aa for aa in product(range(3), repeat=4)
                 if zeta(aa).compose(D) == D.compose(zeta(aa))]
    assert commuting == [(0, 0, 0, 0)]


def test_zeta_injective():
    images = {zeta(a) for a in product(range(3), repeat=4)}
    assert len(images) == 81


def test_kernel_of_symplectic_part_is_exactly_zeta():
    # every central-fixing automorphism with trivial symplectic part has a
    # multiplicative multiplier, i.e. is one of the 81 pairing characters
    ident = SymplecticMat.identity(2, 3)
    zetas = {zeta(a).f for a in product(range(3), repeat=4)}
    count = 0
    for c in product(range(3), repeat=4):
        f = tuple(sum(ci * ui for ci, ui in zip(c, u)) % 3
                  for u in product(range(3), repeat=4))
        HeisAutomorphism(ident, f, validate=True)  # must not raise
        assert f in zetas
        count += 1
    assert count == 81
    # a non-additive multiplier is rejected
    bad = [0] * 81
    bad[1] = 1
    with pytest.raises(InvariantViolation):
        HeisAutomorphism(ident, tuple(bad), validate=True)


CODES3 = sp_group_codes(2, 3).tolist()


def rand_sp3():
    return code_to_mat(rng.choice(CODES3), 2, 3)


def test_lift_identity_and_cocycle():
    assert lift_symplectic(SymplecticMat.identity(2, 3)) == identity_automorphism()
    for _ in range(100):
        M = rand_sp3()
        phi = lift_symplectic(M)
        u, v = rand_h().u(), rand_h().u()
        uv = tuple((a + b) % 3 for a, b in zip(u, v))
        lhs = (phi.f_at(uv) - phi.f_at(u) - phi.f_at(v)) % 3
        rhs = (beta(M.apply(u), M.apply(v)) - beta(u, v)) % 3
        assert lhs == rhs


def test_lift_is_a_section_homomorphism():
    for _ in range(20):
        M, N = rand_sp3(), rand_sp3()
        assert lift_symplectic(M * N) == lift_symplectic(M).compose(lift_symplectic(N))


def test_lift_commutes_with_minus_one():
    D = d_minus_one()
    for _ in range(20):
        M = rand_sp3()
        phi = lift_symplectic(M)
        assert phi.compose(D) == D.compose(phi)


def test_standard_generators_generate():
    gens = standard_sp4_generators()
    seen = {SymplecticMat.identity(2, 3).entries}
    frontier = [SymplecticMat.identity(2, 3)]
    while frontier:
        nxt = []
        for M in frontier:
            for t in gens:
                P = t * M
                if P.entries not in seen:
                    seen.add(P.entries)
                    nxt.append(P)
        frontier = nxt
    assert len(seen) == 51840


def test_intertwiner_identity():
    E = intertwiner(SymplecticMat.identity(2, 3))
    assert E.dtype == np.int64 and E.shape == (9, 9) and not E.flags.writeable
    assert np.array_equal(E, np.where(np.eye(9, dtype=bool), 0, -1))
    T = exponent_matrix(E)
    for i in range(9):
        for j in range(9):
            assert T[i][j] == (Cyc(1) if i == j else Cyc(0))


def test_intertwiner_intertwines_everything():
    M = standard_sp4_generators()[0]
    phi = lift_symplectic(M)
    E = intertwiner(M)
    T = np.array(exponent_matrix(E), dtype=object)
    A = _stacked(*(schrodinger(h) for h in G2))
    B = _stacked(*(schrodinger(phi(h)) for h in G2))
    assert intertwines(E, A, B)
    # against dense products, on a few elements
    for h in G2[::40]:
        U, V = _dense(schrodinger(h)), _dense(schrodinger(phi(h)))
        assert np.dot(T, U).tolist() == np.dot(V, T).tolist()
    # one image off by a scalar breaks it
    B[1][17] = (B[1][17] + 1) % 3
    assert not intertwines(E, A, B)


def test_schur_dimension_one_for_standard_generators():
    for M in standard_sp4_generators():
        assert weddle.heisenberg._intertwiner_solve(lift_symplectic(M))[1] == 1


def test_intertwiner_blocks_and_projectivity():
    for M in standard_sp4_generators()[:4]:
        plus, minus, off = block_split(intertwiner(M))
        assert off
        assert len(plus) == 5 and len(minus) == 4
    for _ in range(20):
        M, N = rand_sp3(), rand_sp3()
        TM, TN = _expand(intertwiner(M)), _expand(intertwiner(N))
        TMN = exponent_matrix(intertwiner(M * N))
        assert proj_ratio(np.dot(TM, TN), TMN, QW) is not None


def test_upsilon_plus_block_shape():
    M = standard_sp4_generators()[2]
    blk = upsilon_plus_block(M)
    assert len(blk) == 5 and all(len(row) == 5 for row in blk)


def test_representation_matrices_unitary():
    import numpy as np
    for _ in range(10):
        h = rand_h()
        U = _dense(schrodinger(h))
        arr = np.array([[complex(x) for x in row] for row in U])
        assert np.abs(arr.conj().T @ arr - np.eye(9)).max() < 1e-12


# ---------------------------------------------------------------------------
# oracles: the scalar lift and the weighted union-find solve that the array
# lift and the one-traversal solve replaced


def _oracle_lift_symplectic(M: SymplecticMat) -> HeisAutomorphism:
    """The unique lift of M commuting with the -1 involution:
    multiplier exponent (1/2)(beta(Mu, Mu) - beta(u, u)) with 1/2 = 2 mod 3."""
    if M.n != 3:
        raise InvariantViolation("lift needs a matrix mod 3")

    def f(u):
        Mu = M.apply(u)
        return 2 * (beta(Mu, Mu) - beta(u, u)) % 3

    return HeisAutomorphism(M, f, validate=False)


def _oracle_intertwiner_solve(phi: HeisAutomorphism):
    if phi.g != 2:
        raise ValueError("intertwiners are materialized at genus 2")
    n = 81
    parent = list(range(n))
    weight = [0] * n      # value(i) = w^weight[i] * value(root)
    dead = [False] * n    # component forced to zero

    def find(i):
        path = []
        while parent[i] != i:
            path.append(i)
            i = parent[i]
        w = 0
        for j in reversed(path):
            w = (weight[j] + w) % 3
            parent[j] = i
            weight[j] = w
        return i

    def union(i, j, d):
        """value(i) = w^d * value(j)."""
        ri, rj = find(i), find(j)
        if ri == rj:
            if (weight[i] - weight[j]) % 3 != d % 3:
                dead[ri] = True
            return
        # attach rj under ri: value(j) = w^{weight(j)} value(rj)
        parent[rj] = ri
        weight[rj] = (weight[i] - d - weight[j]) % 3
        if dead[rj]:
            dead[ri] = True

    for h in heisenberg_generators(2):
        # the table rows of U(h) and U(phi(h))
        a_perm, a_expo = (x.tolist() for x in schrodinger(h))
        b_perm, b_expo = (x.tolist() for x in schrodinger(phi(h)))
        Binv_perm = [0] * 9
        for k in range(9):
            Binv_perm[b_perm[k]] = k
        for i in range(9):
            k0 = Binv_perm[i]
            for a in range(9):
                # T[i, A.perm[a]] = w^(B.expo[k0] - A.expo[a]) T[k0, a]
                union(i * 9 + a_perm[a], k0 * 9 + a,
                      (b_expo[k0] - a_expo[a]) % 3)

    roots = {}
    for i in range(n):
        r = find(i)
        roots.setdefault(r, []).append(i)
    live = [r for r in roots if not dead[r]]
    dim = len(live)
    if dim != 1:
        return None, dim
    root = live[0]
    first = min(roots[root])
    shift = -weight[first] % 3
    E = [[-1] * 9 for _ in range(9)]
    for i in roots[root]:
        E[i // 9][i % 9] = (weight[i] + shift) % 3
    return E, 1


def _solve_rows(phi, solve):
    E, dim = solve(phi)
    return (None if E is None else np.asarray(E).tolist()), dim


def _assert_matches_oracles(M):
    phi = lift_symplectic(M)
    oracle = _oracle_lift_symplectic(M)
    assert phi == oracle and phi.f == oracle.f
    assert all(type(x) is int for x in phi.f)
    assert hash(phi) == hash(oracle)
    got = _solve_rows(phi, weddle.heisenberg._intertwiner_solve)
    assert got == _solve_rows(phi, _oracle_intertwiner_solve)
    assert got[1] == 1


def test_lift_and_solve_match_oracles_on_generators():
    _assert_matches_oracles(SymplecticMat.identity(2, 3))
    for M in standard_sp4_generators():
        _assert_matches_oracles(M)


def test_lift_and_solve_match_oracles_on_a_sample():
    for code in random.Random(17).sample(CODES3, 500):
        _assert_matches_oracles(code_to_mat(code, 2, 3))


def test_solve_matches_oracle_off_the_lifts():
    M = standard_sp4_generators()[6]
    # an automorphism that is not the lift of its symplectic part
    phi = lift_symplectic(M).compose(zeta((1, 2, 0, 1)))
    assert phi != lift_symplectic(phi.M)
    got = _solve_rows(phi, weddle.heisenberg._intertwiner_solve)
    assert got == _solve_rows(phi, _oracle_intertwiner_solve) and got[1] == 1
    # a multiplier that fails the automorphism identity only rescales the
    # images of the generators, so the solution space stays a line
    bad = list(lift_symplectic(M).f)
    bad[1] = (bad[1] + 1) % 3
    psi = HeisAutomorphism(M, bad, validate=False)
    got = _solve_rows(psi, weddle.heisenberg._intertwiner_solve)
    assert got == _solve_rows(psi, _oracle_intertwiner_solve) and got[1] == 1
    # a matrix that is not symplectic breaks the commutator relations:
    # every component is forced to zero
    for entries in (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)),
                    ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))):
        chi = HeisAutomorphism(SymplecticMat._trusted(entries, 3), bad, validate=False)
        got = _solve_rows(chi, weddle.heisenberg._intertwiner_solve)
        assert got == _solve_rows(chi, _oracle_intertwiner_solve) == (None, 0)
        with pytest.raises(RepresentationError):
            intertwiner(chi)


def test_lift_matches_oracle_at_genus_one():
    codes = sp_group_codes(1, 3).tolist()
    assert len(codes) == 24
    for code in codes:
        M = code_to_mat(code, 1, 3)
        assert lift_symplectic(M).f == _oracle_lift_symplectic(M).f


def test_exponent_product_matches_mat_mul():
    r = random.Random(6)
    mats = [intertwiner(M) for M in standard_sp4_generators()]
    mats += [intertwiner(code_to_mat(r.choice(CODES3), 2, 3)) for _ in range(20)]
    for E in mats:
        for F in r.sample(mats, 6):
            assert exponent_product(E, F) == np.dot(_expand(E), _expand(F)).tolist()


def test_intertwiner_solves_are_shared():
    M = standard_sp4_generators()[3]
    assert intertwiner(M) is intertwiner(lift_symplectic(M))


def test_import_builds_no_table():
    code = ("import weddle, weddle.heisenberg as h\n"
            "print(h.schrodinger_table.cache_info().currsize,"
            " h._intertwiner_solve.cache_info().currsize)")
    src = Path(weddle.heisenberg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["0", "0"]
