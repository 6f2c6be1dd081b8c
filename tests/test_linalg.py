import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import weddle.linalg as linalg
from weddle.fields import CC, GF, QQ, QW, Cyc
from weddle.linalg import (Matrix, ResourceCapError, ShapeError, UnsupportedDomainError,
                           adjugate, all_distinct, chordal_distance,
                           count_common_zeros_mod_p, det_bareiss,
                           det_ring, eval_polys,
                           fit_hypersurface, nullspace, nullspace_complex,
                           pfaffian, prepare_polys, proj_points_mod_p,
                           proj_distance, proj_ratio, rank, rref_bareiss,
                           rref_mod_p, same_point,
                           rref_naive, sub_pfaffian_kernel)
from weddle.linalg import (_PANEL, _delays_reduction, _panel_plan,
                           check_int64_prime)
from weddle.poly import SparsePoly, exponents_of_degree

# the classical skew quadric-coefficient pattern, evaluated at Z = (1,1,1,1);
# reproducing its kernel is required before the Steinerian construction
CLASSICAL_SKEW_AT_ONES = [
    [0, -1, -1, -1, -1],
    [1, 0, -2, -2, -2],
    [1, 2, 0, 2, -2],
    [1, 2, -2, 0, 2],
    [1, 2, 2, -2, 0],
]


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_kernel_of_classical_skew_matrix():
    basis = nullspace(frac_rows(CLASSICAL_SKEW_AT_ONES), QQ, method="naive")
    assert len(basis) == 1
    v = basis[0]
    scale = v[2]
    assert [x / scale for x in v] == [Fraction(c) for c in (6, -3, 1, 1, 1)]
    # the fraction-free path must give the same vector exactly
    basis2 = nullspace(frac_rows(CLASSICAL_SKEW_AT_ONES), QQ, method="bareiss")
    assert basis2 == basis


def test_nullspace_trivial_cases():
    ident = frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert nullspace(ident, QQ) == []
    zero = frac_rows([[0, 0], [0, 0]])
    basis = nullspace(zero, QQ)
    assert len(basis) == 2


def test_bareiss_agrees_with_naive_on_random_matrices():
    rng = random.Random(0)
    for dom in (QQ, QW):
        for _ in range(100 if dom is QQ else 30):
            # a random rank: the last rows repeat sums of the first ones
            rk = rng.randint(0, 6)
            rows = [[dom.random(rng) for _ in range(6)] for _ in range(rk)]
            rows += [[a + b for a, b in zip(rows[i % rk], rows[(i + 1) % rk])]
                     if rk else [dom.zero()] * 6 for i in range(6 - rk)]
            r1, p1 = rref_naive(rows, dom)
            r2, p2 = rref_bareiss(rows, dom)
            assert p1 == p2
            assert r1 == r2
            basis = nullspace(rows, dom)
            assert nullspace(rows, dom, method="naive") == basis
            assert rank(rows, dom) == len(p1) == 6 - len(basis)
            # the kernel's own rank, by either elimination, without its basis
            for method in ("bareiss", "naive"):
                rk, kernel, s = linalg._kernel(linalg._array_form(rows, dom), dom, method)
                assert rk == len(p1) and s is None
                assert [list(v) for v in kernel()] == basis


def test_bareiss_agrees_on_rectangular_and_mod_p():
    rng = random.Random(1)
    for dom in (GF(13), QW):
        for _ in range(30):
            rows = [[dom.random(rng) for _ in range(5)] for _ in range(7)]
            r1, p1 = rref_naive(rows, dom)
            r2, p2 = rref_bareiss(rows, dom)
            assert (r1, p1) == (r2, p2)


def test_nullspace_rejects_polynomial_entries():
    x = SparsePoly.variable(0, 2, QQ)
    with pytest.raises(UnsupportedDomainError):
        nullspace([[x, x], [x, x]], QQ)


def test_pfaffian_two_by_two():
    a = Fraction(7)
    assert pfaffian([[0, a], [-a, 0]]) == a


def test_pfaffian_defining_expansion_4x4():
    # entries m01..m23 as independent variables
    names = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}
    rows = [[None] * 4 for _ in range(4)]
    for (i, j), k in names.items():
        v = SparsePoly.variable(k, 6, QQ)
        rows[i][j] = v
        rows[j][i] = -v
    for i in range(4):
        rows[i][i] = SparsePoly.zero(6, QQ)
    pf = pfaffian(rows)
    m = {k: SparsePoly.variable(v, 6, QQ) for k, v in names.items()}
    expect = (m[(0, 1)] * m[(2, 3)] - m[(0, 2)] * m[(1, 3)]
              + m[(0, 3)] * m[(1, 2)])
    assert pf == expect


def rand_skew(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = Fraction(rng.randint(-9, 9))
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def test_pfaffian_squares_to_determinant():
    rng = random.Random(2)
    for n in (2, 4, 6, 8):
        for _ in range(10 if n <= 6 else 4):
            m = rand_skew(rng, n)
            assert pfaffian(m) ** 2 == det_bareiss(m, QQ)


def test_pfaffian_shape_errors():
    with pytest.raises(ShapeError):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])  # odd size
    with pytest.raises(ShapeError):
        pfaffian(frac_rows([[0, 1], [1, 0]]))  # not skew


def test_sub_pfaffian_kernel_odd_skew():
    rng = random.Random(3)
    for _ in range(10):
        m = rand_skew(rng, 5)
        w = sub_pfaffian_kernel(m)
        prod = Matrix(m).mat_vec(w)
        assert all(x == 0 for x in prod)


def test_mat_mul_skips_zero_terms_exactly():
    # entries, zeros included, equal the plain dense sum and keep its type
    rng = random.Random(6)
    for domain in (QQ, GF(7), QW):
        for density in (1.0, 0.3, 0.0):
            S, T = ([[domain.random(rng) if rng.random() < density
                      else domain.zero() for _ in range(5)] for _ in range(5)]
                    for _ in range(2))
            prod = Matrix(S).mat_mul(Matrix(T)).rows
            for i in range(5):
                for j in range(5):
                    dense = S[i][0] * T[0][j]
                    for k in range(1, 5):
                        dense = dense + S[i][k] * T[k][j]
                    assert prod[i][j] == dense
                    assert type(prod[i][j]) is type(dense)


def test_adjugate_identity_and_random():
    ident = frac_rows([[1, 0], [0, 1]])
    assert adjugate(ident).rows == ident
    rng = random.Random(4)
    for _ in range(10):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        d = det_bareiss(m, QQ)
        prod = Matrix(m).mat_mul(adjugate(m))
        for i in range(4):
            for j in range(4):
                assert prod.rows[i][j] == (d if i == j else 0)


def test_adjugate_of_corank_one_skew_has_rank_one():
    rng = random.Random(5)
    m = rand_skew(rng, 5)
    assert rank(m, QQ) == 4
    adj = adjugate(m)
    assert rank(adj.rows, QQ) == 1


def _det_ring_adjugate(m):
    """The adjugate as one det_ring call per cofactor."""
    n = len(m)
    return [[(-1) ** (i + j) * det_ring(Matrix(m).delete_row_col(j, i))
             for j in range(n)] for i in range(n)]


def test_rational_adjugate_matches_det_ring_cofactors():
    rng = random.Random(12)

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    cases = [[[Fraction(0)] * n for _ in range(n)] for n in (2, 3, 5)]
    for n in (2, 3, 4, 5):
        m = [[frac() for _ in range(n)] for _ in range(n)]
        cases.append(m)
        # singular: the last row is the sum of the first two
        cases.append(m[:-1] + [[a + b for a, b in zip(m[0], m[1])]])
        if n > 2:
            # rank at most n - 2: every cofactor vanishes
            cases.append(m[:-2] + [m[0], [2 * x for x in m[1]]])
    for n in (3, 5):
        skew = rand_skew(rng, n)
        skew[0][1], skew[1][0] = Fraction(1, 3), Fraction(-1, 3)
        cases.append(skew)  # odd skew: corank one
    cases.append([[1, Fraction(1, 2)], [3, 4]])  # ints mixed with Fractions
    for m in cases:
        adj = adjugate(m)
        assert adj.rows == _det_ring_adjugate(m)
        assert all(type(x) is Fraction for r in adj.rows for x in r)
    assert rank(adjugate(rand_skew(rng, 5)).rows, QQ) == 1
    # an int matrix keeps int entries
    ints = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
    adj = adjugate(ints)
    assert adj.rows == _det_ring_adjugate(ints)
    assert all(type(x) is int for r in adj.rows for x in r)


def test_adjugate_over_other_rings_keeps_the_det_ring_path(monkeypatch):
    import weddle.linalg

    def no_table(a):
        raise AssertionError("the integer minor table is only for Q")

    monkeypatch.setattr(weddle.linalg, "_int_adjugate", no_table)
    rng = random.Random(13)
    dom = GF(31)
    x, y = (SparsePoly.variable(i, 2, QQ) for i in range(2))
    for m in ([[dom.random(rng) for _ in range(3)] for _ in range(3)],
              [[Cyc(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
               for _ in range(3)],
              [[x, y, x * y], [y, 3 * x, x + y], [y * y, x, 2 * y]]):
        assert adjugate(m).rows == _det_ring_adjugate(m)


def _ring_samples(name, rng):
    """A scalar sampler and the unit of each entry ring of the adjugate."""
    if name == "QQ":
        return lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)), Fraction(1)
    if name == "GF7":
        return lambda: GF(7).random(rng), GF(7).one()
    if name == "QW":
        return lambda: Cyc(rng.randint(-5, 5), rng.randint(-5, 5)), Cyc(1)
    x, y = (SparsePoly.variable(i, 2, QQ) for i in range(2))
    return (lambda: rng.randint(-3, 3) * x + rng.randint(-3, 3) * y + rng.randint(-3, 3),
            SparsePoly.constant(2, QQ, 1))


@pytest.mark.parametrize("name", ["QQ", "GF7", "QW", "poly"])
def test_adjugate_times_matrix_is_the_determinant(name):
    # the 1 x 1 case has the empty minor as its cofactor: adj = [[1]]
    rng = random.Random(14)
    draw, one = _ring_samples(name, rng)
    for n in (1, 1, 2, 3):
        m = [[draw() for _ in range(n)] for _ in range(n)]
        adj = adjugate(m)
        if n == 1:
            assert adj.rows == [[one]] and type(adj.rows[0][0]) is type(one)
        d = det_ring(m)
        prod = Matrix(m).mat_mul(adj)
        for i in range(n):
            for j in range(n):
                assert prod.rows[i][j] == (d if i == j else d - d)


def test_det_ring_matches_bareiss():
    rng = random.Random(6)
    for n in (3, 4, 5):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        assert det_ring(m) == det_bareiss(m, QQ)


def test_fit_conic_through_five_points():
    # x^2 + y^2 - z^2 through five of its points
    pts = [(Fraction(3, 5), Fraction(4, 5), 1), (Fraction(5, 13), Fraction(12, 13), 1),
           (1, 0, 1), (0, 1, 1), (Fraction(8, 17), Fraction(15, 17), 1)]
    fit = fit_hypersurface([list(map(Fraction, p)) for p in pts], 2, QQ)
    assert len(fit.forms) == 1
    f = fit.forms[0].primitive_normalized()
    assert f.terms == {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1),
                       (0, 0, 2): Fraction(-1)}


def test_fit_twisted_cubic_net():
    rng = random.Random(7)
    pts = []
    for _ in range(12):
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        pts.append([Fraction(1), t, t * t, t ** 3])
    fit = fit_hypersurface(pts, 2, QQ)
    assert len(fit.forms) == 3
    # rank oracle: the three quadrics are independent
    from weddle.poly import exponents_of_degree
    exps = exponents_of_degree(4, 2)
    rows = [[q.terms.get(e, Fraction(0)) for e in exps] for q in fit.forms]
    assert rank(rows, QQ) == 3


def test_fit_plane_through_three_points():
    pts = [[Fraction(1), 0, 0, 1], [Fraction(0), 1, 0, 2], [Fraction(0), 0, 1, 3]]
    fit = fit_hypersurface(pts, 1, QQ)
    assert len(fit.forms) == 1


def test_fit_shape_error_on_mixed_dimensions():
    with pytest.raises(ShapeError):
        fit_hypersurface([[Fraction(1), 0], [Fraction(1), 0, 0]], 1, QQ)


def test_fit_with_too_few_points_returns_larger_space():
    # not an error: three conditions on the six conic coefficients
    pts = [[Fraction(1), 0, 0], [Fraction(0), 1, 0], [Fraction(0), 0, 1]]
    fit = fit_hypersurface(pts, 2, QQ)
    assert len(fit.forms) == 3


def test_fit_agrees_mod_p():
    rng = random.Random(8)
    pts = []
    for _ in range(12):
        t = Fraction(rng.randint(-10, 10))
        pts.append([Fraction(1), t, t * t, t ** 3])
    fitQ = fit_hypersurface(pts, 2, QQ)
    dom = GF(101)
    fitP = fit_hypersurface([[dom.coerce(x) for x in p] for p in pts], 2, dom)
    assert len(fitQ.forms) == len(fitP.forms) == 3
    from weddle.poly import exponents_of_degree
    exps = exponents_of_degree(4, 2)
    rowsQ = [[dom.coerce(q.terms.get(e, Fraction(0))) for e in exps]
             for q in fitQ.forms]
    rowsP = [[q.terms.get(e, dom.zero()) for e in exps] for q in fitP.forms]
    assert rank(rowsQ + rowsP, dom) == 3


def test_fit_takes_an_int64_array_over_gf_p():
    dom = GF(101)
    rng = random.Random(9)
    # twisted cubic points, t^3 not reduced below p
    pts = [[1, t, t * t, t ** 3] for t in (rng.randrange(101) for _ in range(12))]
    fit_arr = fit_hypersurface(np.array(pts, dtype=np.int64), 2, dom)
    fit_fp = fit_hypersurface([[dom.from_int(x) for x in p] for p in pts], 2, dom)
    assert len(fit_arr.forms) == 3
    assert fit_arr.forms == fit_fp.forms
    with pytest.raises(ShapeError):
        fit_hypersurface(np.zeros((0, 4), dtype=np.int64), 2, dom)


def test_complex_nullspace_threshold():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    basis, _ = nullspace_complex(a, rel_threshold=1e-8)
    assert len(basis) == 1
    assert max(abs(a @ basis[0])) < 1e-9
    basis_tight, _ = nullspace_complex(a, rel_threshold=1e-12)
    assert len(basis_tight) == 0


# the largest prime with p^2 < 2^63, and the smallest prime above it
P_INT64_MAX = 3037000493
P_INT64_OVER = 3037000507


def test_rref_mod_p_at_largest_int64_prime():
    p = P_INT64_MAX
    dom = GF(p)
    rng = random.Random(11)
    rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
    rows.append([(a + 3 * b) % p for a, b in zip(rows[0], rows[1])])
    fast, fast_piv = rref_mod_p(np.array(rows, dtype=np.int64), p)
    exact, exact_piv = rref_bareiss([[dom.coerce(x) for x in r] for r in rows], dom)
    assert fast_piv == exact_piv == [0, 1, 2, 3]
    assert fast.tolist() == [[x.val for x in r] for r in exact]


def test_mod_p_paths_refuse_int64_overflow():
    p = P_INT64_OVER
    with pytest.raises(ValueError):
        rref_mod_p(np.eye(2, dtype=np.int64), p)
    x = SparsePoly.variable(0, 2, QQ)
    with pytest.raises(ValueError):
        eval_polys([x * x], np.ones((1, 2), dtype=np.int64), GF(p))


# p = 1753413037 takes only 3 unreduced updates of (p - 1)^2 in int64, so
# its panels are 3 columns wide and each spends the whole int64 budget
P_THREE_UPDATES = 1753413037
# unit upper triangular with -1 above the diagonal, over three panels of the
# widest width: without the reductions between panels its entries would fall
# far below -2^63 at that prime
UPPER_MINUS_ONES = [[1 if j == i else (P_THREE_UPDATES - 1 if j > i else 0)
                     for j in range(3 * _PANEL + 1)] for i in range(3 * _PANEL)]


@st.composite
def _matrices_mod_p(draw):
    """(p, rows): a random matrix of up to 9 x 10 entries mod p, sometimes
    with a dependent last row and sometimes with a zero column."""
    p = draw(st.sampled_from([2, 3, 101, 1000003, P_THREE_UPDATES, P_INT64_MAX]))
    nr, nc = draw(st.integers(1, 9)), draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    if nr > 1 and draw(st.booleans()):
        k = draw(st.integers(0, p - 1))
        rows[-1] = [(a + k * b) % p for a, b in zip(rows[0], rows[1])]
    if draw(st.booleans()):
        zero = draw(st.integers(0, nc - 1))
        for r in rows:
            r[zero] = 0
    return p, rows


@settings(max_examples=200, deadline=None)
@given(_matrices_mod_p())
@example((P_THREE_UPDATES, UPPER_MINUS_ONES))
def test_rref_mod_p_matches_bareiss(case):
    p, rows = case
    dom = GF(p)
    a = np.array(rows, dtype=np.int64)
    fast, fast_piv = rref_mod_p(a, p)
    exact, exact_piv = rref_bareiss([[dom.coerce(x) for x in r] for r in rows], dom)
    assert fast_piv == exact_piv
    assert fast.dtype == np.int64
    assert fast.tolist() == [[x.val for x in r] for r in exact]
    # the kernel kills every row and is the identity on the free columns
    nc = len(rows[0])
    free = [c for c in range(nc) if c not in fast_piv]
    basis = nullspace(a, dom)
    assert np.array_equal(a, rows)
    assert len(basis) == nc - len(fast_piv)
    assert all(not sum((x * y for x, y in zip(r, v)), dom.zero()) for r in rows for v in basis)
    assert [[v[c].val for c in free] for v in basis] == np.eye(len(free), dtype=int).tolist()
    assert rank(rows, dom) == len(fast_piv)
    rk, kernel, s = linalg._kernel(a.copy(), dom)
    assert rk == len(fast_piv) and s is None
    assert kernel().tolist() == [[x.val for x in v] for v in basis]


def _rref_mod_p_rank1(a: np.ndarray, p: int):
    """The unblocked kernel rref_mod_p had before its panels, verbatim: one
    rank-1 update of the whole trailing block per pivot.  The oracle of the
    blocked kernel."""
    check_int64_prime(p)
    a = np.array(a, dtype=np.int64) % p
    nr, nc = a.shape
    # A reduced entry lies in [0, p) and each update subtracts at most
    # (p - 1)^2, so it takes (2**63 - 1) // (p - 1)**2 updates without
    # wrapping: one on the reduced block and `budget` more after it.
    budget = (2 ** 63 - 1) // (p - 1) ** 2 - 1
    pending = 0
    buf = np.empty(nr * nc, dtype=np.int64)
    r = 0
    pivots = []
    for c in range(nc):
        col = a[:, c]
        col %= p
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv], c:] = a[[piv, r], c:]
        row = a[r, c:]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        mult = col.copy()
        mult[r] = 0
        if pending > budget:
            a[:, c + 1:] %= p
            pending = 0
        update = buf[:nr * (nc - c)].reshape(nr, nc - c)
        np.multiply.outer(mult, row, out=update)
        a[:, c:] -= update
        pending += 1
        pivots.append(c)
        r += 1
        if r == nr:
            break
    out = a[:r]
    out %= p
    return out, pivots


# 19372651 is the largest prime whose full-width panel fits float64,
# 24 (p-1)^2 + p < 2^53, and 19372681 the next prime, the first whose
# panels are int64
P_FLOAT_FULL_WIDTH = 19372651
P_INT64_FIRST = 19372681
# 94906249 is the largest prime whose one-term float64 product (p-1)^2 + p
# is below 2^53, and 94906297 the next prime
WIDE_PRIMES = [2, 3, 101, 1000003, P_FLOAT_FULL_WIDTH, 94906249, 94906297,
               P_THREE_UPDATES, P_INT64_MAX]


def test_panel_plan_is_exact_and_widest():
    for p in WIDE_PRIMES:
        dtype, width = _panel_plan(p)
        limit = 2 ** 53 if dtype is np.float64 else 2 ** 63 + 1
        assert 1 <= width <= _PANEL
        assert width * (p - 1) ** 2 + p < limit
        assert width == _PANEL or (width + 1) * (p - 1) ** 2 + p >= limit
    assert _panel_plan(1000003) == (np.float64, _PANEL)
    assert _panel_plan(P_FLOAT_FULL_WIDTH) == (np.float64, _PANEL)
    assert _panel_plan(P_INT64_FIRST) == (np.int64, _PANEL)
    assert _panel_plan(P_THREE_UPDATES) == (np.int64, 3)
    assert _panel_plan(P_INT64_MAX) == (np.int64, 1)


@st.composite
def _wide_matrices_mod_p(draw):
    """(p, a): an int64 matrix mod p of up to 90 x 110, over several panels.
    Its entries come from a seeded generator; the draw decides the shape,
    some rows that are combinations of earlier rows, a zero column, and a
    band of _PANEL columns in the span of the columns before it, so that
    a whole panel finds no pivot."""
    p = draw(st.sampled_from(WIDE_PRIMES))
    nr, nc = draw(st.integers(1, 90)), draw(st.integers(1, 110))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(0, p, size=(nr, nc), dtype=np.int64)
    for i in draw(st.sets(st.integers(2, 89), max_size=60)):
        if i < nr:
            j, k = rng.integers(0, i, size=2)
            a[i] = (a[j] + int(rng.integers(0, p)) * a[k] % p) % p
    if draw(st.booleans()):
        a[:, draw(st.integers(0, nc - 1))] = 0
    if nc > _PANEL and draw(st.booleans()):
        start = _PANEL * draw(st.integers(1, (nc - 1) // _PANEL))
        for c in range(start, min(start + _PANEL, nc)):
            j, k = rng.integers(0, start, size=2)
            a[:, c] = (a[:, j] + int(rng.integers(0, p)) * a[:, k] % p) % p
    return p, a


@settings(max_examples=150, deadline=None)
@given(_wide_matrices_mod_p())
@example((P_THREE_UPDATES, np.array(UPPER_MINUS_ONES, dtype=np.int64)))
def test_blocked_rref_mod_p_matches_rank1_kernel(case):
    p, a = case
    fast, fast_piv = rref_mod_p(a, p)
    slow, slow_piv = _rref_mod_p_rank1(a, p)
    assert fast_piv == slow_piv
    assert fast.dtype == np.int64
    assert np.array_equal(fast, slow)


def _count_panel_steps(monkeypatch):
    """Count rref_mod_p's panels by the step they take: `block` for a
    square block found invertible, `rank1` for the per-pivot steps."""
    counts = {"block": 0, "rank1": 0}
    block_step, eliminate_panel = linalg._block_step, linalg._eliminate_panel

    def counted_block_step(*args):
        x = block_step(*args)
        counts["block"] += x is not None
        return x

    def counted_eliminate_panel(*args):
        counts["rank1"] += 1
        return eliminate_panel(*args)

    monkeypatch.setattr(linalg, "_block_step", counted_block_step)
    monkeypatch.setattr(linalg, "_eliminate_panel", counted_eliminate_panel)
    return counts


def test_rref_mod_p_at_octic_size(monkeypatch):
    # the shape and rank of the secant octic fit: 620 points, 495 octic
    # monomials in five variables, a one-dimensional kernel
    p = 1000003
    rng = np.random.default_rng(14)
    left = rng.integers(0, p, size=(620, 494), dtype=np.int64)
    right = rng.integers(0, p, size=(494, 495), dtype=np.int64)
    a = (left @ right) % p  # each entry below 494 p^2 < 2^63
    counts = _count_panel_steps(monkeypatch)
    fast, fast_piv = rref_mod_p(a, p)
    slow, slow_piv = _rref_mod_p_rank1(a, p)
    assert len(fast_piv) == 494
    assert fast_piv == slow_piv
    assert np.array_equal(fast, slow)
    # the free column, 494, is in the last panel, which alone falls back
    assert counts == {"block": 20, "rank1": 1}


def test_octic_size_panels_take_the_block_step(monkeypatch):
    # 620 x 495 of full rank: every panel's square block is invertible, so
    # all 21 panels take one inverse and one product, and no rank-1 step
    p = 1000003
    a = np.random.default_rng(27).integers(0, p, size=(620, 495), dtype=np.int64)
    counts = _count_panel_steps(monkeypatch)
    fast, fast_piv = rref_mod_p(a, p)
    assert counts == {"block": 21, "rank1": 0}
    slow, slow_piv = _rref_mod_p_rank1(a, p)
    assert fast_piv == slow_piv == list(range(495))
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("p", [2, 101, 1000003, P_INT64_FIRST, P_THREE_UPDATES,
                               P_INT64_MAX])
def test_singular_square_block_falls_back_to_rank1_steps(p, monkeypatch):
    # row 1 is 3 times row 0 and both start with 0, so the first panel's
    # square block is singular at every width (1 x 1 at P_INT64_MAX), and
    # its first pivot needs a row swap; the rows below still give the
    # panel a pivot in every column
    a = np.random.default_rng(p % 1000).integers(0, p, size=(60, 50), dtype=np.int64)
    a[0, 0] = 0
    a[1] = 3 * a[0] % p
    counts = _count_panel_steps(monkeypatch)
    fast, fast_piv = rref_mod_p(a, p)
    assert counts["rank1"] >= 1
    slow, slow_piv = _rref_mod_p_rank1(a, p)
    assert fast_piv == slow_piv
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("p", [101, 1000003, P_INT64_FIRST])
@pytest.mark.parametrize("degree", [2, 4, 8])
def test_prime_field_fit_matches_row_major_nullspace(p, degree):
    # fit_hypersurface builds its matrix transposed and eliminates it in
    # place; the same monomial columns laid out row-major, through
    # nullspace, must give the same basis.  Three points fewer than
    # monomials leave a kernel of dimension at least 3
    dom = GF(p)
    exps = exponents_of_degree(4, degree)
    pts = np.random.default_rng(degree).integers(0, p, size=(len(exps) - 3, 4),
                                                 dtype=np.int64)
    rows = np.stack(list(linalg._monomial_columns(pts, exps, 1, p)), axis=1)
    kernel = nullspace(rows, dom)
    fit = fit_hypersurface(pts, degree, dom)
    assert len(fit) == len(kernel) >= 3
    assert [[f.terms.get(e, dom.zero()) for e in exps] for f in fit] == kernel
    assert not eval_polys(fit.forms, pts, dom).any()


def test_octic_fit_holds_one_full_size_array():
    # the transposed matrix is built in the panels' dtype and eliminated in
    # place, so the fit's peak is that one 620 x 495 matrix of 8-byte
    # entries and a few panel-sized buffers
    p = 1000003
    pts = np.random.default_rng(8).integers(0, p, size=(620, 5), dtype=np.int64)
    tracemalloc.start()
    try:
        fit = fit_hypersurface(pts, 8, GF(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fit) == 0
    assert peak < 1.3 * 620 * 495 * 8


NV = 3
COEFFS = st.one_of(st.integers(-50, 50),
                   st.fractions(-5, 5, max_denominator=7)).filter(bool)
EVAL_DOMAINS = (GF(31), GF(101), GF(P_INT64_MAX), QQ, QW, CC)


@st.composite
def _poly_lists(draw):
    """Polynomials over Q that either all share one monomial or have
    pairwise disjoint monomial sets, with up to two constant or zero
    polynomials among them; the list may be empty."""
    mons = draw(st.lists(st.tuples(*[st.integers(0, 3)] * NV),
                         min_size=1, max_size=12, unique=True))
    k = draw(st.integers(0, 4))
    if draw(st.booleans()):
        supports = [[mons[0]] + draw(st.lists(st.sampled_from(mons), unique=True))
                    for _ in range(k)]
    else:
        supports = [mons[j::k] for j in range(min(k, len(mons)))]
    polys = [SparsePoly(NV, QQ, {e: draw(COEFFS) for e in sup}) for sup in supports]
    for const in draw(st.lists(st.one_of(st.just(0), COEFFS), max_size=2)):
        polys.insert(draw(st.integers(0, len(polys))), SparsePoly.constant(NV, QQ, const))
    return polys


def _draw_point(data, dom):
    if dom is CC:
        part = st.floats(-2, 2)
        return [complex(data.draw(part), data.draw(part)) for _ in range(NV)]
    if dom is QQ:
        return [data.draw(COEFFS | st.just(0)) for _ in range(NV)]
    if dom is QW:
        return [Cyc(data.draw(COEFFS | st.just(0)), data.draw(COEFFS | st.just(0)))
                for _ in range(NV)]
    return [data.draw(st.integers(0, dom.p - 1)) for _ in range(NV)]


@settings(max_examples=150, deadline=None)
@given(polys=_poly_lists(), dom=st.sampled_from(EVAL_DOMAINS), data=st.data())
def test_eval_polys_agrees_with_scalar_evaluation(polys, dom, data):
    if data.draw(st.booleans()):
        # coefficients in the domain itself instead of Q
        polys = [f.map_coefficients(dom, dom.coerce) for f in polys]
    pts = [_draw_point(data, dom) for _ in range(data.draw(st.integers(1, 6)))]
    if dom not in (QQ, QW, CC) and data.draw(st.booleans()):
        # points as proj_points_mod_p gives them
        vals = eval_polys(polys, np.array(pts, dtype=np.int64), dom)
    else:
        vals = eval_polys(polys, pts, dom)
    assert vals.shape == (len(pts), len(polys))
    for i, pt in enumerate(pts):
        pt = [dom.coerce(x) for x in pt]
        for j, f in enumerate(polys):
            # coerce: a constant polynomial evaluates to its rational constant
            want = dom.coerce(f.evaluate(pt))
            if dom is CC:
                # relative to the sum of the moduli of the terms, plus the
                # absolute error of gradual underflow: a product that lands
                # among the subnormals is rounded to a multiple of the
                # smallest one, and later factors (|x| <= 2, |c| <= 5) scale
                # that error; the floor is far below every normal float
                size = f.map_coefficients(CC, lambda c: abs(complex(c))).evaluate(
                    [abs(x) for x in pt]).real
                floor = (2 ** (f.total_degree() + 6) * len(f.terms)
                         * np.finfo(float).smallest_subnormal)
                assert abs(vals[i, j] - want) <= 1e-12 * size + floor
            elif dom in (QQ, QW):
                assert vals[i, j] == want
            else:
                assert vals.dtype == np.int64 and vals[i, j] == want.val


def _eval_per_product(polys, pts, dom):
    """Scalar evaluation with Fp objects, which reduce after every product."""
    return [[f.evaluate([dom.coerce(int(x)) for x in pt]).val for f in polys]
            for pt in pts]


# the primes of the delayed-reduction oracle, and whether each has degrees
# 0..8 on both sides of the bound (3 variables, at most 165 monomials)
DELAY_PRIMES = {2: {True}, 3: {True}, 31: {True}, 101: {True, False},
                1000003: {True, False}, P_INT64_MAX: {True, False}}


@pytest.mark.parametrize("p", sorted(DELAY_PRIMES))
def test_delayed_reduction_matches_per_product_reduction(p):
    # every coefficient and coordinate p - 1 is the largest partial sum the
    # bound allows; counts of 1, 2, 9, 10 and all monomials straddle it
    dom = GF(p)
    rng = random.Random(p)
    sides = set()
    for degree in range(9):
        top = exponents_of_degree(3, degree)
        lower = [e for k in range(degree) for e in exponents_of_degree(3, k)]
        for count in sorted({1, 2, 9, 10, len(top) + len(lower)}):
            if count > len(top) + len(lower):
                continue
            support = (top + lower)[:count]
            worst = SparsePoly(3, dom, {e: dom.coerce(p - 1) for e in support})
            drawn = SparsePoly(3, dom, {e: dom.random(rng) for e in support})
            pts = np.array([[p - 1] * 3, [0] * 3, [1, p - 1, 0]]
                           + [[rng.randrange(p) for _ in range(3)] for _ in range(3)],
                           dtype=np.int64)
            got = eval_polys([worst, drawn], pts, dom)
            assert got.dtype == np.int64
            assert got.tolist() == _eval_per_product([worst, drawn], pts, dom)
            sides.add(_delays_reduction(p, degree, len(
                {e for f in (worst, drawn) for e in f.terms})))
    assert sides == DELAY_PRIMES[p]


def test_delayed_reduction_bound_is_tight():
    # one linear monomial at the largest int64 prime still fits, two do not
    assert _delays_reduction(P_INT64_MAX, 1, 1)
    assert not _delays_reduction(P_INT64_MAX, 1, 2)
    assert _delays_reduction(101, 8, 9) and not _delays_reduction(101, 8, 10)
    assert 100 ** 9 * 9 < 2 ** 63 <= 100 ** 9 * 10


@pytest.mark.parametrize("dom", [GF(101), GF(P_INT64_MAX), QQ, QW, CC], ids=repr)
def test_prepared_polys_apply_to_block_after_block(dom):
    # one prepare_polys, applied to several blocks of points, gives what
    # eval_polys gives on each block
    rng = random.Random(27)
    x, y, z = (SparsePoly.variable(i, 3, QQ) for i in range(3))
    forms = [x * x * y - 3 * z ** 3 + 1, 2 * x * y * z + y, SparsePoly.zero(3, QQ)]
    evaluate = prepare_polys(forms, dom)
    for n in (1, 4, 7):
        pts = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(n)]
        got, want = evaluate(pts), eval_polys(forms, pts, dom)
        assert got.shape == want.shape == (n, len(forms))
        assert got.tolist() == want.tolist()


def test_rational_eval_polys_matches_scalar_evaluation():
    rng = random.Random(14)

    def frac():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    mons = [e for k in range(6) for e in exponents_of_degree(3, k)]
    forms = [SparsePoly.zero(3, QQ), SparsePoly.constant(3, QQ, Fraction(-7, 3)),
             SparsePoly.constant(3, QQ, 5)]
    # mixed degrees 0..5, non-integral coefficients
    forms += [SparsePoly(3, QQ, {e: frac() for e in rng.sample(mons, 8)})
              for _ in range(4)]
    pts = [[frac() for _ in range(3)] for _ in range(6)]
    pts += [[0, 0, 0], [1, Fraction(1, 2), 3], [Fraction(2, 3)] * 3]
    vals = eval_polys(forms, pts, QQ)
    assert vals.shape == (len(pts), len(forms))
    for i, pt in enumerate(pts):
        pt = [Fraction(x) for x in pt]
        for j, f in enumerate(forms):
            assert type(vals[i, j]) is Fraction
            assert vals[i, j] == f.evaluate(pt)
    assert eval_polys(forms, [], QQ).shape == (0, len(forms))
    assert eval_polys([], pts, QQ).shape == (len(pts), 0)


def test_prime_field_fit_reads_rational_points_exactly():
    # (1/2 : 1) and (1 : 2) are one point of P^1, so the line 2x - y is the
    # fit; reading 1/2 as an integer would give two points and no line
    dom = GF(101)
    x, y = (SparsePoly.variable(i, 2, dom) for i in range(2))
    (line,) = fit_hypersurface([[Fraction(1, 2), 1], [1, 2]], 1, dom)
    assert proj_ratio([line], [2 * x - y], dom) is not None


def test_mod_p_evaluation_refuses_a_foreign_modulus():
    f = SparsePoly.variable(0, 2, GF(31)) * 3
    with pytest.raises(ValueError, match="wrong modulus"):
        eval_polys([f], np.ones((1, 2), dtype=np.int64), GF(101))


def test_proj_points_census():
    for p, dim in ((5, 3), (7, 2)):
        pts = np.concatenate(list(proj_points_mod_p(p, dim)))
        expect = sum(p ** k for k in range(dim + 1))
        assert pts.shape == (expect, dim + 1)
        assert len({tuple(r) for r in pts.tolist()}) == expect


@pytest.mark.parametrize("p, dim", [(5, 3), (7, 2), (2, 4)])
def test_proj_point_blocks_follow_the_charts(monkeypatch, p, dim):
    # blocks of 7 rows run across the ends of the charts
    monkeypatch.setattr(linalg, "STATE_BLOCK", 7)
    blocks = list(proj_points_mod_p(p, dim))
    assert all(b.dtype == np.int64 and 0 < len(b) <= 7 for b in blocks)
    want = [(0,) * lead + (1,) + rest for lead in range(dim + 1)
            for rest in product(range(p), repeat=dim - lead)]
    assert np.concatenate(blocks).tolist() == [list(r) for r in want]


def test_proj_points_are_refused_exactly_above_the_cap(monkeypatch):
    # P^2(F_5) has 31 points
    monkeypatch.setattr(linalg, "STATE_CAP", 31)
    assert np.concatenate(list(proj_points_mod_p(5, 2))).shape == (31, 3)
    monkeypatch.setattr(linalg, "STATE_CAP", 30)
    # the call itself refuses, before numpy is used: a block built first
    # would fail on the missing numpy
    monkeypatch.setattr(linalg, "np", None)
    with pytest.raises(ResourceCapError, match="31 states exceeds cap 30"):
        proj_points_mod_p(5, 2)


def test_count_common_zeros_mod_p(monkeypatch):
    x = [SparsePoly.variable(i, 3, QQ) for i in range(3)]
    for block in (linalg.STATE_BLOCK, 64):
        monkeypatch.setattr(linalg, "STATE_BLOCK", block)
        # x2 = 0 is a line of P^2(F_5), and x0 x1 cuts two points out of it
        assert count_common_zeros_mod_p([x[2]], 5) == 6
        assert count_common_zeros_mod_p([x[0] * x[1], x[2]], 5) == 2
        # P^2(F_31) has 993 points, 16 blocks of 64: the line x2 = 0 has 32
        assert count_common_zeros_mod_p([x[2]], 31) == 32


# ---------------------------------------------------------------------------
# exact proportionality, one helper for every exact domain

small = st.integers(-5, 5)
SCALARS = {
    # plain ints on purpose: the ratio must be taken in Q, not as a float
    "QQ": (QQ, st.one_of(small, st.fractions(-5, 5, max_denominator=7))),
    "GF101": (GF(101), st.integers(0, 100).map(GF(101).from_int)),
    "QW": (QW, st.builds(Cyc, small, small)),
}


def _vectors(name):
    dom, scalar = SCALARS[name]
    return st.tuples(st.just(dom), st.lists(scalar, min_size=2, max_size=6), scalar)


@pytest.mark.parametrize("name", sorted(SCALARS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_proj_ratio_recovers_the_scalar(name, data):
    dom, v, lam = data.draw(_vectors(name))
    assume(any(v) and lam)
    got = proj_ratio([lam * x for x in v], v, dom)
    assert got == lam and got == dom.coerce(lam)
    # a changed entry breaks proportionality once two entries of v are nonzero
    i = data.draw(st.integers(0, len(v) - 1))
    bumped = [lam * x for x in v]
    bumped[i] = bumped[i] + dom.one()
    if sum(1 for x in v if x) >= 2:
        assert proj_ratio(bumped, v, dom) is None
    # a zero-pattern mismatch: zero out a nonzero entry, or fill a zero one
    holed = [lam * x for x in v]
    holed[i] = dom.zero() if v[i] else dom.one()
    assert proj_ratio(holed, v, dom) is None


@pytest.mark.parametrize("name", sorted(SCALARS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_proj_ratio_zero_vectors_give_none(name, data):
    dom, v, _ = data.draw(_vectors(name))
    zeros = [dom.zero()] * len(v)
    assert proj_ratio(zeros, zeros, dom) is None
    assert proj_ratio(zeros, v, dom) is None
    assert proj_ratio(v, zeros, dom) is None


def test_proj_ratio_divides_in_the_domain():
    lam = proj_ratio([1, 2, 0], [2, 4, 0], QQ)
    assert lam == Fraction(1, 2) and isinstance(lam, Fraction)
    with pytest.raises(ValueError):
        proj_ratio([1, 2], [1, 2, 3], QQ)
    with pytest.raises(UnsupportedDomainError):
        proj_ratio([1.0], [1.0], CC)


def _matrix_pair(data, scalar, dom):
    """A matrix b and a = lam b, with one entry of a bumped half the time."""
    nr, nc = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    b = [[data.draw(scalar) for _ in range(nc)] for _ in range(nr)]
    lam = data.draw(scalar)
    a = [[lam * x for x in row] for row in b]
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, nr - 1)), data.draw(st.integers(0, nc - 1))
        a[i][j] = a[i][j] + dom.one()
    return a, b


def _row_forms(rows, dom):
    """Each row as a form in one variable, its entries the coefficients."""
    return [SparsePoly(1, dom, {(k,): x for k, x in enumerate(row)}) for row in rows]


@pytest.mark.parametrize("name", sorted(SCALARS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_proj_ratio_reads_rows_matrices_arrays_and_forms(name, data):
    dom, scalar = SCALARS[name]
    a, b = _matrix_pair(data, scalar, dom)
    flat = proj_ratio([x for r in a for x in r], [x for r in b for x in r], dom)
    assert proj_ratio(a, b, dom) == flat
    assert proj_ratio(Matrix(a), Matrix(b), dom) == flat
    assert proj_ratio(Matrix(a), b, dom) == flat
    assert proj_ratio([Matrix(a), Matrix(a)], [Matrix(b), Matrix(b)], dom) == flat
    # forms pair up over the union of their supports, so entries that are
    # zero on both sides drop out and the ratio is unchanged
    assert proj_ratio(_row_forms(a, dom), _row_forms(b, dom), dom) == flat
    assert proj_ratio([Matrix([_row_forms(a, dom)])],
                      [Matrix([_row_forms(b, dom)])], dom) == flat
    # int64 arrays compare as their Python ints
    ai, bi = _matrix_pair(data, st.integers(-5, 5), QQ)
    flat = proj_ratio([x for r in ai for x in r], [x for r in bi for x in r], dom)
    arrays = np.array(ai, dtype=np.int64), np.array(bi, dtype=np.int64)
    assert proj_ratio(*arrays, dom) == flat
    assert proj_ratio(list(arrays[0]), list(arrays[1]), dom) == flat


def test_proj_ratio_stops_at_the_first_mismatch():
    def then_raise(items):
        yield from items
        raise AssertionError("read past the first mismatch")

    assert proj_ratio([1, 3, 5, 7], then_raise([1, 2]), QQ) is None
    assert proj_ratio([[1, 3], [5]], then_raise([[1, 2]]), QQ) is None
    m = Matrix([[1, 2], [3, 4]])
    assert proj_ratio([m.map(lambda x: 2 * x), m],
                      then_raise([m.map(lambda x: x + 1)]), QQ) is None
    x = SparsePoly.variable(0, 2, QQ)
    assert proj_ratio([x, x], then_raise([2 * x + 1]), QQ) is None


@pytest.mark.parametrize("name", sorted(SCALARS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_proj_distance_is_exact_or_chordal(name, data):
    dom, scalar = SCALARS[name]
    a, b = _matrix_pair(data, scalar, dom)
    d = proj_distance(a, b, dom)
    assert d == (1.0 if proj_ratio(a, b, dom) is None else 0.0)
    assert same_point(Matrix(a), Matrix(b), dom) == (d == 0.0)
    ai, bi = _matrix_pair(data, st.integers(-5, 5), QQ)
    u = [[complex(x, 1 - x) for x in r] for r in ai]
    v = [[complex(x, 1 - x) for x in r] for r in bi]
    flat_u, flat_v = [x for r in u for x in r], [x for r in v for x in r]
    assert proj_distance(u, v, CC) == chordal_distance(flat_u, flat_v)
    assert proj_distance(np.array(u), Matrix(v), CC) == chordal_distance(flat_u, flat_v)
    assert proj_distance(_row_forms(u, CC), _row_forms(v, CC), CC) \
        == chordal_distance(flat_u, flat_v)


def test_proj_distance_of_zero_vectors():
    zeros, v = [0, 0, 0], [1, 2, 3]
    for dom in (QQ, GF(101), QW):
        assert proj_ratio(zeros, v, dom) is None
        assert proj_distance(zeros, v, dom) == 1.0
        assert proj_distance(zeros, zeros, dom) == 1.0
        assert not same_point(zeros, zeros, dom)
    with pytest.raises(ValueError, match="zero vector"):
        proj_distance([0j, 0j], [1j, 2j], CC)


@pytest.mark.parametrize("dom", [QQ, GF(101), QW, CC])
def test_all_distinct_sees_a_scaled_copy(dom):
    pts = [[dom.from_int(k) for k in v] for v in ([1, 0, 2], [0, 1, 1], [1, 1, 0])]
    assert all_distinct(pts, dom)
    scale = dom.from_int(3)
    assert not all_distinct(pts + [[scale * x for x in pts[1]]], dom)
    if dom is CC:
        assert not all_distinct(pts + [[1j * x for x in pts[2]]], dom)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=4)))
def test_complex_rank_agrees_with_exact_rank(rows):
    exact = rank(frac_rows(rows), QQ)
    assert rank([[complex(x) for x in r] for r in rows], CC) == exact
    assert rank(Matrix([[complex(x, x) for x in r] for r in rows]), CC) == exact
