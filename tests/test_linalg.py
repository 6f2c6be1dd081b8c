import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weddle.fields import CC, GF, QQ, QW, Cyc, Fp
from weddle.linalg import (Matrix, ShapeError, UnsupportedDomainError,
                           adjugate, det_bareiss, det_ring, eval_poly_mod_p,
                           fit_hypersurface, nullspace, nullspace_complex,
                           nullspace_mod_p, pfaffian, proj_points_mod_p,
                           proj_ratio, rank, rref_bareiss, rref_mod_p,
                           rref_naive, sub_pfaffian_kernel)
from weddle.poly import SparsePoly

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
    for _ in range(100):
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(6)]
        r1, p1 = rref_naive(rows, QQ)
        r2, p2 = rref_bareiss(rows, QQ)
        assert p1 == p2
        assert r1 == r2


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


def test_complex_nullspace_threshold():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-10]])
    basis, thr = nullspace_complex(a, rel_threshold=1e-8)
    assert len(basis) == 1
    assert max(abs(a @ basis[0])) < 1e-9
    basis_tight, _ = nullspace_complex(a, rel_threshold=1e-12)
    assert len(basis_tight) == 0


def test_nullspace_mod_p_matches_exact():
    rng = random.Random(9)
    dom = GF(31)
    full = [[rng.randrange(31) for _ in range(6)] for _ in range(4)]
    # rank 3: column 1 is zero, column 3 is 2*col0 + col2, and row 3 is
    # row0 + 5*row1, so the pivots skip columns 1 and 3
    deficient = [[rng.randrange(31) for _ in range(7)] for _ in range(3)]
    for r in deficient:
        r[1] = 0
        r[3] = (2 * r[0] + r[2]) % 31
    deficient.append([(a + 5 * b) % 31 for a, b in zip(deficient[0], deficient[1])])
    assert rref_mod_p(np.array(deficient), 31)[1] == [0, 2, 4]
    for rows in (full, deficient):
        fast = nullspace_mod_p(np.array(rows), 31)
        exact = nullspace([[dom.coerce(x) for x in r] for r in rows], dom)
        assert len(fast) == len(exact)
        for vf, ve in zip(fast, exact):
            assert [int(x) for x in vf] == [x.val for x in ve]


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
        eval_poly_mod_p([x * x], np.ones((1, 2), dtype=np.int64), p)


# p = 1753413037 takes only 3 unreduced updates of (p - 1)^2 in int64, so
# the trailing block is reduced mid-elimination on every matrix of rank >= 4
P_THREE_UPDATES = 1753413037
# unit upper triangular with -1 above the diagonal: without those reductions
# its entries would fall to about -2.7 * 2^63 at that prime
UPPER_MINUS_ONES = [[1 if j == i else (P_THREE_UPDATES - 1 if j > i else 0)
                     for j in range(10)] for i in range(9)]


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
    fast, fast_piv = rref_mod_p(np.array(rows, dtype=np.int64), p)
    exact, exact_piv = rref_bareiss([[dom.coerce(x) for x in r] for r in rows], dom)
    assert fast_piv == exact_piv
    assert fast.dtype == np.int64
    assert fast.tolist() == [[x.val for x in r] for r in exact]


NV = 3
COEFFS = st.one_of(st.integers(-50, 50),
                   st.fractions(-5, 5, max_denominator=7)).filter(bool)


@st.composite
def _poly_lists(draw):
    """Non-zero polynomials over Q that either all share one monomial or
    have pairwise disjoint monomial sets."""
    mons = draw(st.lists(st.tuples(*[st.integers(0, 3)] * NV),
                         min_size=1, max_size=12, unique=True))
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        supports = [[mons[0]] + draw(st.lists(st.sampled_from(mons), unique=True))
                    for _ in range(k)]
    else:
        supports = [mons[j::k] for j in range(min(k, len(mons)))]
    return [SparsePoly(NV, QQ, {e: draw(COEFFS) for e in sup}) for sup in supports]


@settings(max_examples=80, deadline=None)
@given(polys=_poly_lists(), p=st.sampled_from([31, 101, P_INT64_MAX]), data=st.data())
def test_eval_poly_mod_p_agrees_with_scalar_evaluation(polys, p, data):
    pts = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=NV, max_size=NV),
                             min_size=1, max_size=6))
    vals = eval_poly_mod_p(polys, np.array(pts, dtype=np.int64), p)
    assert vals.shape == (len(pts), len(polys))
    dom = GF(p)
    for i, pt in enumerate(pts):
        for j, f in enumerate(polys):
            # coerce: a constant polynomial evaluates to its rational constant
            assert vals[i, j] == dom.coerce(f.evaluate([Fp(x, p) for x in pt])).val


def test_proj_points_census():
    for p, dim in ((5, 3), (7, 2)):
        pts = proj_points_mod_p(p, dim)
        expect = sum(p ** k for k in range(dim + 1))
        assert pts.shape == (expect, dim + 1)
        assert len({tuple(r) for r in pts.tolist()}) == expect


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


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=4)))
def test_complex_rank_agrees_with_exact_rank(rows):
    exact = rank(frac_rows(rows), QQ)
    assert rank([[complex(x) for x in r] for r in rows], CC) == exact
    assert rank(Matrix([[complex(x, x) for x in r] for r in rows]), CC) == exact
