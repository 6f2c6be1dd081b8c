import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import weddle.burkhardt as burkhardt
import weddle.linalg as linalg
from weddle.burkhardt import (_base_locus_quadratic_ext,
                              _fp2_tables, _nonresidue, _sample_steinerian_points,
                              burkhardt_vanishes_symbolically,
                              count_base_locus_ff, count_fibers_ff,
                              derive_burkhardt, derive_burkhardt_exact,
                              hessian_determinant_degree, hessian_match,
                              matrix_minus, matrix_plus, quadrics_f,
                              rational_reconstruct, steinerian_minus,
                              steinerian_plus, steinerian_quartics,
                              translate_poly, j_poly)
from weddle.fields import GF, QQ
from weddle.heisenberg import idx2
from weddle.linalg import (ResourceCapError, det_ring, eval_polys, mat_vec,
                           nullspace, proj_points_mod_p, proj_ratio)
from weddle.poly import SparsePoly

from oracles import det_bareiss

rng = random.Random(0)


def test_quadrics_f_monomial_case():
    fs = quadrics_f([1, 0, 0, 0, 0], QQ)
    f0 = fs[0]
    assert f0.terms == {(2, 0, 0, 0, 0, 0, 0, 0, 0): Fraction(1)}
    # f_a = X_a^2
    for a0 in range(3):
        for a1 in range(3):
            f = fs[a0 * 3 + a1]
            exp = [0] * 9
            exp[idx2((a0, a1))] = 2
            assert f.terms == {tuple(exp): Fraction(1)}


def test_translation_action_reproduces_the_system():
    r = [Fraction(x) for x in (2, -1, 3, 5, -4)]
    fs = quadrics_f(r, QQ)
    f0 = fs[0]
    for a0 in range(3):
        for a1 in range(3):
            assert translate_poly(f0, (a0, a1)) == fs[a0 * 3 + a1]


def test_j_symmetry_of_the_system():
    r = [Fraction(x) for x in (2, -1, 3, 5, -4)]
    fs = quadrics_f(r, QQ)
    assert j_poly(fs[0]) == fs[0]
    for a0 in range(3):
        for a1 in range(3):
            neg = ((-a0) % 3, (-a1) % 3)
            assert j_poly(fs[a0 * 3 + a1]) == fs[neg[0] * 3 + neg[1]]


def test_matrix_shapes():
    Mp = matrix_plus()
    Mm = matrix_minus()
    assert all(Mp[i][j] == Mp[j][i] for i in range(5) for j in range(5))
    assert all((Mm[i][j] + Mm[j][i]).is_zero() for i in range(5) for j in range(5))
    assert det_ring(Mm).is_zero()
    # every entry is a single monomial
    for i in range(5):
        for j in range(5):
            assert len(Mp[i][j].terms) <= 1
            assert len(Mm[i][j].terms) <= 1


def test_matrix_reconciliation_with_classical_pattern():
    """The classical prints carry inconsistent pair-count conventions; our
    matrices reconcile with them by the diagonal congruence diag(1,2,2,2,2)
    (symmetric case) and a global factor 2 (skew case), with no index
    permutation.  Both reconciliations are computed here, not assumed."""
    d = [1, 2, 2, 2, 2]
    # classical symmetric pattern: monomial support by index pairs
    ref_plus = [
        ["Y0^2", "Y1^2", "Y2^2", "Y3^2", "Y4^2"],
        ["Y1^2", "Y0Y1", "Y3Y4", "Y2Y4", "Y2Y3"],
        ["Y2^2", "Y3Y4", "Y0Y2", "Y1Y4", "Y1Y3"],
        ["Y3^2", "Y2Y4", "Y1Y4", "Y0Y3", "Y1Y2"],
        ["Y4^2", "Y2Y3", "Y1Y3", "Y1Y2", "Y0Y4"],
    ]

    def mono(tag):
        exp = [0] * 5
        if "^2" in tag:
            exp[int(tag[1])] = 2
        else:
            exp[int(tag[1])] += 1
            exp[int(tag[3])] += 1
        return tuple(exp)

    Mp = matrix_plus()
    for i in range(5):
        for j in range(5):
            entry = Mp[i][j]
            assert set(entry.terms) == {mono(ref_plus[i][j])}
            assert entry.terms[mono(ref_plus[i][j])] == d[i] * d[j]
    # classical skew pattern (rows after the first double the pair terms)
    ref_minus_coeff = [
        [0, -1, -1, -1, -1],
        [1, 0, -2, -2, -2],
        [1, 2, 0, 2, -2],
        [1, 2, -2, 0, 2],
        [1, 2, 2, -2, 0],
    ]
    Mm = matrix_minus()
    ones = [Fraction(1)] * 4
    for i in range(5):
        for j in range(5):
            val = Mm[i][j].evaluate(ones)
            assert val == 2 * ref_minus_coeff[i][j]


def test_steinerian_quartics():
    qs = steinerian_quartics()
    assert all(q.total_degree() == 4 for q in qs)
    prods = mat_vec(matrix_minus(), qs)
    assert all(p.is_zero() for p in prods)
    # first coordinate is a multiple of the product of the variables
    q0 = qs[0]
    assert set(q0.terms) == {(1, 1, 1, 1)}


def test_kernel_at_ones():
    r = steinerian_minus([1, 1, 1, 1], QQ)
    scale = r[2]
    assert [x / scale for x in r] == [Fraction(v) for v in (6, -3, 1, 1, 1)]


def test_kernel_matches_elimination_oracle():
    Mm = matrix_minus()
    for _ in range(10):
        z = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        r = steinerian_minus(z, QQ)
        if r is None:
            continue
        vals = [[Mm[i][j].evaluate(z) for j in range(5)] for i in range(5)]
        basis = nullspace(vals, QQ, method="naive")
        assert len(basis) == 1
        v = basis[0]
        k = next(i for i in range(5) if r[i] != 0)
        assert all(v[i] * r[k] == v[k] * r[i] for i in range(5))


def test_base_point_signal():
    dom = GF(7)
    found = None
    for x0 in range(7):
        for x1 in range(7):
            for x2 in range(7):
                z = [dom.from_int(1), dom.from_int(x0), dom.from_int(x1),
                     dom.from_int(x2)]
                if steinerian_minus(z, dom) is None:
                    found = z
                    break
            if found:
                break
        if found:
            break
    assert found is not None


def test_derive_burkhardt_mod_p():
    d = derive_burkhardt(GF(101), random.Random(7))
    assert d.nullity == 1
    assert d.quartic.total_degree() == 4


def test_derive_burkhardt_exact_needs_a_unique_quartic(monkeypatch):
    monkeypatch.setattr(burkhardt, "derive_burkhardt",
                        lambda dom, rng: burkhardt.BurkhardtDerivation(None, 3))
    with pytest.raises(RuntimeError, match="nullity 3 over F_101"):
        derive_burkhardt_exact(random.Random(0))


def test_derive_burkhardt_exact_and_certified():
    exact = derive_burkhardt_exact(random.Random(11))
    assert exact.certified
    B = exact.quartic
    assert burkhardt_vanishes_symbolically(B)
    # interpolation nullity over Q is exactly 1: the mod-p nullity is 1 and
    # a nonzero rational quartic exists, so 1 bounds it from both sides
    d101 = derive_burkhardt(GF(101), random.Random(3))
    red = {e: (c.numerator * pow(c.denominator, -1, 101)) % 101
           for e, c in B.terms.items()}
    assert red == {e: c.val for e, c in d101.quartic.terms.items()}


def test_burkhardt_vanishes_on_fresh_points():
    B = derive_burkhardt_exact(random.Random(11)).quartic
    count = 0
    while count < 50:
        z = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        r = steinerian_minus(z, QQ)
        if r is None:
            continue
        assert B.evaluate(r) == 0
        count += 1


def test_rational_reconstruction():
    m = 101 * 103 * 109
    for val in (Fraction(3, 7), Fraction(-48), Fraction(22, 5)):
        c = (val.numerator * pow(val.denominator, -1, m)) % m
        assert rational_reconstruct(c, m) == val


def _brute_force_hessian_matches(B):
    """Every one of the 1,920 signed permutations, each applied to the whole
    quadric matrix by substitution: the oracle for the support filter of
    hessian_match."""
    flat_h = [x for r in B.hessian() for x in r]
    M = matrix_plus()
    out = []
    for perm in permutations(range(5)):
        for signbits in product((1, -1), repeat=4):
            signs = (1,) + signbits
            # Y_{perm(k)} -> s_k Y_k
            forms = [None] * 5
            for k, pk in enumerate(perm):
                forms[pk] = SparsePoly.variable(k, 5, QQ).scale(Fraction(signs[k]))
            cand = [M[pi][pj].substitute_linear(forms).scale(Fraction(si * sj))
                    for pi, si in zip(perm, signs) for pj, sj in zip(perm, signs)]
            c = proj_ratio(flat_h, cand, QQ)
            if c is not None:
                out.append((c, perm, signs))
    return out


def test_hessian_match():
    B = derive_burkhardt_exact(random.Random(11)).quartic
    matches = hessian_match(B)
    assert [(m.scalar, m.permutation, m.signs) for m in matches] \
        == _brute_force_hessian_matches(B)
    assert len(matches) == 24
    assert len({m.scalar for m in matches}) == 1
    assert any(m.permutation == (0, 1, 2, 3, 4) and m.signs == (1,) * 5
               for m in matches)
    assert hessian_determinant_degree(B) == 10
    # Hessian entries are quadrics
    H = B.hessian()
    assert all(H[i][j].total_degree() in (-1, 2)
               for i in range(5) for j in range(5))


def test_steinerian_plus_generic_and_degenerate():
    dom = GF(101)
    r = random.Random(1)
    status, _ = steinerian_plus([dom.random(r) for _ in range(5)], dom)
    assert status == "rank"
    # find a point on the degeneracy hypersurface along random pencils
    Mp = matrix_plus()
    hit = None
    for _ in range(10):
        y0 = [dom.random(r) for _ in range(5)]
        y1 = [dom.random(r) for _ in range(5)]
        for t in range(101):
            y = [a + dom.from_int(t) * b for a, b in zip(y0, y1)]
            vals = [[Mp[i][j].evaluate(y) for j in range(5)]
                    for i in range(5)]
            if det_bareiss(vals, dom) == 0:
                hit = y
                break
        if hit:
            break
    assert hit is not None
    status, kern = steinerian_plus(hit, dom)
    assert status == "kernel"
    assert len(kern) == 5


def _all_points(q):
    """Every point of P^3(F_q) in one array."""
    return np.concatenate(list(proj_points_mod_p(q, 3)))


def _fiber_histogram_reference(p):
    """Fiber sizes by np.unique over whole rows, each image point scaled to
    first nonzero coordinate 1 with Python's modular inverse."""
    vals = eval_polys(steinerian_quartics(), _all_points(p), GF(p))
    img = vals[(vals != 0).any(axis=1)]
    first = img[np.arange(len(img)), np.argmax(img != 0, axis=1)]
    inv = np.array([pow(int(x), -1, p) for x in first], dtype=np.int64)
    _, counts = np.unique(img * inv[:, None] % p, axis=0, return_counts=True)
    sizes, mult = np.unique(counts, return_counts=True)
    return {int(k): int(v) for k, v in zip(sizes, mult)}


def _base_locus_all_quartics(p):
    """Points of P^3(F_{p^2}) where all five quartics vanish, each quartic
    evaluated on every point; F_{p^2} = F_p[s]/(s^2 - d), the integer i read
    as (i mod p) + (i div p) s."""
    d = _nonresidue(p)
    pts = _all_points(p * p)
    re, im = pts % p, pts // p
    zero = np.ones(len(pts), dtype=bool)
    for quartic in steinerian_quartics():
        acc_re = np.zeros(len(pts), dtype=np.int64)
        acc_im = np.zeros(len(pts), dtype=np.int64)
        for exp, c in quartic.terms.items():
            t_re = np.full(len(pts), int(c) % p, dtype=np.int64)
            t_im = np.zeros(len(pts), dtype=np.int64)
            for v, e in enumerate(exp):
                for _ in range(e):
                    t_re, t_im = ((t_re * re[:, v] + d * t_im * im[:, v]) % p,
                                  (t_re * im[:, v] + t_im * re[:, v]) % p)
            acc_re, acc_im = (acc_re + t_re) % p, (acc_im + t_im) % p
        zero &= (acc_re == 0) & (acc_im == 0)
    return int(zero.sum())


def test_fiber_histogram_and_base_locus():
    res = count_fibers_ff(31)
    assert res["points"] == 31 ** 3 + 31 ** 2 + 31 + 1
    assert res["base_points"] == 40
    assert sum(k * v for k, v in res["fiber_histogram"].items()) \
        == res["points"] - res["base_points"]
    assert count_base_locus_ff(31, 1) == 40
    assert count_base_locus_ff(7, 2) == 40


@pytest.mark.parametrize("p", [7, 31])
def test_fiber_histogram_matches_row_unique(p):
    assert count_fibers_ff(p)["fiber_histogram"] == _fiber_histogram_reference(p)


def test_base_locus_filter_matches_all_quartics():
    assert _base_locus_quadratic_ext(7) == _base_locus_all_quartics(7) == 40


def test_streamed_counts_do_not_depend_on_the_block(monkeypatch):
    # 64-point blocks: P^3(F_31) in 481 of them, P^3(F_49) in 1,877
    monkeypatch.setattr(linalg, "STATE_BLOCK", 64)
    res = count_fibers_ff(31)
    assert res["fiber_histogram"] == _fiber_histogram_reference(31)
    assert (res["points"], res["base_points"]) == (31 ** 3 + 31 ** 2 + 31 + 1, 40)
    assert _base_locus_quadratic_ext(7) == _base_locus_all_quartics(7) == 40


def test_streamed_counts_prepare_the_forms_once(monkeypatch):
    # many blocks, one prepare_polys per count
    monkeypatch.setattr(linalg, "STATE_BLOCK", 64)
    histogram = _fiber_histogram_reference(31)
    calls = []
    prepare = linalg.prepare_polys

    def counted(*args):
        calls.append(len(args[0]))
        return prepare(*args)

    monkeypatch.setattr(linalg, "prepare_polys", counted)
    monkeypatch.setattr(burkhardt, "prepare_polys", counted)
    assert count_fibers_ff(31)["fiber_histogram"] == histogram
    assert count_base_locus_ff(7) == 40
    assert calls == [5, 5]


def _base_locus_fmul(p: int) -> int:
    """The count over F_{p^2} as it was before the element tables: (a, b)
    pairs of arrays and one fmul per product."""
    d = _nonresidue(p)
    # entries are below p^2 <= 40000; int32 halves the coordinate arrays
    pts = _all_points(p * p).astype(np.int32)
    coords = [(pts[:, v] % p, pts[:, v] // p) for v in range(4)]
    n = pts.shape[0]
    del pts

    def fmul(x, y):
        return ((x[0] * y[0] + d * (x[1] * y[1])) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    # a point leaves as soon as one quartic is nonzero there; the first
    # quartic is a monomial, so most points leave after it
    for quartic in steinerian_quartics():
        acc = (np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
        for exp, c in quartic.terms.items():
            term = (np.full(n, int(c) % p, dtype=np.int64),
                    np.zeros(n, dtype=np.int64))
            for v, e in enumerate(exp):
                for _ in range(e):
                    term = fmul(term, coords[v])
            acc = ((acc[0] + term[0]) % p, (acc[1] + term[1]) % p)
        zero = (acc[0] == 0) & (acc[1] == 0)
        coords = [(a[zero], b[zero]) for a, b in coords]
        n = int(zero.sum())
    return n


def test_table_count_matches_fmul_count():
    assert _base_locus_quadratic_ext(7) == _base_locus_fmul(7) == 40


@pytest.mark.parametrize("p", [7, 13, 31])
def test_fp2_tables_follow_the_formulas(p):
    # the code a + b p is a + b s with s^2 = d; checked on every pair at
    # p = 7 and on a sample of pairs above, plus the field axioms
    mul, add = _fp2_tables(p)
    d, q = _nonresidue(p), p * p
    assert mul.shape == add.shape == (q, q)
    local = random.Random(p)
    pairs = (product(range(q), repeat=2) if p == 7 else
             [(local.randrange(q), local.randrange(q)) for _ in range(3000)])
    for x, y in pairs:
        a, b, c, e = x % p, x // p, y % p, y // p
        assert mul[x, y] == (a * c + d * b * e) % p + p * ((a * e + b * c) % p)
        assert add[x, y] == (a + c) % p + p * ((b + e) % p)
    assert (mul == mul.T).all() and (add == add.T).all()
    assert (mul[1] == np.arange(q)).all() and (mul[0] == 0).all()
    assert (add[0] == np.arange(q)).all()
    assert mul[p, p] == d  # s^2 = d
    # every nonzero element is invertible: its row is a permutation
    assert (np.sort(mul[1:], axis=1) == np.arange(q)).all()


def test_fp2_tables_are_not_built_above_the_cap(monkeypatch):
    built = []
    monkeypatch.setattr(burkhardt, "_fp2_tables", lambda p: built.append(p))
    with pytest.raises(ResourceCapError):
        count_base_locus_ff(13, 2)
    assert built == []


def _scalar_steinerian_sample(domain, rng, count):
    """One z at a time through steinerian_minus; the kept points as
    residues and the number of z drawn."""
    pts, draws = [], 0
    while len(pts) < count:
        draws += 1
        if draws > 50 * count:
            raise RuntimeError("sampling starved")
        r = steinerian_minus([domain.random(rng) for _ in range(4)], domain)
        if r is not None:
            pts.append([x.val for x in r])
    return pts, draws


@pytest.mark.parametrize("p, count", [(7, 60), (101, 160)])
def test_batched_sampler_matches_scalar_loop(p, count):
    dom = GF(p)
    for seed in range(3):
        rng_ref, rng = random.Random(seed), random.Random(seed)
        ref, draws = _scalar_steinerian_sample(dom, rng_ref, count)
        assert _sample_steinerian_points(dom, rng, count).tolist() == ref
        assert rng.getstate() == rng_ref.getstate()
        if p == 7:
            # base points and the zero vector were drawn and dropped
            assert draws > count


def test_sampler_starves_over_f2():
    with pytest.raises(ValueError, match="sampling starved.* over Fp:2"):
        _sample_steinerian_points(GF(2), random.Random(0), 200)


def test_enumeration_caps():
    with pytest.raises(ResourceCapError):
        count_base_locus_ff(13, 2)
    with pytest.raises(Exception):
        count_fibers_ff(5)  # 5 is not 1 mod 3
    # P^3(F_139) has 2,705,080 points, P^3(F_127) 2,064,640 <= STATE_CAP
    for count in (count_fibers_ff, count_base_locus_ff):
        with pytest.raises(ResourceCapError):
            count(139)


def test_fiber_of_ones_contains_itself():
    dom = GF(31)
    r = steinerian_minus([1, 1, 1, 1], dom)
    assert r is not None


def test_adjugate_is_kernel_outer_product():
    from weddle.linalg import adjugate
    Mm = matrix_minus()
    checked = 0
    while checked < 20:
        z = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        rv = steinerian_minus(z, QQ)
        if rv is None:
            continue
        ev = [[Mm[i][j].evaluate(z) for j in range(5)] for i in range(5)]
        adj = adjugate(ev)
        lam = None
        for i in range(5):
            for j in range(5):
                b = rv[i] * rv[j]
                if b != 0:
                    l2 = Fraction(adj[i][j]) / b
                    if lam is None:
                        lam = l2
                    assert l2 == lam
                else:
                    assert adj[i][j] == 0
        assert lam != 0
        checked += 1


def test_burkhardt_invariance_under_even_action():
    from weddle.fields import Cyc, QW
    from weddle.heisenberg import (standard_sp4_generators,
                                   upsilon_plus_substitution)
    B = derive_burkhardt_exact(random.Random(11)).quartic
    BQW = B.map_coefficients(QW, lambda c: Cyc(c))
    for M in standard_sp4_generators():
        moved = BQW.substitute_linear(upsilon_plus_substitution(M))
        assert set(moved.terms) == set(BQW.terms)
        ratio = None
        for e in moved.terms:
            r = moved.terms[e] / BQW.terms[e]
            ratio = r if ratio is None else ratio
            assert r == ratio
