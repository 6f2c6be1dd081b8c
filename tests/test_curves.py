import cmath
import random

import numpy as np
import pytest

import weddle.curves as curves
from weddle.curves import (BaseLocusPoint, CurvePoint, DegenerateConfiguration,
                           DegenerateSecant, GenusTwoCurve, five_line_points,
                           hyperplane_section_degree, kummer_fit,
                           lines_in_hypersurface, phi, phi_constant_on_secant,
                           plane_through, quadric_restriction_check,
                           quadrics_through_curve, sec_octic,
                           secant_point, sample_secant_points, singular_residual,
                           symmetroid, tricanonical, twenty_five_lines,
                           web_of_quadrics, weddle_prime_fit, weierstrass_images,
                           weierstrass_tangent_sample)
from weddle.fields import CC, GF, QQ, ComplexField, Domain
from weddle.heisenberg import plus_minus_components
from weddle.linalg import (count_common_zeros_mod_p, mat_vec, nullspace, proj_ratio,
                           rref_bareiss)
from weddle.poly import SparsePoly, exponents_of_degree
from weddle.symplectic import BASE_ODD
from weddle.theta import OMEGA_GENERIC, half_period_census, weddle_from_theta

P = 101
DOM = GF(P)


@pytest.fixture(scope="module")
def curve():
    return GenusTwoCurve(DOM, roots=[0, 1, 2, 3, 4, 5])


@pytest.fixture(scope="module")
def weddle(curve):
    return weddle_prime_fit(curve, random.Random(0))


def test_curve_validation():
    with pytest.raises(ValueError):
        GenusTwoCurve(DOM, roots=[0, 1, 2, 3, 4, 4])  # repeated root
    with pytest.raises(ValueError):
        GenusTwoCurve(DOM, coeffs=[1, 0, 0, 0, 0, 0, 0])  # constant leading 0... degree ok but f = 1? actually fine
    GenusTwoCurve(QQ, roots=[0, 1, 2, 3, 4, 5])


def test_point_on_curve_validation(curve):
    w = curve.weierstrass_points()[2]
    assert w.is_weierstrass
    with pytest.raises(ValueError):
        curve.point(6, 1)  # f(6) = 720, 1 is not its square root


def test_tricanonical_weierstrass_fixed(curve):
    for w in curve.weierstrass_points():
        v = tricanonical(w, DOM)
        x = w.x
        assert v == (DOM.one(), x, x * x, x * x * x, DOM.zero())
        lam = curve.involution(w)
        assert tricanonical(lam, DOM) == v


def test_tricanonical_involution_flips_last(curve):
    for _ in range(20):
        p = curve.sample_point(random.Random(1))
        v = tricanonical(p, DOM)
        vl = tricanonical(curve.involution(p), DOM)
        assert vl[:4] == v[:4] and vl[4] == -v[4]


def _sample_point_fp(curve, rng):
    """sample_point's earlier loop over Fp objects, the oracle for the
    integer loop that replaced it."""
    dom = curve.domain
    while True:
        x = dom.random(rng)
        v = curve.f(x)
        if pow(v.val, (dom.p - 1) // 2, dom.p) != 1:
            continue
        y = dom.sqrt(v)
        if rng.random() < 0.5:
            y = -y
        return CurvePoint(x, y)


@pytest.mark.parametrize("p", [29, 101, 1000003])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_point_draws_match_the_fp_loop(p, seed):
    dom = GF(p)
    for c in (GenusTwoCurve(dom, roots=[0, 1, 2, 3, 4, 5]),
              GenusTwoCurve(dom, coeffs=[3, 1, 4, 1, 5, 9, 2])):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(40):
            got, want = c.sample_point(fast), _sample_point_fp(c, slow)
            assert (got.x, got.y) == (want.x, want.y)
            assert isinstance(got.x, type(want.x))
            assert c.point(got.x, got.y) == got
        assert fast.getstate() == slow.getstate()


def _sample_point_cc(curve, rng):
    """sample_point's earlier loop over CC, the oracle for sample_rows."""
    x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    y = cmath.sqrt(complex(curve.f(x)))
    if rng.random() < 0.5:
        y = -y
    return CurvePoint(x, y)


def _rand_param_old(rng, dom):
    """The earlier scalar parameter draw: a non-zero residue, or a complex
    number in the unit square."""
    if dom is CC:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    while True:
        v = rng.randrange(dom.p)
        if v:
            return dom.from_int(v)


def _old_point(curve, rng):
    dom = curve.domain
    point = _sample_point_cc if dom is CC else _sample_point_fp
    return tricanonical(point(curve, rng), dom)


def _plain(rows):
    """Rows of Fp objects or residues as nested lists of ints; complex rows
    as nested lists of complex."""
    rows = np.asarray(rows, dtype=object).tolist()
    return [[x if isinstance(x, complex) else int(getattr(x, "val", x)) for x in r]
            for r in rows]


@pytest.mark.parametrize("dom", [GF(29), GF(101), GF(1000003), CC], ids=str)
@pytest.mark.parametrize("points, params", [(1, 0), (2, 0), (2, 2)])
def test_sample_rows_draws_match_the_object_loop(dom, points, params):
    for c in (GenusTwoCurve(dom, roots=[0, 1, 2, 3, 4, 5]),
              GenusTwoCurve(dom, coeffs=[3, 1, 4, 1, 5, 9, 2])):
        fast, slow = random.Random(points + params), random.Random(points + params)
        got = c.sample_rows(fast, 30, points=points, params=params)
        want = [[] for _ in range(points + params)]
        for _ in range(30):
            for k in range(points):
                want[k].append(_old_point(c, slow))
            for k in range(params):
                want[points + k].append(_rand_param_old(slow, dom))
        assert len(got) == points + params
        for g, w in zip(got[:points], want[:points]):
            assert g.shape == (30, 5)
            assert g.dtype == (complex if dom is CC else np.int64)
            assert _plain(g) == _plain(w)
        for g, w in zip(got[points:], want[points:]):
            assert _plain(g[:, None]) == _plain([[x] for x in w])
        assert fast.getstate() == slow.getstate()


class _Recorder:
    """Records the points (as ints) of every fit_hypersurface and
    eval_polys call that curves makes."""

    def __init__(self, monkeypatch):
        self.fits, self.evals = [], []
        fit, ev = curves.fit_hypersurface, curves.eval_polys

        def record_fit(points, degree, domain):
            self.fits.append(_plain(points))
            return fit(points, degree, domain)

        def record_eval(polys, points, domain):
            self.evals.append(_plain(points))
            return ev(polys, points, domain)
        monkeypatch.setattr(curves, "fit_hypersurface", record_fit)
        monkeypatch.setattr(curves, "eval_polys", record_eval)


def _old_secant_points(curve, rng, count):
    """sample_secant_points' earlier loop over CurvePoint objects; also
    returns the number of degenerate pairs it skipped."""
    out, skipped = [], 0
    while len(out) < count:
        p, q = _sample_point_fp(curve, rng), _sample_point_fp(curve, rng)
        try:
            out.append(secant_point(p, q, curve.domain))
        except DegenerateSecant:
            skipped += 1
    return out, skipped


@pytest.mark.parametrize("p, seed", [(29, 0), (29, 1), (101, 2), (1000003, 3)])
def test_weddle_secant_points_match_the_object_loop(monkeypatch, p, seed):
    c = GenusTwoCurve(GF(p), roots=[0, 1, 2, 3, 4, 5])
    rec = _Recorder(monkeypatch)
    fast, slow = random.Random(seed), random.Random(seed)
    rep = weddle_prime_fit(c, fast)
    assert rep.fit_nullity == 1 and len(rec.fits) == 2  # secants, then the lines
    want, skipped = _old_secant_points(c, slow, 70)
    assert rec.fits[0] == _plain(want)
    assert fast.getstate() == slow.getstate()
    if p == 29:
        # at p = 29 a pair repeats a point often enough to exercise the redraw
        assert skipped > 0


def test_secant_redraw_keeps_the_draws():
    c = GenusTwoCurve(GF(29), roots=[0, 1, 2, 3, 4, 5])
    for seed in range(5):
        fast, slow = random.Random(seed), random.Random(seed)
        got = sample_secant_points(c, fast, 200)
        want, skipped = _old_secant_points(c, slow, 200)
        assert skipped > 0
        assert _plain(got) == _plain(want)
        assert fast.getstate() == slow.getstate()


def test_kummer_points_match_the_object_loop(monkeypatch, curve):
    real = curves._rand_param

    def often_zero(rng, domain):
        # the same draws, but every fifth value becomes 0: then s P + t Q is
        # a point of the curve (or 0), a base point of phi, and is redrawn
        v = real(rng, domain)
        return 0 if v % 5 == 0 else v
    monkeypatch.setattr(curves, "_rand_param", often_zero)
    rec = _Recorder(monkeypatch)
    fast, slow = random.Random(21), random.Random(21)
    rep = kummer_fit(curve, quadrics_through_curve(curve, fast).forms, fast)
    assert rep.fit_nullity == 1 and len(rec.fits) == 2
    # the object loop: 45 curve points for the quadrics, then the images of
    # random secant points off the base curve
    want_q = [_old_point(curve, slow) for _ in range(45)]
    assert rec.fits[0] == _plain(want_q)
    quadrics = curves.fit_hypersurface(want_q, 2, DOM).forms
    imgs, redrawn = [], 0
    while len(imgs) < 90:
        Pp, Qq = _old_point(curve, slow), _old_point(curve, slow)
        s, t = DOM.coerce(often_zero(slow, DOM)), DOM.coerce(often_zero(slow, DOM))
        v = [s * a + t * b for a, b in zip(Pp, Qq)]
        img = [q.evaluate(v) for q in quadrics]
        if all(DOM.is_zero(x) for x in img):
            redrawn += 1
            continue
        imgs.append(img)
    assert redrawn > 0
    assert rec.fits[1] == _plain(imgs)
    assert fast.getstate() == slow.getstate()


def test_sec_octic_points_match_the_object_loop(monkeypatch, curve, weddle):
    rec = _Recorder(monkeypatch)
    fast, slow = random.Random(22), random.Random(22)
    rep = sec_octic(curve, fast, weddle=weddle.quartic)
    assert rep.fit_nullity == 1

    def pair():
        return _old_point(curve, slow), _old_point(curve, slow)
    want = []
    for _ in range(620):
        Pp, Qq = pair()
        s, t = _rand_param_old(slow, DOM), _rand_param_old(slow, DOM)
        want.append([s * a + t * b for a, b in zip(Pp, Qq)])
    fresh = [[a + DOM.from_int(2) * b for a, b in zip(*pair())] for _ in range(30)]
    on_curve = [_old_point(curve, slow) for _ in range(20)]
    assert rec.fits == [_plain(want)]
    # the fresh points, then the curve points of the singularity test
    assert rec.evals == [_plain(fresh), _plain(on_curve)]
    assert fast.getstate() == slow.getstate()


def test_phi_constant_on_secant_draws_match_the_object_loop(curve):
    fast, slow = random.Random(23), random.Random(23)
    assert phi_constant_on_secant(curve, quadrics_through_curve(curve, fast).forms, fast)
    [_old_point(curve, slow) for _ in range(45 + 20)]
    assert fast.getstate() == slow.getstate()


def restrict_to_line(form: SparsePoly, u, v, domain: Domain) -> SparsePoly:
    """The binary form form(s u + t v)."""
    forms = []
    for k in range(form.nvars):
        terms = {}
        if not domain.is_zero(domain.coerce(u[k])):
            terms[(1, 0)] = domain.coerce(u[k])
        if not domain.is_zero(domain.coerce(v[k])):
            terms[(0, 1)] = domain.coerce(v[k])
        forms.append(SparsePoly(2, domain, terms))
    return form.substitute_linear(forms)


@pytest.mark.parametrize("p", [101, 1000003])
def test_five_point_line_test_matches_the_restriction(p):
    dom = GF(p)
    c = GenusTwoCurve(dom, roots=[0, 1, 2, 3, 4, 5])
    W = weddle_prime_fit(c, random.Random(3)).quartic
    nodes = weierstrass_images(c)
    r = random.Random(p)

    def rand_vec():
        return [dom.random(r) for _ in range(4)]
    lines = twenty_five_lines(nodes, dom)
    # random lines, and lines through one node, lie on no Weddle quartic
    other = ([(rand_vec(), rand_vec()) for _ in range(10)]
             + [(list(nodes[k % 6]), rand_vec()) for k in range(12)])
    # a quartic through the lines in the plane of nodes 0, 1, 2 only
    plane = plane_through(nodes[:3], dom)
    linear = SparsePoly(4, dom, {e: c for e, c in zip(exponents_of_degree(4, 1), plane)})
    cubic = SparsePoly(4, dom, {e: dom.random(r) for e in exponents_of_degree(4, 3)})
    some = linear * cubic
    cases = [(W, lines, [True] * 25), (W, other, [False] * 22), (some, lines, None)]
    for form, ls, expected in cases:
        got = [ok for ok, res in lines_in_hypersurface(form, ls, five_line_points(ls, dom),
                                                       dom)]
        assert got == [restrict_to_line(form, u, v, dom).is_zero() for u, v in ls]
        if expected is not None:
            assert got == expected
    some_flags = [ok for ok, _ in lines_in_hypersurface(
        some, lines, five_line_points(lines, dom), dom)]
    # the three node lines (0,1), (0,2), (1,2) and the line where the plane
    # of nodes 0, 1, 2 meets that of 3, 4, 5
    assert [k for k, ok in enumerate(some_flags) if ok] == [0, 1, 5, 15]
    # a quartic through four of the five points of a line, but not the line:
    # four linear forms, each vanishing at one point u + t v, t = 1..4
    for u, v in other[:5]:
        four = SparsePoly(4, dom, {(0, 0, 0, 0): dom.one()})
        for t in range(1, 5):
            pt = [a + dom.from_int(t) * b for a, b in zip(u, v)]
            basis = nullspace([pt], dom)
            coef = [dom.random(r) for _ in basis]
            normal = [sum((c * x for c, x in zip(coef, col)), dom.zero())
                      for col in zip(*basis)]
            four = four * SparsePoly(4, dom, dict(zip(exponents_of_degree(4, 1), normal)))
        assert not restrict_to_line(four, u, v, dom).is_zero()
        assert lines_in_hypersurface(four, [(u, v)], five_line_points([(u, v)], dom),
                                     dom) == [(False, 0.0)]


def test_five_point_line_test_over_cc():
    rep = weddle_from_theta(OMEGA_GENERIC, BASE_ODD, random.Random(7))
    W = rep.quartic
    lines = twenty_five_lines(rep.nodes, CC)
    pts = five_line_points(lines, CC)
    got = lines_in_hypersurface(W, lines, pts, CC)
    assert len(got) == 25
    assert all(ok and res < 1e-12 for ok, res in got)
    # the largest coefficient off by a relative 1e-3: no line lies on it
    top = max(W.terms, key=lambda e: abs(W.terms[e]))
    bent = SparsePoly(4, CC, {e: c * (1 + 1e-3) if e == top else c
                              for e, c in W.terms.items()})
    assert not any(ok for ok, _ in lines_in_hypersurface(bent, lines, pts, CC))


@pytest.mark.parametrize("dom", [GF(101), CC], ids=["gf101", "cc"])
def test_five_point_line_test_needs_degree_at_most_four(dom):
    lines = twenty_five_lines(weierstrass_images(GenusTwoCurve(
        dom, roots=[0, 1, 2, 3, 4, 5])), dom)
    quintic = SparsePoly(4, dom, {(5, 0, 0, 0): dom.one(), (1, 1, 1, 2): dom.one()})
    with pytest.raises(ValueError, match="up to degree 4"):
        lines_in_hypersurface(quintic, lines, five_line_points(lines, dom), dom)


def test_five_line_points_are_five_points_of_each_line():
    lines = twenty_five_lines(weierstrass_images(GenusTwoCurve(
        DOM, roots=[0, 1, 2, 3, 4, 5])), DOM)
    pts = five_line_points(lines, DOM)
    assert pts.shape == (125, 4) and pts.dtype == np.int64
    for k, (u, v) in enumerate(lines):
        want = [[(a + DOM.from_int(t) * b).val for a, b in zip(u, v)] for t in range(1, 6)]
        assert pts[5 * k:5 * k + 5].tolist() == want


def test_minus_section_vanishes_exactly_at_weierstrass(curve):
    # the last coordinate is y; its zero set on the curve is y = 0
    for x in range(P):
        fx = curve.f(DOM.from_int(x))
        if DOM.is_zero(fx):
            assert any(w.x == DOM.from_int(x) for w in curve.weierstrass_points())


def test_infinity_points(curve):
    plus = CurvePoint(None, None, at_infinity=True, infinity_sign=1)
    v = tricanonical(plus, DOM)
    assert v == (DOM.zero(), DOM.zero(), DOM.zero(), DOM.one(), DOM.one())
    from weddle.curves import ChartError
    with pytest.raises(ChartError):
        tricanonical(CurvePoint(None, None), DOM)


def test_embedding_degree_six(curve):
    assert hyperplane_section_degree(curve, random.Random(2)) == [6] * 5


def test_embedding_degree_counts_the_root_at_infinity(curve):
    # about 2% of hyperplanes at p=101 cut a sextic of affine degree 5 (one
    # section point at infinity); those still have degree 6
    for seed in range(300):
        degrees = hyperplane_section_degree(curve, random.Random(seed))
        assert all(abs(d) == 6 for d in degrees)


def test_secant_factors_through_involution(curve):
    r = random.Random(3)
    for _ in range(100):
        p, q = curve.sample_point(r), curve.sample_point(r)
        try:
            s1 = secant_point(p, q, DOM)
            s2 = secant_point(curve.involution(p), curve.involution(q), DOM)
        except DegenerateSecant:
            continue
        assert proj_ratio(s1, s2, DOM) is not None


def test_secant_orbit_injectivity(curve):
    r = random.Random(4)
    seen = {}
    for _ in range(1000):
        p, q = curve.sample_point(r), curve.sample_point(r)
        try:
            s = secant_point(p, q, DOM)
        except DegenerateSecant:
            continue
        k = next(i for i, x in enumerate(s) if not DOM.is_zero(x))
        inv = DOM.one() / s[k]
        key = tuple((x * inv).val for x in s)
        orbit = frozenset({(p.x.val, p.y.val), (q.x.val, q.y.val),
                           (p.x.val, (-p.y).val), (q.x.val, (-q.y).val)})
        assert seen.get(key, orbit) == orbit
        seen[key] = orbit


def test_secant_degenerate_cases(curve):
    w = curve.weierstrass_points()
    with pytest.raises(DegenerateSecant):
        secant_point(w[0], w[1], DOM)
    p = curve.sample_point(random.Random(5))
    with pytest.raises(DegenerateSecant):
        secant_point(p, p, DOM)


def test_weddle_fit(curve, weddle):
    assert weddle.fit_nullity == 1
    assert weddle.nodes_singular
    assert len(weddle.line_results) == 25
    assert all(ok for ok, _ in weddle.line_results)
    assert weddle.rigidity_nullity == 1
    assert weddle.rigidity_matches
    # fresh secant samples lie on the quartic exactly
    fresh = sample_secant_points(curve, random.Random(6), 20)
    for s in fresh.tolist():
        assert DOM.is_zero(weddle.quartic.evaluate(s))
    # singular at the six branch images, smooth at a fresh point
    assert singular_residual(weddle.quartic, weierstrass_images(curve), DOM) == 0.0
    assert singular_residual(weddle.quartic, fresh[:1], DOM) == 1.0


def test_quadrics_through_curve(curve):
    fit = quadrics_through_curve(curve, random.Random(7))
    assert len(fit.forms) == 4
    for _ in range(20):
        p = curve.sample_point(random.Random(8))
        v = tricanonical(p, DOM)
        for q in fit.forms:
            assert DOM.is_zero(q.evaluate(list(v)))
    restr = quadric_restriction_check(curve, fit.forms)
    assert restr["injective"]
    assert restr["vanish_at_nodes"]
    assert restr["target_dimension"] == 4
    assert restr["same_span"]


def test_web_of_quadrics_needs_general_position():
    # quadrics through a line form a space of dimension 10 - 3
    collinear = [(DOM.one(), DOM.from_int(t), DOM.zero(), DOM.zero()) for t in range(6)]
    with pytest.raises(DegenerateConfiguration):
        web_of_quadrics(collinear, DOM)


def test_plane_through_needs_three_independent_points():
    collinear = [(DOM.one(), DOM.from_int(t), DOM.zero(), DOM.zero()) for t in range(3)]
    with pytest.raises(DegenerateConfiguration):
        plane_through(collinear, DOM)


def test_symmetroid_exact():
    dom = GF(101)
    r = random.Random(8)
    nodes = [[dom.random(r) for _ in range(4)] for _ in range(6)]
    rep = symmetroid(nodes, dom)
    assert rep.quadric_space_dim == 4
    assert len(rep.rank3_points) == 6
    assert len(rep.rank2_points) == 10
    assert rep.gradient_residual == 0.0
    assert count_common_zeros_mod_p(rep.det_quartic.gradient(), 101) == 16


def _theta_side_nodes():
    # the odd parts of the half periods in the odd eigenspace, at max-abs 1
    odd = [np.array(plus_minus_components(row["coords"])[1])
           for row in half_period_census(BASE_ODD, OMEGA_GENERIC) if row["in_minus"]]
    return [list(v / np.abs(v).max()) for v in odd]


def test_symmetroid_floating_from_theta_nodes():
    rep = symmetroid(_theta_side_nodes(), CC)
    assert rep.quadric_space_dim == 4
    assert rep.gradient_residual < 1e-8


def solve_overdetermined(rows, rhs, domain: Domain):
    """One solution t of rows . t = rhs for a consistent system.

    Complex systems use least squares; exact ones eliminate and then
    re-verify every equation exactly."""
    if isinstance(domain, ComplexField):
        a = np.array([[complex(x) for x in r] for r in rows])
        b = np.array([complex(x) for x in rhs])
        return list(np.linalg.lstsq(a, b, rcond=None)[0])
    n = len(rows[0])
    rref, piv = rref_bareiss([list(r) + [v] for r, v in zip(rows, rhs)], domain)
    if n in piv:
        raise RuntimeError("right-hand side is not in the column span")
    sol = [domain.zero()] * n
    for i, c in enumerate(piv):
        sol[c] = rref[i][n]
    if any(not domain.is_zero(x - v) for x, v in zip(mat_vec(rows, sol), rhs)):
        raise RuntimeError("inconsistent solution")
    return sol


def _rank2_points_by_solving(nodes, domain):
    """The ten plane pairs of complementary node triples in the pencil
    basis of the web's Hessians, solved on the upper-triangle entries."""
    nodes = [[domain.coerce(x) for x in n] for n in nodes]
    origin = (0,) * 4
    hs = [[[h.terms.get(origin, domain.zero()) for h in row] for row in q.hessian()]
          for q in web_of_quadrics(nodes, domain)]
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    out = []
    for tri, comp in curves.TRIPLE_SPLITS:
        a = plane_through([nodes[i] for i in tri], domain)
        b = plane_through([nodes[i] for i in comp], domain)
        out.append(solve_overdetermined([[h[i][j] for h in hs] for i, j in upper],
                                        [a[i] * b[j] + a[j] * b[i] for i, j in upper],
                                        domain))
    return out


def test_symmetroid_rank2_points_solve_the_plane_pairs():
    dom = GF(101)
    r = random.Random(8)
    nodes = [[dom.random(r) for _ in range(4)] for _ in range(6)]
    assert symmetroid(nodes, dom).rank2_points == _rank2_points_by_solving(nodes, dom)
    nodes = _theta_side_nodes()
    got = np.array(symmetroid(nodes, CC).rank2_points, dtype=complex)
    want = np.array(_rank2_points_by_solving(nodes, CC), dtype=complex)
    assert got.shape == (10, 4)
    assert np.abs(got - want).max() < 1e-10


def test_phi_base_locus_and_generic(curve):
    quadrics = quadrics_through_curve(curve, random.Random(9)).forms
    p = curve.sample_point(random.Random(10))
    with pytest.raises(BaseLocusPoint):
        phi(quadrics, [tricanonical(p, DOM)], DOM)
    # generic point off the curve maps somewhere
    v = (DOM.one(), DOM.from_int(7), DOM.from_int(3), DOM.from_int(2),
         DOM.from_int(11))
    [img] = phi(quadrics, [v], DOM)
    assert any(img != 0)


def test_phi_constant_on_secants_and_tangents(curve):
    rng = random.Random(11)
    assert phi_constant_on_secant(curve, quadrics_through_curve(curve, rng).forms, rng)
    quadrics = quadrics_through_curve(curve, random.Random(12)).forms
    imgs = phi(quadrics, [weierstrass_tangent_sample(curve, i, 1) for i in range(6)],
               DOM).tolist()
    for img in imgs[1:]:
        assert proj_ratio(imgs[0], img, DOM) is not None


def test_image_of_secant_hyperplane_point_matches_secant_image(curve):
    # the hyperplane trace of a secant maps to the same point as any other
    # point of that secant
    quadrics = quadrics_through_curve(curve, random.Random(16)).forms
    r = random.Random(17)
    done = 0
    while done < 10:
        p, q = curve.sample_point(r), curve.sample_point(r)
        try:
            s = secant_point(p, q, DOM)
        except DegenerateSecant:
            continue
        s5 = list(s) + [DOM.zero()]
        P = tricanonical(p, DOM)
        Q = tricanonical(q, DOM)
        mid = [a + b for a, b in zip(P, Q)]
        try:
            img1, img2 = phi(quadrics, [s5, mid], DOM).tolist()
        except BaseLocusPoint:
            continue
        assert proj_ratio(img1, img2, DOM) is not None
        done += 1


def test_kummer_sixteen_nodes(curve):
    rng = random.Random(13)
    rep = kummer_fit(curve, quadrics_through_curve(curve, rng).forms, rng)
    assert rep.fit_nullity == 1
    assert len(rep.nodes) == 16
    assert rep.nodes_distinct
    assert rep.nodes_singular
    assert rep.origin_node_consistent


def test_sec_octic(curve, weddle):
    rep = sec_octic(curve, random.Random(14), weddle=weddle.quartic)
    assert rep.fit_nullity == 1
    assert rep.restriction_is_weddle_square
    assert rep.fresh_residual_ok
    assert rep.curve_singular


def test_float_path_matches_narrative():
    c = GenusTwoCurve(CC, roots=[0, 1, 2, 3, 4, 5])
    rep = weddle_prime_fit(c, random.Random(15))
    assert rep.fit_nullity == 1
    assert rep.nodes_singular
    assert all(ok for ok, _ in rep.line_results)
    # off the nodes, the floating residual ignores the scale of the form,
    # and of a point with max-abs at least 1
    W, x = rep.quartic, [1.0, 2.0, -3.0 + 1j, 0.5j]
    r = singular_residual(W, [x], CC)
    assert r > 1e-3
    assert singular_residual(W.scale(7.5 - 2j), [x], CC) == pytest.approx(r, rel=1e-12)
    assert singular_residual(W, [[3.25 * c for c in x]], CC) == pytest.approx(r, rel=1e-12)
