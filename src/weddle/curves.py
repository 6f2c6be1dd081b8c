"""Genus-2 curve geometry: the tricanonical embedding in P^4, secant
construction of the six-node quartic in the invariant hyperplane, the
quadrics through the curve and its classifying map to the sixteen-node
quartic, and the degree-8 secant hypersurface.  Also the six-node layer
that the theta side shares: the web of quadrics through six nodes and its
determinantal symmetroid, a sixteen-node quartic.

Everything runs verbatim over a prime field (all incidences exact) or over
complex floats (checks against tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import ComplexField, Domain, PrimeField
from .linalg import (FitResult, Matrix, chordal_distance, det_ring, eval_polys,
                     fit_hypersurface, nullspace, proj_ratio, rank,
                     solve_overdetermined)
from .poly import SparsePoly, aligned_coefficients, exponents_of_degree

# the ten splits of six nodes into two complementary triples
TRIPLE_SPLITS = tuple((tri, tuple(i for i in range(6) if i not in tri))
                      for tri in combinations(range(6), 3) if 0 in tri)


class ChartError(ValueError):
    pass


class DegenerateSecant(ValueError):
    pass


class BaseLocusPoint(ValueError):
    pass


class DegenerateConfiguration(ValueError):
    """Node set failed a general-position requirement; resample."""


@dataclass(frozen=True)
class CurvePoint:
    x: object
    y: object
    at_infinity: bool = False
    infinity_sign: int = 1

    @property
    def is_weierstrass(self):
        return (not self.at_infinity) and not self.y


class GenusTwoCurve:
    """y^2 = f(x) with f a squarefree sextic; roots kept when split."""

    def __init__(self, domain: Domain, coeffs=None, roots=None):
        self.domain = domain
        if roots is not None:
            roots = [domain.coerce(r) for r in roots]
            if len(roots) != 6:
                raise ValueError("need six roots")
            coeffs = [domain.one()]
            for r in roots:
                coeffs = _poly_mul_linear(coeffs, r, domain)
            self.roots = roots
        else:
            self.roots = None
        if coeffs is None or len(coeffs) != 7:
            raise ValueError("need a degree-6 polynomial")
        self.coeffs = [domain.coerce(c) for c in coeffs]  # ascending powers
        if domain.is_zero(self.coeffs[6]):
            raise ValueError("leading coefficient vanishes")
        if domain.is_exact and _discriminant_is_zero(self.coeffs, domain):
            raise ValueError("sextic has a repeated root")

    def f(self, x):
        acc = self.domain.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def point(self, x, y) -> CurvePoint:
        x = self.domain.coerce(x)
        y = self.domain.coerce(y)
        lhs = y * y - self.f(x)
        if self.domain.is_exact:
            if not self.domain.is_zero(lhs):
                raise ValueError("point is not on the curve")
        elif abs(complex(lhs)) > 1e-8:
            raise ValueError("point is not on the curve")
        return CurvePoint(x, y)

    def weierstrass_points(self):
        if self.roots is None:
            raise ValueError("curve was not built from a split sextic")
        return [CurvePoint(r, self.domain.zero()) for r in self.roots]

    def involution(self, p: CurvePoint) -> CurvePoint:
        if p.at_infinity:
            return CurvePoint(None, None, True, -p.infinity_sign)
        return CurvePoint(p.x, -p.y)

    def sample_point(self, rng) -> CurvePoint:
        """A random curve point off the branch points."""
        dom = self.domain
        if isinstance(dom, PrimeField):
            # f by Horner and the Euler test on plain ints: the draws, one
            # randrange(p) per trial, are those of dom.random
            p = dom.p
            coeffs = [c.val for c in reversed(self.coeffs)]

            def f(x):
                acc = 0
                for c in coeffs:
                    acc = (acc * x + c) % p
                return acc

            def nonzero_square(v):
                return pow(v, (p - 1) // 2, p) == 1
            # by Hasse-Weil such a point exists for p >= 29
            if p < 29 and not any(nonzero_square(f(x)) for x in range(p)):
                raise ValueError("F_%d has no affine curve point off the branch "
                                 "points" % p)
            while True:
                x = rng.randrange(p)
                v = f(x)
                if not nonzero_square(v):
                    continue
                y = dom.sqrt(v)
                if rng.random() < 0.5:
                    y = -y
                return CurvePoint(dom.from_int(x), y)
        if isinstance(dom, ComplexField):
            import cmath
            x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            y = cmath.sqrt(complex(self.f(x)))
            if rng.random() < 0.5:
                y = -y
            return CurvePoint(x, y)
        raise ValueError("sampling needs a prime field or complex domain")


def _poly_mul_linear(coeffs, root, domain):
    """(x - root) times the ascending-coefficient polynomial."""
    out = [domain.zero()] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i + 1] = out[i + 1] + c
        out[i] = out[i] - root * c
    return out


def _discriminant_is_zero(coeffs, domain) -> bool:
    """gcd(f, f') nontrivial, by the Euclidean algorithm over the field."""
    n = len(coeffs) - 1
    f = list(coeffs)
    fp = [domain.from_int(i) * coeffs[i] for i in range(1, n + 1)]

    def degree(p):
        for i in range(len(p) - 1, -1, -1):
            if not domain.is_zero(p[i]):
                return i
        return -1

    def rem(a, b):
        a = list(a)
        db = degree(b)
        while degree(a) >= db >= 0:
            da = degree(a)
            q = a[da] / b[db]
            for i in range(db + 1):
                a[da - db + i] = a[da - db + i] - q * b[i]
            a = a[:degree(a) + 1] if degree(a) >= 0 else [domain.zero()]
        return a

    a, b = f, fp
    while degree(b) > 0:
        a, b = b, rem(a, b)
    return degree(b) == -1


# ---------------------------------------------------------------------------
# the tricanonical embedding


def tricanonical(p: CurvePoint, domain: Domain):
    """(1, x, x^2, x^3, y); the two points at infinity land in the second
    chart as (0, 0, 0, 1, +-1) for a monic sextic."""
    if p.at_infinity:
        one = domain.one()
        return (domain.zero(), domain.zero(), domain.zero(), one,
                one if p.infinity_sign == 1 else -one)
    if p.x is None:
        raise ChartError("affine chart asked for a point without coordinates")
    x = domain.coerce(p.x)
    return (domain.one(), x, x * x, x * x * x, domain.coerce(p.y))


def secant_point(p: CurvePoint, q: CurvePoint, domain: Domain):
    """Intersection of the embedded secant line with the invariant
    hyperplane {last coordinate = 0}: y_q P - y_p Q, first four entries."""
    if p == q:
        raise DegenerateSecant("need two distinct points")
    P = tricanonical(p, domain)
    Q = tricanonical(q, domain)
    yp, yq = P[4], Q[4]
    v = tuple(yq * a - yp * b for a, b in zip(P[:4], Q[:4]))
    if all(domain.is_zero(c) for c in v) or (domain.is_zero(yp) and domain.is_zero(yq)):
        raise DegenerateSecant("secant through two fixed points lies in the hyperplane")
    return v


def weierstrass_images(curve: GenusTwoCurve):
    return [tricanonical(w, curve.domain)[:4] for w in curve.weierstrass_points()]


def _secant_pair(curve: GenusTwoCurve, rng):
    """Embedded images of two sampled curve points."""
    return (tricanonical(curve.sample_point(rng), curve.domain),
            tricanonical(curve.sample_point(rng), curve.domain))


def sample_secant_points(curve: GenusTwoCurve, rng, count: int):
    out = []
    while len(out) < count:
        p = curve.sample_point(rng)
        q = curve.sample_point(rng)
        try:
            out.append(secant_point(p, q, curve.domain))
        except DegenerateSecant:
            continue
    return out


# ---------------------------------------------------------------------------
# line utilities over an arbitrary field


def plane_through(points, domain: Domain):
    basis = nullspace([list(p) for p in points], domain)
    if len(basis) != 1:
        raise DegenerateConfiguration("points do not span a plane")
    return basis[0]


def line_from_planes(n1, n2, domain: Domain):
    basis = nullspace([list(n1), list(n2)], domain)
    if len(basis) != 2:
        raise ValueError("planes do not meet in a line")
    return basis[0], basis[1]


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


def line_in_hypersurface(form: SparsePoly, u, v, domain: Domain):
    """Exact for exact domains.  For floats, u and v are scaled to max-abs 1
    and the restricted coefficients are bounded relative to 16 |form|."""
    if domain.is_exact:
        return restrict_to_line(form, u, v, domain).is_zero(), 0.0
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    restricted = restrict_to_line(form, u / np.abs(u).max(), v / np.abs(v).max(), domain)
    if restricted.is_zero():
        return True, 0.0
    worst = (max(abs(complex(c)) for c in restricted.terms.values())
             / (16 * coefficient_norm(form)))
    return worst < 1e-6, worst


def restrict_to_hyperplane(form: SparsePoly) -> SparsePoly:
    """A form on P^4 restricted to the invariant hyperplane {y = 0}."""
    return SparsePoly(4, form.domain,
                      {e[:4]: c for e, c in form.terms.items() if e[4] == 0})


# ---------------------------------------------------------------------------
# the six-node quartic layer, shared by the theta side and the curve side


def coefficient_norm(form: SparsePoly) -> float:
    """Euclidean norm of the coefficients of a floating form."""
    return math.sqrt(sum(abs(complex(c)) ** 2 for c in form.terms.values()))


def singular_residual(form: SparsePoly, points, domain: Domain) -> float:
    """How far the points are from being singular points of form.  Exact
    domains give 0.0 when every partial vanishes at every point, else 1.0.
    Floats give the largest |dF(x)| / (|F|_2 max(1, max|x|)^(d-1))."""
    vals = eval_polys(form.gradient(), points, domain)
    if domain.is_exact:
        return 0.0 if _vanishes(vals, domain, 0.0) else 1.0
    scale = np.maximum(np.abs(np.asarray(points, dtype=complex)).max(axis=1), 1.0)
    top = np.abs(vals).max(axis=1)
    worst = top / (coefficient_norm(form) * scale ** (form.total_degree() - 1))
    return float(worst.max(initial=0.0))


def _unique_quartic(draw, samples: int, domain: Domain) -> SparsePoly:
    """The quartic through draw(samples) points; when it is not unique, one
    resample with twice the data before declaring failure."""
    fit = fit_hypersurface(draw(samples), 4, domain)
    if len(fit.forms) != 1:
        fit = fit_hypersurface(draw(2 * samples), 4, domain)
    if len(fit.forms) != 1:
        raise RuntimeError("quartic fit nullity %d" % len(fit.forms))
    return fit.forms[0]


def twenty_five_lines(nodes, domain: Domain):
    """The fifteen lines through two nodes, then the ten lines where the
    planes through complementary node triples meet."""
    return [(list(a), list(b)) for a, b in combinations(nodes, 2)] + [
        line_from_planes(plane_through([nodes[i] for i in tri], domain),
                         plane_through([nodes[i] for i in comp], domain), domain)
        for tri, comp in TRIPLE_SPLITS]


def web_of_quadrics(nodes, domain: Domain) -> list:
    """The four quadrics through six nodes in general position."""
    forms = fit_hypersurface([list(n) for n in nodes], 2, domain).forms
    if len(forms) != 4:
        raise DegenerateConfiguration("quadrics through the nodes have dimension %d"
                                      % len(forms))
    return forms


# ---------------------------------------------------------------------------
# the determinantal symmetroid of six nodes


@dataclass
class SymmetroidReport:
    det_quartic: SparsePoly
    rank3_points: list
    rank2_points: list
    gradient_residual: float
    quadric_space_dim: int


def symmetroid(nodes, domain: Domain) -> SymmetroidReport:
    """Determinantal quartic of the web of quadrics through six general
    points of P^3, with its sixteen singular points: six rank-3 quadrics
    whose vertices are the nodes and ten rank-2 plane pairs from
    complementary triples.  Each quadric enters as its Hessian, twice its
    symmetric matrix, which changes no kernel or rank and scales the
    quartic by 16."""
    nodes = [[domain.coerce(x) for x in n] for n in nodes]
    web = web_of_quadrics(nodes, domain)
    origin = (0,) * 4
    hs = [Matrix([[h.terms.get(origin, domain.zero()) for h in row]
                  for row in q.hessian()]) for q in web]
    # the pencil sum_k t_k H_k as a 16 x 4 matrix; row 4i+j holds entry (i, j)
    pencil = Matrix([[h.rows[i][j] for h in hs] for i in range(4) for j in range(4)])
    # det of the symmetric pencil, a quartic in the four parameters
    units = [tuple(int(k == m) for m in range(4)) for k in range(4)]
    entries = [SparsePoly(4, domain, dict(zip(units, row))) for row in pencil.rows]
    F = det_ring(Matrix([entries[4 * i:4 * i + 4] for i in range(4)]))
    rank3 = []
    for n in nodes:
        # the pencil points whose quadric has the node as a vertex
        kern = nullspace(Matrix([h.mat_vec(n) for h in hs]).transpose(), domain)
        if len(kern) != 1:
            raise DegenerateConfiguration("vertex condition does not pin a "
                                          "unique pencil point")
        t = kern[0]
        quadric = pencil.mat_vec(t)
        if rank([quadric[4 * i:4 * i + 4] for i in range(4)], domain) != 3:
            raise DegenerateConfiguration("vertex quadric does not have rank 3")
        rank3.append(t)
    rank2 = []
    upper = [4 * i + j for i in range(4) for j in range(i, 4)]
    for tri, comp in TRIPLE_SPLITS:
        a = plane_through([nodes[i] for i in tri], domain)
        b = plane_through([nodes[i] for i in comp], domain)
        # the Hessian of the plane pair (a.x)(b.x)
        prod = [a[i] * b[j] + a[j] * b[i] for i in range(4) for j in range(4)]
        if rank([prod[4 * i:4 * i + 4] for i in range(4)], domain) != 2:
            raise DegenerateConfiguration("plane pair quadric does not have rank 2")
        # express the plane-pair quadric in the pencil basis
        t = solve_overdetermined([pencil.rows[r] for r in upper],
                                 [prod[r] for r in upper], domain)
        rank2.append(t)
    return SymmetroidReport(F, rank3, rank2, singular_residual(F, rank3 + rank2, domain),
                            len(web))


# ---------------------------------------------------------------------------
# the six-node quartic from secants


@dataclass
class WeddleCurveReport:
    quartic: SparsePoly
    nodes: list
    fit_nullity: int
    nodes_singular: bool
    line_results: list
    rigidity_nullity: int
    rigidity_matches: bool


def weddle_prime_fit(curve: GenusTwoCurve, rng) -> WeddleCurveReport:
    """The unique quartic through secant-hyperplane samples; singular at
    the six embedded branch points and containing all 25 classical lines."""
    domain = curve.domain
    W = _unique_quartic(lambda n: sample_secant_points(curve, rng, n), 70, domain)
    nodes = weierstrass_images(curve)
    lines = twenty_five_lines(nodes, domain)
    line_results = [line_in_hypersurface(W, u, v, domain) for u, v in lines]
    rig_nullity, G = _rigidity(lines, domain)
    rig_match = G is not None and _same_point(*aligned_coefficients([G], [W]),
                                              domain, 1e-6)
    return WeddleCurveReport(W, nodes, 1, singular_residual(W, nodes, domain) < 1e-5,
                             line_results, rig_nullity, rig_match)


def _rigidity(lines, domain: Domain):
    """Quartics through all the given lines: (dimension, the quartic when
    it is unique else None).  Floating sample points are scaled to max-abs 1."""
    pts = []
    for u, v in lines:
        for k in range(5):
            t = domain.from_int(k + 1)
            pt = [a + t * b for a, b in zip(u, v)]
            if not domain.is_exact:
                top = max(abs(x) for x in pt)
                pt = [x / top for x in pt]
            pts.append(pt)
    fit = fit_hypersurface(pts, 4, domain)
    return len(fit.forms), (fit.forms[0] if len(fit.forms) == 1 else None)


# ---------------------------------------------------------------------------
# quadrics through the curve and the classifying map


def sample_curve_points(curve: GenusTwoCurve, rng, count: int):
    return [tricanonical(curve.sample_point(rng), curve.domain)
            for _ in range(count)]


def quadrics_through_curve(curve: GenusTwoCurve, rng) -> FitResult:
    """The space of quadrics in P^4 vanishing on the embedded curve; its
    dimension must be 4."""
    pts = sample_curve_points(curve, rng, 45)
    fit = fit_hypersurface(pts, 2, curve.domain)
    if len(fit.forms) != 4:
        raise RuntimeError("quadrics through the curve have dimension %d"
                           % len(fit.forms))
    return fit


def quadric_restriction_check(curve: GenusTwoCurve, quadrics) -> dict:
    """Restricting the four curve quadrics to the invariant hyperplane is
    injective, and the image spans exactly the quadrics through the six
    branch-point images (dimension 10 - 6 = 4)."""
    domain = curve.domain
    exps4 = exponents_of_degree(4, 2)
    restricted = [restrict_to_hyperplane(q) for q in quadrics]
    rows = [[q.terms.get(e, domain.zero()) for e in exps4] for q in restricted]
    inj = rank(rows, domain) == 4
    nodes = weierstrass_images(curve)
    vanish = _vanishes(eval_polys(restricted, nodes, domain), domain, 1e-8)
    web = web_of_quadrics(nodes, domain)
    trows = [[q.terms.get(e, domain.zero()) for e in exps4] for q in web]
    same_span = rank(rows + trows, domain) == 4 if domain.is_exact else None
    return {"injective": inj, "vanish_at_nodes": vanish,
            "target_dimension": len(web), "same_span": same_span}


def phi(quadrics, point, domain: Domain):
    """Evaluate the four curve quadrics; the base locus is the curve."""
    vals = [q.evaluate(list(point)) for q in quadrics]
    if _vanishes(vals, domain, 1e-12):
        raise BaseLocusPoint("point lies on the base curve")
    return tuple(vals)


def weierstrass_tangent_sample(curve: GenusTwoCurve, i: int, t):
    """A point on the tangent line to the embedded curve at the i-th
    branch point: the tangent direction there is the last coordinate."""
    w = curve.weierstrass_points()[i]
    P = tricanonical(w, curve.domain)
    t = curve.domain.coerce(t)
    return (P[0], P[1], P[2], P[3], t)


@dataclass
class KummerReport:
    quartic: SparsePoly
    nodes: list
    fit_nullity: int
    nodes_distinct: bool
    nodes_singular: bool
    origin_node_consistent: bool


def kummer_fit(curve: GenusTwoCurve, rng) -> KummerReport:
    """The unique quartic through the image of the secant variety, with
    its sixteen singular points: fifteen branch-pair secant images plus
    the common image of the six tangent lines at the branch points."""
    domain = curve.domain
    quadrics = quadrics_through_curve(curve, rng).forms
    pts = []
    while len(pts) < 90:
        P, Q = _secant_pair(curve, rng)
        s, t = domain.coerce(_rand_param(rng, domain)), domain.coerce(_rand_param(rng, domain))
        v = [s * a + t * b for a, b in zip(P, Q)]
        try:
            pts.append(phi(quadrics, v, domain))
        except BaseLocusPoint:
            continue
    fit = fit_hypersurface(pts, 4, domain)
    if len(fit.forms) != 1:
        raise RuntimeError("image quartic fit nullity %d" % len(fit.forms))
    K = fit.forms[0]
    ws = curve.weierstrass_points()
    nodes = []
    for i in range(6):
        for j in range(i + 1, 6):
            Pi = tricanonical(ws[i], domain)
            Pj = tricanonical(ws[j], domain)
            v = [a + b for a, b in zip(Pi, Pj)]
            nodes.append(phi(quadrics, v, domain))
    # the six tangent lines at branch points share one image point
    origin_imgs = [phi(quadrics, weierstrass_tangent_sample(curve, i, 1), domain)
                   for i in range(6)]
    more = [phi(quadrics, weierstrass_tangent_sample(curve, 0, t), domain)
            for t in (2, 3)]
    origin_consistent = all(_same_point(origin_imgs[0], img, domain)
                            for img in origin_imgs[1:] + more)
    nodes.append(origin_imgs[0])
    return KummerReport(K, nodes, len(fit.forms), _all_distinct(nodes, domain),
                        singular_residual(K, nodes, domain) < 1e-5, origin_consistent)


def _rand_param(rng, domain: Domain):
    if isinstance(domain, PrimeField):
        while True:
            v = rng.randrange(domain.p)
            if v:
                return v
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _vanishes(values, domain: Domain, tol: float) -> bool:
    """Every entry of the array (or sequence) of values is zero: exactly in
    an exact domain, below tol in modulus for floats."""
    values = np.asarray(values)
    if domain.is_exact:
        return not np.any(values != 0)
    return bool(np.all(np.abs(values.astype(complex)) < tol))


def _same_point(u, v, domain: Domain, tol: float = 1e-8) -> bool:
    """Projective equality: exact by proj_ratio, floating by chordal distance."""
    if domain.is_exact:
        return proj_ratio(u, v, domain) is not None
    return chordal_distance([complex(x) for x in u], [complex(x) for x in v]) < tol


def _all_distinct(points, domain: Domain) -> bool:
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if _same_point(points[i], points[j], domain):
                return False
    return True


def phi_constant_on_secant(curve: GenusTwoCurve, rng) -> bool:
    """The classifying map contracts each secant line to a point."""
    domain = curve.domain
    quadrics = quadrics_through_curve(curve, rng).forms
    for _ in range(10):
        P, Q = _secant_pair(curve, rng)
        imgs = []
        for t in (1, 2, 3):
            t = domain.coerce(t)
            v = [a + t * b for a, b in zip(P, Q)]
            try:
                imgs.append(phi(quadrics, v, domain))
            except BaseLocusPoint:
                break
        if len(imgs) == 3 and not (_same_point(imgs[0], imgs[1], domain)
                                   and _same_point(imgs[0], imgs[2], domain)):
            return False
    return True


# ---------------------------------------------------------------------------
# the degree-8 secant hypersurface


@dataclass
class SecantOcticReport:
    octic: SparsePoly
    fit_nullity: int
    restriction_is_weddle_square: bool
    fresh_residual_ok: bool
    curve_singular: bool


def sec_octic(curve: GenusTwoCurve, rng,
              weddle: SparsePoly | None = None) -> SecantOcticReport:
    """Fit the degree-8 hypersurface through points of secant lines in P^4
    and check that its restriction to the invariant hyperplane is the
    square of the six-node quartic."""
    domain = curve.domain
    pts = []
    while len(pts) < 620:
        P, Q = _secant_pair(curve, rng)
        s = domain.coerce(_rand_param(rng, domain))
        t = domain.coerce(_rand_param(rng, domain))
        pts.append(tuple(s * a + t * b for a, b in zip(P, Q)))
    fit = fit_hypersurface(pts, 8, domain)
    if len(fit.forms) != 1:
        raise RuntimeError("octic fit nullity %d" % len(fit.forms))
    F = fit.forms[0]
    # fresh membership
    fresh = [[a + domain.from_int(2) * b for a, b in zip(*_secant_pair(curve, rng))]
             for _ in range(30)]
    fresh_ok = _vanishes(eval_polys([F], fresh, domain), domain, 1e-6)
    if weddle is None:
        weddle = weddle_prime_fit(curve, rng).quartic
    is_square = _same_point(*aligned_coefficients([restrict_to_hyperplane(F)],
                                                  [weddle * weddle]), domain)
    # the singular locus contains the curve
    on_curve = [tricanonical(curve.sample_point(rng), domain) for _ in range(20)]
    curve_sing = singular_residual(F, on_curve, domain) < 1e-5
    return SecantOcticReport(F, len(fit.forms), is_square, fresh_ok, curve_sing)


def hyperplane_section_degree(curve: GenusTwoCurve, rng):
    """Degree of the embedded curve: a generic hyperplane pulls back to a
    squarefree binary sextic on the double cover.  Each trial records 6
    when the sextic is squarefree as a binary form (affine degree at least
    5, so a root at infinity is simple, and no repeated affine root), -6
    otherwise."""
    domain = curve.domain
    degrees = []
    for _ in range(5):
        c = [domain.coerce(_rand_param(rng, domain)) for _ in range(5)]
        # (c0 + c1 x + c2 x^2 + c3 x^3)^2 - c4^2 f(x)
        lin = [c[0], c[1], c[2], c[3]]
        sq = [domain.zero()] * 7
        for i in range(4):
            for j in range(4):
                sq[i + j] = sq[i + j] + lin[i] * lin[j]
        for i, fc in enumerate(curve.coeffs):
            sq[i] = sq[i] - c[4] * c[4] * fc
        deg = max(i for i, v in enumerate(sq) if not domain.is_zero(v))
        squarefree = deg >= 5 and not _discriminant_is_zero(sq, domain)
        degrees.append(6 if squarefree else -6)
    return degrees
