"""Genus-2 curve geometry: the tricanonical embedding in P^4, secant
construction of the six-node quartic in the invariant hyperplane, the
quadrics through the curve and its classifying map to the sixteen-node
quartic, and the degree-8 secant hypersurface.  Also the six-node layer
that the theta side shares: the web of quadrics through six nodes and its
determinantal symmetroid, a sixteen-node quartic.

Everything runs verbatim over a prime field (all incidences exact) or over
complex floats (checks against tolerances).  Random curve points come from
one sampler, GenusTwoCurve.sample_rows, as rows of an array, and the
secant, fresh and image points are array expressions in those rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .fields import ComplexField, Domain, PrimeField
from .linalg import (FitResult, Matrix, _array_form, all_distinct, det_ring, eval_polys,
                     fit_hypersurface, nullspace, proj_distance, rank, same_point)
from .poly import SparsePoly, exponents_of_degree

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
        [row] = self.sample_rows(rng, 1)
        x, y = row[0, 1].item(), row[0, 4].item()
        return CurvePoint(self.domain.coerce(x), self.domain.coerce(y))

    def sample_rows(self, rng, n: int, points: int = 1, params: int = 0):
        """n rounds of draws, each of `points` random curve points off the
        branch points and then `params` random non-zero parameters: the
        draws of as many sample_point and _rand_param calls, in that order.

        Returns one (n, 5) array per point of a round, whose rows are the
        tricanonical images (1, x, x^2, x^3, y), then one length-n array per
        parameter, all in eval_polys' array form: int64 in [0, p) over
        GF(p), complex over CC."""
        dom = self.domain
        draw = self._affine_sampler()
        xs, ys, ts = [], [], []
        for _ in range(n):
            for _ in range(points):
                x, y = draw(rng)
                xs.append(x)
                ys.append(y)
            for _ in range(params):
                ts.append(_rand_param(rng, dom))
        if isinstance(dom, PrimeField):
            p = dom.p
            x = np.array(xs, dtype=np.int64)
            x2 = x * x % p
            rows = np.stack([np.ones_like(x), x, x2, x2 * x % p,
                             np.array(ys, dtype=np.int64)], axis=1)
        else:
            # complex products as tricanonical forms them, one point at a time
            rows = np.array([(1, x, x * x, x * x * x, y) for x, y in zip(xs, ys)],
                            dtype=complex).reshape(-1, 5)
        rows = rows.reshape(n, points, 5)
        ts = np.array(ts, dtype=rows.dtype).reshape(n, params)
        return tuple(rows[:, k] for k in range(points)) + tuple(ts.T)

    def _affine_sampler(self):
        """rng -> (x, y), a random affine curve point off the branch points
        with plain int (GF(p)) or complex coordinates.  Each trial draws x,
        by one randrange(p) over GF(p); an accepted x is followed by one
        random() for the sign of y."""
        dom = self.domain
        if isinstance(dom, PrimeField):
            p = dom.p
            coeffs = [c.val for c in reversed(self.coeffs)]

            def f(x):
                acc = 0
                for c in coeffs:
                    acc = (acc * x + c) % p
                return acc

            if p % 4 == 3:
                # y = v^((p+1)/4) has y^2 = v exactly when v is a square, and
                # it is the root that dom.sqrt returns
                def root(v):
                    y = pow(v, (p + 1) // 4, p)
                    return y if v and y * y % p == v else None
            else:
                def root(v):
                    return dom.sqrt(v).val if pow(v, (p - 1) // 2, p) == 1 else None
            # by Hasse-Weil such a point exists for p >= 29
            if p < 29 and all(root(f(x)) is None for x in range(p)):
                raise ValueError("F_%d has no affine curve point off the branch "
                                 "points" % p)

            def draw(rng):
                while True:
                    x = rng.randrange(p)
                    y = root(f(x))
                    if y is not None:
                        return x, (p - y if rng.random() < 0.5 else y)
            return draw
        if isinstance(dom, ComplexField):
            def draw(rng):
                x = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                y = cmath.sqrt(complex(self.f(x)))
                return x, (-y if rng.random() < 0.5 else y)
            return draw
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


def _span_points(s, P, t, Q, domain: Domain) -> np.ndarray:
    """The rows s_i P_i + t_i Q_i of two arrays of points in the domain's
    array form; s and t are scalars or one entry per row."""
    s = np.asarray(s)[..., None]
    t = np.asarray(t)[..., None]
    if isinstance(domain, PrimeField):
        p = domain.p
        return (s * P % p + t * Q % p) % p
    return s * P + t * Q


def sample_secant_points(curve: GenusTwoCurve, rng, count: int) -> np.ndarray:
    """count >= 1 secant points (see secant_point) of random pairs of
    curve points, as rows in the domain's array form.  A degenerate pair is
    skipped and the deficit redrawn, so the pairs drawn are those of a loop
    that draws one pair at a time until it has count secant points."""
    domain = curve.domain
    chunks, have = [], 0
    while have < count:
        P, Q = curve.sample_rows(rng, count - have, points=2)
        v = _span_points(Q[:, 4], P, -P[:, 4], Q, domain)[:, :4]
        # sampled points have y != 0, so only P = Q gives the zero point
        ok = np.any(v != 0, axis=1)
        chunks.append(v[ok])
        have += int(ok.sum())
    return np.concatenate(chunks)


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


def lines_in_hypersurface(form: SparsePoly, lines, points, domain: Domain) -> list:
    """(contained, residual) for each line (u, v) of `lines`, from one
    evaluation of the form at the line's five rows of `points` (see
    five_line_points).  A form of degree at most 4 vanishes on a line iff
    it vanishes at five distinct points of it.  Exact domains: the line is
    contained iff all five values are zero, and the residual is 0.0.
    Floats: the residual is max |form(x)| / |form|_2 over the five points,
    each at max-abs 1, and the line is contained iff it is below 1e-6."""
    if form.total_degree() > 4:
        raise ValueError("five points decide lines only up to degree 4")
    vals = eval_polys([form], points, domain).reshape(len(lines), 5)
    if domain.is_exact:
        return [(bool(on), 0.0) for on in (vals == 0).all(axis=1)]
    worst = np.abs(vals).max(axis=1) / coefficient_norm(form)
    return [(bool(r < 1e-6), float(r)) for r in worst]


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


def _unique_quartic(draw, samples: int, domain: Domain):
    """(nullity, quartic) of the fit through draw(samples) points; when the
    quartic is not unique, one resample with twice the data, and then the
    quartic is None."""
    fit = fit_hypersurface(draw(samples), 4, domain)
    if fit.unique is None:
        fit = fit_hypersurface(draw(2 * samples), 4, domain)
    return len(fit), fit.unique


def twenty_five_lines(nodes, domain: Domain):
    """The fifteen lines through two nodes, then the ten lines where the
    planes through complementary node triples meet."""
    return [(list(a), list(b)) for a, b in combinations(nodes, 2)] + [
        line_from_planes(plane_through([nodes[i] for i in tri], domain),
                         plane_through([nodes[i] for i in comp], domain), domain)
        for tri, comp in TRIPLE_SPLITS]


def five_line_points(lines, domain: Domain) -> np.ndarray:
    """The points u + t v, t = 1..5, of each line (u, v), five rows per line
    in the domain's array form; floating points are scaled to max-abs 1.
    They are five distinct points of the line in characteristic 0 or at
    least 5."""
    if isinstance(domain, PrimeField):
        u = _array_form([u for u, _ in lines], domain)[:, None, :]
        v = _array_form([v for _, v in lines], domain)[:, None, :]
        t = np.arange(1, 6, dtype=np.int64)[None, :, None]
        return ((u + t * v) % domain.p).reshape(-1, u.shape[2])
    pts = []
    for u, v in lines:
        for k in range(5):
            t = domain.from_int(k + 1)
            pt = [a + t * b for a, b in zip(u, v)]
            if not domain.is_exact:
                top = max(abs(x) for x in pt)
                pt = [x / top for x in pt]
            pts.append(pt)
    return _array_form(pts, domain)


def _six_node_checks(W: SparsePoly | None, nodes, domain: Domain):
    """The classical checks of a six-node quartic W, the same on the theta
    and the curve side: (the singular residual of W at the nodes, the
    (contained, residual) pair of each of the 25 lines, the dimension of
    the quartics through those lines, the distance of W from that quartic).
    The distance is 0.0 or 1.0 over exact fields (projective equality) and
    chordal over floats.  W is None when its fit was not unique: then no
    line is contained and the residuals are NaN.  The distance is NaN when
    W or the line quartic is missing."""
    lines = twenty_five_lines(nodes, domain)
    pts = five_line_points(lines, domain)
    rigid = fit_hypersurface(pts, 4, domain)
    if W is None:
        return math.nan, [(False, math.nan)] * len(lines), len(rigid), math.nan
    G = rigid.unique
    distance = math.nan if G is None else proj_distance([G], [W], domain)
    return (singular_residual(W, nodes, domain),
            lines_in_hypersurface(W, lines, pts, domain), len(rigid), distance)


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
        # the plane-pair quadric in the pencil basis: the kernel vector
        # (t, -1) of [pencil | plane pair] on the upper-triangle entries
        kern = nullspace([pencil.rows[r] + [prod[r]] for r in upper], domain)
        if len(kern) != 1 or domain.is_zero(kern[0][4]):
            raise RuntimeError("right-hand side is not in the column span")
        rank2.append([-x / kern[0][4] for x in kern[0][:4]])
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
    the six embedded branch points and containing all 25 classical lines.
    When the fit is not unique the quartic is None and fails every test."""
    domain = curve.domain
    nullity, W = _unique_quartic(lambda n: sample_secant_points(curve, rng, n), 70,
                                 domain)
    nodes = weierstrass_images(curve)
    singular, lines, rig_nullity, distance = _six_node_checks(W, nodes, domain)
    return WeddleCurveReport(W, nodes, nullity, singular < 1e-5, lines, rig_nullity,
                             distance < 1e-6)


# ---------------------------------------------------------------------------
# quadrics through the curve and the classifying map


def quadrics_through_curve(curve: GenusTwoCurve, rng) -> FitResult:
    """The space of quadrics in P^4 vanishing on 45 points of the embedded
    curve; for the curve itself its dimension is 4."""
    [pts] = curve.sample_rows(rng, 45)
    return fit_hypersurface(pts, 2, curve.domain)


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


def phi(quadrics, points, domain: Domain) -> np.ndarray:
    """The images of the points (rows) under the curve quadrics, one row
    each in the domain's array form.  The base locus is the curve, and a
    point on it raises BaseLocusPoint."""
    vals = eval_polys(quadrics, points, domain)
    if _vanishes(vals, domain, 1e-12, axis=1).any():
        raise BaseLocusPoint("point lies on the base curve")
    return vals


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


def kummer_fit(curve: GenusTwoCurve, quadrics, rng) -> KummerReport:
    """The unique quartic through the image of the secant variety under the
    curve quadrics (see quadrics_through_curve), with its sixteen singular
    points: fifteen branch-pair secant images plus the common image of the
    six tangent lines at the branch points.  When the fit is not unique the
    quartic is None and its tests fail."""
    domain = curve.domain
    # images of points s P + t Q of random secants; a point on the base
    # curve is dropped and the deficit redrawn
    chunks, have = [], 0
    while have < 90:
        P, Q, s, t = curve.sample_rows(rng, 90 - have, points=2, params=2)
        imgs = eval_polys(quadrics, _span_points(s, P, t, Q, domain), domain)
        imgs = imgs[~_vanishes(imgs, domain, 1e-12, axis=1)]
        chunks.append(imgs)
        have += len(imgs)
    fit = fit_hypersurface(np.concatenate(chunks), 4, domain)
    K = fit.unique
    ws = _array_form([tricanonical(w, domain) for w in curve.weierstrass_points()],
                     domain)
    i, j = np.array(list(combinations(range(6), 2))).T
    # the fifteen branch-pair secants, then points of the tangent lines at
    # the branch points: all six at t = 1, and the first at t = 2 and 3
    tangents = _array_form([weierstrass_tangent_sample(curve, k, 1) for k in range(6)]
                           + [weierstrass_tangent_sample(curve, 0, t) for t in (2, 3)],
                           domain)
    imgs = phi(quadrics, np.concatenate([_span_points(1, ws[i], 1, ws[j], domain),
                                         tangents]), domain)
    # the six tangent lines at branch points share one image point
    origin_consistent = all(same_point(imgs[15], img, domain) for img in imgs[16:])
    nodes = list(imgs[:16])
    return KummerReport(K, nodes, len(fit), all_distinct(nodes, domain),
                        K is not None and singular_residual(K, nodes, domain) < 1e-5,
                        origin_consistent)


def _rand_param(rng, domain: Domain):
    if isinstance(domain, PrimeField):
        while True:
            v = rng.randrange(domain.p)
            if v:
                return v
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _vanishes(values, domain: Domain, tol: float, axis=None):
    """Whether the array (or sequence) of values is zero: exactly in an
    exact domain, below tol in modulus for floats.  All entries when axis
    is None, else one answer per index along the other axes."""
    values = np.asarray(values)
    if domain.is_exact:
        zero = values == 0
    else:
        zero = np.abs(values.astype(complex)) < tol
    return bool(zero.all()) if axis is None else zero.all(axis=axis)


def phi_constant_on_secant(curve: GenusTwoCurve, quadrics, rng) -> bool:
    """The classifying map, by the curve quadrics, contracts each secant
    line to a point: ten random secants, each at P + t Q for t = 1, 2, 3;
    a secant with a point on the base curve is passed over."""
    domain = curve.domain
    for _ in range(10):
        P, Q = curve.sample_rows(rng, 1, points=2)
        imgs = eval_polys(quadrics, _span_points(1, P, np.arange(1, 4), Q, domain), domain)
        if _vanishes(imgs, domain, 1e-12, axis=1).any():
            continue
        if not (same_point(imgs[0], imgs[1], domain)
                and same_point(imgs[0], imgs[2], domain)):
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
    square of the six-node quartic.  When the fit is not unique the octic
    is None and its tests fail."""
    domain = curve.domain
    P, Q, s, t = curve.sample_rows(rng, 620, points=2, params=2)
    fit = fit_hypersurface(_span_points(s, P, t, Q, domain), 8, domain)
    # fresh membership at P + 2Q, and points of the curve, which must be
    # singular points of the octic
    P, Q = curve.sample_rows(rng, 30, points=2)
    fresh = _span_points(1, P, 2, Q, domain)
    if weddle is None:
        weddle = weddle_prime_fit(curve, rng).quartic
    [on_curve] = curve.sample_rows(rng, 20)
    F = fit.unique
    if F is None:
        return SecantOcticReport(None, len(fit), False, False, False)
    fresh_ok = _vanishes(eval_polys([F], fresh, domain), domain, 1e-6)
    is_square = weddle is not None and same_point(
        [restrict_to_hyperplane(F)], [weddle * weddle], domain)
    curve_sing = singular_residual(F, on_curve, domain) < 1e-5
    return SecantOcticReport(F, 1, is_square, fresh_ok, curve_sing)


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
