"""Numeric theta functions with characteristics on the genus-2 Siegel
space, the level-3 coordinates of an abelian surface, theta-null points,
and the quartic surface with six nodes cut out by the odd eigenspace.
Constructions on the nodes alone, over any field, live in curves.py.

Series convention: theta[alpha; beta](z, Om) sums over r in Z^2 of
exp(pi i (r+alpha).Om.(r+alpha) + 2 pi i (r+alpha).(z+beta)) for real
characteristic vectors alpha, beta.  Half-integer characteristics (a, b)
in doubled 0/1 coordinates enter as alpha = a/2, beta = b/2; the level-3
coordinate X_s is theta[s/3; 0](3z, 3Om).

Every evaluation returns a rigorous truncation bound along with the value.
A stack of characteristics (such as the level-n coordinates) is summed over
one shared grid, held to the enumeration cap, and shares one bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .burkhardt import matrix_plus, steinerian_quartics
from .curves import (_six_node_checks, _unique_quartic, coefficient_norm,
                     web_of_quadrics)
from .fields import CC
from .heisenberg import REPS, idx2, involution_j, plus_minus_components
from .linalg import (check_states, chordal_distance, eval_polys, fit_hypersurface,
                     nullspace_complex)
from .poly import SparsePoly
from .symplectic import Characteristic, all_characteristics


class DomainError(ValueError):
    """A period matrix off the Siegel space, or one on which a theta-side
    construction fails: no unique invariant quadric through the surface,
    not six nodes, too few points found on the theta divisor."""


class PeriodMatrix:
    """2x2 complex symmetric Om with positive definite imaginary part."""

    __slots__ = ("m",)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError("period matrix must be 2x2")
        if abs(m[0, 1] - m[1, 0]) > 1e-12 * (1 + abs(m[0, 1])):
            raise DomainError("period matrix must be symmetric")
        m[1, 0] = m[0, 1]
        y = m.imag
        if not (y[0, 0] > 0 and y[0, 0] * y[1, 1] - y[0, 1] ** 2 > 0):
            raise DomainError("imaginary part must be positive definite")
        self.m = m

    @property
    def im(self):
        return self.m.imag

    def min_im_eigenvalue(self) -> float:
        y = self.im
        tr = y[0, 0] + y[1, 1]
        det = y[0, 0] * y[1, 1] - y[0, 1] ** 2
        return 0.5 * (tr - math.sqrt(max(tr * tr - 4 * det, 0.0)))

    def scaled(self, k: int) -> "PeriodMatrix":
        return PeriodMatrix(k * self.m)

    def __repr__(self):
        return "PeriodMatrix(%s)" % (self.m.tolist(),)


# a reducible-looking matrix for series tests and a generic one for the
# surface constructions; genericity is asserted by the quadric-count check
OMEGA_DIAGONALISH = PeriodMatrix([[1j, 0.1], [0.1, 1.25j]])
OMEGA_GENERIC = PeriodMatrix([[1.0 + 1.0j, 0.3 + 0.1j], [0.3 + 0.1j, 1.5 + 1.2j]])


@dataclass
class ThetaValue:
    value: complex | np.ndarray
    bound: float

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("negative error bound")


def _tail_bound(radius: int, lam: float, ynorm: float) -> float:
    """Upper bound for the sum of |terms| over the shells |r|_inf >= radius,
    after the characteristic is reduced to [-1/2, 1/2)^2."""
    def shell(k):
        m_low = max(k - 0.7072, 0.0)
        m_high = math.sqrt(2.0) * (k + 0.5)
        expo = -math.pi * lam * m_low * m_low + 2 * math.pi * ynorm * m_high
        if expo > 700:
            return math.inf
        return 8 * (k + 1) * math.exp(expo)

    total = 0.0
    k = radius
    prev = shell(k)
    total += prev
    while True:
        k += 1
        cur = shell(k)
        total += cur
        if cur < prev * 0.5 and cur < 1e-3 * total + 1e-300:
            # ratio is decreasing from here on, dominate by a geometric series
            total += cur
            break
        if k > radius + 400:
            return math.inf
        prev = cur
    return total


def theta_char(alpha, beta, z, omega: PeriodMatrix, tol: float = 1e-12,
               with_gradient: bool = False):
    """theta[alpha; beta](z, Om) with a truncation bound below tol.

    alpha and beta are 2-vectors or (k, 2) stacks; a stack is summed over
    one shared grid with one shared bound, and each of its k values is
    bitwise the single-characteristic sum.  Returns a ThetaValue (its value
    a length-k array for a stack), or (ThetaValue, gradient) when asked."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    om = omega.m
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    z = np.asarray(z, dtype=complex)
    # shift alpha into [-1/2, 1/2): an exact reindexing of the sum
    alpha_red = alpha - np.round(alpha)
    n_chars = np.broadcast(alpha, beta).size // 2
    lam = omega.min_im_eigenvalue()
    ynorm = float(np.linalg.norm(z.imag))
    radius = max(2, int(math.ceil(math.sqrt(max(math.log(8.0 / tol), 1.0)
                                            / (math.pi * lam)))
                        + 2 * ynorm / lam + 2))
    while True:
        check_states(n_chars * (2 * radius + 1) ** 2)
        bound = _tail_bound(radius + 1, lam, ynorm)
        if bound <= tol:
            break
        radius += 2
    rng = np.arange(-radius, radius + 1)
    r0, r1 = np.meshgrid(rng, rng, indexing="ij")
    # one grid row per characteristic; each sum runs over a contiguous last axis
    m0 = r0.ravel() + alpha_red[..., 0, None]
    m1 = r1.ravel() + alpha_red[..., 1, None]
    quad = (om[0, 0] * m0 * m0 + 2 * om[0, 1] * m0 * m1 + om[1, 1] * m1 * m1)
    lin = m0 * (z[0] + beta[..., 0, None]) + m1 * (z[1] + beta[..., 1, None])
    expo = np.exp(1j * math.pi * quad + 2j * math.pi * lin)
    val = expo.sum(axis=-1)
    tv = ThetaValue(complex(val) if val.ndim == 0 else val, bound)
    if with_gradient:
        return tv, np.stack([(2j * math.pi * m * expo).sum(axis=-1) for m in (m0, m1)], -1)
    return tv


def theta_halfint(m: Characteristic, z, omega: PeriodMatrix,
                  tol: float = 1e-12) -> ThetaValue:
    """Theta with the half-integer characteristic m = (a, b)."""
    return theta_char(np.array(m.a) / 2.0, np.array(m.b) / 2.0, z, omega, tol)


def halfperiod(m: Characteristic, omega: PeriodMatrix) -> np.ndarray:
    """The half period Om a/2 + b/2 of the characteristic m = (a, b)."""
    a = np.array(m.a, dtype=float) / 2.0
    b = np.array(m.b, dtype=float) / 2.0
    return omega.m @ a + b


# ---------------------------------------------------------------------------
# level-3 coordinates


def _level_coords(n: int, z, omega: PeriodMatrix) -> np.ndarray:
    """theta[s/n; 0](nz, nOm) for s in (Z/n)^2 in lexicographic order, as
    one stacked sum."""
    s = np.array(list(np.ndindex(n, n)))
    return theta_char(s / n, np.zeros(2), n * np.asarray(z, dtype=complex),
                      omega.scaled(n)).value


def level3_coords(z, omega: PeriodMatrix) -> np.ndarray:
    """The nine third-order coordinates X_s(z) = theta[s/3; 0](3z, 3Om),
    indexed by s in (Z/3)^2 in lexicographic order."""
    return _level_coords(3, z, omega)


def level2_coords(z, omega: PeriodMatrix) -> np.ndarray:
    """The four second-order coordinates theta[s/2; 0](2z, 2Om), s in
    (Z/2)^2.  Every one of them is an even function of z: the odd
    eigenspace at even level is zero, so all ten quadratic combinations
    are inversion invariant on the nose."""
    return _level_coords(2, z, omega)


def random_z(omega: PeriodMatrix, rng) -> np.ndarray:
    """Uniform draw from the fundamental parallelotope Om u + v."""
    u = np.array([rng.random(), rng.random()])
    v = np.array([rng.random(), rng.random()])
    return omega.m @ u + v


# the index flip X_s -> X_{-s} as a fancy index; x[FLIP] is the flipped
# vector because the flip is an involution
FLIP, _ = involution_j()


def _odd_part(u: np.ndarray, floor: float = 0.0):
    """The odd part of the coordinates u, scaled to max-abs 1, or None when
    its max-abs is below floor times that of u."""
    zc = np.array(plus_minus_components(u)[1])
    top = np.abs(zc).max()
    if top < floor * np.abs(u).max():
        return None
    return zc / top


def _odd_image(z, h, omega: PeriodMatrix, floor: float = 0.0):
    """_odd_part of the translated coordinates X(z + h)."""
    return _odd_part(level3_coords(np.asarray(z) + h, omega), floor)


def _flip_residual(v: np.ndarray, eps: int) -> float:
    """Distance of v from the eps-eigenspace of the flip, relative to the
    max-abs of v."""
    return float(np.abs(v - eps * v[FLIP]).max() / (2 * np.abs(v).max()))


@dataclass
class ContractReport:
    parity_residual: float
    diag_residual: float
    perm_residual: float

    def max_residual(self) -> float:
        return max(self.parity_residual, self.diag_residual, self.perm_residual)


def level3_contract_check(omega: PeriodMatrix, rng) -> ContractReport:
    """The residuals of the equivariance contract of the level-3
    coordinates: inversion acts by the index flip, third-period
    translations act by the diagonal characters and the index
    translations.  AC09 gates on them."""
    w = cmath.exp(2j * math.pi / 3)
    par = diag = perm = 0.0
    for _ in range(6):
        z = random_z(omega, rng)
        x = level3_coords(z, omega)
        par = max(par, chordal_distance(level3_coords(-z, omega), x[FLIP]))
        for p in [(1, 0), (0, 1)]:
            xs = level3_coords(z + np.array(p) / 3.0, omega)
            pred = np.array([x[idx2((s0, s1))] * w ** ((s0 * p[0] + s1 * p[1]) % 3)
                             for s0 in range(3) for s1 in range(3)])
            diag = max(diag, chordal_distance(xs, pred))
        for q in [(1, 0), (0, 1)]:
            xs = level3_coords(z + omega.m @ (np.array(q) / 3.0), omega)
            pred = np.array([x[idx2((s0 + q[0], s1 + q[1]))] for s0, s1 in np.ndindex(3, 3)])
            perm = max(perm, chordal_distance(xs, pred))
    return ContractReport(par, diag, perm)


# ---------------------------------------------------------------------------
# the coordinate involution attached to a characteristic


@dataclass
class InvolutionReport:
    matrix: np.ndarray
    sign: int
    invariant_dimension: int
    defining_residual: float
    square_residual: float
    sign_residual: float


def involution_matrix(kappa: Characteristic, omega: PeriodMatrix, rng) -> InvolutionReport:
    """The signed permutation R with X^k(-z) proportional to R X^k(z),
    normalized so the theta-null X^k(0) is R-invariant.

    The measured sign must match the parity of kappa and the invariant
    eigenspace dimension is 5 for even kappa, 4 for odd."""
    h = halfperiod(kappa, omega)
    f0 = level3_coords(h, omega)
    jf0 = f0[FLIP]
    rho = np.vdot(f0, jf0) / np.vdot(f0, f0)
    sign = 1 if rho.real > 0 else -1
    sign_residual = abs(rho - sign)
    if sign_residual > 1e-6:
        raise RuntimeError("involution sign is not +-1: rho = %r" % rho)
    defining = 0.0
    for _ in range(6):
        z = random_z(omega, rng)
        u = level3_coords(-z + h, omega)
        v = sign * level3_coords(z + h, omega)[FLIP]
        defining = max(defining, chordal_distance(u, v))
    if defining > 1e-8:
        raise RuntimeError("involution relation residual %g above 1e-8" % defining)
    R = sign * np.eye(9)[FLIP]
    square_residual = float(np.abs(R @ R - np.eye(9)).max())
    dim_inv = int(round((9 + np.trace(R)) / 2))
    expected = 5 if kappa.parity == 1 else 4
    if dim_inv != expected or sign != kappa.parity:
        raise RuntimeError("eigensplit dimensions (%d) disagree with parity %d"
                           % (dim_inv, kappa.parity))
    return InvolutionReport(R, sign, dim_inv, defining, square_residual, sign_residual)


@dataclass
class ThetaNullReport:
    char: Characteristic
    point: np.ndarray
    eigen_coords: np.ndarray
    membership_residual: float
    det_plus_normalized: float | None


def theta_null(kappa: Characteristic, omega: PeriodMatrix) -> ThetaNullReport:
    """The theta-null X^k(0) and its distance from the invariant eigenspace
    of the attached involution, where it must sit; the caller gates that
    membership residual.  Even characteristics also report the
    normalized determinant of the symmetric quadric matrix there (zero on
    the degeneracy locus)."""
    v = level3_coords(halfperiod(kappa, omega), omega)
    resid = _flip_residual(v, kappa.parity)
    plus, minus = plus_minus_components(v)
    if kappa.parity == 1:
        coords = np.array(plus)
        M = matrix_plus()
        vals = np.array([[complex(M[i][j].evaluate(list(coords))) for j in range(5)]
                         for i in range(5)])
        scale = np.abs(vals).max()
        detn = float(abs(np.linalg.det(vals)) / scale ** 5) if scale > 0 else 0.0
    else:
        coords = np.array(minus)
        detn = None
    return ThetaNullReport(kappa, v, coords, resid, detn)


def half_period_census(kappa: Characteristic, omega: PeriodMatrix):
    """Map all sixteen half periods through the kappa-translated
    coordinates and report which land in the odd eigenspace (the node set
    of the quartic surface when kappa is odd)."""
    h = halfperiod(kappa, omega)
    rows = []
    for m in all_characteristics(2):
        x = halfperiod(m, omega)
        u = level3_coords(x + h, omega)
        anti = _flip_residual(u, -1)
        rows.append({"char": m, "coords": u, "anti_residual": anti,
                     "in_minus": anti < 1e-6})
    return rows


# ---------------------------------------------------------------------------
# quadrics through the surface


@dataclass
class SurfaceQuadrics:
    r: np.ndarray
    fresh_residual: float


def _invariant_quadric_row(x: np.ndarray) -> np.ndarray:
    row = np.empty(5, dtype=complex)
    for k, s in enumerate(REPS):
        mult = 1.0 if k == 0 else 2.0
        row[k] = mult * x[idx2(s)] * x[FLIP[idx2(s)]]
    return row


def surface_quadrics(omega: PeriodMatrix, rng) -> SurfaceQuadrics:
    """Coefficients r of the translation-invariant quadric through the
    image surface, the one vector of the SVD kernel of the sampled rows;
    all nine translated quadrics must vanish on fresh samples."""
    rows = []
    for _ in range(40):
        x = level3_coords(random_z(omega, rng), omega)
        x = x / np.abs(x).max()
        rows.append(_invariant_quadric_row(x))
    kernel, _ = nullspace_complex(np.array(rows))
    if len(kernel) != 1:
        raise DomainError("sampled quadric rows have nullity %d, not 1" % len(kernel))
    r = kernel[0]
    from .burkhardt import quadrics_f
    fresh = []
    for _ in range(30):
        x = level3_coords(random_z(omega, rng), omega)
        fresh.append(x / np.abs(x).max())
    resid = np.abs(eval_polys(quadrics_f(list(r), CC), fresh, CC)).max() / np.abs(r).max()
    if resid > 1e-7:
        raise DomainError("translated quadrics do not vanish: residual %g" % resid)
    return SurfaceQuadrics(r, float(resid))


def quadric_space_nullity(omega: PeriodMatrix, rng):
    """Dimension of the space of quadrics vanishing on sampled image
    points (45 monomials in the nine coordinates)."""
    pts = []
    for _ in range(60):
        x = level3_coords(random_z(omega, rng), omega)
        pts.append(x / np.abs(x).max())
    fit = fit_hypersurface(pts, 2, CC)
    return len(fit), fit.singular_values


def steinerian_of_theta_null(rep: ThetaNullReport):
    """Kernel coordinates of the skew matrix at an odd theta-null; the
    composition must reproduce the surface's quadric coefficients."""
    if rep.char.parity != -1:
        raise ValueError("needs an odd characteristic")
    zc = list(rep.eigen_coords)
    return np.array([complex(q.evaluate(zc)) for q in steinerian_quartics()])


# ---------------------------------------------------------------------------
# the quartic surface with six nodes, from the theta side


@dataclass
class WeddleThetaReport:
    quartic: SparsePoly
    nodes: list
    fit_nullity: int
    fresh_residual: float
    node_gradient_residual: float
    line_residual: float
    lines_checked: int
    net_dimension: int
    rigidity_nullity: int
    rigidity_match: float | None


def weddle_from_theta(omega: PeriodMatrix, kappa: Characteristic, rng) -> WeddleThetaReport:
    """Fit the unique quartic through the odd-eigenspace image of the
    surface and verify its classical features: six singular points at the
    half periods landing in the odd eigenspace, the fifteen node lines and
    ten complementary-triple lines, and the three-dimensional net of
    quadrics through the node set that vanish on the image of the
    vanishing-divisor curve.  When the fit is not unique the quartic is
    None and its residuals are NaN."""
    if kappa.parity != -1:
        raise ValueError("the six-node surface needs an odd characteristic")
    h = halfperiod(kappa, omega)

    def draw(n):
        out = []
        while len(out) < n:
            zc = _odd_image(random_z(omega, rng), h, omega, floor=1e-6)
            if zc is not None:
                out.append(zc)
        return out

    nullity, W = _unique_quartic(draw, 80, CC)
    fresh_pts = [_odd_image(random_z(omega, rng), h, omega) for _ in range(30)]
    nodes = [_odd_part(row["coords"])
             for row in half_period_census(kappa, omega) if row["in_minus"]]
    if len(nodes) != 6:
        raise DomainError("expected 6 half periods in the odd eigenspace, got %d"
                          % len(nodes))
    singular, lines, rig_null, distance = _six_node_checks(W, nodes, CC)
    net_dim = twisted_cubic_net_dimension(omega, kappa, nodes, rng)
    # without a unique quartic its residuals are not measured
    fresh = math.nan if W is None else float(
        np.abs(eval_polys([W], fresh_pts, CC)).max() / coefficient_norm(W))
    return WeddleThetaReport(W, nodes, nullity, fresh, singular,
                             max(r for _, r in lines), len(lines), net_dim, rig_null,
                             None if math.isnan(distance) else distance)


def theta_divisor_points(kappa: Characteristic, omega: PeriodMatrix, rng,
                         count: int = 25):
    """Points on the vanishing divisor of the theta function with
    characteristic kappa, found by Newton iteration along random complex
    lines through random base points."""
    found = []
    attempts = 0
    while len(found) < count and attempts < 50 * count:
        attempts += 1
        z0 = random_z(omega, rng)
        d = np.array([rng.gauss(0, 1) + 1j * rng.gauss(0, 1),
                      rng.gauss(0, 1) + 1j * rng.gauss(0, 1)])
        d = d / np.linalg.norm(d)
        t = 0j
        ok = False
        for _ in range(60):
            z = z0 + t * d
            tv, grad = theta_char(np.array(kappa.a) / 2.0, np.array(kappa.b) / 2.0,
                                  z, omega, 1e-13, with_gradient=True)
            gd = grad @ d
            if abs(gd) < 1e-14:
                break
            step = tv.value / gd
            if not cmath.isfinite(step):
                # the series overflowed; a failed attempt like a non-converging one
                break
            t = t - step
            if abs(step) < 1e-14 and abs(tv.value) < 1e-10:
                ok = True
                break
        if ok and abs(t) < 6:
            found.append(z0 + t * d)
    if len(found) < count:
        raise DomainError("root search found only %d divisor points" % len(found))
    return found


def twisted_cubic_net_dimension(omega: PeriodMatrix, kappa: Characteristic,
                                nodes, rng) -> int:
    """Quadrics through the six nodes form a 4-dimensional web; those
    vanishing on the image of the theta-divisor curve form the net of the
    unique twisted cubic through the nodes."""
    web = web_of_quadrics(nodes, CC)
    h = halfperiod(kappa, omega)
    curve_pts = [_odd_image(z, h, omega)
                 for z in theta_divisor_points(kappa, omega, rng, 24)]
    return len(nullspace_complex(eval_polys(web, curve_pts, CC), 1e-6)[0])
