"""Exact and floating linear algebra.

Two elimination paths are kept deliberately separate: a naive
division-based Gaussian elimination (the reference oracle) and a
fraction-free Bareiss elimination used by default for exact domains.
Both finish by normalizing to reduced row echelon form and must agree
entry for entry.

Ring-generic routines (pfaffian, adjugate, determinant by expansion)
avoid division entirely so they also work on polynomial matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import CC, ComplexField, Domain, PrimeField, QQ
from .poly import SparsePoly, exponents_of_degree


class ShapeError(ValueError):
    pass


class UnsupportedDomainError(TypeError):
    pass


class Matrix:
    """Rectangular matrix over a scalar domain or a polynomial ring."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows:
            raise ShapeError("empty matrix")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ShapeError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = n

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def transpose(self):
        return Matrix([[self.rows[i][j] for i in range(self.nrows)]
                       for j in range(self.ncols)])

    def mat_vec(self, v):
        if len(v) != self.ncols:
            raise ShapeError("dimension mismatch")
        out = []
        for row in self.rows:
            acc = row[0] * v[0]
            for a, b in zip(row[1:], v[1:]):
                acc = acc + a * b
            out.append(acc)
        return out

    def mat_mul(self, other):
        if self.ncols != other.nrows:
            raise ShapeError("dimension mismatch")
        cols = other.transpose().rows
        return Matrix([[_dot(r, c) for c in cols] for r in self.rows])

    def delete_row_col(self, i, j=None):
        if j is None:
            j = i
        return Matrix([[self.rows[r][c] for c in range(self.ncols) if c != j]
                       for r in range(self.nrows) if r != i])

    def map(self, fn):
        return Matrix([[fn(x) for x in row] for row in self.rows])

    def is_square(self):
        return self.nrows == self.ncols

    def is_skew(self):
        if not self.is_square():
            return False
        n = self.nrows
        for i in range(n):
            if _nonzero(self.rows[i][i]):
                return False
            for j in range(i + 1, n):
                if _nonzero(self.rows[i][j] + self.rows[j][i]):
                    return False
        return True

    def is_symmetric(self):
        if not self.is_square():
            return False
        n = self.nrows
        return all(not _nonzero(self.rows[i][j] - self.rows[j][i])
                   for i in range(n) for j in range(i + 1, n))

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)


def _dot(r, c):
    acc = r[0] * c[0]
    for a, b in zip(r[1:], c[1:]):
        acc = acc + a * b
    return acc


def _nonzero(x):
    if isinstance(x, SparsePoly):
        return not x.is_zero()
    return bool(x)


# ---------------------------------------------------------------------------
# elimination over exact fields


def rref_naive(rows, domain: Domain):
    """Reference path: divide at every pivot.  Returns (rref_rows, pivots)."""
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not domain.is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = domain.one() / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and not domain.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m[:r], pivots


def rref_bareiss(rows, domain: Domain):
    """Fraction-free forward elimination, then exact normalization to RREF.

    Agrees entry for entry with rref_naive on every exact field.
    """
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    pivots = []
    prev = domain.one()
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not domain.is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, nr):
            fi = m[i][c]
            m[i] = [(pv * m[i][j] - fi * m[r][j]) / prev for j in range(nc)]
        prev = pv
        pivots.append(c)
        r += 1
        if r == nr:
            break
    m = m[:r]
    # normalize pivots to 1 and eliminate upwards
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        inv = domain.one() / m[k][c]
        m[k] = [x * inv for x in m[k]]
        for i in range(k):
            f = m[i][c]
            if not domain.is_zero(f):
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return m, pivots


def nullspace_from_rref(rref, pivots, ncols, domain: Domain):
    basis = []
    pivset = set(pivots)
    for f in range(ncols):
        if f in pivset:
            continue
        v = [domain.zero()] * ncols
        v[f] = domain.one()
        for i, c in enumerate(pivots):
            v[c] = -rref[i][f]
        basis.append(v)
    return basis


def nullspace(m, domain: Domain = None, method="bareiss"):
    """Basis of the right kernel.  Empty list iff full column rank.

    Exact domains use fraction-free elimination ("naive" selects the
    reference path).  Complex matrices go through the SVD with the default
    relative threshold; use nullspace_complex directly to tune it.
    """
    rows = m.rows if isinstance(m, Matrix) else [list(r) for r in m]
    if domain is None:
        domain = _infer_domain(rows)
    if isinstance(domain, ComplexField):
        arr = np.array([[complex(x) for x in r] for r in rows])
        basis, _ = nullspace_complex(arr)
        return [list(v) for v in basis]
    if not isinstance(domain, Domain):
        raise UnsupportedDomainError("nullspace needs a field scalar domain")
    if any(isinstance(x, SparsePoly) for r in rows for x in r):
        raise UnsupportedDomainError("nullspace over polynomial entries is not supported")
    fn = rref_naive if method == "naive" else rref_bareiss
    rref, pivots = fn(rows, domain)
    return nullspace_from_rref(rref, pivots, len(rows[0]), domain)


def rank(m, domain: Domain):
    """Exact rank by elimination; complex matrices count the singular values
    at or above the default relative threshold of the SVD kernel."""
    rows = m.rows if isinstance(m, Matrix) else m
    if isinstance(domain, ComplexField):
        return len(rows[0]) - len(_svd_kernel(rows)[0])
    _, pivots = rref_bareiss(rows, domain)
    return len(pivots)


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
    if any(not domain.is_zero(_dot(r, sol) - v) for r, v in zip(rows, rhs)):
        raise RuntimeError("inconsistent solution")
    return sol


def _infer_domain(rows):
    from fractions import Fraction

    from .fields import Cyc, Fp, GF, QW
    x = rows[0][0]
    if isinstance(x, Fp):
        return GF(x.p)
    if isinstance(x, Cyc):
        return QW
    if isinstance(x, (int, Fraction)):
        return QQ
    if isinstance(x, (float, complex)):
        return CC
    raise UnsupportedDomainError("cannot infer scalar domain from %r" % (x,))


# ---------------------------------------------------------------------------
# ring-generic square-matrix routines (no division)


def det_bareiss(m, domain: Domain):
    rows = m.rows if isinstance(m, Matrix) else [list(r) for r in m]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant of a non-square matrix")
    rows = [list(r) for r in rows]
    prev = domain.one()
    sign = 1
    for k in range(n - 1):
        if domain.is_zero(rows[k][k]):
            piv = next((i for i in range(k + 1, n) if not domain.is_zero(rows[i][k])), None)
            if piv is None:
                return domain.zero()
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        pv = rows[k][k]
        for i in range(k + 1, n):
            fi = rows[i][k]
            rows[i] = [(pv * rows[i][j] - fi * rows[k][j]) / prev for j in range(n)]
        prev = pv
    d = rows[n - 1][n - 1]
    return d if sign == 1 else -d


def det_ring(m):
    """Determinant by Laplace expansion memoized over column subsets.

    Division-free, so valid for polynomial entries.
    """
    rows = m.rows if isinstance(m, Matrix) else m
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("determinant of a non-square matrix")
    cache = {}

    def rec(row, colmask, cols):
        if row == n:
            return None  # signals scalar 1 for the empty product
        key = colmask
        if key in cache:
            return cache[key]
        acc = None
        for k, c in enumerate(cols):
            a = rows[row][c]
            if not _nonzero(a):
                continue
            rest = rec(row + 1, colmask & ~(1 << c), cols[:k] + cols[k + 1:])
            term = a if rest is None else a * rest
            if k % 2 == 1:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = _zero_like(rows[row][cols[0]])
        cache[key] = acc
        return acc

    return rec(0, (1 << n) - 1, tuple(range(n)))


def _zero_like(x):
    if isinstance(x, SparsePoly):
        return SparsePoly.zero(x.nvars, x.domain)
    return x - x


def pfaffian(m):
    """Pfaffian of an even-dimensional skew matrix, by recursive expansion."""
    M = m if isinstance(m, Matrix) else Matrix(m)
    if not M.is_square() or M.nrows % 2 != 0:
        raise ShapeError("pfaffian needs an even-dimensional square matrix")
    if not M.is_skew():
        raise ShapeError("pfaffian needs a skew-symmetric matrix")
    return _pf(M.rows, list(range(M.nrows)))


def _pf(rows, idx):
    if not idx:
        return None
    if len(idx) == 2:
        return rows[idx[0]][idx[1]]
    i0 = idx[0]
    acc = None
    for k in range(1, len(idx)):
        a = rows[i0][idx[k]]
        if not _nonzero(a):
            continue
        rest = _pf(rows, idx[1:k] + idx[k + 1:])
        term = a if rest is None else a * rest
        if k % 2 == 0:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        acc = _zero_like(rows[i0][idx[1]])
    return acc


def sub_pfaffian_kernel(m):
    """Kernel vector of an odd skew matrix: w_i = (-1)^i Pf(m with row and
    column i removed).  Spans the kernel whenever the matrix has corank 1."""
    M = m if isinstance(m, Matrix) else Matrix(m)
    if not M.is_square() or M.nrows % 2 == 0:
        raise ShapeError("signed sub-pfaffians need odd dimension")
    out = []
    for i in range(M.nrows):
        v = pfaffian(M.delete_row_col(i))
        out.append(v if i % 2 == 0 else -v)
    return out


def adjugate(m):
    """Classical adjugate: m . adj(m) = det(m) . I exactly."""
    M = m if isinstance(m, Matrix) else Matrix(m)
    if not M.is_square():
        raise ShapeError("adjugate of a non-square matrix")
    n = M.nrows
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            c = det_ring(M.delete_row_col(j, i))
            if (i + j) % 2 == 1:
                c = -c
            row.append(c)
        out.append(row)
    return Matrix(out)


# ---------------------------------------------------------------------------
# numpy fast paths


def check_int64_prime(p: int) -> None:
    """Refuse a prime whose products overflow the int64 mod-p paths."""
    if p * p > 2 ** 63 - 1:
        raise ValueError("prime %d is too large for int64 arithmetic mod p "
                         "(need p^2 < 2^63)" % p)


def rref_mod_p(a: np.ndarray, p: int):
    """Reduced row echelon form of an integer matrix mod a prime p.

    Returns (rows, pivots): the non-zero rows of the RREF as an int64 array
    with entries in [0, p), and the list of pivot columns.  p must pass
    check_int64_prime (p^2 < 2^63); every intermediate stays inside int64.

    Gauss-Jordan elimination that updates only the trailing columns and
    delays reduction: each pivot reduces its search column and its row,
    and the trailing block is reduced only when the next update could
    overflow.
    """
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


def nullspace_mod_p(a: np.ndarray, p: int) -> np.ndarray:
    rref, pivots = rref_mod_p(a, p)
    is_free = np.ones(rref.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, rref.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-rref[:, free]).T % p
    return basis


def proj_points_mod_p(p: int, dim: int = 3) -> np.ndarray:
    """All points of P^dim(F_p), one affine chart per leading coordinate."""
    charts = []
    for lead in range(dim + 1):
        free = dim - lead
        if free == 0:
            block = np.zeros((1, dim + 1), dtype=np.int64)
        else:
            grids = np.meshgrid(*([np.arange(p, dtype=np.int64)] * free), indexing="ij")
            block = np.zeros((p ** free, dim + 1), dtype=np.int64)
            for k, gcol in enumerate(grids):
                block[:, lead + 1 + k] = gcol.ravel()
        block[:, lead] = 1
        charts.append(block)
    return np.concatenate(charts, axis=0)


def _monomial_columns_mod_p(points: np.ndarray, exps, p: int):
    """Yield the column x^e mod p over the (N, n) int64 points for each
    exponent vector e, all from one table of powers of the points."""
    powers = [points % p]
    for _ in range(max(max(e) for e in exps) - 1):
        powers.append(powers[-1] * powers[0] % p)
    for exp in exps:
        col = np.ones(points.shape[0], dtype=np.int64)
        for v, e in enumerate(exp):
            if e:
                col = col * powers[e - 1][:, v] % p
        yield col


def eval_poly_mod_p(polys, points: np.ndarray, p: int) -> np.ndarray:
    """Values mod p of integer- or rational-coefficient SparsePolys on an
    (N, n) int64 array of points, shape (N, len(polys)).  Each monomial
    column is computed once, however many of the polynomials share it."""
    check_int64_prime(p)
    exps = sorted({e for f in polys for e in f.terms})
    out = np.zeros((len(polys), points.shape[0]), dtype=np.int64)
    for exp, col in zip(exps, _monomial_columns_mod_p(points, exps, p)):
        for row, f in zip(out, polys):
            if exp in f.terms:
                # both factors are below p, so the sum stays below p^2
                row += _coeff_mod_p(f.terms[exp], p) * col
                row %= p
    return out.T


def _coeff_mod_p(c, p: int) -> int:
    from fractions import Fraction

    from .fields import Fp
    if isinstance(c, Fp):
        return c.val
    f = Fraction(c)
    return f.numerator * pow(f.denominator, -1, p) % p


def nullspace_complex(a: np.ndarray, rel_threshold: float = 1e-8):
    """SVD kernel with threshold relative to the top singular value.

    Returns (basis_rows, absolute_threshold)."""
    basis, thr, _ = _svd_kernel(a, rel_threshold)
    return basis, thr


def _svd_kernel(a, rel_threshold: float = 1e-8):
    """(basis_rows, absolute_threshold, singular_values) of the SVD kernel."""
    a = np.asarray(a, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    top = s[0] if s.size else 0.0
    thr = rel_threshold * top if top > 0 else rel_threshold
    # rows of vh are conjugate-transposed right singular vectors
    null_rows = [np.conj(vh[i]) for i in range(a.shape[1]) if i >= s.size or s[i] < thr]
    return null_rows, thr, s


# ---------------------------------------------------------------------------
# hypersurface interpolation


@dataclass
class FitResult:
    forms: list
    threshold: float | None
    singular_values: np.ndarray | None = None

    def __iter__(self):
        return iter(self.forms)

    def __len__(self):
        return len(self.forms)


def monomial_row(point, exps, domain: Domain):
    powers = []
    maxe = max(max(e) for e in exps)
    for x in point:
        ps = [domain.one()]
        for _ in range(maxe):
            ps.append(ps[-1] * x)
        powers.append(ps)
    row = []
    for exp in exps:
        t = domain.one()
        for v, e in enumerate(exp):
            if e:
                t = t * powers[v][e]
        row.append(t)
    return row


def fit_hypersurface(points, degree: int, domain: Domain,
                     rel_threshold: float = 1e-8) -> FitResult:
    """Basis of degree-d forms vanishing at all the given projective points.

    The kernel of the monomial evaluation matrix.  Few points simply give a
    larger space; inconsistent point dimensions are a shape error.
    """
    if not points:
        raise ShapeError("no points")
    nvars = len(points[0])
    if any(len(p) != nvars for p in points):
        raise ShapeError("points of mixed dimension")
    exps = exponents_of_degree(nvars, degree)
    if isinstance(domain, PrimeField):
        p = domain.p
        pts = np.array([[_int_val(x) for x in pt] for pt in points], dtype=np.int64)
        a = np.stack(list(_monomial_columns_mod_p(pts, exps, p)), axis=1)
        basis = nullspace_mod_p(a, p)
        forms = [_vector_to_form(v, exps, domain) for v in basis]
        return FitResult(forms, None)
    if isinstance(domain, ComplexField):
        # the SVD threshold is relative to the whole matrix, so each point is
        # scaled to max-abs 1: a projective point's condition has no scale
        pts = np.array([[complex(x) for x in pt] for pt in points])
        top = np.abs(pts).max(axis=1, keepdims=True)
        pts = pts / np.where(top > 0, top, 1.0)
        rows = np.array([monomial_row([complex(x) for x in pt], exps, CC) for pt in pts],
                        dtype=complex)
        basis, thr, s = _svd_kernel(rows, rel_threshold)
        forms = [_vector_to_form(v, exps, domain) for v in basis]
        return FitResult(forms, thr, s)
    rows = [monomial_row([domain.coerce(x) for x in pt], exps, domain) for pt in points]
    basis = nullspace(rows, domain)
    forms = [_vector_to_form(v, exps, domain) for v in basis]
    return FitResult(forms, None)


def _int_val(x):
    from .fields import Fp
    if isinstance(x, Fp):
        return x.val
    return int(x)


def _vector_to_form(vec, exps, domain: Domain):
    p = SparsePoly(len(exps[0]), domain)
    for exp, c in zip(exps, vec):
        c = domain.coerce(int(c)) if isinstance(domain, PrimeField) else domain.coerce(c)
        if not domain.is_zero(c):
            p.terms[exp] = c
    return p


# ---------------------------------------------------------------------------
# projective comparisons


def chordal_distance(u, v) -> float:
    """Distance between projective points, phase and scale invariant."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ValueError("zero vector is not projective")
    u, v = u / nu, v / nv
    ip = np.vdot(v, u)
    phase = ip / abs(ip) if abs(ip) > 0 else 1.0
    return float(np.linalg.norm(u - phase * v))


def proj_ratio(a, b, domain: Domain):
    """The scalar lam != 0 with a = lam * b entry for entry, or None.

    a and b are equally long coefficient sequences (points, flattened
    polynomials or matrices) over an exact domain; floating callers compare
    with chordal_distance instead.  Equal zero patterns are part of the
    test, so a zero vector on either side gives None."""
    if not domain.is_exact:
        raise UnsupportedDomainError("proj_ratio needs an exact domain")
    lam = None
    for x, y in zip(a, b, strict=True):
        if lam is not None:
            if x != lam * y:
                return None
        elif y:
            lam = domain.coerce(x) / domain.coerce(y)
            if not lam:
                return None
        elif x:
            return None
    return lam
