"""Exact and floating linear algebra.

An exact matrix is a list of rows of scalars or SparsePolys; arrays are
the working form of eliminations and evaluations only.

Every kernel and rank goes through _kernel, the one place that chooses the
elimination for a field: int64 rref_mod_p over GF(p), the SVD kernel
(nullspace_complex) over CC, and fraction-free Bareiss elimination over Q
and Q(w).  The naive division-based Gaussian elimination is kept apart as
the reference oracle; both exact paths finish by normalizing to reduced
row echelon form and must agree entry for entry.

The ring-generic routines (mat_vec, pfaffian, det_ring, adjugate) avoid
division entirely, so they also work on polynomial matrices.  det_ring and
adjugate read every minor from one memoized table, _minor_table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

import numpy as np

from .fields import ComplexField, Domain, GF, PrimeField, RationalField
from .poly import SparsePoly, exponents_of_degree


class ShapeError(ValueError):
    pass


class UnsupportedDomainError(TypeError):
    pass


class ResourceCapError(RuntimeError):
    """An enumeration would exceed the state cap."""


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


def nullspace(rows, domain: Domain, method="bareiss"):
    """Basis of the right kernel (see _kernel) as lists of the domain's
    scalars, Fp objects over GF(p).  Empty list iff full column rank.  Use
    nullspace_complex directly to tune the SVD threshold over CC."""
    if not isinstance(domain, Domain):
        raise UnsupportedDomainError("nullspace needs a field scalar domain")
    if any(isinstance(x, SparsePoly) for r in rows for x in r):
        raise UnsupportedDomainError("nullspace over polynomial entries is not supported")
    _, basis, _ = _kernel(_array_form(rows, domain), domain, method)
    if isinstance(domain, PrimeField):
        return [[domain.from_int(int(x)) for x in v] for v in basis()]
    return [list(v) for v in basis()]


def rank(rows, domain: Domain):
    """The rank that _kernel's elimination finds, so over CC the number of
    singular values at or above the default relative threshold."""
    return _kernel(_array_form(rows, domain), domain)[0]


def _kernel(a: np.ndarray, domain: Domain, method="bareiss"):
    """(rank, basis, singular values or None) of the right kernel of a 2-d
    array in the domain's array form, which this call may overwrite.  The
    one switch between eliminations: rref_mod_p over GF(p),
    nullspace_complex over CC, and rref_bareiss (rref_naive with method
    "naive") over Q and Q(w).  basis() returns the basis rows, an exact
    basis the identity on the free columns; the back-substitution runs only
    when it is called, so a caller that needs the rank alone never pays it.

    Over GF(p) the elimination runs on the transposed matrix in the dtype
    of rref_mod_p's panels (see _rref_mod_p_in_place).  An array a whose
    transpose is already that, C-contiguous, as fit_hypersurface builds
    it, is eliminated where it stands, and basis() reads the RREF from it
    as a view; any other array is copied into that form first."""
    nc = a.shape[1]
    if isinstance(domain, ComplexField):
        kernel, s = nullspace_complex(a)
        return nc - len(kernel), lambda: kernel, s
    if isinstance(domain, PrimeField):
        check_int64_prime(domain.p)
        # no copy when a is the transpose of a matrix rref_mod_p can reduce
        t = np.ascontiguousarray(a.T, dtype=_panel_plan(domain.p)[0])
        pivots = _rref_mod_p_in_place(t, domain.p)
        # the RREF transposed, a view of t
        rref_t = t[:, :len(pivots)]
        zero, one, dtype = 0, 1, np.int64
    else:
        fn = rref_naive if method == "naive" else rref_bareiss
        rref, pivots = fn(a.tolist(), domain)
        rref_t = np.asarray(rref, dtype=a.dtype).reshape(len(rref), nc).T
        zero, one, dtype = domain.zero(), domain.one(), a.dtype

    def basis():
        pivset = set(pivots)
        free = [c for c in range(nc) if c not in pivset]
        out = np.full((len(free), nc), zero, dtype=dtype)
        out[range(len(free)), free] = one
        out[:, pivots] = -rref_t[free]
        if isinstance(domain, PrimeField):
            out %= domain.p
        return out

    return len(pivots), basis, None


# ---------------------------------------------------------------------------
# ring-generic routines on lists of rows (no division)
#
# Entries may be ints, Fractions, Fp, Cyc or SparsePolys.  A sum starts
# from its first term, never from the int 0, and a zero of the entries'
# ring is e - e for an entry e, so every routine works over each of them.


def mat_vec(rows, v):
    """The product of a matrix, as a list of rows, and the vector v."""
    if any(len(r) != len(v) for r in rows):
        raise ShapeError("dimension mismatch")
    out = []
    for r in rows:
        acc = r[0] * v[0]
        for a, b in zip(r[1:], v[1:]):
            acc = acc + a * b
        out.append(acc)
    return out


def _nonzero(x):
    if isinstance(x, SparsePoly):
        return not x.is_zero()
    return bool(x)


def _is_square(rows) -> bool:
    return len(rows) > 0 and all(len(r) == len(rows) for r in rows)


def _minor_table(rows):
    """The minors of a square matrix as one memoized function minor(rs, cs)
    of a row and a column bitmask with equally many bits.  A minor is
    expanded along its lowest-numbered row, so the smaller minors it reads
    keep its other rows, and each is computed once however many larger
    minors read it.  A minor with no nonzero term is the zero of the
    entries' ring."""
    n = len(rows)
    support = [sum(1 << j for j, x in enumerate(row) if _nonzero(x)) for row in rows]
    zero = rows[0][0] - rows[0][0]
    table = {}

    def minor(rs, cs):
        key = rs << n | cs
        hit = table.get(key)
        if hit is None:
            i = (rs & -rs).bit_length() - 1
            rest = rs & (rs - 1)
            row, nz = rows[i], support[i]
            if not rest:
                hit = row[cs.bit_length() - 1]
            else:
                neg = False
                for j in range(n):
                    bit = 1 << j
                    if cs & bit:
                        if nz & bit:
                            t = row[j] * minor(rest, cs ^ bit)
                            if hit is None:
                                hit = -t if neg else t
                            else:
                                hit = hit - t if neg else hit + t
                        neg = not neg
                if hit is None:
                    hit = zero
            table[key] = hit
        return hit

    return minor


def det_ring(rows):
    """Determinant, the full minor of _minor_table: division-free, so valid
    for polynomial entries."""
    if not _is_square(rows):
        raise ShapeError("determinant of a non-square matrix")
    full = (1 << len(rows)) - 1
    return _minor_table(rows)(full, full)


def pfaffian(rows):
    """Pfaffian of an even-dimensional skew matrix, by recursive expansion."""
    n = len(rows)
    if not _is_square(rows) or n % 2 != 0:
        raise ShapeError("pfaffian needs an even-dimensional square matrix")
    if any(_nonzero(rows[i][i]) for i in range(n)) or any(
            _nonzero(rows[i][j] + rows[j][i]) for i in range(n) for j in range(i)):
        raise ShapeError("pfaffian needs a skew-symmetric matrix")
    return _pf(rows, list(range(n)))


def _pf(rows, idx):
    if len(idx) == 2:
        return rows[idx[0]][idx[1]]
    i0 = idx[0]
    acc = None
    for k in range(1, len(idx)):
        a = rows[i0][idx[k]]
        if not _nonzero(a):
            continue
        term = a * _pf(rows, idx[1:k] + idx[k + 1:])
        if k % 2 == 0:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        acc = rows[i0][idx[1]] - rows[i0][idx[1]]
    return acc


def sub_pfaffian_kernel(rows):
    """Kernel vector of an odd skew matrix: w_i = (-1)^i Pf(m with row and
    column i removed).  Spans the kernel whenever the matrix has corank 1."""
    n = len(rows)
    if not _is_square(rows) or n % 2 == 0:
        raise ShapeError("signed sub-pfaffians need odd dimension")
    out = []
    for i in range(n):
        v = pfaffian([[x for c, x in enumerate(row) if c != i]
                      for r, row in enumerate(rows) if r != i])
        out.append(v if i % 2 == 0 else -v)
    return out


def adjugate(rows):
    """Classical adjugate, as rows: m . adj(m) = det(m) . I exactly.

    All n^2 cofactors come from one _minor_table.  A matrix over Q (entries
    int or Fraction) is scaled to integers by one common denominator first,
    so that the table holds ints; the entries are Fractions if any entry
    was one, else ints."""
    if not _is_square(rows):
        raise ShapeError("adjugate of a non-square matrix")
    n = len(rows)
    if n == 1:
        # the empty minor is 1, in the entries' ring
        x = rows[0][0]
        return [[x - x + 1]]
    entries = [x for row in rows for x in row]
    rational = all(isinstance(x, (int, Fraction)) for x in entries)
    if rational:
        den = lcm(*(x.denominator for x in entries))
        rows = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    minor = _minor_table(rows)
    full = (1 << n) - 1

    def cofactor(i, j):
        c = minor(full ^ 1 << j, full ^ 1 << i)
        return -c if (i + j) % 2 else c

    adj = [[cofactor(i, j) for j in range(n)] for i in range(n)]
    if rational and any(isinstance(x, Fraction) for x in entries):
        scale = den ** (n - 1)
        adj = [[Fraction(c, scale) for c in row] for row in adj]
    return adj


# perfbench/tracer.py times Matrix.mat_mul and Matrix.mat_vec of this module
# by name; they stay resolvable here, though nothing in the package calls them
Matrix = SimpleNamespace(mat_mul=np.dot, mat_vec=mat_vec)


# ---------------------------------------------------------------------------
# numpy fast paths


# the most states (points, group elements, lattice terms) one enumeration
# may visit: every one reachable at default inputs fits, the largest being
# Sp(6, F_2) with 1,451,520 elements and P^3(F_127) with 2,064,640 points
STATE_CAP = 2 ** 21

# the most states an enumeration holds at once: the P^n(F_q) points and the
# group closure's frontier are walked a block at a time, so their working
# memory grows with the block and not with the number of states
STATE_BLOCK = 2 ** 12


def check_states(n: int) -> None:
    """Refuse, before it starts, an enumeration of more than STATE_CAP states."""
    if n > STATE_CAP:
        raise ResourceCapError("enumeration of %d states exceeds cap %d"
                               % (n, STATE_CAP))


def check_int64_prime(p: int) -> None:
    """Refuse a prime whose products overflow the int64 mod-p paths."""
    if p * p > 2 ** 63 - 1:
        raise ValueError("prime %d is too large for int64 arithmetic mod p "
                         "(need p^2 < 2^63)" % p)


# widest panel of rref_mod_p, and the rows of one trailing product; the
# trailing product's buffer also holds a panel's, as _CHUNK >= _PANEL
_PANEL = 24
_CHUNK = 64


def _panel_plan(p: int):
    """(dtype, width) of rref_mod_p's panels at the prime p.

    A panel of `width` columns makes at most `width` rank-1 updates, each
    moving an entry by at most (p-1)^2, and a trailing entry t + e.u adds
    `width` products of factors in [0, p) to t in [0, p), so every entry
    stays below width (p-1)^2 + p in size.  float64 holds that exactly,
    and BLAS forms the products, while it is below 2^53; larger primes use
    int64 with the width that keeps it within 2^63.
    """
    if _PANEL * (p - 1) ** 2 + p < 2 ** 53:
        return np.float64, _PANEL
    return np.int64, min(_PANEL, (2 ** 63 - p) // (p - 1) ** 2)


def _reduce(x: np.ndarray, p: int, out: np.ndarray) -> None:
    """out = x mod p for an integer-valued array x and another array out of
    its dtype, which is float64 only while 0 <= x < 2^53.  Then x / p rounds
    to a float with the same floor, so x - floor(x / p) p is exact, and much
    faster than np.remainder."""
    if x.dtype == np.int64:
        np.remainder(x, p, out=out)
        return
    np.divide(x, p, out=out)
    np.floor(out, out=out)
    out *= p
    np.subtract(x, out, out=out)


def _inverse_mod_p(b: np.ndarray, p: int):
    """The inverse mod p of a small square int64 matrix with entries in
    [0, p), or None if it is singular.  Gauss-Jordan on [b | I], reduced
    after every step; a row swap is made only where a pivot is zero."""
    n = b.shape[0]
    m = np.zeros((n, 2 * n), dtype=np.int64)
    m[:, :n] = b
    m[:, n:] = np.eye(n, dtype=np.int64)
    update = np.empty_like(m)
    for c in range(n):
        if not m[c, c]:
            nz = np.flatnonzero(m[c:, c])
            if nz.size == 0:
                return None
            m[[c, c + nz[0]]] = m[[c + nz[0], c]]
        row = m[c]
        row *= pow(int(row[c]), -1, p)
        row %= p
        np.multiply.outer(m[:, c], row, out=update)
        update[c] = 0
        m -= update
        m %= p
    return m[:, n:]


def _block_step(panel: np.ndarray, p: int, r: int, buf: np.ndarray):
    """The panel's multipliers X, if its square block on columns r.. is
    invertible mod p, else None; buf is scratch of at least the panel's
    size.

    The panel is the transposed system's rows for the panel's columns, and
    its block B^T the one on the system's rows r..r+w.  Then every panel
    column is a pivot, on those rows in order, and X is the transposed E
    of rref_mod_p: B^-T on columns r..r+w and -B^-T times the panel
    elsewhere.  The panel is left reduced: the identity on columns r..r+w
    and zero elsewhere."""
    w, nr = panel.shape
    if r + w > nr:
        return None
    inv = _inverse_mod_p(panel[:, r:r + w].astype(np.int64), p)
    if inv is None:
        return None
    neg = np.where(inv == 0, 0, p - inv).astype(panel.dtype)
    # each entry below w (p-1)^2
    prod = np.matmul(neg, panel, out=buf[:panel.size].reshape(panel.shape))
    x = np.empty_like(panel)
    _reduce(prod, p, out=x)
    x[:, r:r + w] = inv
    panel[:] = 0
    panel[range(w), range(r, r + w)] = 1
    return x


def _eliminate_panel(panel: np.ndarray, p: int, r: int, rest: np.ndarray):
    """Gauss-Jordan on the panel (the transposed system's rows for the
    panel's columns) in place, one rank-1 update per pivot, with pivots from
    column r on; returns (pivot offsets in the panel, X) and leaves the
    panel reduced mod p.  Each of the system's row swaps, a column swap
    here, is also made on `rest`, the transposed rows after the panel.

    The work is on the int64 W = [panel; 0].  The j-th pivot column first
    gets a 1 in row j of the lower half, so that half ends as X: the
    transposed multiples E of rref_mod_p.  An update subtracts at most
    (p-1)^2 from an entry, and a panel of _panel_plan's width makes too
    few to wrap int64, so each pivot's whole search row (the system's
    column) is reduced before it gives the multipliers, and its pivot
    column before it is scaled, but nothing else before the end.
    """
    w, nr = panel.shape
    ww = np.zeros((2 * w, nr), dtype=np.int64)
    ww[:w] = panel
    pivots = []
    for c in range(w):
        if r == nr:
            break
        col = ww[c]
        col %= p
        nz = np.flatnonzero(col[r:])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            ww[:, [r, piv]] = ww[:, [piv, r]]
            rest[:, [r, piv]] = rest[:, [piv, r]]
        # lower-half rows past this pivot's are still zero in every column
        end = w + len(pivots) + 1
        ww[end - 1, r] = 1
        row = ww[c:end, r]
        row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        mult = col.copy()
        mult[r] = 0
        ww[c:end] -= np.multiply.outer(row, mult)
        pivots.append(c)
        r += 1
    ww %= p
    panel[:] = ww[:w]
    return pivots, ww[w:w + len(pivots)].astype(panel.dtype)


def rref_mod_p(a: np.ndarray, p: int):
    """Reduced row echelon form of an integer matrix mod a prime p.

    Returns (rows, pivots): the non-zero rows of the RREF as an int64 array
    with entries in [0, p), and the list of pivot columns.  p must pass
    check_int64_prime (p^2 < 2^63).

    Blocked Gauss-Jordan on the transposed matrix T, one contiguous row per
    column of the system, in _panel_plan's dtype: row operations of the
    system are column operations of T.  A panel of at most `width` columns
    of the system is eliminated first; its k pivots then update the
    trailing columns in one product.  With B the k x k pivot block of the
    panel as it was and M its pivot columns, the pivot rows become
    B^-1 (trailing pivot rows) and every other row loses M B^-1 times them:
    transposed, the trailing rows of T become T[:, piv] X plus T with the
    pivot columns zeroed, X = E^T = [B^-T on the pivot columns; -B^-T M^T].

    A panel tries its square block on rows r..r+width first: if it is
    invertible mod p, every panel column is a pivot and X comes from one
    small inverse and one product (_block_step).  Otherwise the panel takes
    one rank-1 step per pivot, with row swaps (_eliminate_panel), whose
    multipliers are X.  The RREF and its pivots are unique, so both give
    the same result.

    Every product is exact: float64 (BLAS) while
    width (p-1)^2 + p < 2^53, else int64 with width (p-1)^2 + p <= 2^63,
    so the width is 1 at the largest admissible prime.  The trailing
    product is formed _CHUNK rows of T at a time in one buffer, which the
    block step's product shares, so T itself is the only full-size array.
    """
    check_int64_prime(p)
    t = np.remainder(np.asarray(a, dtype=np.int64).T, p, order="C")
    t = t.astype(_panel_plan(p)[0], copy=False)
    pivots = _rref_mod_p_in_place(t, p)
    return t[:, :len(pivots)].T.astype(np.int64), pivots


def _rref_mod_p_in_place(t: np.ndarray, p: int):
    """rref_mod_p of the transposed matrix t, which it reduces in place:
    C-contiguous, one row per column of the system, entries in [0, p), in
    _panel_plan's dtype.  Returns the pivots; the RREF's rows are the
    columns t[:, :len(pivots)]."""
    nc, nr = t.shape
    dtype, width = _panel_plan(p)
    buf = np.empty(min(_CHUNK, nc) * nr, dtype=dtype)
    r = 0
    pivots = []
    for c0 in range(0, nc, width):
        if r == nr:
            break
        panel, rest = t[c0:c0 + width], t[c0 + width:]
        x = _block_step(panel, p, r, buf)
        if x is None:
            cols, x = _eliminate_panel(panel, p, r, rest)
        else:
            cols = list(range(panel.shape[0]))
        k = len(cols)
        piv = slice(r, r + k)
        for j in range(0, rest.shape[0] if k else 0, _CHUNK):
            rows = rest[j:j + _CHUNK]
            prod = buf[:rows.size].reshape(rows.shape)
            np.matmul(rows[:, piv], x, out=prod)
            rows[:, piv] = 0
            prod += rows
            _reduce(prod, p, out=rows)
        # so that the next panel's X is formed without this one alive
        del x
        pivots += [c0 + c for c in cols]
        r += k
    return pivots


def proj_points_mod_p(p: int, dim: int = 3):
    """The points of P^dim(F_p) as int64 blocks of at most STATE_BLOCK rows:
    one affine chart per leading coordinate, each in row-major order of its
    free coordinates, and a block may run on into the next chart.  More
    than STATE_CAP points are refused by this call, before anything is
    built."""
    check_states(sum(p ** k for k in range(dim + 1)))
    return _proj_point_blocks(p, dim)


def _proj_point_blocks(p: int, dim: int):
    # chart `lead` holds the p^(dim - lead) points with a 1 in coordinate
    # lead and zeros before it, at rows starts[lead] onwards.  Coordinate k
    # of the point at offset i in its chart is i // p^(dim - k) % p past the
    # lead, and that quotient is 0 up to the lead.  A block is built by
    # columns, the last first, each from one division of the quotient left
    # by the column after it, and handed out transposed
    starts = np.cumsum([0] + [p ** (dim - lead) for lead in range(dim + 1)])
    total = int(starts[-1])
    for first in range(0, total, STATE_BLOCK):
        idx = np.arange(first, min(first + STATE_BLOCK, total), dtype=np.int64)
        lead = np.searchsorted(starts, idx, side="right") - 1
        quot = idx - starts[lead]
        cols = np.empty((dim + 1, idx.size), dtype=np.int64)
        for col in cols[::-1]:
            rest = quot // p
            np.subtract(quot, rest * p, out=col)
            quot = rest
        cols[lead, np.arange(idx.size)] = 1
        yield cols.T


def nullspace_complex(a, rel_threshold: float = 1e-8):
    """SVD kernel with threshold relative to the top singular value.

    Returns (basis, singular_values): the basis rows are the conjugated
    right singular vectors past the last singular value at or above the
    threshold."""
    a = np.asarray(a, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    top = s[0] if s.size else 0.0
    thr = rel_threshold * top if top > 0 else rel_threshold
    # s is in descending order, so the kernel's rows of vh are a suffix
    return np.conj(vh[np.count_nonzero(s >= thr):]), s


# ---------------------------------------------------------------------------
# polynomial evaluation at many points


def _elem(x, domain: Domain):
    """x in the domain's array form: its residue in [0, p) over GF(p), else
    the coerced element."""
    x = domain.coerce(x)
    return x.val if isinstance(domain, PrimeField) else x


def _array_form(rows, domain: Domain) -> np.ndarray:
    """Rows of scalars as a 2-d array in the domain's array form: int64 in
    [0, p) over GF(p), complex over CC, Fraction or Cyc objects over Q and
    Q(w).  An int64 array over GF(p) is only reduced mod p, and a complex
    array over CC is used as it is."""
    dtype = {PrimeField: np.int64, ComplexField: complex}.get(type(domain), object)
    if isinstance(rows, np.ndarray) and dtype is not object and rows.dtype == dtype:
        return rows % domain.p if dtype == np.int64 else rows
    return np.array([[_elem(x, domain) for x in r] for r in rows], dtype=dtype)


def _monomial_columns(pts: np.ndarray, exps, one, p: int | None = None):
    """Yield the column x^e over the rows of pts for each exponent vector e,
    all from one table of powers of the points; `one` is the column of the
    empty product.  With p given, every product is reduced mod p.  A column
    may be a row of that table, so it is read, never written."""
    def mul(a, b):
        return a * b if p is None else a * b % p

    powers = [np.ascontiguousarray(pts.T)]
    for _ in range(max((max(e) for e in exps), default=1) - 1):
        powers.append(mul(powers[-1], powers[0]))
    ones = np.full(pts.shape[0], one, dtype=pts.dtype)
    for exp in exps:
        col = ones
        for v, e in enumerate(exp):
            if e:
                col = powers[e - 1][v] if col is ones else mul(col, powers[e - 1][v])
        yield col


def eval_polys(polys, points, domain: Domain) -> np.ndarray:
    """Values of the SparsePolys at the points, shape (N, len(polys)), in
    the domain's array form (see _array_form).  Points and coefficients are
    coerced into the domain, except that an int64 array of points over GF(p)
    or a complex one over CC is used as an array; p must pass
    check_int64_prime.  The monomial columns are streamed one at a time,
    each computed once however many of the polynomials share it.

    Over GF(p), a value is reduced once, at the end, while every partial
    sum fits int64 (see _delays_reduction), and otherwise after every
    product.  Over Q the arithmetic is on ints (see _eval_polys_rational).
    This is prepare_polys(polys, domain) applied to the points."""
    return prepare_polys(polys, domain)(points)


def prepare_polys(polys, domain: Domain):
    """eval_polys of the polynomials as a function of the points alone.
    What depends only on the polynomials is done here, once: the sorted
    exponents, the coefficients in array form and the choice of reduction,
    so a caller that evaluates block after block pays it once."""
    p = domain.p if isinstance(domain, PrimeField) else None
    if p is not None:
        check_int64_prime(p)
    exps = sorted({e for f in polys for e in f.terms})
    if isinstance(domain, RationalField):
        return lambda points: _eval_polys_rational(polys, _array_form(points, domain), exps)
    coeffs = [{e: _elem(c, domain) for e, c in f.terms.items()} for f in polys]
    delayed = p is not None and _delays_reduction(
        p, max((sum(e) for e in exps), default=0), len(exps))
    zero, one = _elem(0, domain), _elem(1, domain)

    def apply(points) -> np.ndarray:
        pts = _array_form(points, domain)
        out = np.full((len(coeffs), pts.shape[0]), zero, dtype=pts.dtype)
        columns = _monomial_columns(pts, exps, one, None if delayed else p)
        for exp, col in zip(exps, columns):
            for row, cf in zip(out, coeffs):
                if exp in cf:
                    row += cf[exp] * col
                    if p is not None and not delayed:
                        # both factors are below p, so the sum stays below p^2
                        row %= p
        if delayed:
            out %= p
        return out.T

    return apply


def _delays_reduction(p: int, degree: int, monomials: int) -> bool:
    """Whether eval_polys reduces a value mod p only once: a term is a
    coefficient times a monomial, at most (p-1)^(degree+1), and a value sums
    at most `monomials` of them, so its partial sums stay within int64."""
    return (p - 1) ** (degree + 1) * monomials < 2 ** 63


def _eval_polys_rational(polys, pts: np.ndarray, exps) -> np.ndarray:
    """eval_polys over Q on Python ints.  The points are scaled by one
    common denominator D and each form's coefficients by one of their own,
    D_f; a monomial of degree k is weighted by D^(d-k), d the largest
    degree, so a value is one int over D_f D^d, and one Fraction."""
    n = pts.shape[0]
    den = lcm(*(x.denominator for x in pts.flat))
    ints = np.array([x.numerator * (den // x.denominator) for x in pts.flat],
                    dtype=object).reshape(pts.shape)
    degree = max((sum(e) for e in exps), default=0)
    forms, dens = [], []
    for f in polys:
        cs = {e: Fraction(c) for e, c in f.terms.items()}
        d_f = lcm(*(c.denominator for c in cs.values()))
        forms.append({e: c.numerator * (d_f // c.denominator) * den ** (degree - sum(e))
                      for e, c in cs.items()})
        dens.append(d_f * den ** degree)
    out = np.zeros((len(polys), n), dtype=object)
    if n:
        for exp, col in zip(exps, _monomial_columns(ints, exps, 1)):
            for row, cf in zip(out, forms):
                if exp in cf:
                    row += cf[exp] * col
    vals = np.empty_like(out)
    for row, acc, d in zip(vals, out, dens):
        row[:] = [Fraction(v, d) for v in acc]
    return vals.T


def count_common_zeros_mod_p(forms, p: int) -> int:
    """Number of points of P^n(F_p) where every form in n+1 variables
    vanishes, by evaluating the forms, prepared once, at all of them, a
    block at a time."""
    blocks = proj_points_mod_p(p, forms[0].nvars - 1)
    evaluate = prepare_polys(forms, GF(p))
    return sum(int(np.all(evaluate(block) == 0, axis=1).sum()) for block in blocks)


# ---------------------------------------------------------------------------
# hypersurface interpolation


@dataclass
class FitResult:
    """A basis of the fitted forms.  len() is the dimension of their space,
    the nullity of the evaluation matrix; `unique` is the form when that
    dimension is 1, else None."""
    forms: list
    singular_values: np.ndarray | None

    def __iter__(self):
        return iter(self.forms)

    def __len__(self):
        return len(self.forms)

    @property
    def unique(self):
        return self.forms[0] if len(self.forms) == 1 else None


def fit_hypersurface(points, degree: int, domain: Domain) -> FitResult:
    """Basis of degree-d forms vanishing at all the given projective points.

    The kernel of the monomial evaluation matrix.  The points are rows of
    scalars, or an (N, n) array in the domain's array form (see _array_form).
    Few points simply give a larger space; inconsistent point dimensions are
    a shape error.

    The matrix is built transposed, monomial k in row k, one contiguous
    write per monomial.  Over GF(p) it is in the dtype of rref_mod_p's
    panels, and _kernel eliminates it in place, so it is the only
    full-size array of the fit.
    """
    if len(points) == 0:
        raise ShapeError("no points")
    nvars = len(points[0])
    if any(len(p) != nvars for p in points):
        raise ShapeError("points of mixed dimension")
    exps = exponents_of_degree(nvars, degree)
    pts = _array_form(points, domain)
    if isinstance(domain, ComplexField):
        # the SVD threshold is relative to the whole matrix, so each point is
        # scaled to max-abs 1: a projective point's condition has no scale
        top = np.abs(pts).max(axis=1, keepdims=True)
        pts = pts / np.where(top > 0, top, 1.0)
    p = domain.p if isinstance(domain, PrimeField) else None
    t = np.empty((len(exps), len(points)), dtype=pts.dtype if p is None else _panel_plan(p)[0])
    for row, col in zip(t, _monomial_columns(pts, exps, _elem(1, domain), p)):
        row[:] = col
    _, basis, s = _kernel(t.T, domain)
    return FitResult([_vector_to_form(v, exps, domain) for v in basis()], s)


def _vector_to_form(vec, exps, domain: Domain):
    p = SparsePoly(len(exps[0]), domain)
    if isinstance(domain, PrimeField):
        # a residue vector: only its non-zero entries become terms
        for k in np.flatnonzero(vec):
            p.terms[exps[k]] = domain.coerce(int(vec[k]))
        return p
    for exp, c in zip(exps, vec):
        c = domain.coerce(c)
        if not domain.is_zero(c):
            p.terms[exp] = c
    return p


# ---------------------------------------------------------------------------
# projective comparisons: proj_ratio over exact domains, chordal_distance
# over floats, and proj_distance, same_point and all_distinct over both.
# proj_ratio, proj_distance and same_point take two equally long sequences
# of scalars, of rows or of SparsePolys, nested freely; all_distinct takes
# a list of such points.


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


_NESTED = (list, tuple, np.ndarray, SparsePoly)


def _coefficient_pairs(a, b):
    """The scalar entries of a and b, pair by pair and lazily, so that a
    comparison can stop at the first mismatch.  A pair of forms gives its
    coefficients over the union of the two supports, missing terms as zero;
    an array gives its Python scalars."""
    a, b = (v.tolist() if isinstance(v, np.ndarray) else v for v in (a, b))
    for x, y in zip(a, b, strict=True):
        if not isinstance(x, _NESTED):
            yield x, y
        elif isinstance(x, SparsePoly):
            zx, zy = x.domain.zero(), y.domain.zero()
            for e in sorted(x.terms.keys() | y.terms.keys()):
                yield x.terms.get(e, zx), y.terms.get(e, zy)
        else:
            yield from _coefficient_pairs(x, y)


def proj_ratio(a, b, domain: Domain):
    """The scalar lam != 0 with a = lam * b entry for entry, or None.

    a and b are equally long sequences of scalars, rows, matrices or forms
    over an exact domain (see _coefficient_pairs); the entries are read
    lazily, so the test stops at the first mismatch.  Equal zero patterns
    are part of the test, so a zero vector on either side gives None."""
    if not domain.is_exact:
        raise UnsupportedDomainError("proj_ratio needs an exact domain")
    lam = None
    for x, y in _coefficient_pairs(a, b):
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


def proj_distance(a, b, domain: Domain) -> float:
    """How far a and b are from one projective point: 0.0 or 1.0 over an
    exact domain (proj_ratio), the chordal distance of their entries over
    floats.  The one place that chooses between the two."""
    if domain.is_exact:
        return 1.0 if proj_ratio(a, b, domain) is None else 0.0
    pairs = list(_coefficient_pairs(a, b))
    return chordal_distance([x for x, _ in pairs], [y for _, y in pairs])


def same_point(a, b, domain: Domain) -> bool:
    """Projective equality: exact over exact domains, to 1e-8 over floats."""
    return proj_distance(a, b, domain) < 1e-8


def all_distinct(points, domain: Domain) -> bool:
    """No two of the points are the same projective point."""
    return not any(same_point(points[i], points[j], domain)
                   for i in range(len(points)) for j in range(i + 1, len(points)))
