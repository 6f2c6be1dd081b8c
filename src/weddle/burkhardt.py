"""Quadric systems through a level-3 abelian surface, the symmetric and
skew restricted-coefficient matrices, both Steinerian maps, and the
interpolated invariant quartic threefold.

Coefficient convention: the invariant quadric is

    f_a = sum over all s in (Z/3)^2 of  r_s X_{s+a} X_{-s+a},

with r_s = r_{-s} stored on the five orbit representatives
(0,0), (0,1), (1,0), (1,1), (1,2).  With this convention the skew matrix
kernel at Z = (1,1,1,1) is spanned by (6, -3, 1, 1, 1).  The rows of the
restricted matrices are rescaled by diag(1,2,2,2,2) once more, which is a
kernel-preserving choice that makes the symmetric matrix symmetric and the
skew matrix skew.

The invariant quartic is interpolated in the kernel coordinates r, where
its matrix of second partials reproduces the symmetric quadric matrix up
to one scalar and no permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product, tee

import numpy as np

from .fields import CC, Domain, GF, PrimeField, QQ, is_prime
from .heisenberg import REPS, idx2, involution_j, rep_of
from .linalg import (Matrix, ShapeError, count_common_zeros_mod_p, eval_polys,
                     fit_hypersurface, nullspace, prepare_polys, proj_points_mod_p,
                     proj_ratio, sub_pfaffian_kernel)
from .poly import SparsePoly, exponents_of_degree

D_SCALE = (1, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# the quadric system


def quadrics_f(r, domain: Domain):
    """The nine quadrics f_a in the variables X_s, s in (Z/3)^2, from the
    five stored coefficients."""
    r = [domain.coerce(x) for x in r]
    out = []
    for a0 in range(3):
        for a1 in range(3):
            a = (a0, a1)
            f = SparsePoly.zero(9, domain)
            for k, s in enumerate(REPS):
                i = idx2(((s[0] + a[0]) % 3, (s[1] + a[1]) % 3))
                j = idx2(((-s[0] + a[0]) % 3, (-s[1] + a[1]) % 3))
                exp = [0] * 9
                exp[i] += 1
                exp[j] += 1
                mult = domain.from_int(1 if k == 0 else 2)
                f = f + SparsePoly.monomial(tuple(exp), domain, r[k] * mult)
            out.append(f)
    return out


def translate_poly(f: SparsePoly, a) -> SparsePoly:
    """Rename X_t to X_{t+a}; the lagrangian translation action on the
    nine coordinates."""
    perm = [idx2(((t0 + a[0]) % 3, (t1 + a[1]) % 3))
            for t0 in range(3) for t1 in range(3)]
    return f.permute_variables(perm)


def j_poly(f: SparsePoly) -> SparsePoly:
    """Substitute X_t -> X_{-t}."""
    return f.permute_variables(involution_j()[0])


def _restricted_matrix(odd: bool) -> Matrix:
    """Entry (a, k) is D_a D_k X_{s+a} X_{-s+a} with s = REPS[k], after the
    substitution X_t -> Y_j on Z = 0, or X_t -> sign * Z_j and X_0 -> 0 on
    Y = 0, where t = sign * REPS[j]."""
    def var(t):
        j, sign = rep_of(t)
        return (j - 1, sign if j else 0) if odd else (j, 1)

    rows = []
    for arow, a in enumerate(REPS):
        row = []
        for k, s in enumerate(REPS):
            i, si = var((s[0] + a[0], s[1] + a[1]))
            j, sj = var((a[0] - s[0], a[1] - s[1]))
            exp = [0] * (4 if odd else 5)
            exp[i] += 1
            exp[j] += 1
            c = Fraction(si * sj * D_SCALE[arow] * D_SCALE[k])
            row.append(SparsePoly.monomial(tuple(exp), QQ, c))
        rows.append(row)
    return Matrix(rows)


@lru_cache(maxsize=None)
def matrix_plus() -> Matrix:
    """Symmetric 5x5 matrix of quadrics in Y_0..Y_4 with
    (M_+ r)_a = scale_a * (f_a restricted to Z = 0)."""
    M = _restricted_matrix(odd=False)
    assert M.is_symmetric()
    return M


@lru_cache(maxsize=None)
def matrix_minus() -> Matrix:
    """Skew 5x5 matrix of quadrics in Z_1..Z_4 with
    (M_- r)_a = scale_a * (f_a restricted to Y = 0)."""
    M = _restricted_matrix(odd=True)
    assert M.is_skew()
    return M


@lru_cache(maxsize=None)
def steinerian_quartics():
    """The five signed sub-pfaffians of the skew matrix: quartics in
    Z_1..Z_4 spanning the kernel, with M_-[Z] . r(Z) = 0 identically."""
    return tuple(sub_pfaffian_kernel(matrix_minus()))


def steinerian_minus(z, domain: Domain):
    """Kernel coordinates r(z) of the skew matrix at z in P^3, or None when
    z is a base point (all five sub-pfaffians vanish)."""
    z = [domain.coerce(x) for x in z]
    vals = [q.evaluate(z) for q in steinerian_quartics()]
    if all(domain.is_zero(v) for v in vals):
        return None
    return vals


def steinerian_plus(y, domain: Domain = None):
    """Kernel of the symmetric matrix evaluated at y in plus coordinates.

    Returns ("kernel", r) at corank 1, ("rank", rk) otherwise; generic
    points are full rank (not on the degeneracy hypersurface).  Without a
    domain, y is taken as complex and the kernel is the SVD kernel."""
    if domain is None:
        domain, y = CC, [complex(x) for x in y]
    M = matrix_plus()
    vals = [[entry.evaluate(y) for entry in row] for row in M.rows]
    basis = nullspace(vals, domain)
    if len(basis) == 1:
        return ("kernel", basis[0])
    return ("rank", 5 - len(basis))


# ---------------------------------------------------------------------------
# deriving the invariant quartic


@dataclass
class BurkhardtDerivation:
    quartic: SparsePoly | None
    nullity: int


def _sample_steinerian_points(domain: Domain, rng, count: int) -> np.ndarray:
    """count points r(z) of the Steinerian image, one per row in the domain's
    array form (see linalg.eval_polys), z drawn with domain.random and
    dropped when it is a base point.  Each batch draws only as many z as
    points are still missing, so the draws and the kept points are those of
    calling steinerian_minus on one z at a time.  At most 50 * count z are
    drawn."""
    budget = 50 * count
    batches = []
    kept = 0
    while kept < count:
        n = min(count - kept, budget)
        if n == 0:
            raise ValueError("sampling starved: %d draws over %s gave %d of %d "
                             "Steinerian points" % (50 * count, domain.name, kept, count))
        budget -= n
        z = [[domain.random(rng) for _ in range(4)] for _ in range(n)]
        vals = eval_polys(steinerian_quartics(), z, domain)
        vals = vals[(vals != 0).any(axis=1)]
        batches.append(vals)
        kept += len(vals)
    return np.concatenate(batches)


def derive_burkhardt(domain: Domain, rng, samples: int = 160) -> BurkhardtDerivation:
    """Interpolate the unique quartic through the Steinerian image in
    kernel coordinates, monic over a prime field.  The nullity is the
    dimension of the fitted space; when it is not 1 the quartic is None."""
    fit = fit_hypersurface(_sample_steinerian_points(domain, rng, samples), 4, domain)
    B = fit.unique
    if B is not None and isinstance(domain, PrimeField):
        B = _monic_mod_p(B, domain)
    return BurkhardtDerivation(B, len(fit))


def _monic_mod_p(B: SparsePoly, domain: PrimeField) -> SparsePoly:
    lead = max(B.terms)
    inv = domain.one() / B.terms[lead]
    return B.scale(inv)


def rational_reconstruct(c: int, m: int) -> Fraction:
    """Smallest rational p/q congruent to c mod m with |p|, |q| <= sqrt(m/2)."""
    c %= m
    r0, r1 = m, c
    s0, s1 = 0, 1
    bound = int((m / 2) ** 0.5)
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0:
        raise ValueError("no small rational reconstruction")
    return Fraction(r1, s1)


@dataclass
class ExactBurkhardt:
    """The rational quartic reconstructed from modular interpolation, and
    whether burkhardt_vanishes_symbolically certified it."""
    quartic: SparsePoly
    certified: bool


def derive_burkhardt_exact(rng, primes=(101, 103, 109)) -> ExactBurkhardt:
    """Exact rational invariant quartic by modular interpolation and
    rational reconstruction, with the outcome of its symbolic
    re-substitution.  Raises when some prime gives no unique quartic."""
    exps = exponents_of_degree(5, 4)
    residues = []
    for p in primes:
        dom = GF(p)
        d = derive_burkhardt(dom, rng)
        if d.quartic is None:
            raise RuntimeError("interpolation nullity %d over F_%d: no unique quartic "
                               "to reconstruct from" % (d.nullity, p))
        residues.append([d.quartic.terms.get(e, dom.zero()).val for e in exps])
    m = 1
    for p in primes:
        m *= p
    combined = []
    for i in range(len(exps)):
        c, mod = 0, 1
        for p, vec in zip(primes, residues):
            # CRT step
            t = ((vec[i] - c) * pow(mod, -1, p)) % p
            c, mod = c + mod * t, mod * p
        combined.append(rational_reconstruct(c, m))
    B = SparsePoly(5, QQ, {e: c for e, c in zip(exps, combined) if c != 0})
    B = B.primitive_normalized()
    return ExactBurkhardt(B, burkhardt_vanishes_symbolically(B))


def burkhardt_vanishes_symbolically(B: SparsePoly) -> bool:
    """B composed with the five Steinerian quartics is the zero polynomial
    in Z_1..Z_4; this certifies B exactly."""
    composed = B.substitute_linear(list(steinerian_quartics()))
    return composed.is_zero()


# ---------------------------------------------------------------------------
# the second-partials identification


@dataclass
class HessianMatch:
    scalar: Fraction
    permutation: tuple
    signs: tuple


def hessian_match(B: SparsePoly):
    """All (scalar, signed permutation) pairs reconciling the matrix of
    second partials of B with the symmetric quadric matrix.  Signs are
    canonicalized with the first entry +1 (a global flip acts trivially on
    quadratic entries).  Signs change no monomial support, so the signs of
    a permutation are tried only when its supports match those of the
    Hessian."""
    H = Matrix(B.hessian())
    M = matrix_plus()
    matches = []
    for perm in permutations(range(5)):
        if not all({e for e, _ in _transformed_terms(M, perm, (1,) * 5, i, j)}
                   == H.rows[i][j].terms.keys() for i in range(5) for j in range(5)):
            continue
        for signbits in product((1, -1), repeat=4):
            signs = (1,) + signbits
            # equal supports, so the terms of H and of the candidate pair up;
            # both sides are lazy, so proj_ratio stops at the first mismatch
            h, m = tee((H.rows[i][j].terms[e], c) for i in range(5) for j in range(5)
                       for e, c in _transformed_terms(M, perm, signs, i, j))
            c = proj_ratio((x for x, _ in h), (y for _, y in m), QQ)
            if c is not None:
                matches.append(HessianMatch(c, perm, signs))
    return matches


def _transformed_terms(M: Matrix, perm, signs, i: int, j: int):
    """The (exponent, coefficient) terms of entry (i, j) of
    transform_monomial_matrix(M, perm, signs)."""
    sij = signs[i] * signs[j]
    for exp, c in M.rows[perm[i]][perm[j]].terms.items():
        nexp = tuple(exp[p] for p in perm)
        sgn = sij
        for s, e in zip(signs, nexp):
            sgn *= s ** e
        # one int sign, so one Fraction negation at most
        yield nexp, (c if sgn > 0 else -c)


def transform_monomial_matrix(M: Matrix, perm, signs):
    """Entry (i, j) becomes s_i s_j M[perm(i)][perm(j)] with variable
    Y_{perm(k)} renamed to s_k Y_k."""
    return Matrix([[SparsePoly(5, QQ, dict(_transformed_terms(M, perm, signs, i, j)))
                    for j in range(5)] for i in range(5)])


def hessian_determinant_degree(B: SparsePoly) -> int:
    from .linalg import det_ring
    return det_ring(Matrix(B.hessian())).total_degree()


# ---------------------------------------------------------------------------
# finite-field enumeration


def count_fibers_ff(p: int):
    """Histogram of fiber sizes of the degree-6 quartic parametrization
    over P^3(F_p), plus the count of rational base points.

    The quartics are prepared for evaluation once (prepare_polys), the
    points come a block at a time, and each image point is kept only
    as one int64 key, its coordinates scaled to first nonzero 1 and read as
    base-p digits; the sorted keys' run lengths are the fiber sizes."""
    if p % 3 != 1:
        raise ShapeError("need a prime p = 1 mod 3")
    blocks = proj_points_mod_p(p, 3)
    assert p ** 5 < 2 ** 63
    evaluate = prepare_polys(steinerian_quartics(), GF(p))
    inv = np.zeros(p, dtype=np.int64)
    for x in range(1, p):
        inv[x] = pow(x, p - 2, p)
    digits = p ** np.arange(5)
    keys = np.empty(p ** 3 + p ** 2 + p + 1, dtype=np.int64)
    n_keys = n_base = 0
    for pts in blocks:
        vals = evaluate(pts)
        img = vals[np.any(vals != 0, axis=1)]
        n_base += pts.shape[0] - img.shape[0]
        # projective normalization: divide by the first nonzero coordinate
        scale = inv[img[np.arange(img.shape[0]), np.argmax(img != 0, axis=1)]]
        img *= scale[:, None]
        img %= p
        keys[n_keys:n_keys + img.shape[0]] = img @ digits
        n_keys += img.shape[0]
    keys = keys[:n_keys]
    keys.sort()
    # a fiber is one run of equal keys, ending where the next key differs
    ends = np.flatnonzero(np.append(keys[1:] != keys[:-1], True))
    del keys
    mult = np.bincount(np.diff(ends, prepend=-1))
    return {"p": p, "points": n_keys + n_base, "base_points": n_base,
            "fiber_histogram": {int(k): int(mult[k]) for k in np.flatnonzero(mult)}}


def count_base_locus_ff(p: int, k: int = 1) -> int:
    """Rational points of the base locus of the five quartics over F_{p^k}."""
    if p % 3 != 1 or k not in (1, 2):
        raise ShapeError("need p = 1 mod 3, k in {1, 2}")
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)
    if k == 1:
        return count_common_zeros_mod_p(steinerian_quartics(), p)
    return _base_locus_quadratic_ext(p)


def _nonresidue(p: int) -> int:
    for d in range(2, p):
        if pow(d, (p - 1) // 2, p) == p - 1:
            return d
    raise AssertionError("no quadratic nonresidue")


def _fp2_tables(p: int):
    """Multiplication and addition tables of F_{p^2} = F_p[s]/(s^2 - d), d
    the least quadratic nonresidue.  The element a + b s has the code
    a + b p, as the integers of proj_points_mod_p(p^2, n) are read, and
    each table is a p^2 x p^2 int32 array of codes indexed by two codes."""
    d = _nonresidue(p)
    b, a = np.divmod(np.arange(p * p, dtype=np.int64), p)
    a1, b1 = a[:, None], b[:, None]
    mul = (a1 * a + d * b1 * b) % p + p * ((a1 * b + b1 * a) % p)
    add = (a1 + a) % p + p * ((b1 + b) % p)
    return mul.astype(np.int32), add.astype(np.int32)


def _base_locus_quadratic_ext(p: int) -> int:
    """Count over F_{p^2}: the points of P^3 are those of
    proj_points_mod_p(p^2, 3), each coordinate an element code of
    _fp2_tables, and every sum and product is one table lookup.  The
    enumeration is asked for first, so a refused count builds no table."""
    blocks = proj_points_mod_p(p * p, 3)
    mul, add = _fp2_tables(p)
    quartics = steinerian_quartics()
    count = 0
    for pts in blocks:
        coords = pts.T.astype(np.int32)
        # a point leaves as soon as one quartic is nonzero there; the first
        # quartic is a monomial, so most points leave after it
        for quartic in quartics:
            acc = None
            for exp, c in quartic.terms.items():
                term = None
                for v, e in enumerate(exp):
                    for _ in range(e):
                        term = coords[v] if term is None else mul[term, coords[v]]
                # c is in F_p, so its code is its residue
                term = mul[int(c) % p][term]
                acc = term if acc is None else add[acc, term]
            coords = coords[:, acc == 0]
        count += coords.shape[1]
    return count
