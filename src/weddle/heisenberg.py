"""The finite Heisenberg group of level 3, its 9-dimensional monomial
representation, the central involutions, and symplectic automorphism lifts.

Convention used throughout (fixed so that the representation is an honest
homomorphism): the group law twists by the first factor's character on the
second factor's translation part,

    (t, x, x*) . (s, y, y*) = (t + s + x*. y, x + y, x* + y*),

with scalars written as exponents of w (a fixed primitive cube root of 1),
and the representation acts on the delta basis {X_a} by

    U(t, x, x*) X_a = w^(t + x*.a) X_{a+x}.

Group elements use flat vectors u = (x | x*) in (Z/3)^{2g} where matrices
need to act.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .fields import Cyc, QW, omega_power
from .linalg import Matrix
from .symplectic import InvariantViolation, SymplecticMat, standard_transvections

REPS = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]


def idx2(a) -> int:
    return (a[0] % 3) * 3 + (a[1] % 3)


def from_idx2(i: int):
    return (i // 3, i % 3)


def neg2(a):
    return ((-a[0]) % 3, (-a[1]) % 3)


def rep_of(a):
    """(k, sign): a = sign * REPS[k] in (Z/3)^2."""
    a = (a[0] % 3, a[1] % 3)
    if a in REPS:
        return REPS.index(a), 1
    return REPS.index(neg2(a)), -1


class RepresentationError(RuntimeError):
    pass


@dataclass(frozen=True)
class HeisElement:
    """(w^t, x, x*) with t in Z/3 and x, x* in (Z/3)^g."""

    t: int
    x: tuple
    xs: tuple

    def __post_init__(self):
        if len(self.x) != len(self.xs):
            raise ValueError("x and x* of different lengths")

    @property
    def g(self):
        return len(self.x)

    def u(self):
        return self.x + self.xs


def h_identity(g: int) -> HeisElement:
    return HeisElement(0, (0,) * g, (0,) * g)


def h_mul(h1: HeisElement, h2: HeisElement) -> HeisElement:
    if h1.g != h2.g:
        raise ValueError("genus mismatch")
    t = (h1.t + h2.t + sum(a * b for a, b in zip(h1.xs, h2.x))) % 3
    x = tuple((a + b) % 3 for a, b in zip(h1.x, h2.x))
    xs = tuple((a + b) % 3 for a, b in zip(h1.xs, h2.xs))
    return HeisElement(t, x, xs)


def h_inv(h: HeisElement) -> HeisElement:
    t = (-h.t + sum(a * b for a, b in zip(h.xs, h.x))) % 3
    return HeisElement(t, tuple(-a % 3 for a in h.x), tuple(-a % 3 for a in h.xs))


def enumerate_group(g: int):
    out = []
    for t in range(3):
        for x in product(range(3), repeat=g):
            for xs in product(range(3), repeat=g):
                out.append(HeisElement(t, x, xs))
    return out


def h_index(h: HeisElement) -> int:
    """The position of h in enumerate_group(h.g): 3^(2g) t plus the index
    of u = (x | x*) in a multiplier table (see _uidx)."""
    return (h.t % 3) * 3 ** (2 * h.g) + _uidx(h.u(), h.g)


def h_mul_index(a, b, g: int) -> np.ndarray:
    """h_mul on arrays of enumerate_group(g) indices, elementwise."""
    U, _ = _flat_vectors(g)
    size = len(U)
    a, b = np.asarray(a), np.asarray(b)
    ua, ub = U[a % size], U[b % size]
    t = a // size + b // size + (ua[..., g:] * ub[..., :g]).sum(axis=-1)
    return t % 3 * size + (ua + ub) % 3 @ _place_values(g)


def weil_pairing(u, v) -> int:
    """E(u, v) = x*(y) - y*(x) mod 3 on flat vectors u = (x | x*)."""
    g = len(u) // 2
    return (sum(u[g + i] * v[i] for i in range(g))
            - sum(v[g + i] * u[i] for i in range(g))) % 3


def beta(u, v) -> int:
    """beta((x, x*), (y, y*)) = y*(x)."""
    g = len(u) // 2
    return sum(v[g + i] * u[i] for i in range(g)) % 3


def commutator_exponent(h1: HeisElement, h2: HeisElement) -> int:
    c = h_mul(h_mul(h1, h2), h_mul(h_inv(h1), h_inv(h2)))
    if any(c.x) or any(c.xs):
        raise AssertionError("commutator not central")
    return c.t


# ---------------------------------------------------------------------------
# the monomial representation at g = 2


@lru_cache(maxsize=None)
def schrodinger_table():
    """U(h) for all 243 h of enumerate_group(2), row k for the k-th (see
    h_index): (perm, expo) as read-only (243, 9) int64 arrays.  A row is a
    generalized permutation, the one form of U(h) and of the flip: column a
    goes to row perm[a] with coefficient w^expo[a].  Row (t, x, x*) has
    perm[a] = idx2(a + x) and expo[a] = t + x*.a."""
    U, _ = _flat_vectors(2)      # (x | x*) in the order of h_index
    A, _ = _flat_vectors(1)      # the delta basis a, in the order of idx2
    perm = (U[:, None, :2] + A) % 3 @ _place_values(1)
    expo = np.arange(3)[:, None, None] + U[:, 2:] @ A.T
    perm, expo = np.tile(perm, (3, 1)), expo.reshape(-1, 9) % 3
    perm.flags.writeable = expo.flags.writeable = False
    return perm, expo


def schrodinger(h: HeisElement):
    """U(h) on the 9-dimensional delta basis, g = 2 only: the (perm, expo)
    row h_index(h) of schrodinger_table()."""
    if h.g != 2:
        raise ValueError("the representation is materialized at genus 2")
    perm, expo = schrodinger_table()
    k = h_index(h)
    return perm[k], expo[k]


def compose_rows(A, B):
    """The product A . B of generalized permutations given as (perm, expo)
    arrays of shape (..., 9), stacked and broadcast: column a of B goes to
    row B.perm[a] of A, and on to A.perm[B.perm[a]]."""
    ap, ae, bp, be = np.broadcast_arrays(*A, *B)
    return np.take_along_axis(ap, bp, -1), (be + np.take_along_axis(ae, bp, -1)) % 3


def involution_j():
    """X_s -> X_{-s}, as a (perm, expo) row."""
    A, _ = _flat_vectors(1)      # the delta basis s, in the order of idx2
    return -A % 3 @ _place_values(1), np.zeros(9, dtype=np.int64)


def eigenbasis_plus():
    """Y_s = (X_s + X_{-s})/2 for the five orbit representatives."""
    vecs = []
    for k, s in enumerate(REPS):
        v = [QW.zero() for _ in range(9)]
        if k == 0:
            v[idx2(s)] = QW.one()
        else:
            half = Cyc(1, 0) / Cyc(2, 0)
            v[idx2(s)] = half
            v[idx2(neg2(s))] = half
        vecs.append(v)
    return vecs


def eigenbasis_minus():
    """Z_s = (X_s - X_{-s})/2 for the four nonzero representatives."""
    vecs = []
    half = Cyc(1, 0) / Cyc(2, 0)
    for s in REPS[1:]:
        v = [QW.zero() for _ in range(9)]
        v[idx2(s)] = half
        v[idx2(neg2(s))] = -half
        vecs.append(v)
    return vecs


def plus_minus_components(vec):
    """Split a 9-vector, exact or complex, into (plus 5-vector, minus
    4-vector) coordinates: Y_s = (v_s + v_{-s})/2 on representatives,
    Z_s = (v_s - v_{-s})/2.  The one eigen-split of the level-3
    coordinates under the flip involution_j()."""
    plus = []
    minus = []
    for k, s in enumerate(REPS):
        a, b = vec[idx2(s)], vec[idx2(neg2(s))]
        if k == 0:
            plus.append(a)
        else:
            plus.append((a + b) / 2)
            minus.append((a - b) / 2)
    return plus, minus


# ---------------------------------------------------------------------------
# automorphisms fixing the center


class HeisAutomorphism:
    """phi(t, u) = (t + f(u), M u) with M symplectic mod 3 and f a
    multiplier exponent table on (Z/3)^{2g}."""

    __slots__ = ("M", "f", "g")

    def __init__(self, M: SymplecticMat, f, validate=True):
        if M.n != 3:
            raise InvariantViolation("automorphisms live over Z/3")
        self.M = M
        self.g = M.g
        if callable(f):
            self.f = tuple(f(u) % 3 for u in product(range(3), repeat=2 * self.g))
        else:
            self.f = tuple(v % 3 for v in f)
        if len(self.f) != 3 ** (2 * self.g):
            raise ValueError("multiplier table of wrong size")
        if validate:
            self._validate()

    def _validate(self):
        vecs = list(product(range(3), repeat=2 * self.g))
        images = [self.M.apply(u) for u in vecs]
        for u, Mu in zip(vecs, images):
            for v, Mv in zip(vecs, images):
                uv = tuple((a + b) % 3 for a, b in zip(u, v))
                lhs = (self.f[_uidx(uv, self.g)] - self.f[_uidx(u, self.g)]
                       - self.f[_uidx(v, self.g)]) % 3
                rhs = (beta(Mu, Mv) - beta(u, v)) % 3
                if lhs != rhs:
                    raise InvariantViolation("multiplier fails the automorphism identity")

    def f_at(self, u) -> int:
        return self.f[_uidx(u, self.g)]

    def __call__(self, h: HeisElement) -> HeisElement:
        u = h.u()
        Mu = self.M.apply(u)
        g = self.g
        return HeisElement((h.t + self.f_at(u)) % 3, Mu[:g], Mu[g:])

    def on_indices(self, k) -> np.ndarray:
        """phi on an array of enumerate_group(g) indices, elementwise."""
        U, _ = _flat_vectors(self.g)
        size = len(U)
        k = np.asarray(k)
        u = k % size
        Mu = U[u] @ np.array(self.M.entries).T % 3 @ _place_values(self.g)
        return (k // size + np.array(self.f)[u]) % 3 * size + Mu

    def compose(self, other):
        """self after other."""
        def f(u):
            return (other.f_at(u) + self.f_at(other.M.apply(u))) % 3
        return HeisAutomorphism(self.M * other.M, f, validate=False)

    def __eq__(self, other):
        return isinstance(other, HeisAutomorphism) and self.M == other.M and self.f == other.f

    def __hash__(self):
        return hash((self.M, self.f))

    def __repr__(self):
        return "HeisAutomorphism(M=%r)" % (self.M,)


def _uidx(u, g):
    """The index of u in a multiplier table: its entries mod 3 as base-3
    digits, the first most significant."""
    i = 0
    for a in u:
        i = i * 3 + (a % 3)
    return i


def _place_values(g: int) -> np.ndarray:
    """3^(2g-1), ..., 3, 1: the weights of the digits in _uidx."""
    return 3 ** np.arange(2 * g - 1, -1, -1)


def identity_automorphism(g: int = 2) -> HeisAutomorphism:
    return HeisAutomorphism(SymplecticMat.identity(g, 3), lambda u: 0, validate=False)


def d_minus_one(g: int = 2) -> HeisAutomorphism:
    M = SymplecticMat([[-1 if i == j else 0 for j in range(2 * g)]
                       for i in range(2 * g)], 3)
    return HeisAutomorphism(M, lambda u: 0, validate=False)


def zeta(a, g: int = 2) -> HeisAutomorphism:
    """Inner-type automorphism (t, u) -> (t + E(u, a), u)."""
    if len(a) != 2 * g:
        raise ValueError("need a in (Z/3)^{2g}")
    M = SymplecticMat.identity(g, 3)
    return HeisAutomorphism(M, lambda u: weil_pairing(u, a), validate=False)


@lru_cache(maxsize=None)
def _flat_vectors(g: int):
    """All u in (Z/3)^{2g} as rows, in the order of product(range(3), ...)
    that indexes a multiplier table, with beta(u, u) beside them."""
    U = np.array(list(product(range(3), repeat=2 * g)), dtype=np.int64)
    return U, (U[:, g:] * U[:, :g]).sum(axis=1)


def lift_symplectic(M: SymplecticMat) -> HeisAutomorphism:
    """The unique lift of M commuting with the -1 involution:
    multiplier exponent (1/2)(beta(Mu, Mu) - beta(u, u)) with 1/2 = 2 mod 3,
    for all u at once by one product of the vector table with M^t."""
    if M.n != 3:
        raise InvariantViolation("lift needs a matrix mod 3")
    g = M.g
    U, beta_uu = _flat_vectors(g)
    MU = U @ np.array(M.entries, dtype=np.int64).T % 3
    f = 2 * ((MU[:, g:] * MU[:, :g]).sum(axis=1) - beta_uu) % 3
    return HeisAutomorphism(M, f.tolist(), validate=False)


def heisenberg_generators(g: int = 2):
    gens = []
    for i in range(g):
        x = [0] * g
        x[i] = 1
        gens.append(HeisElement(0, tuple(x), (0,) * g))
    for i in range(g):
        xs = [0] * g
        xs[i] = 1
        gens.append(HeisElement(0, (0,) * g, tuple(xs)))
    return gens


# ---------------------------------------------------------------------------
# Schur intertwiners


def intertwiner(phi) -> np.ndarray:
    """The matrix T with T U(h) = U(phi(h)) T for all h, normalized so the
    first nonzero entry in row-major order is 1, in w-exponent form: a
    read-only 9 x 9 int64 array E with T[i, j] = w^E[i, j], or 0 where
    E[i, j] = -1 (exponent_matrix builds T).

    The constraint system couples unknowns in pairs with unit ratios, so it
    is solved exactly by one traversal of the graph of those pairs; the
    solution space must be one-dimensional or the representation theory is
    broken, and RepresentationError says so.  E is shared with every other
    caller that asks for the same automorphism.
    """
    if isinstance(phi, SymplecticMat):
        phi = lift_symplectic(phi)
    E, dim = _intertwiner_solve(phi)
    if dim != 1:
        raise RepresentationError("intertwiner solution space has dimension %d" % dim)
    return E


@lru_cache(maxsize=256)
def _intertwiner_solve(phi: HeisAutomorphism):
    """(E, 1) for the unique intertwiner up to scale, in w-exponent form,
    else (None, dim).  Cached by the automorphism, so a lift that two checks
    share is solved once.

    The unknowns are the 81 entries T[i, c], index 9 i + c.  For each
    generator h of heisenberg_generators(2), with A = U(h) and
    B = U(phi(h)) rows of schrodinger_table(), the entry (i, a) of
    T A = B T gives T[i, A.perm[a]] = w^(B.expo[k] - A.expo[a]) T[k, a]
    with B.perm[k] = i: 324 edges with w-power ratios.  Each component of
    that graph is walked once from its smallest index, which gets exponent
    0; a component is forced to zero (dead) when an edge closes a cycle with
    a ratio other than 1.  The solution space has one dimension per live
    component."""
    if phi.g != 2:
        raise ValueError("intertwiners are materialized at genus 2")
    perm, expo = schrodinger_table()
    hs = np.array([h_index(h) for h in heisenberg_generators(2)])
    ks = phi.on_indices(hs)
    # edge (h, k, a) joins i = 9 B.perm[k] + A.perm[a] to j = 9 k + a
    # with value(i) = w^d value(j)
    ends_i = 9 * perm[ks][:, :, None] + perm[hs][:, None, :]
    ends_j = np.broadcast_to(np.arange(81).reshape(9, 9), ends_i.shape)
    ratios = (expo[ks][:, :, None] - expo[hs][:, None, :]) % 3
    n = 81
    adj = [[] for _ in range(n)]   # (j, d): value(j) = w^d value(i)
    for i, j, d in zip(ends_i.ravel().tolist(), ends_j.ravel().tolist(),
                       ratios.ravel().tolist()):
        adj[i].append((j, -d))
        adj[j].append((i, d))
    value = [None] * n
    live = []
    for start in range(n):
        if value[start] is not None:
            continue
        value[start] = 0
        members = [start]
        dead = False
        for i in members:       # grows while it is walked
            ei = value[i]
            for j, d in adj[i]:
                ej = value[j]
                if ej is None:
                    value[j] = (ei + d) % 3
                    members.append(j)
                elif not dead and ej != (ei + d) % 3:
                    dead = True
        if not dead:
            live.append(members)
    if len(live) != 1:
        return None, len(live)
    E = np.full(n, -1, dtype=np.int64)
    E[live[0]] = [value[i] for i in live[0]]
    E = E.reshape(9, 9)
    E.flags.writeable = False
    return E, 1


def exponent_matrix(E: np.ndarray) -> Matrix:
    """The matrix over Q(w) of w-exponent form E: w^E[i, j], or 0 where
    E[i, j] < 0."""
    return Matrix([[Cyc(0) if e < 0 else omega_power(e) for e in row]
                   for row in E.tolist()])


def _times_omega(E: np.ndarray, k) -> np.ndarray:
    """w^k times the entries of w-exponent form E, k broadcast against E."""
    return np.where(E < 0, -1, (E + k) % 3)


def exponent_product(E: np.ndarray, F: np.ndarray) -> Matrix:
    """The product of two matrices in w-exponent form, exactly, as a Matrix
    of Cyc.  With c_s the number of k where E[i, k] + F[k, j] = s mod 3 (both
    nonzero), entry (i, j) is c_0 + c_1 w + c_2 w^2 = (c_0 - c_2) + (c_1 - c_2) w;
    the counts come from nine products of 0/1 integer matrices."""
    c = np.zeros((3, len(E), F.shape[1]), dtype=np.int64)
    for e in range(3):
        for f in range(3):
            c[(e + f) % 3] += (E == e).astype(np.int64) @ (F == f)
    u, v = (c[0] - c[2]).tolist(), (c[1] - c[2]).tolist()
    return Matrix([[Cyc(a, b) for a, b in zip(ru, rv)] for ru, rv in zip(u, v)])


def intertwines(E: np.ndarray, A, B) -> bool:
    """Whether T A = B T for every pair of generalized permutations A, B,
    stacked as (perm, expo) arrays of shape (m, 9), with T in w-exponent
    form E.  (T A)[i, a] = w^A.expo[a] T[i, A.perm[a]], and row i of B T is
    w^B.expo[k] times row k of T, where B.perm[k] = i."""
    (ap, ae), (bp, be) = A, B
    TA = _times_omega(E[:, ap].transpose(1, 0, 2), ae[:, None, :])
    k = np.argsort(bp, axis=-1)
    BT = _times_omega(E[k], np.take_along_axis(be, k, -1)[..., None])
    return np.array_equal(TA, BT)


def block_split(E: np.ndarray):
    """Conjugate the matrix T of w-exponent form E into the (Y, Z) basis;
    returns (plus 5x5, minus 4x4, off_blocks_zero).

    With P the eigenbasis, row i of T.P is the split of row i of T, and
    P^-1 = diag(1, 2, ..., 2) . split, so P^-1.T.P splits every column of
    T.P and doubles every row but the first."""
    TP = [sum(plus_minus_components(row), []) for row in exponent_matrix(E).rows]
    cols = [sum(plus_minus_components(col), []) for col in zip(*TP)]
    TB = [[x * 2 if i else x for x in row] for i, row in enumerate(zip(*cols))]
    off_zero = not any(TB[i][j] for i in range(9) for j in range(9)
                       if (i < 5) != (j < 5))
    plus = Matrix([row[:5] for row in TB[:5]])
    minus = Matrix([row[5:] for row in TB[5:]])
    return plus, minus, off_zero


# the vectors of standard_transvections(2, 3), used wherever a run over
# "the standard generators" is required; generation is certified by the
# order count of sp_group_codes and, apart from it, by a BFS closure in
# the test suite
STANDARD_SP4_F3_VECTORS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                           (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 1),
                           (1, 0, 1, 0), (0, 1, 0, 1))


def standard_sp4_generators():
    return standard_transvections(2, 3)


def upsilon_plus_block(M: SymplecticMat) -> Matrix:
    """The 5x5 action of M on the even eigenspace, as the plus block of
    the Schur intertwiner in the (Y, Z) basis."""
    plus, _, off = block_split(intertwiner(M))
    if not off:
        raise RepresentationError("intertwiner does not preserve the eigensplit")
    return plus


def upsilon_plus_substitution(M: SymplecticMat):
    """Linear forms implementing the even-block action on coefficient
     5-vectors: variable i maps to sum_j block[j][i] r_j (the transposed
    block; coordinates transform against points)."""
    from .poly import SparsePoly
    block = upsilon_plus_block(M)
    forms = []
    for i in range(5):
        terms = {}
        for j in range(5):
            c = block.rows[j][i]
            if c != Cyc(0):
                exp = [0] * 5
                exp[j] = 1
                terms[tuple(exp)] = c
        forms.append(SparsePoly(5, QW, terms))
    return forms
