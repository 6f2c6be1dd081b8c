"""Finite symplectic groups Sp(2g, Z/n), half-integer characteristics,
quadratic forms on F_2^{2g}, orbits, stabilizers and the congruence-level
classification of integral symplectic matrices.

Conventions fixed once: the symplectic form is <x, y> = x^t J y with
J = [[0, I], [-I, 0]]; characteristics are stored in doubled coordinates,
entries 0/1, so the induced action is integer arithmetic mod 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

import numpy as np

from . import linalg
from .linalg import ResourceCapError, check_states


class InvariantViolation(ValueError):
    pass


def J_matrix(g: int):
    J = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        J[i][g + i] = 1
        J[g + i][i] = -1
    return J


def _mat_mul(A, B, n=None):
    """A B as a tuple of row tuples, reduced mod n unless n is None."""
    cols = tuple(zip(*B))
    if n is None:
        return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)
    return tuple(tuple(sum(map(mul, row, col)) % n for col in cols) for row in A)


def _is_symplectic(M, n=None) -> bool:
    J = J_matrix(len(M) // 2)
    MtJM = _mat_mul(tuple(zip(*M)), _mat_mul(J, M))
    diffs = (x - y for row, jrow in zip(MtJM, J) for x, y in zip(row, jrow))
    return not any(d % n if n else d for d in diffs)


@dataclass(frozen=True)
class Characteristic:
    """Half-integer characteristic m = (a/2, b/2) in doubled coordinates."""

    g: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != self.g or len(self.b) != self.g:
            raise ValueError("characteristic of wrong genus")
        if any(x not in (0, 1) for x in self.a + self.b):
            raise ValueError("doubled coordinates must be 0 or 1")

    @property
    def parity(self) -> int:
        return -1 if sum(x * y for x, y in zip(self.a, self.b)) % 2 else 1


def all_characteristics(g: int):
    out = []
    for bits in product((0, 1), repeat=2 * g):
        out.append(Characteristic(g, bits[:g], bits[g:]))
    return out


class SymplecticMat:
    """Element of Sp(2g, Z) when n is None, else of Sp(2g, Z/n) with
    entries reduced mod n."""

    __slots__ = ("n", "g", "entries")

    def __init__(self, entries, n: int | None = None):
        if n is not None and n < 2:
            raise ValueError("modulus must be at least 2")
        size = len(entries)
        if size % 2 or any(len(r) != size for r in entries):
            raise InvariantViolation("need a square matrix of even size")
        self.n = n
        self.g = size // 2
        self.entries = tuple(tuple(int(x) % n if n else int(x) for x in row)
                             for row in entries)
        if not _is_symplectic(self.entries, n):
            raise InvariantViolation("matrix is not symplectic "
                                     + ("over Z" if n is None else "mod %d" % n))

    @classmethod
    def identity(cls, g: int, n: int | None = None):
        return cls([[1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)], n)

    def blocks(self):
        g = self.g
        A = [row[:g] for row in self.entries[:g]]
        B = [row[g:] for row in self.entries[:g]]
        C = [row[:g] for row in self.entries[g:]]
        D = [row[g:] for row in self.entries[g:]]
        return A, B, C, D

    @classmethod
    def _trusted(cls, entries: tuple, n: int | None):
        """Wrap entries that are reduced mod n and symplectic by construction."""
        obj = cls.__new__(cls)
        obj.n = n
        obj.g = len(entries) // 2
        obj.entries = entries
        return obj

    def reduce(self, n: int) -> SymplecticMat:
        """This matrix mod n; only a matrix over Z or mod a multiple of n has one."""
        if self.n is not None and (n < 2 or self.n % n):
            raise ValueError("a matrix mod %d has no reduction mod %d" % (self.n, n))
        return self if n == self.n else SymplecticMat(self.entries, n)

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("mixed moduli")
        if self.g != other.g:
            raise ValueError("mixed genera")
        # a product of two symplectic matrices is symplectic: no re-check
        return SymplecticMat._trusted(_mat_mul(self.entries, other.entries, self.n), self.n)

    def apply(self, v):
        Mv = (sum(map(mul, row, v)) for row in self.entries)
        return tuple(x % self.n for x in Mv) if self.n else tuple(Mv)

    def __eq__(self, other):
        return isinstance(other, SymplecticMat) and self.n == other.n \
            and self.entries == other.entries

    def __hash__(self):
        return hash((self.n, self.entries))

    def __repr__(self):
        return "SymplecticMat(n=%s, %s)" % (self.n, list(map(list, self.entries)))


def transvection(v, scale=1, n=None, g=None):
    """t(x) = x + scale * <x, v> * v, symplectic for every scale; over Z
    when n is None."""
    if g is None:
        g = len(v) // 2
    J = J_matrix(g)
    Jv = [sum(J[i][j] * v[j] for j in range(2 * g)) for i in range(2 * g)]
    M = [[(1 if i == j else 0) + scale * v[i] * Jv[j] for j in range(2 * g)]
         for i in range(2 * g)]
    return SymplecticMat(M, n)


def standard_transvections(g: int, n: int):
    """The transvections t_v mod n for v in e_1..e_g, f_1..f_g,
    e_i + e_{i+1}, f_i + f_{i+1} (i < g) and e_i + f_i, in that order:
    5g - 2 of them.  sp_group_codes closes over this set, so its order
    check certifies that the set generates Sp(2g, Z/n) at every enumerated
    (g, n)."""
    def unit(*idx):
        return tuple(int(k in idx) for k in range(2 * g))

    vecs = ([unit(i) for i in range(g)] + [unit(g + i) for i in range(g)]
            + [unit(i, i + 1) for i in range(g - 1)]
            + [unit(g + i, g + i + 1) for i in range(g - 1)]
            + [unit(i, g + i) for i in range(g)])
    return [transvection(v, 1, n, g) for v in vecs]


def gamma_index(g: int, n: int) -> int:
    """Index of the principal congruence subgroup of level n in Sp(2g, Z),
    which is also the order of Sp(2g, Z/n):
    n^(g(2g+1)) * prod_{p | n} prod_{k=1..g} (1 - p^(-2k)).

    Cost bound: n is factored by trial division up to sqrt(n), so it is
    capped at 10^12 (at most 10^6 divisions), and n^(g(2g+1)) must stay
    below 10^4000, so the order has at most 4000 decimal digits.  Beyond
    either bound, and for g < 0 or n < 2, ValueError."""
    if g < 0:
        raise ValueError("genus must not be negative")
    if n < 2:
        raise ValueError("level must be at least 2")
    if n > 10 ** 12:
        raise ValueError("level %d is above the cap of 10^12" % n)
    digits = g * (2 * g + 1) * math.log10(n)
    if digits >= 4000:
        raise ValueError("the order of Sp(%d, Z/%d) has about %d digits, above the "
                         "cap of 4000" % (2 * g, n, digits))
    val = Fraction(n) ** (g * (2 * g + 1))
    m = n
    p = 2
    primes = []
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    for p in primes:
        for k in range(1, g + 1):
            val *= 1 - Fraction(1, p ** (2 * k))
    if val.denominator != 1:
        raise AssertionError("index formula must be an integer")
    return int(val)


def _code_weights(g: int, n: int):
    """(digit_w, col_w): the code of a matrix M mod n is
    sum_ij M_ij col_w[i] digit_w[j], its row-major entries read as base-n
    digits with the first entry most significant, so codes sort as the
    entries do, row by row; and a column v is indexed by sum_i v_i digit_w[i]."""
    digit_w = n ** np.arange(2 * g - 1, -1, -1, dtype=np.int64)
    return digit_w, digit_w ** (2 * g)


def _code_entries(codes: np.ndarray, g: int, n: int) -> np.ndarray:
    """The matrices of an array of codes, as uint8 entries (N, 2g, 2g)."""
    digit_w, col_w = _code_weights(g, n)
    out = np.empty((codes.size, 2 * g, 2 * g), dtype=np.uint8)
    for i in range(2 * g):
        out[:, i] = codes[:, None] // (col_w[i] * digit_w) % n
    return out


def _sorted_distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, sorted; the array is sorted in
    place (numpy's hash-based np.unique is slower here)."""
    codes.sort()
    keep = np.ones(codes.size, dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


@lru_cache(maxsize=None)
def sp_group_codes(g: int, n: int) -> np.ndarray:
    """All of Sp(2g, Z/n) by breadth-first closure over the 5g - 2
    standard_transvections, as a sorted read-only int64 array of codes
    (see _code_weights; code_to_mat decodes one).

    Only n in {2, 3} is enumerated, and only up to STATE_CAP elements.  The
    count is checked against the closed-form order, which certifies that
    the transvections generate the group.  The codes need n^(4g^2) < 2^63,
    which holds for every group within STATE_CAP.

    Inside the closure a matrix is coded by its columns instead: the index
    of column j (see _code_weights) is digit j of a base-n^(2g) number, the
    first most significant.  A generator G maps column v to G v, so it acts
    on a code through one table over all pairs of columns, g lookups with
    nothing decoded.  The frontier is walked STATE_BLOCK codes at a time: a
    block's images under every generator are de-duplicated in 1-D, and
    those already visited are dropped by binary search in the sorted
    visited codes.  The visited set is re-encoded row-major once, at the end.
    """
    order = gamma_index(g, n)
    if n not in (2, 3):
        raise ResourceCapError(
            "group enumeration is capped at n in {2, 3}; order for n=%d is %d by formula"
            % (n, order))
    check_states(order)
    block_size = linalg.STATE_BLOCK
    digit_w, col_w = _code_weights(g, n)
    ncol = n ** (2 * g)
    columns = np.arange(ncol)[:, None] // digit_w % n    # the entries of column v
    col_place = ncol ** np.arange(2 * g - 1, -1, -1)     # of column j in a code
    npair = ncol * ncol
    pair_place = col_place[1::2]                         # of the pair 2i, 2i + 1
    pairs = np.arange(npair)
    tables = []   # tables[t][v * ncol + w] = G_t v * ncol + G_t w, as indices
    for t in standard_transvections(g, n):
        image = columns @ np.array(t.entries).T % n @ digit_w
        tables.append(image[pairs // ncol] * ncol + image[pairs % ncol])

    def unvisited_images(block):
        """The images of a block of codes under every generator that are not
        in visited, sorted and distinct."""
        parts = [block // w % npair for w in pair_place]
        codes = np.empty((len(tables), block.size), dtype=np.int64)
        for T, row in zip(tables, codes):
            np.multiply(T[parts[0]], pair_place[0], out=row)
            for part, w in zip(parts[1:], pair_place[1:]):
                row += T[part] * w
        codes = _sorted_distinct(codes.ravel())
        at = np.minimum(np.searchsorted(visited, codes), visited.size - 1)
        return codes[visited[at] != codes]

    visited = new = np.array([digit_w @ col_place])      # column j of I is e_j
    while new.size:
        new = _sorted_distinct(np.concatenate([
            unvisited_images(new[first:first + block_size])
            for first in range(0, new.size, block_size)]))
        visited = np.insert(visited, np.searchsorted(visited, new), new)
    if visited.size != order:
        raise AssertionError("BFS closure found %d elements, formula says %d"
                             % (visited.size, order))
    # row-major code = sum_j digit_w[j] * (the code of column j placed last)
    col_code = columns @ col_w
    for first in range(0, visited.size, block_size):
        block = visited[first:first + block_size]
        block[:] = col_code[block[:, None] // col_place % ncol] @ digit_w
    visited.sort()
    visited.flags.writeable = False
    return visited


def group_order(g: int, n: int) -> int:
    """Order of Sp(2g, Z/n).  For n in {2, 3} the group is enumerated and
    the count cross-checked against the formula; other levels use the
    formula only."""
    return len(sp_group_codes(g, n)) if n in (2, 3) else gamma_index(g, n)


def code_to_mat(code: int, g: int, n: int) -> SymplecticMat:
    """The matrix of one code of sp_group_codes(g, n), symplectic by
    construction: the one decoder of a single group element."""
    entries = _code_entries(np.array([code]), g, n)[0].tolist()
    return SymplecticMat._trusted(tuple(map(tuple, entries)), n)


# ---------------------------------------------------------------------------
# action on characteristics


def act_characteristic(M: SymplecticMat, m: Characteristic) -> Characteristic:
    """Action on half-integer characteristics in doubled coordinates:
    (a'; b') = (D, -C; -B, A)(a; b) + (diag(C D^t); diag(A B^t)) mod 2.
    M is over Z or mod an even n."""
    M = M.reduce(2)
    if M.g != m.g:
        raise ValueError("genus mismatch")
    g = m.g
    A, B, C, D = M.blocks()
    a = [(sum(D[i][j] * m.a[j] for j in range(g))
          - sum(C[i][j] * m.b[j] for j in range(g))
          + sum(C[i][k] * D[i][k] for k in range(g))) % 2
         for i in range(g)]
    b = [(-sum(B[i][j] * m.a[j] for j in range(g))
          + sum(A[i][j] * m.b[j] for j in range(g))
          + sum(A[i][k] * B[i][k] for k in range(g))) % 2
         for i in range(g)]
    return Characteristic(g, tuple(a), tuple(b))


def orbit_characteristics(m: Characteristic):
    """Orbit of m under Sp(2g, Z/2), by closure over the standard
    transvections."""
    gens = standard_transvections(m.g, 2)
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for x in frontier:
            for t in gens:
                y = act_characteristic(t, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# quadratic forms on F_2^{2g}


def _f2_vectors(g: int):
    return list(product((0, 1), repeat=2 * g))


def symplectic_pairing_f2(x, y) -> int:
    """<x, y> in {+1, -1}."""
    g = len(x) // 2
    s = sum(x[i] * y[g + i] + x[g + i] * y[i] for i in range(g))
    return -1 if s % 2 else 1


class QuadFormF2:
    """Quadratic form kappa: F_2^{2g} -> {+1, -1} refining the pairing."""

    __slots__ = ("g", "table")

    def __init__(self, g: int, table):
        self.g = g
        vecs = _f2_vectors(g)
        if isinstance(table, dict):
            self.table = tuple(table[v] for v in vecs)
        else:
            self.table = tuple(table)
        if len(self.table) != 4 ** g or any(t not in (1, -1) for t in self.table):
            raise InvariantViolation("value table must be +-1 on all of F_2^{2g}")
        for x in vecs:
            for y in vecs:
                xy = tuple((u + v) % 2 for u, v in zip(x, y))
                if self(xy) * self(x) * self(y) != symplectic_pairing_f2(x, y):
                    raise InvariantViolation("table is not quadratic for the pairing")

    @classmethod
    def from_characteristic(cls, m: Characteristic):
        """kappa(u, v) = (-1)^(u.v + a.v + b.u); translation in m matches
        the torsor action on forms."""
        g = m.g
        tab = []
        for w in _f2_vectors(g):
            u, v = w[:g], w[g:]
            e = (sum(x * y for x, y in zip(u, v))
                 + sum(x * y for x, y in zip(m.a, v))
                 + sum(x * y for x, y in zip(m.b, u)))
            tab.append(-1 if e % 2 else 1)
        return cls._from_table(g, tab)

    @classmethod
    def _from_table(cls, g: int, table):
        """Wrap a value table that is quadratic by construction."""
        obj = cls.__new__(cls)
        obj.g = g
        obj.table = tuple(table)
        return obj

    def __call__(self, x) -> int:
        idx = 0
        for bit in x:
            idx = idx * 2 + (bit % 2)
        return self.table[idx]

    @property
    def epsilon(self) -> int:
        plus = sum(1 for t in self.table if t == 1)
        if plus == 2 ** (self.g - 1) * (2 ** self.g + 1):
            return 1
        if plus == 2 ** (self.g - 1) * (2 ** self.g - 1):
            return -1
        raise InvariantViolation("value distribution is not that of a theta form")

    def __eq__(self, other):
        return isinstance(other, QuadFormF2) and self.table == other.table

    def __hash__(self):
        return hash(self.table)


def torsor_action(x, kappa: QuadFormF2) -> QuadFormF2:
    """(x . kappa)(y) = <x, y> kappa(y)."""
    return QuadFormF2._from_table(kappa.g, (symplectic_pairing_f2(x, y) * kappa(y)
                                            for y in _f2_vectors(kappa.g)))


def all_quad_forms(g: int):
    return [QuadFormF2.from_characteristic(m) for m in all_characteristics(g)]


# ---------------------------------------------------------------------------
# stabilizers and the congruence classification

BASE_ODD = Characteristic(2, (1, 0), (1, 0))


@dataclass
class StabilizerReport:
    order: int
    orbit_sizes_on_odd: tuple
    codes: frozenset    # the fixers, as codes of sp_group_codes(2, 2)


@lru_cache(maxsize=None)
def stabilizer(m: Characteristic) -> StabilizerReport:
    """Stabilizer in Sp(4, Z/2) of the quadratic form kappa attached to m,
    with its orbit structure on the six odd forms.

    M fixes kappa (kappa o M^-1 = kappa) exactly when kappa(M x) = kappa(x)
    for all x, so one product of the listed group with the sixteen vectors
    of F_2^4 decides every element.  The stabilizer is a group and all of
    it is listed, so the orbit of a form q is its set of images q o M."""
    if m.g != 2:
        raise ValueError("stabilizers are enumerated for genus 2 only")
    codes = sp_group_codes(2, 2)
    mats = _code_entries(codes, 2, 2)
    # image[k, i]: index of M_k x_i, its bits read as QuadFormF2.__call__ does
    image = np.array([8, 4, 2, 1]) @ (mats @ np.array(_f2_vectors(2)).T % 2)
    table = np.array(QuadFormF2.from_characteristic(m).table)
    fixed = np.flatnonzero((table[image] == table).all(axis=1))
    odd = [np.array(q.table) for q in all_quad_forms(2) if q.epsilon == -1]
    orbits = {frozenset(map(tuple, q[image[fixed]])) for q in odd}
    return StabilizerReport(fixed.size, tuple(sorted(map(len, orbits))),
                            frozenset(codes[fixed].tolist()))


def classify_gamma(G: SymplecticMat) -> set:
    """All congruence labels satisfied by an integral symplectic matrix."""
    if getattr(G, "n", 0) is not None:  # refuses matrices mod n and non-matrices
        raise InvariantViolation("need an integral symplectic matrix")
    if G.g != 2:
        raise ValueError("classification implemented for genus 2")
    labels = {"Gamma2"}

    def is_id_mod(n):
        return all((G.entries[i][j] - (1 if i == j else 0)) % n == 0
                   for i in range(4) for j in range(4))

    if is_id_mod(2):
        labels.add("Gamma2(2)")
    if is_id_mod(3):
        labels.add("Gamma2(3)")
    if is_id_mod(6):
        labels.add("Gamma2(6)")
    if is_id_mod(3):
        A, B, C, D = G.blocks()
        g = G.g
        dAB = [sum(A[i][k] * B[i][k] for k in range(g)) for i in range(g)]
        dCD = [sum(C[i][k] * D[i][k] for k in range(g)) for i in range(g)]
        if all(x % 6 == 0 for x in dAB + dCD):
            labels.add("Gamma2(3,6)")
        digit_w, col_w = _code_weights(2, 2)
        code = int(col_w @ np.array(G.reduce(2).entries) @ digit_w)
        if code in stabilizer(BASE_ODD).codes:
            labels.add("Gamma2(3)-")
    return labels
