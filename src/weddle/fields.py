"""Exact scalar domains: rationals, prime fields, the degree-2 cyclotomic
extension Q(w) with w^2 + w + 1 = 0, and complex doubles.

Every domain is a small descriptor object exposing zero/one/from_int,
exactness, zero tests and formatting for the polynomial interchange format.
Elements themselves are plain values with arithmetic operators: Fraction,
Fp, Cyc, or complex.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# Miller-Rabin with these bases is exact below _MR_BOUND (about 3.3e24)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases up to 37; an n past
    the range where that is exact is refused with a ValueError."""
    if n >= _MR_BOUND:
        raise ValueError("%d is too large for the primality test (need n < %d)"
                         % (n, _MR_BOUND))
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    # n - 1 = d 2^s with d odd
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in _MR_BASES)


class Fp:
    """Element of the prime field Z/p."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = int(val) % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed moduli %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        if isinstance(other, Fraction):
            return Fp(other.numerator, self.p) / Fp(other.denominator, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Fp(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.val == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return Fp(self.val * pow(o.val, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "Fp(%d, %d)" % (self.val, self.p)


class Cyc:
    """u + v*w with w a primitive cube root of unity, u, v rational.

    Stored as three ints: u = a/d and v = b/d with d > 0 and
    gcd(a, b, d) = 1.  The form is canonical, so equal values have equal
    (a, b, d).  ``u`` and ``v`` are read back as Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, u, v=0):
        if type(u) is int and type(v) is int:
            self.a, self.b, self.d = u, v, 1
            return
        u, v = Fraction(u), Fraction(v)
        du, dv = u.denominator, v.denominator
        d = du // gcd(du, dv) * dv
        # the lcm of reduced denominators leaves gcd(a, b, d) = 1
        self.a = u.numerator * (d // du)
        self.b = v.numerator * (d // dv)
        self.d = d

    @property
    def u(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def v(self) -> Fraction:
        return Fraction(self.b, self.d)

    def _coerce(self, other):
        if isinstance(other, Cyc):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _reduced(self.a + o.a, self.b + o.b, d1)
        return _reduced(self.a * d2 + o.a * d1, self.b * d2 + o.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _reduced(self.a - o.a, self.b - o.b, d1)
        return _reduced(self.a * d2 - o.a * d1, self.b * d2 - o.b * d1, d1 * d2)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # (a1 + b1 w)(a2 + b2 w), w^2 = -1 - w
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        bb = b1 * b2
        return _reduced(a1 * a2 - bb, a1 * b2 + b1 * a2 - bb, self.d * o.d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        a, b, d = self.a, self.b, self.d
        return Fraction(a * a - a * b + b * b, d * d)

    def conj(self):
        """Image under w -> w^2."""
        return _cyc(self.a - self.b, -self.b, self.d)

    def inv(self):
        a, b, d = self.a, self.b, self.d
        n = a * a - a * b + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        # conj / norm = ((a - b) - b w) d / (a^2 - ab + b^2), with n > 0
        return _reduced((a - b) * d, -b * d, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inv()

    def __neg__(self):
        return _cyc(-self.a, -self.b, self.d)

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return self.b == 0 and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (self.b == 0 and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # the hash of the Fraction pair; an int hashes as its Fraction
        if self.d == 1:
            return hash((self.a, self.b))
        return hash((self.u, self.v))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __complex__(self):
        # int / int rounds the exact quotient once, as float(Fraction) does
        w = complex(-0.5, 0.75 ** 0.5)
        return self.a / self.d + self.b / self.d * w

    def __repr__(self):
        if self.b == 0:
            return "Cyc(%s)" % self.u
        return "Cyc(%s, %s)" % (self.u, self.v)


_new_object = object.__new__


def _cyc(a: int, b: int, d: int) -> Cyc:
    """(a + b w) / d, already canonical."""
    x = _new_object(Cyc)
    x.a, x.b, x.d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> Cyc:
    """(a + b w) / d for d > 0, put in canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _cyc(a, b, d)


_OMEGA_POWERS = (Cyc(1), Cyc(0, 1), Cyc(-1, -1))


def omega_power(k: int) -> Cyc:
    """w^k as an exact Cyc value."""
    return _OMEGA_POWERS[k % 3]


class Domain:
    """Descriptor shared by all scalar domains."""

    is_exact = True
    name = "?"

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def is_zero(self, x) -> bool:
        return x == self.zero()

    def __repr__(self):
        return self.name


class RationalField(Domain):
    name = "Q"

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        return Fraction(x)

    def is_zero(self, x) -> bool:
        return not x

    def random(self, rng, bound=10):
        return Fraction(rng.randint(-bound, bound))


class PrimeField(Domain):
    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.name = "Fp:%d" % p

    def from_int(self, n):
        return Fp(n, self.p)

    def coerce(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise ValueError("wrong modulus")
            return x
        if isinstance(x, Fraction):
            return self.from_int(x.numerator) / self.from_int(x.denominator)
        return Fp(x, self.p)

    def random(self, rng, bound=None):
        return Fp(rng.randrange(self.p), self.p)

    def omega(self):
        """A fixed nontrivial cube root of 1; needs p = 1 mod 3."""
        if self.p % 3 != 1:
            raise ValueError("F_%d has no primitive cube root of unity" % self.p)
        for g in range(2, self.p):
            w = pow(g, (self.p - 1) // 3, self.p)
            if w != 1:
                return Fp(w, self.p)
        raise AssertionError("unreachable")

    def sqrt(self, a):
        """Tonelli-Shanks square root; raises if a is not a square."""
        a = self.coerce(a).val
        p = self.p
        if a == 0:
            return Fp(0, p)
        if pow(a, (p - 1) // 2, p) != 1:
            raise ValueError("%d is not a square mod %d" % (a, p))
        if p % 4 == 3:
            return Fp(pow(a, (p + 1) // 4, p), p)
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return Fp(r, p)


class CyclotomicField(Domain):
    name = "Qw"

    def from_int(self, n):
        return Cyc(n)

    def coerce(self, x):
        if isinstance(x, Cyc):
            return x
        return Cyc(x)

    def is_zero(self, x) -> bool:
        return not x

    def omega(self):
        return _OMEGA_POWERS[1]

    def random(self, rng, bound=10):
        return Cyc(rng.randint(-bound, bound), rng.randint(-bound, bound))


class ComplexField(Domain):
    name = "C"
    is_exact = False

    def from_int(self, n):
        return complex(n)

    def coerce(self, x):
        return complex(x)

    def is_zero(self, x, tol=0.0):
        # exact by default so polynomial bookkeeping never truncates
        return abs(x) <= tol

    def random(self, rng, bound=1.0):
        return complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))


QQ = RationalField()
QW = CyclotomicField()
CC = ComplexField()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def domain_by_name(name: str) -> Domain:
    """Parse a field tag as used in interchange headers and CLI flags."""
    if name == "Q":
        return QQ
    if name == "Qw":
        return QW
    if name == "C":
        return CC
    if name.startswith("Fp:"):
        return GF(int(name.split(":", 1)[1]))
    raise ValueError("unknown field tag %r" % name)


def format_scalar(domain: Domain, x) -> str:
    if isinstance(domain, RationalField):
        f = Fraction(x)
        return "%d/%d" % (f.numerator, f.denominator)
    if isinstance(domain, PrimeField):
        return "%d/1" % domain.coerce(x).val
    if isinstance(domain, CyclotomicField):
        c = domain.coerce(x)
        return "%d/%d,%d/%d" % (c.u.numerator, c.u.denominator,
                                c.v.numerator, c.v.denominator)
    z = complex(x)
    return "%.17g,%.17g" % (z.real, z.imag)


def parse_scalar(domain: Domain, text: str):
    text = text.strip()
    if isinstance(domain, (RationalField, PrimeField)):
        return domain.coerce(Fraction(text))
    if isinstance(domain, CyclotomicField):
        u, v = text.split(",")
        return Cyc(Fraction(u), Fraction(v))
    re_, im_ = text.split(",")
    return complex(float(re_), float(im_))
