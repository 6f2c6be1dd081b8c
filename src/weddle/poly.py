"""Sparse multivariate polynomials over the scalar domains of fields.py.

Exponent vectors are tuples of fixed length; only nonzero coefficients are
stored.  Includes the line-oriented interchange format:

    vars=k degree=d field=<Q|Fp:p|Qw|C>
    e1 e2 ... ek : coefficient

with coefficients formatted per fields.format_scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .fields import Domain, QQ, domain_by_name, format_scalar, parse_scalar


class SparsePoly:
    __slots__ = ("nvars", "domain", "terms")

    def __init__(self, nvars: int, domain: Domain, terms=None):
        self.nvars = nvars
        self.domain = domain
        self.terms = {}
        if terms:
            for exp, c in terms.items() if isinstance(terms, dict) else terms:
                if len(exp) != nvars:
                    raise ValueError("exponent vector of wrong length")
                if not domain.is_zero(c):
                    cur = self.terms.get(exp)
                    if cur is None:
                        self.terms[exp] = c
                    else:
                        s = cur + c
                        if domain.is_zero(s):
                            del self.terms[exp]
                        else:
                            self.terms[exp] = s

    # construction helpers

    @classmethod
    def zero(cls, nvars, domain):
        return cls(nvars, domain)

    @classmethod
    def constant(cls, nvars, domain, c):
        return cls(nvars, domain, {(0,) * nvars: domain.coerce(c)})

    @classmethod
    def variable(cls, i, nvars, domain):
        exp = [0] * nvars
        exp[i] = 1
        return cls(nvars, domain, {tuple(exp): domain.one()})

    @classmethod
    def monomial(cls, exp, domain, c=1):
        return cls(len(exp), domain, {tuple(exp): domain.coerce(c)})

    # ring operations

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.nvars, self.domain, other)
        self._check(other)
        out = dict(self.terms)
        dom = self.domain
        for exp, c in other.terms.items():
            cur = out.get(exp)
            s = c if cur is None else cur + c
            if dom.is_zero(s):
                out.pop(exp, None)
            else:
                out[exp] = s
        p = SparsePoly(self.nvars, dom)
        p.terms = out
        return p

    def __neg__(self):
        p = SparsePoly(self.nvars, self.domain)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.nvars, self.domain, other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return self.scale(other)
        self._check(other)
        dom = self.domain
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                cur = out.get(e)
                s = c if cur is None else cur + c
                if dom.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        p = SparsePoly(self.nvars, dom)
        p.terms = out
        return p

    __rmul__ = __mul__

    def scale(self, c):
        c = self.domain.coerce(c)
        if self.domain.is_zero(c):
            return SparsePoly.zero(self.nvars, self.domain)
        p = SparsePoly(self.nvars, self.domain)
        p.terms = {e: c0 * c for e, c0 in self.terms.items()}
        return p

    def __pow__(self, n):
        out = SparsePoly.constant(self.nvars, self.domain, 1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def is_zero(self):
        return not self.terms

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __call__(self, point):
        return self.evaluate(point)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point of wrong dimension")
        dom = self.domain
        # start from the point's zero: a Q polynomial at an F_p point is in F_p
        acc = dom.zero() + point[0] * 0 if point else dom.zero()
        for exp, c in self.terms.items():
            t = c
            for x, e in zip(point, exp):
                for _ in range(e):
                    t = t * x
            acc = acc + t
        return acc

    def partial(self, i):
        dom = self.domain
        out = {}
        for exp, c in self.terms.items():
            if exp[i] == 0:
                continue
            e = list(exp)
            k = e[i]
            e[i] = k - 1
            e = tuple(e)
            c2 = c * dom.from_int(k)
            cur = out.get(e)
            s = c2 if cur is None else cur + c2
            if dom.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        p = SparsePoly(self.nvars, dom)
        p.terms = out
        return p

    def gradient(self):
        return [self.partial(i) for i in range(self.nvars)]

    def hessian(self):
        """The matrix of second partials, as a list of rows; a quadric's
        is twice its symmetric matrix."""
        return [d.gradient() for d in self.gradient()]

    def substitute_linear(self, forms):
        """Plug a linear form (given as a SparsePoly) in for each variable."""
        if len(forms) != self.nvars:
            raise ValueError("need one form per variable")
        nv = forms[0].nvars
        dom = forms[0].domain
        out = SparsePoly.zero(nv, dom)
        for exp, c in self.terms.items():
            t = SparsePoly.constant(nv, dom, dom.coerce(c) if dom is self.domain else c)
            for f, e in zip(forms, exp):
                for _ in range(e):
                    t = t * f
            out = out + t
        return out

    def permute_variables(self, perm):
        """New polynomial with variable i renamed to perm[i]."""
        out = {}
        for exp, c in self.terms.items():
            e = [0] * self.nvars
            for i, k in enumerate(exp):
                e[perm[i]] = k
            out[tuple(e)] = c
        p = SparsePoly(self.nvars, self.domain)
        p.terms = out
        return p

    def map_coefficients(self, domain, fn):
        p = SparsePoly(self.nvars, domain)
        for e, c in self.terms.items():
            c2 = fn(c)
            if not domain.is_zero(c2):
                p.terms[e] = c2
        return p

    def primitive_normalized(self):
        """Over Q: clear denominators, divide by content, make the leading
        coefficient (in lexicographic monomial order) positive."""
        if self.domain is not QQ:
            raise ValueError("primitive form only defined over Q")
        if not self.terms:
            return self
        denom = 1
        for c in self.terms.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        ints = {e: int(c * denom) for e, c in self.terms.items()}
        g = 0
        for v in ints.values():
            g = gcd(g, abs(v))
        lead = max(ints)
        sgn = 1 if ints[lead] > 0 else -1
        p = SparsePoly(self.nvars, QQ)
        p.terms = {e: Fraction(sgn * v, g) for e, v in ints.items()}
        return p

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            bits.append("%s*x^%s" % (self.terms[e], list(e)))
        return " + ".join(bits)


def exponents_of_degree(nvars: int, degree: int):
    """All exponent vectors of total degree exactly `degree`, lex order."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for k in range(degree, -1, -1):
        for rest in exponents_of_degree(nvars - 1, degree - k):
            out.append((k,) + rest)
    return out


def poly_to_text(p: SparsePoly) -> str:
    lines = ["vars=%d degree=%d field=%s" % (p.nvars, p.total_degree(), p.domain.name)]
    for exp in sorted(p.terms):
        lines.append("%s : %s" % (" ".join(str(e) for e in exp),
                                  format_scalar(p.domain, p.terms[exp])))
    return "\n".join(lines) + "\n"


def poly_from_text(text: str) -> SparsePoly:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = dict(kv.split("=", 1) for kv in lines[0].split())
    nvars = int(header["vars"])
    domain = domain_by_name(header["field"])
    p = SparsePoly(nvars, domain)
    for ln in lines[1:]:
        exp_s, coef_s = ln.split(":")
        exp = tuple(int(t) for t in exp_s.split())
        c = parse_scalar(domain, coef_s)
        if not domain.is_zero(c):
            p.terms[exp] = c
    return p
