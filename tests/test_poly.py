import random
from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from weddle.fields import GF, QQ, QW
from weddle.poly import (SparsePoly, exponents_of_degree, poly_from_text,
                         poly_to_text)


def rand_poly(rng, nvars=3, deg=3, domain=QQ, terms=6):
    p = SparsePoly.zero(nvars, domain)
    for _ in range(terms):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        p = p + SparsePoly.monomial(exp, domain, domain.random(rng))
    return p


def test_ring_identities():
    rng = random.Random(0)
    for _ in range(20):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - a).is_zero()


def test_no_zero_terms_stored():
    p = SparsePoly(2, QQ, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in p.terms
    q = p - p
    assert q.terms == {}


def test_evaluation_matches_expansion():
    rng = random.Random(1)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        pt = [QQ.random(rng) for _ in range(3)]
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_evaluation_lands_in_the_point_field():
    F = GF(31)
    point = [F.from_int(v) for v in (3, 5, 7)]
    zero = SparsePoly.zero(3, QQ).evaluate(point)
    assert F.is_zero(zero)
    five = SparsePoly.monomial((0, 0, 0), QQ, Fraction(5)).evaluate(point)
    assert five == F.from_int(5) and five.p == 31
    assert SparsePoly.zero(3, QQ).evaluate([Fraction(1, 2)] * 3) == 0


def test_partial_derivative_product_rule():
    rng = random.Random(2)
    a, b = rand_poly(rng), rand_poly(rng)
    lhs = (a * b).partial(0)
    rhs = a.partial(0) * b + a * b.partial(0)
    assert lhs == rhs


@st.composite
def _form_and_points(draw, degree=None):
    """A form of the given degree (1..4 if None) in 1..4 variables over Q or
    GF(p), and two points."""
    domain = draw(st.sampled_from([QQ, GF(2), GF(3), GF(101)]))
    nvars = draw(st.integers(1, 4))
    exps = exponents_of_degree(nvars, degree or draw(st.integers(1, 4)))
    ints = st.integers(-20, 20)
    f = SparsePoly(nvars, domain, {e: domain.from_int(draw(ints)) for e in exps})
    x, y = ([domain.from_int(draw(ints)) for _ in range(nvars)] for _ in range(2))
    return f, x, y


@settings(max_examples=100, deadline=None)
@given(_form_and_points(degree=2))
def test_hessian_of_a_quadric_is_its_polar_form(fxy):
    # x^t H y = f(x + y) - f(x) - f(y): H is twice the symmetric matrix
    f, x, y = fxy
    H = f.hessian()
    n = f.nvars
    lhs = sum((x[i] * H[i][j].evaluate(x) * y[j] for i in range(n) for j in range(n)),
              f.domain.zero())
    xy = [a + b for a, b in zip(x, y)]
    assert lhs == f.evaluate(xy) - f.evaluate(x) - f.evaluate(y)


@settings(max_examples=100, deadline=None)
@given(_form_and_points())
def test_hessian_euler_identity(fxy):
    # sum_j x_j H_ij(x) = (d - 1) df/dx_i (x) for a form of degree d
    f, x, _ = fxy
    H, grad = f.hessian(), f.gradient()
    dom, d = f.domain, f.total_degree()
    for i in range(f.nvars):
        lhs = sum((x[j] * H[i][j].evaluate(x) for j in range(f.nvars)), dom.zero())
        assert lhs == dom.from_int(d - 1) * grad[i].evaluate(x)


def test_substitute_linear():
    # f(x, y) = x^2 + y under x -> u + v, y -> 2u
    f = SparsePoly(2, QQ, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    u_plus_v = SparsePoly(2, QQ, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    two_u = SparsePoly(2, QQ, {(1, 0): Fraction(2)})
    g = f.substitute_linear([u_plus_v, two_u])
    expect = SparsePoly(2, QQ, {(2, 0): Fraction(1), (1, 1): Fraction(2),
                                (0, 2): Fraction(1), (1, 0): Fraction(2)})
    assert g == expect


def test_permute_variables():
    f = SparsePoly(3, QQ, {(2, 1, 0): Fraction(5)})
    g = f.permute_variables([2, 0, 1])
    assert g.terms == {(1, 0, 2): Fraction(5)}


def test_primitive_normalized():
    f = SparsePoly(2, QQ, {(1, 0): Fraction(-4, 6), (0, 1): Fraction(-2, 3)})
    g = f.primitive_normalized()
    assert g.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}


def test_exponent_enumeration_counts():
    for nvars in (2, 3, 5):
        for deg in (1, 2, 4):
            exps = exponents_of_degree(nvars, deg)
            assert len(exps) == comb(deg + nvars - 1, nvars - 1)
            assert all(sum(e) == deg for e in exps)
            assert len(set(exps)) == len(exps)


def test_interchange_roundtrip_exact():
    rng = random.Random(3)
    for domain in (QQ, GF(101), QW):
        p = rand_poly(rng, domain=domain)
        q = poly_from_text(poly_to_text(p))
        assert q == p
        assert q.domain.name == domain.name


def test_interchange_header():
    p = SparsePoly(2, QQ, {(1, 1): Fraction(3, 2)})
    text = poly_to_text(p)
    assert text.splitlines()[0] == "vars=2 degree=2 field=Q"
    assert "1 1 : 3/2" in text
