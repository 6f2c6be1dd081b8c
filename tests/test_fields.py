import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weddle.fields import (CC, GF, QQ, QW, Cyc, Fp, domain_by_name,
                           format_scalar, is_prime, omega_power, parse_scalar)


def test_prime_validation():
    with pytest.raises(ValueError):
        GF(15)
    assert GF(101).p == 101


def test_fp_arithmetic():
    a, b = Fp(7, 11), Fp(5, 11)
    assert a + b == Fp(1, 11)
    assert a * b == Fp(2, 11)
    assert (a / b) * b == a
    assert -a == Fp(4, 11)
    assert a - 7 == 0
    with pytest.raises(ZeroDivisionError):
        a / Fp(0, 11)


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from((2, 3, 101, 1000003)),
       ints=st.tuples(*[st.integers(-10**7, 10**7)] * 3))
def test_fp_field_axioms_random(p, ints):
    a, b, c = (Fp(n, p) for n in ints)
    x, y, z = (n % p for n in ints)
    assert (a + b).val == (x + y) % p and (a - b).val == (x - y) % p
    assert (a * b).val == x * y % p and (-a).val == -x % p
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a + (-a) == 0 and a - b == a + (-b)
    assert ints[0] + b == Fp(ints[0], p) + b and ints[0] * b == a * b
    if b:
        assert (a / b) * b == a and b * (1 / b) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


def test_cyclotomic_relation():
    w = QW.omega()
    assert w * w * w == 1
    assert w * w + w + 1 == 0
    assert omega_power(2) == w * w
    assert omega_power(5) == omega_power(2)


def test_cyclotomic_inverse_and_norm():
    rng = random.Random(1)
    for _ in range(30):
        x = QW.random(rng)
        if x == 0:
            continue
        assert x * x.inv() == Cyc(1)
        assert x.norm() == (x * x.conj()).u


# reference model of Q(w): a pair (u, v) of Fractions for u + v w, with the
# formulas of the two-Fraction representation
def _ref(x):
    if isinstance(x, Cyc):
        return x.u, x.v
    return Fraction(x), Fraction(0)


def _ref_mul(p, q):
    (u1, v1), (u2, v2) = p, q
    return u1 * u2 - v1 * v2, u1 * v2 + v1 * u2 - v1 * v2


def _ref_norm(p):
    u, v = p
    return u * u - u * v + v * v


def _ref_inv(p):
    n = _ref_norm(p)
    return (p[0] - p[1]) / n, -p[1] / n


REF_OPS = {
    operator.add: lambda p, q: (p[0] + q[0], p[1] + q[1]),
    operator.sub: lambda p, q: (p[0] - q[0], p[1] - q[1]),
    operator.mul: _ref_mul,
    operator.truediv: lambda p, q: _ref_mul(p, _ref_inv(q)),
}

_rationals = st.one_of(st.integers(-10**6, 10**6),
                       st.fractions(max_denominator=10**4),
                       st.sampled_from((0, 1, -1, Fraction(1, 2))))
_cycs = st.builds(Cyc, _rationals, _rationals)


def _assert_canonical(x):
    assert type(x) is Cyc
    assert all(type(n) is int for n in (x.a, x.b, x.d))
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1


@settings(max_examples=300, deadline=None)
@given(x=_cycs, y=st.one_of(_cycs, _rationals), swap=st.booleans())
def test_cyclotomic_matches_fraction_pair_model(x, y, swap):
    _assert_canonical(x)
    assert x == Cyc(*_ref(x))
    for op, ref_op in REF_OPS.items():
        lhs, rhs = (y, x) if swap else (x, y)
        if op is operator.truediv and not rhs:
            with pytest.raises(ZeroDivisionError):
                op(lhs, rhs)
            continue
        got = op(lhs, rhs)
        _assert_canonical(got)
        assert (got.u, got.v) == ref_op(_ref(lhs), _ref(rhs))
    _assert_canonical(-x)
    assert (-x).u == -x.u and (-x).v == -x.v
    _assert_canonical(x.conj())
    assert (x.conj().u, x.conj().v) == (x.u - x.v, -x.v)
    assert x.norm() == _ref_norm(_ref(x)) and type(x.norm()) is Fraction
    if x:
        _assert_canonical(x.inv())
        assert (x.inv().u, x.inv().v) == _ref_inv(_ref(x))
    else:
        for zero_division in (x.inv, lambda: 1 / x, lambda: x / x):
            with pytest.raises(ZeroDivisionError):
                zero_division()
    assert hash(x) == hash((x.u, x.v))
    assert (x == x.u) == (x.v == 0) and (x == 0) == (not x)
    assert parse_scalar(QW, format_scalar(QW, x)) == x
    w = complex(-0.5, 0.75 ** 0.5)
    assert complex(x) == float(x.u) + float(x.v) * w


def test_fp_omega_needs_one_mod_three():
    w = GF(7).omega()
    assert w != 1 and w * w * w == 1
    with pytest.raises(ValueError):
        GF(5).omega()


def test_fp_sqrt():
    dom = GF(101)
    rng = random.Random(2)
    for _ in range(20):
        a = dom.random(rng)
        sq = a * a
        r = dom.sqrt(sq)
        assert r == a or r == -a
    with pytest.raises(ValueError):
        dom.sqrt(2)  # 2 is not a QR mod 101


def test_scalar_format_roundtrip():
    cases = [(QQ, Fraction(-3, 7)), (GF(13), Fp(9, 13)),
             (QW, Cyc(Fraction(1, 2), Fraction(-2, 3))), (CC, 1.5 - 2.25j)]
    for dom, x in cases:
        text = format_scalar(dom, x)
        y = parse_scalar(dom, text)
        if dom is CC:
            assert abs(x - y) < 1e-15
        else:
            assert x == y


def test_domain_by_name():
    assert domain_by_name("Q") is QQ
    assert domain_by_name("Fp:17").p == 17
    assert domain_by_name("Qw") is QW
    assert domain_by_name("C") is CC
    with pytest.raises(ValueError):
        domain_by_name("R")


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    # every n below 10^5, against the sieve of Eratosthenes
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, 10 ** 5, d))
    assert [n for n in range(10 ** 5) if is_prime(n)] == [n for n in range(10 ** 5) if sieve[n]]
