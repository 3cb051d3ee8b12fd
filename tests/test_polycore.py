import math
import random
from fractions import Fraction

import pytest

from bernkit import polycore
from bernkit.polycore import (NEG_INFINITY, UniPoly, binomial, factorial,
                              falling_product, multinomial)


def P(*coeffs, var="z"):
    return UniPoly(coeffs, var)


def test_mul_basic():
    z = UniPoly.variable("z")
    assert z * (z - 1) == P(0, -1, 1)
    # square of y^2 + y
    a2 = P(0, 1, 1, var="y")
    assert a2 * a2 == P(0, 0, 1, 2, 1, var="y")


def test_add_identity_and_zero():
    p = P(1, 2, 3)
    zero = UniPoly((), "z")
    assert p + zero == p
    assert zero.degree == NEG_INFINITY
    assert not zero
    assert (p - p).degree == NEG_INFINITY


def test_eval():
    assert P(Fraction(1, 6), -1, 1)(0) == Fraction(1, 6)
    # z^3 - (3/2)z^2 + (1/2)z at 1/2: 1/8 - 3/8 + 1/4 = 0
    b3 = P(0, Fraction(1, 2), Fraction(-3, 2), 1)
    assert b3(Fraction(1, 2)) == 0


def test_compose_affine():
    z = UniPoly.variable("z")
    assert z.compose_affine(-1, 1) == P(1, -1)
    p = P(Fraction(1, 3), 0, 2, 5)
    q = p.compose_affine(Fraction(2, 3), -4)
    for t in (Fraction(0), Fraction(1, 7), Fraction(-3, 2)):
        assert q(t) == p(Fraction(2, 3) * t - 4)


def test_divide_exact():
    z = UniPoly.variable("z")
    divisor = z * (z - 1) * (2 * z - 1)
    p = Fraction(-1, 3) * divisor
    q, r = p.div_rem(divisor)
    assert q == P(Fraction(-1, 3))
    assert not r

    q, r = (z * z).div_rem(z)
    assert (q, bool(r)) == (z, False)

    q, r = (z * z + 1).div_rem(z)
    assert q == z and r == P(1)
    assert (z * z + 1).div_rem(z)[1]


def test_divide_errors():
    z = UniPoly.variable("z")
    with pytest.raises(ZeroDivisionError):
        z.div_rem(UniPoly((), "z"))


def test_variable_mismatch():
    with pytest.raises(ValueError):
        P(1, 2) + P(1, 2, var="y")
    with pytest.raises(ValueError):
        P(1, 2) * P(1, 2, var="y")


def test_inexact_coefficients_are_refused():
    # 0.1 would be stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        P(0.1)
    with pytest.raises(TypeError):
        P(1, 0.5)
    with pytest.raises(TypeError):
        UniPoly.constant(0.5)
    # a string is not parsed either: Fraction("1/3") is the caller's to make
    with pytest.raises(TypeError):
        P("1/3")
    assert P(Fraction(1, 3), 2) == UniPoly([Fraction(1, 3), Fraction(2)])


@pytest.mark.parametrize("p", [P(1, 2), UniPoly((), "z")])
def test_a_float_argument_raises_type_error(p):
    # every way a float can reach the ring raises the same error, the zero
    # polynomial included, and before any rounded value is used
    for operation in (lambda: p(0.5), lambda: p.compose_affine(0.5, 1),
                      lambda: p.compose_affine(1, 0.5), lambda: p * 0.5,
                      lambda: p + 0.5, lambda: UniPoly([0.5])):
        with pytest.raises(TypeError):
            operation()


def test_falling_product():
    assert falling_product(3, 0, 2) == P(2, -9, 9)
    assert falling_product(1, 0, 2) == P(-1, 1) * P(-2, 1)
    assert falling_product(2, 5, 0) == P(1)
    with pytest.raises(ValueError):
        falling_product(1, 0, -1)


def test_pow_matches_repeated_multiplication():
    for var in ("z", "y"):
        p = P(Fraction(-2, 3), 1, Fraction(5, 7), var=var)
        acc = P(1, var=var)
        for n in range(10):
            assert p ** n == acc, (var, n)
            acc = acc * p
    with pytest.raises(ValueError):
        P(1, 1) ** -1


def test_pow_forms_no_discarded_product(monkeypatch):
    # floor(log2 n) squarings and one product by the base for each set bit
    # below the top one: no product by the constant 1, no squaring past the
    # top bit
    calls = []
    mul_add = polycore._mul_add

    def counting(*args):
        calls.append(args)
        mul_add(*args)

    monkeypatch.setattr(polycore, "_mul_add", counting)
    p = P(Fraction(-2, 3), 1, Fraction(5, 7))
    for n in range(1, 40):
        calls.clear()
        p ** n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_binomial_multinomial():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert multinomial([2, 1, 1]) == 12
    assert multinomial([0, 0]) == 1
    assert multinomial([7]) == 1
    assert multinomial([3, 4]) == factorial(7) // (factorial(3) * factorial(4))


def _random_poly(rng, max_deg=12):
    deg = rng.randint(0, max_deg)
    return UniPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(deg + 1)], "z")


def test_ring_properties_random():
    rng = random.Random(20240811)
    for _ in range(60):
        p, q = _random_poly(rng), _random_poly(rng)
        assert p * q == q * p
        if p and q:
            assert (p * q).degree == p.degree + q.degree
        d = _random_poly(rng, 5)
        if d:
            quot, rem = p.div_rem(d)
            assert quot * d + rem == p
            assert rem.degree < d.degree
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        t = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert p.compose_affine(a, b)(t) == p(a * t + b)


def _assert_reduced(p):
    for c in p.coeffs:
        assert c.denominator > 0
        assert math.gcd(abs(c.numerator), c.denominator) == 1


def test_random_workload_keeps_rationals_reduced():
    # 10,000 mixed operations; every stored coefficient must stay reduced
    rng = random.Random(7)
    pool = [_random_poly(rng, 6) for _ in range(8)]
    for _ in range(10_000):
        op = rng.randrange(5)
        a = rng.choice(pool)
        b = rng.choice(pool)
        if op == 0:
            out = a + b
        elif op == 1:
            out = a - b
        elif op == 2:
            out = a * b if a.degree + b.degree < 40 else a + b
        elif op == 3:
            out = a * Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        else:
            out = a.div_rem(b)[1] if b else a
        pool[rng.randrange(len(pool))] = out
    for p in pool:
        _assert_reduced(p)


def test_integer_coeffs():
    assert P(0, -3, 5).integer_coeffs() == (0, -3, 5)
    assert P(Fraction(4, 2), 1).integer_coeffs() == (2, 1)
    assert UniPoly((), "z").integer_coeffs() == ()
    with pytest.raises(ValueError):
        P(1, Fraction(1, 3)).integer_coeffs()
