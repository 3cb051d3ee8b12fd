"""Cross-check of the cached Bernoulli families against sympy."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from bernkit.specialfns import bernoulli_number, bernoulli_poly  # noqa: E402

M_MAX = 40


def to_fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def test_bernoulli_polys_match_sympy():
    z = sympy.Symbol("z")
    for m in range(M_MAX + 1):
        expected = [to_fraction(c) for c in
                    reversed(sympy.Poly(sympy.bernoulli(m, z), z).all_coeffs())]
        assert list(bernoulli_poly(m).coeffs) == expected, m


def test_bernoulli_numbers_match_sympy():
    for m in range(M_MAX + 1):
        if m != 1:
            assert bernoulli_number(m) == to_fraction(sympy.bernoulli(m)), m
    # sympy >= 1.12 returns B_1 = +1/2 (the B_m = B_m(1) convention), older
    # releases -1/2; bernkit keeps B_m = B_m(0), so B_1 = -1/2, the constant
    # term of B_1(z) = z - 1/2 checked above.  Only the magnitude is shared.
    assert bernoulli_number(1) == Fraction(-1, 2) == bernoulli_poly(1)(0)
    assert abs(to_fraction(sympy.bernoulli(1))) == Fraction(1, 2)
