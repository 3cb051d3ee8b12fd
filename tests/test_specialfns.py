import math
from fractions import Fraction

import pytest

from bernkit.convolution import verify_polylog
from bernkit.polycore import (UniPoly, binomial, dot, factorial,
                              falling_product, power_rows)
from bernkit.series import higher_bernoulli_poly
from bernkit.specialfns import (BernoulliCache, bernoulli_number,
                                bernoulli_poly, eulerian_cache,
                                eulerian_number, eulerian_poly)

# golden rows: B_k(z) and A_k(y) for k <= 6, ascending coefficients
BERNOULLI_TABLE = {
    0: [1],
    1: [Fraction(-1, 2), 1],
    2: [Fraction(1, 6), -1, 1],
    3: [0, Fraction(1, 2), Fraction(-3, 2), 1],
    4: [Fraction(-1, 30), 0, 1, -2, 1],
    5: [0, Fraction(-1, 6), 0, Fraction(5, 3), Fraction(-5, 2), 1],
    6: [Fraction(1, 42), 0, Fraction(-1, 2), 0, Fraction(5, 2), -3, 1],
}

EULERIAN_TABLE = {
    0: [1],
    1: [0, 1],
    2: [0, 1, 1],
    3: [0, 1, 4, 1],
    4: [0, 1, 11, 11, 1],
    5: [0, 1, 26, 66, 26, 1],
    6: [0, 1, 57, 302, 302, 57, 1],
}


def test_bernoulli_numbers():
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(3) == 0
    for k in range(3, 25, 2):
        assert bernoulli_number(k) == 0
    assert bernoulli_number(12) == Fraction(-691, 2730)


def _reference_bernoulli(top):
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 in Fraction arithmetic, and
    # B_m(z) = sum_i C(m, i) B_{m-i} z^i as ascending coefficient lists
    numbers = [Fraction(1)]
    for m in range(1, top + 1):
        numbers.append(-sum(math.comb(m + 1, j) * numbers[j]
                            for j in range(m)) / (m + 1))
    polys = [[math.comb(m, i) * numbers[m - i] for i in range(m + 1)]
             for m in range(top + 1)]
    return numbers, polys


def test_integer_bernoulli_cache_matches_a_fraction_reference():
    numbers, polys = _reference_bernoulli(60)
    at_once, by_steps = BernoulliCache(), BernoulliCache()
    at_once.ensure(60)
    for k in (1, 2, 3, 7, 8, 30, 31, 60):
        by_steps.ensure(k)
    for cache in (at_once, by_steps):
        # B_m is the constant coefficient of B_m(z)
        assert [list(p.coeffs) for p in cache.polys] == polys
    assert [bernoulli_number(i) for i in range(61)] == numbers


@pytest.mark.parametrize("k", sorted(BERNOULLI_TABLE))
def test_bernoulli_polys_golden(k):
    assert bernoulli_poly(k) == UniPoly(BERNOULLI_TABLE[k], "z")


def test_bernoulli_poly_shape():
    for k in range(12):
        p = bernoulli_poly(k)
        assert p.degree == k
        assert p.leading_coefficient() == 1
        assert p(0) == bernoulli_number(k)


def test_bernoulli_reflection():
    for k in range(21):
        p = bernoulli_poly(k)
        assert p.compose_affine(-1, 1) == (-1) ** k * p


@pytest.mark.parametrize("k", sorted(EULERIAN_TABLE))
def test_eulerian_polys_golden(k):
    assert eulerian_poly(k) == UniPoly(EULERIAN_TABLE[k], "y")


def test_eulerian_numbers():
    assert eulerian_number(4, 2) == 11
    for nu in range(1, 9):
        assert eulerian_number(nu, 2) == 2 ** nu - nu - 1
    for k in range(1, 7):
        assert eulerian_number(k, 1) == 1
    assert eulerian_number(3, 4) == 0
    assert eulerian_number(3, -1) == 0


def test_eulerian_row_sums_and_palindrome():
    for k in range(13):
        p = eulerian_poly(k)
        assert p(1) == factorial(k)
        assert p.degree == k
        assert p.leading_coefficient() == 1
        if k >= 1:
            row = [eulerian_number(k, j) for j in range(1, k + 1)]
            assert row == row[::-1]


def test_higher_bernoulli():
    assert higher_bernoulli_poly(2, 3) == UniPoly([2, -3, 1], "z")
    for k in range(9):
        assert higher_bernoulli_poly(k, 1) == bernoulli_poly(k)
    for r in (1, 2, 5):
        assert higher_bernoulli_poly(0, r) == UniPoly([1], "z")
    # B_{m-1}^{(m)}(z) is the pure falling product (z-1)...(z-m+1)
    for m in range(2, 11):
        assert higher_bernoulli_poly(m - 1, m) == falling_product(1, 0, m - 1)


def series_mul(a, b):
    # the truncated product of two coefficient lists, one dot per
    # coefficient, through the shorter order
    var = a[0].var
    return [dot(((a[i], b[m - i], 1) for i in range(m + 1)), var)
            for m in range(min(len(a), len(b)))]


def test_higher_bernoulli_matches_the_full_series_product():
    # against (x/(e^x-1))^r as one Miller power of (e^x-1)/x at a = -r,
    # times e^{zx}
    for r in range(1, 6):
        for m in range(13):
            expm1_over_x = [UniPoly.constant(Fraction(1, factorial(i + 1)))
                            for i in range(m + 1)]
            exp_zx = [UniPoly.monomial(Fraction(1, factorial(i)), i)
                      for i in range(m + 1)]
            product = series_mul(power_rows(expm1_over_x, -r, m), exp_zx)
            assert (higher_bernoulli_poly(m, r)
                    == factorial(m) * product[m]), (m, r)


def test_polylog_check():
    assert verify_polylog(2, 6) is None
    assert verify_polylog(1, 5) is None
    assert verify_polylog(6, 12) is None


def polylog_expansion_by_series(k, order):
    # e_0..e_order of A_k(y)/(1-y)^{k+1} by the truncated series product
    # A_k(y) * ((1-y)^{k+1})^{-1}, the reference for verify_polylog's
    # integer recurrence
    a_k = eulerian_poly(k)
    numer = [UniPoly.constant(a_k.coefficient(j), "y")
             for j in range(order + 1)]
    denom = [UniPoly.constant(binomial(k + 1, j) * (-1) ** j, "y")
             for j in range(order + 1)]
    expansion = series_mul(numer, power_rows(denom, -1, order))
    return [c.coefficient(0) for c in expansion]


def polylog_check_by_series(k, order):
    # eq. 2.8: e_m = m^k through y^order
    return all(e_m == m ** k
               for m, e_m in enumerate(polylog_expansion_by_series(k, order)))


def test_polylog_check_matches_the_series_expansion():
    for k in range(1, 7):
        assert verify_polylog(k, 20) is None, k
        assert polylog_check_by_series(k, 20), k


def _corrupted_eulerian_polys(k):
    # A_k with one coefficient moved by 1/2, or by 1, A_k / 2, whose
    # numerators over its denominator are A_k's own, and A_k + y^20, which
    # differs first at the last order the eq. 2.8 check reads
    a_k = eulerian_poly(k)
    for delta in (Fraction(1, 2), 1):
        for j in range(k + 1):
            coeffs = list(a_k.coeffs)
            coeffs[j] += delta
            yield UniPoly(coeffs, "y")
    yield a_k * Fraction(1, 2)
    yield a_k + UniPoly.monomial(1, 20, "y")


def test_polylog_check_fails_on_a_corrupted_eulerian_polynomial(monkeypatch):
    # the eq. 2.8 check and the series reference both fail, and the
    # witness names the first m where e_m != m^k, with both values over
    # A_k's denominator d
    for k in range(1, 7):
        for broken in _corrupted_eulerian_polys(k):
            polys = list(eulerian_cache.polys)
            polys[k] = broken
            monkeypatch.setattr(eulerian_cache, "polys", polys)
            assert not polylog_check_by_series(k, 20), broken
            e = polylog_expansion_by_series(k, 20)
            m = next(m for m, e_m in enumerate(e) if e_m != m ** k)
            d = broken.den
            assert (d * e[m]).denominator == 1
            assert verify_polylog(k) == (
                f"coefficient of y^{m}: d*e_{m} = {d * e[m]} != "
                f"d*{m}^{k} = {d * m ** k} (d = {d})"), broken
            monkeypatch.undo()
    assert verify_polylog(3) is None


def test_input_validation():
    with pytest.raises(ValueError):
        bernoulli_number(-1)
    with pytest.raises(ValueError):
        eulerian_poly(-2)
    with pytest.raises(ValueError):
        higher_bernoulli_poly(2, 0)
    with pytest.raises(ValueError):
        verify_polylog(0, 5)


def test_caches_safe_under_concurrent_growth(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor
    import bernkit.specialfns as sf
    # fresh caches, so the threads grow them whatever ran before
    monkeypatch.setattr(sf, "bernoulli_cache", BernoulliCache())
    monkeypatch.setattr(sf, "eulerian_cache", sf.EulerianCache())
    with ThreadPoolExecutor(8) as pool:
        bern = list(pool.map(bernoulli_poly, [45] * 16))
        nums = list(pool.map(bernoulli_number, [60] * 16))
        euler = list(pool.map(eulerian_poly, [25] * 16))
    assert all(p == bern[0] for p in bern)
    assert all(b == bernoulli_poly(60).coefficient(0) for b in nums)
    assert all(p == euler[0] for p in euler)
    assert bern[0].degree == 45
    assert euler[0](1) == factorial(25)
