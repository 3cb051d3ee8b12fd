from fractions import Fraction

import pytest

from bernkit.convolution import (a_coeff_list, a_jkn, a_jkn_from_u,
                                 a_jkn_multinomial, coeff_z_closed,
                                 coeff_z_formula, coeff_z_thm8, d_coeffs,
                                 degree_check, lemma5_coeffs, multisum_poly,
                                 multisum_poly_multinomial, multisum_power,
                                 p_poly, s_direct,
                                 s_eulerian, s_series, theorem1_divisor,
                                 u_from_a_series, u_nu, verify_corollary,
                                 verify_routes, verify_thm1, verify_thm6,
                                 VerificationReport)
from bernkit.polycore import UniPoly, binomial, factorial, falling_product
from bernkit.specialfns import eulerian_poly

Z = UniPoly.variable("z")


def lin(a, b):
    return UniPoly([b, a], "z")


# the fully displayed golden rows: (n, k) -> expanded product
GOLDEN = {
    (1, 1): Fraction(-1, 3) * Z * lin(1, -1) * lin(2, -1),
    (2, 1): Fraction(1, 20) * Z * lin(1, -1) * lin(3, -1) * lin(3, -2)
            * lin(2, -1),
    (3, 1): Fraction(-1, 105) * Z * lin(1, -1) * lin(4, -1) * lin(2, -1)
            * lin(4, -3) * UniPoly([1, -1, 1], "z"),
    (4, 1): Fraction(-1, 18144) * Z * lin(1, -1) * lin(5, -1) * lin(5, -2)
            * lin(5, -3) * lin(5, -4) * lin(2, -1)
            * UniPoly([-6, -13, 13], "z"),
    (1, 2): Fraction(1, 30) * Z * lin(1, -1) * lin(2, -1)
            * UniPoly([-1, -3, 3], "z"),
    (2, 2): Fraction(1, 160) * Z ** 2 * lin(1, -1) ** 2 * lin(3, -1)
            * lin(3, -2) * UniPoly([-2, -7, 7], "z"),
}


@pytest.mark.parametrize("n,k", sorted(GOLDEN))
def test_golden_rows_direct(n, k):
    assert s_direct(n, k) == GOLDEN[(n, k)]


@pytest.mark.parametrize("n,k", sorted(GOLDEN))
def test_golden_rows_series(n, k):
    assert s_series(n, k) == GOLDEN[(n, k)]


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 2)])
def test_golden_rows_eulerian(n, k):
    assert s_eulerian(n, k) == GOLDEN[(n, k)]


def test_route_agreement_small_grid():
    for n in range(1, 4):
        for k in range(1, 3):
            assert verify_routes(n, k).passed


def test_s_all_routes_carrier():
    from bernkit.convolution import s_all_routes
    results = s_all_routes(2, 2)
    assert [r.route for r in results] == ["direct", "series", "eulerian"]
    assert len({r.poly for r in results}) == 1
    assert results[0].poly.degree == (2 + 1) * (2 + 1) - 1
    assert [r.route for r in s_all_routes(2, 0)] == ["direct", "series"]


def test_k0_closed_form():
    for n in range(1, 7):
        assert factorial(n) * s_direct(n, 0) == falling_product(n + 1, 0, n)


def test_s_input_validation():
    with pytest.raises(ValueError):
        s_direct(0, 1)
    with pytest.raises(ValueError):
        s_eulerian(1, 0)


# -- multisum polynomials ----------------------------------------------------

def test_multisum_low_orders():
    for k in range(1, 5):
        for n in range(1, 5):
            assert multisum_poly(k, 0, n) == UniPoly([1], "y")
            assert multisum_poly(k, 1, n) == UniPoly([0, n * k], "y")
            expected2 = UniPoly(
                [0, Fraction(n * k, 2) * (k - 1),
                 Fraction(n * k, 2) * (k * n - 1)], "y")
            assert multisum_poly(k, 2, n) == expected2


def test_multisum_nu3():
    # (nk/3!) y [ (k-1)(k-2) + (k-1)(3kn+k-8) y + (kn-1)(kn-2) y^2 ]
    for k in range(1, 5):
        for n in range(1, 4):
            c = Fraction(n * k, 6)
            expected = UniPoly(
                [0, c * (k - 1) * (k - 2), c * (k - 1) * (3 * k * n + k - 8),
                 c * (k * n - 1) * (k * n - 2)], "y")
            assert multisum_poly(k, 3, n) == expected


def test_multisum_top_is_eulerian_power():
    for k in range(1, 5):
        for n in range(1, 5):
            top = multisum_poly(k, n * k, n)
            assert top == eulerian_poly(k) ** n
            assert top.is_divisible_by(UniPoly.monomial(1, n, "y"))


def test_multisum_beyond_top_is_zero():
    assert not multisum_poly(2, 7, 3)


def test_multisum_two_computations_agree():
    for k in range(1, 4):
        for n in range(1, 4):
            for nu in range(n * k + 1):
                assert (multisum_poly(k, nu, n)
                        == multisum_poly_multinomial(k, nu, n))


def test_multisum_power_matches_both_computations():
    for k in range(1, 5):
        for n in range(1, 6):
            power = multisum_power(k, n)
            assert len(power) == n * k + 1
            for nu, p in enumerate(power):
                assert p == multisum_poly(k, nu, n), (k, nu, n)
                assert p == multisum_poly_multinomial(k, nu, n), (k, nu, n)


@pytest.mark.parametrize("n,k", [(6, 5), (8, 2), (10, 4)])
def test_eulerian_matches_series_at_larger_points(n, k):
    assert s_eulerian(n, k) == s_series(n, k)


def test_eulerian_route_reads_no_enumeration_or_bernoulli_data(monkeypatch):
    import bernkit.convolution as conv
    import bernkit.specialfns as sf
    expected_s = s_series(4, 3)
    expected_d = (UniPoly([1, -1], "y") ** (4 * 3 - 5)
                  * multisum_poly(3, 5, 4)).integer_coeffs()

    def forbidden(*args, **kwargs):
        raise AssertionError("the eulerian route read a forbidden source")

    for module, name in [(conv, "multisum_poly"),
                         (conv, "_sum_over_compositions"),
                         (conv, "bernoulli_poly"), (conv, "build_F_direct"),
                         (sf, "bernoulli_poly"), (sf, "bernoulli_number"),
                         (sf.BernoulliCache, "ensure")]:
        monkeypatch.setattr(module, name, forbidden)
    calls = []
    power = conv.multisum_power
    monkeypatch.setattr(conv, "multisum_power",
                        lambda k, n: calls.append((k, n)) or power(k, n))
    assert s_eulerian(4, 3) == expected_s
    assert calls == [(3, 5)]  # one bivariate power per S[n,k]
    d = d_coeffs(4, 3, 5).d
    assert d == expected_d + (0,) * (len(d) - len(expected_d))


def test_lemma5_closed_coeffs():
    assert lemma5_coeffs(2, 2, 3)[2] == binomial(6, 2) == 15
    for k in range(1, 5):
        for n in range(1, 5):
            for nu in range(1, n * k + 1):
                c1, c2, c_lead = lemma5_coeffs(k, nu, n)
                p = multisum_poly(k, nu, n)
                assert p.coefficient(0) == 0
                assert p.coefficient(1) == c1
                if nu >= 2:
                    assert p.coefficient(2) == c2
                assert p.coefficient(nu) == c_lead
                if nu > k and nu > 2:
                    assert c1 == 0


# -- d-coefficients ----------------------------------------------------------

def test_d_coeffs_nu0_alternating_row():
    table = d_coeffs(3, 1, 0)
    assert list(table.d) == [1, -3, 3, -1]
    table = d_coeffs(1, 3, 0)
    assert list(table.d) == [1, -3, 3, -1]


def test_d_coeffs_top_row_is_eulerian_power():
    for n in range(1, 4):
        for k in range(1, 4):
            table = d_coeffs(n, k, n * k)
            power = eulerian_poly(k) ** n
            assert list(table.d) == [power.coefficient(j)
                                     for j in range(n * k + 1)]


def test_d_coeffs_zero_constant():
    for n in range(1, 4):
        for k in range(1, 4):
            for nu in range(1, n * k + 1):
                assert d_coeffs(n, k, nu).d[0] == 0
    assert d_coeffs(2, 2, 0).d[0] == 1


# -- theorem/corollary verifiers ----------------------------------------------

@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (3, 3)])
def test_thm1_passes(n, k):
    assert verify_thm1(n, k).passed


def test_thm1_divisor_shape():
    d = theorem1_divisor(2)
    assert d == Z * lin(3, -1) * lin(3, -2) * lin(3, -3)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (1, 2)])
def test_corollary_passes(n, k):
    assert verify_corollary(n, k).passed


def test_corollary_values_explicit():
    s = s_direct(2, 1)
    assert s(Fraction(0)) == s(Fraction(1)) == s(Fraction(1, 2)) == 0
    s = s_direct(1, 2)
    assert s(Fraction(1, 2)) == 0


@pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (2, 4)])
def test_thm6_passes(n, k):
    assert verify_thm6(n, k).passed


def test_corollary_full_grid():
    for n in range(1, 6):
        for k in range(1, 5):
            assert verify_corollary(n, k).passed, (n, k)


def test_thm6_full_grid():
    for n in range(2, 6, 2):
        for k in range(2, 5, 2):
            assert verify_thm6(n, k).passed, (n, k)


def test_thm6_rejects_odd():
    with pytest.raises(ValueError):
        verify_thm6(3, 2)
    with pytest.raises(ValueError):
        verify_thm6(2, 3)


def test_degree_check_even_k():
    assert degree_check(1, 2).passed       # degree 5
    assert degree_check(2, 2).passed       # degree 8
    assert s_series(1, 2).degree == 5
    assert s_series(2, 2).degree == 8
    with pytest.raises(ValueError):
        degree_check(2, 1)


def test_report_invariant():
    with pytest.raises(ValueError):
        VerificationReport("x", (), True, "unexpected witness")
    with pytest.raises(ValueError):
        VerificationReport("x", (), False, None)


# -- coefficient of z ---------------------------------------------------------

def test_coeff_z_values():
    assert coeff_z_thm8(1, 1) == Fraction(-1, 3)
    assert coeff_z_thm8(2, 1) == Fraction(1, 10)
    assert coeff_z_thm8(1, 2) == Fraction(-1, 30)


def test_coeff_z_matches_direct():
    for n in range(1, 4):
        for k in range(1, 4):
            assert coeff_z_thm8(n, k) == s_direct(n, k).coefficient(1)


def test_coeff_z_even_even_is_zero():
    assert coeff_z_thm8(2, 2) == 0
    # the raw alternating sum also vanishes on the even-even grid
    for n in (2, 4):
        for k in (2, 4):
            assert coeff_z_formula(n, k) == 0


def test_coeff_z_closed_forms():
    assert coeff_z_closed(1, 1) == Fraction(-1, 3)
    assert coeff_z_closed(4, 1) == Fraction(1, 126)
    assert coeff_z_closed(1, 2) == Fraction(-1, 30)
    for n in range(1, 9):
        assert coeff_z_closed(n, 1) == coeff_z_thm8(n, 1)
    for n in range(1, 10, 2):
        assert coeff_z_closed(n, 2) == coeff_z_thm8(n, 2)
    with pytest.raises(ValueError):
        coeff_z_closed(2, 2)
    with pytest.raises(ValueError):
        coeff_z_closed(1, 3)


# -- a and u coefficients -----------------------------------------------------

def test_a_jkn_k2_binomials():
    for n in range(1, 6):
        for j in range(n + 1):
            assert a_jkn(2, n, j) == binomial(n, j)


def test_a_jkn_values():
    assert a_jkn(3, 2, 1) == 8        # coefficient of y in (y^2+4y+1)^2
    for k in range(1, 5):
        for n in range(1, 4):
            assert a_jkn(k, n, 0) == 1
            assert a_jkn(k, n, n * (k - 1)) == 1
            assert a_jkn(k, n, n * (k - 1) + 1) == 0
            assert a_jkn(k, n, -1) == 0


def test_a_jkn_three_routes_agree():
    for k in range(1, 4):
        for n in range(1, 5):
            full = a_coeff_list(k, n)
            assert list(full) == list(full)[::-1]   # palindromic
            for j in range(n * (k - 1) + 1):
                assert full[j] == a_jkn_multinomial(k, n, j)
                assert full[j] == a_jkn_from_u(k, n, j)


def test_u_nu_values():
    for k in range(1, 4):
        for n in range(1, 4):
            assert u_nu(k, n, 0) == 1
            assert u_nu(k, n, 1) == n * 2 ** k
    assert u_nu(1, 2, 2) == 10


def test_u_matches_series_expansion():
    for k in range(1, 4):
        for n in range(1, 4):
            for nu in range(7):
                assert u_nu(k, n, nu) == u_from_a_series(k, n, nu)


# -- quotient polynomials -----------------------------------------------------

TABLE3 = {
    1: [1],
    2: [1, -2],
    3: [1, -1, 1],
    4: [1, Fraction(1, 6), Fraction(-13, 2), Fraction(13, 3)],
    5: [1, Fraction(3, 2), Fraction(-27, 2), 24, -12],
    6: [1, Fraction(179, 60), Fraction(-473, 24), 29, Fraction(-571, 24),
        Fraction(571, 60)],
}


@pytest.mark.parametrize("n", sorted(TABLE3))
def test_p_poly_golden(n):
    assert p_poly(n) == UniPoly(TABLE3[n], "z")


def test_p_poly_symmetry_and_even_factor():
    for n in range(1, 7):
        p = p_poly(n)
        assert p.compose_affine(-1, 1) == (-1) ** (n - 1) * p
        if n % 2 == 0:
            assert p.is_divisible_by(lin(2, -1))


def _with_eulerian_entry(k, poly, fn):
    # run fn with A_k(y) replaced in the process-wide cache, then restore it
    from bernkit.specialfns import eulerian_cache
    eulerian_cache.ensure(k)
    original = eulerian_cache.polys[k]
    eulerian_cache.polys[k] = poly
    try:
        return fn()
    finally:
        eulerian_cache.polys[k] = original


def test_d_coeffs_rejects_non_integral():
    before = d_coeffs(2, 2, 3)
    third = UniPoly([0, Fraction(1, 3), 1], "y")
    with pytest.raises(ValueError):
        _with_eulerian_entry(2, third, lambda: d_coeffs(2, 2, 3))
    assert d_coeffs(2, 2, 3) == before


def test_a_coeff_list_rejects_non_integral():
    half = UniPoly([0, 1, Fraction(1, 2), 1], "y")
    with pytest.raises(ValueError):
        _with_eulerian_entry(3, half, lambda: a_coeff_list(3, 2))
    assert a_coeff_list(3, 2) == (1, 8, 18, 8, 1)
