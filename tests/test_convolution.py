import math
import pickle
from fractions import Fraction

import pytest

from bernkit.convolution import (a_coeff_list, a_jkn, a_jkn_from_u,
                                 a_jkn_multinomial, coeff_z_closed,
                                 coeff_z_thm8, d_coeffs,
                                 degree_check, lemma5_coeffs, multisum_poly,
                                 multisum_poly_multinomial,
                                 multisum_poly_power, multisum_power,
                                 p_poly, s_direct,
                                 s_eulerian, s_series, theorem1_divisor,
                                 u_from_a_series, u_nu, verify_corollary,
                                 verify_routes, verify_thm1, verify_thm6,
                                 VerificationReport, per_run_memo)
from bernkit.polycore import (UniPoly, binomial, dot, factorial,
                              falling_product)
from bernkit.specialfns import eulerian_poly

Z = UniPoly.variable("z")


def multisum_power_nfold(k, n):
    # (sum_j C(k,j) A_j(y) x^j)^n by n-1 successive products, O(n^2 k^2)
    # products of Z[y] rows in all
    base = [binomial(k, j) * eulerian_poly(j) for j in range(k + 1)]
    power = base
    for _ in range(n - 1):
        top = len(power) - 1
        power = [dot(((power[i], base[t - i], 1)
                      for i in range(max(0, t - k), min(t, top) + 1)), "y")
                 for t in range(top + k + 1)]
    return power


def multisum_by_recursion(k, nu, n):
    # S^{(n)}_{k,nu}(y) by one recursion per nu over the first part j, which
    # leaves nu - j for n - 1 parts of at most k each; the last two parts
    # are one sum of products.  The reference for the composition walk.
    factors = [binomial(k, j) * eulerian_poly(j) for j in range(k + 1)]

    def rec(total, parts, prefix):
        if parts == 1:
            return prefix * factors[total]
        firsts = range(max(0, total - (parts - 1) * k), min(total, k) + 1)
        if parts == 2:
            return dot(((prefix * factors[j], factors[total - j], 1)
                        for j in firsts), "y")
        acc = UniPoly((), "y")
        for j in firsts:
            acc = acc + rec(total - j, parts - 1, prefix * factors[j])
        return acc

    if nu > n * k:
        return UniPoly((), "y")
    return rec(nu, n, UniPoly.constant(1, "y"))


def s_eulerian_flat(n, k):
    # the eulerian route's closing sum sum_j P_j(z) D_j(z) as one flat sum,
    # every falling product P_j built afresh and every d-row read from the
    # n-fold power
    m = n + 1
    length = m * (k + 1) - 1
    top = m * k
    power = multisum_power_nfold(k, m)
    size = top + 1
    rows = [((UniPoly([1, -1], "y") ** nu * power[top - nu]).integer_coeffs()
             + (0,) * size)[:size] for nu in range(size)]
    return dot(((falling_product(m, j, length),
                 UniPoly([row[j] for row in rows], "z"),
                 Fraction(1, factorial(k) * factorial(length)))
                for j in range(size)), "z")


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
            assert verify_routes(n, k) is None


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
            assert not top.div_rem(UniPoly.monomial(1, n, "y"))[1]


def test_multisum_beyond_top_is_zero():
    assert not multisum_poly(2, 7, 3)


def test_multisum_walk_matches_the_per_nu_recursion():
    for k in range(1, 4):
        for n in range(1, 5):
            for nu in range(n * k + 2):
                expected = multisum_by_recursion(k, nu, n)
                assert multisum_poly(k, nu, n) == expected, (k, nu, n)


def test_multisum_walk_at_the_budget_edge():
    # at k = 5, n = 8 the budget admits only the tails nu <= 4 and nu >= 36
    # (330 compositions each); nu = 5 and 35 (792) lie just outside it
    import bernkit.convolution as conv
    budget = conv.LEMMA5_ENUMERATION_BUDGET
    for nu in [*range(6), *range(35, 41)]:
        assert (conv._composition_count(5, nu, 8) <= budget) == (
            nu not in (5, 35)), nu
        assert multisum_poly(5, nu, 8) == multisum_by_recursion(5, nu, 8), nu


def test_multisum_poly_forms_no_kernel_product(monkeypatch):
    # the enumeration and the multinomial sum multiply point values, so they
    # share neither the convolution loop nor the power primitive of the
    # bivariate power
    import bernkit.convolution as conv
    import bernkit.polycore as pc
    points = [(3, 5, 4), (2, 3, 1), (4, 6, 2), (2, 8, 4), (2, 9, 4),
              (5, 0, 3)]
    expected = [multisum_by_recursion(*point) for point in points]

    def forbidden(*args, **kwargs):
        raise AssertionError("a multisum sum reached a forbidden kernel")

    for module, name in [(pc, "_mul_add"), (pc, "dot"),
                         (pc, "power_rows"), (conv, "power_rows"),
                         (UniPoly, "__mul__"), (UniPoly, "__rmul__")]:
        monkeypatch.setattr(module, name, forbidden)
    for compute in (multisum_poly, multisum_poly_multinomial):
        assert [compute(*point) for point in points] == expected, compute


def test_multisum_poly_is_exact_on_rational_factors():
    # a corrupted A_2(y) with a non-integer coefficient: the enumeration
    # still sums the products it is given, over their common denominator
    third = UniPoly([0, Fraction(1, 3), 1], "y")
    for nu, n, den in [(2, 1, 3), (4, 2, 9), (5, 3, 3), (6, 3, 27)]:
        got, multinomial, reference = _with_eulerian_entry(2, third, lambda: (
            multisum_poly(2, nu, n), multisum_poly_multinomial(2, nu, n),
            multisum_by_recursion(2, nu, n)))
        assert got == multinomial == reference, (nu, n)
        assert got.den == den, (nu, n)


def test_multisum_poly_refuses_a_sum_above_its_degree_bound(monkeypatch):
    # the extra point is a check: with y A_1(y) in place of A_1(y), the
    # compositions (1, 2) and (2, 1) of nu = 3 have products of degree 4
    import bernkit.convolution as conv
    real = conv.eulerian_poly
    shifted = UniPoly((0,) + real(1).nums, "y")
    monkeypatch.setattr(conv, "eulerian_poly",
                        lambda j: shifted if j == 1 else real(j))
    for compute in (multisum_poly, multisum_poly_multinomial):
        with pytest.raises(ArithmeticError):
            compute(2, 3, 2)


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
                assert p == multisum_poly_power(k, nu, n), (k, nu, n)
            assert not multisum_poly_power(k, n * k + 1, n)
    with pytest.raises(ValueError):
        multisum_poly_power(2, -1, 3)


def test_multisum_power_matches_the_nfold_product():
    for k in range(1, 5):
        for n in range(1, 7):
            assert multisum_power(k, n) == multisum_power_nfold(k, n), (k, n)


def test_multisum_power_outside_a_sweep_builds_rows_through_nu_only(
        monkeypatch):
    # compute multisum --k 1200 --nu 0 --n 1 --route power once built all
    # 1,201 rows from 1,201 Eulerian polynomials to read row 0; the small
    # points come first, so a power built past nu fails fast
    import time
    import bernkit.convolution as conv
    tops = []
    rows = conv.power_rows
    monkeypatch.setattr(conv, "power_rows",
                        lambda h, a, top: tops.append((len(h), top))
                        or rows(h, a, top))
    start = time.perf_counter()
    for k, nu, n in [(3, 5, 2), (3, 7, 2), (40, 3, 5), (1200, 2, 3),
                     (1200, 0, 1)]:
        tops.clear()
        expected = multisum_poly_multinomial(k, nu, n)
        assert multisum_poly_power(k, nu, n) == expected, (k, nu, n)
        top = min(nu, n * k)
        assert tops == [(min(k, top) + 1, top)], (k, nu, n)
    assert time.perf_counter() - start < 10
    # inside a sweep the whole power is built once, for the eulerian route
    tops.clear()
    with per_run_memo():
        assert multisum_poly_power(3, 2, 4) == multisum_poly(3, 2, 4)
        assert multisum_poly_power(3, 5, 4) == multisum_poly(3, 5, 4)
    assert tops == [(4, 12)]


@pytest.mark.parametrize("n,k", [(n, 1) for n in range(1, 7)]
                         + [(1, k) for k in range(2, 7)]
                         + [(6, 5), (12, 6)])
def test_s_eulerian_product_tree_matches_the_flat_sum(n, k):
    assert s_eulerian(n, k) == s_eulerian_flat(n, k)


@pytest.mark.parametrize("n,k", [(16, 6), (24, 6)])
def test_theorem_checks_hold_on_the_eulerian_route_past_the_grid(n, k):
    # one S per point, shared by the four checks as in a sweep
    with per_run_memo():
        assert verify_thm1(n, k, route="eulerian") is None
        assert verify_corollary(n, k, route="eulerian") is None
        assert verify_thm6(n, k, route="eulerian") is None
        assert degree_check(n, k, route="eulerian") is None


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
                         (conv, "_point_sums"),
                         (conv, "_multiplicity_vectors"),
                         (conv, "bernoulli_poly"), (conv, "build_F_direct"),
                         (sf, "bernoulli_poly"), (sf, "bernoulli_number"),
                         (sf.BernoulliCache, "ensure")]:
        monkeypatch.setattr(module, name, forbidden)
    calls = []
    power = conv.multisum_power
    monkeypatch.setattr(conv, "multisum_power",
                        lambda k, n, top=None: calls.append((k, n))
                        or power(k, n, top))
    assert s_eulerian(4, 3) == expected_s
    assert calls == [(3, 5)]  # one bivariate power per S[n,k]
    d = d_coeffs(4, 3, 5)
    assert d == expected_d + (0,) * (len(d) - len(expected_d))


def test_series_route_reads_no_eulerian_or_enumeration_data(monkeypatch):
    # the series route powers the direct F_k: it reads Bernoulli data only,
    # and none of the Eulerian construction, the bivariate power, the
    # composition walks or the other two routes
    import bernkit.convolution as conv
    import bernkit.series as series
    import bernkit.specialfns as sf
    points = [(4, 3), (3, 0)]
    expected = [s_series(n, k) for n, k in points]

    def forbidden(*args, **kwargs):
        raise AssertionError("the series route read a forbidden source")

    names = ("eulerian_poly", "eulerian_number", "build_F_eulerian",
             "multisum_power", "_walk", "_point_sums",
             "_multiplicity_vectors", "s_direct", "s_eulerian")
    bound = [(module, name) for module in (conv, series, sf)
             for name in names if hasattr(module, name)]
    assert {name for _, name in bound} == set(names)
    for module, name in bound:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(sf.EulerianCache, "ensure", forbidden)
    assert [s_series(n, k) for n, k in points] == expected


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
    assert d_coeffs(3, 1, 0) == (1, -3, 3, -1)
    assert d_coeffs(1, 3, 0) == (1, -3, 3, -1)


def test_d_coeffs_top_row_is_eulerian_power():
    for n in range(1, 4):
        for k in range(1, 4):
            power = eulerian_poly(k) ** n
            assert list(d_coeffs(n, k, n * k)) == [
                power.coefficient(j) for j in range(n * k + 1)]


def test_d_coeffs_matches_the_whole_power():
    # the reference: (1-y)^{nk-nu} times row nu of the whole bivariate
    # power, padded with zeros to nk+1 coefficients
    for n in range(1, 6):
        for k in range(1, 5):
            power = multisum_power(k, n)
            size = n * k + 1
            for nu in range(size):
                poly = UniPoly([1, -1], "y") ** (n * k - nu) * power[nu]
                want = (poly.integer_coeffs() + (0,) * size)[:size]
                assert d_coeffs(n, k, nu) == want, (n, k, nu)


def test_d_row_matches_the_polynomial_power():
    # the binomial row of (1-y)^e times the row, against the power formed
    # by UniPoly.__pow__, padded or cut to size
    import bernkit.convolution as conv
    rows = [UniPoly((), "y"), UniPoly([-4], "y"), UniPoly([0, 2, -5, 1], "y"),
            multisum_power(3, 2)[4]]
    for e in range(61):
        for row in rows:
            want = (UniPoly([1, -1], "y") ** e * row).integer_coeffs()
            for size in (1, e + 1, len(want), len(want) + 3):
                assert conv._d_row(row, e, size) == list(
                    (want + (0,) * size)[:size]), (e, row, size)
    with pytest.raises(ValueError):
        conv._d_row(UniPoly([Fraction(1, 2), 1], "y"), 3, 5)


def test_tree_sum_matches_its_products_on_every_range():
    # (A, B, T) of each range of leaves against the products it stands for;
    # above a leaf, A is not formed on the right edge nor B on the left
    # one, where the tree never reads them
    import bernkit.convolution as conv
    leaves = [[j, -1, 2 * j] for j in range(7)]
    a = [[t, 3] for t in range(6)]
    b = [[t - 9, 3] for t in range(6)]

    def poly(nums):
        return UniPoly(nums, "z")

    def prod(factors):
        out = UniPoly.constant(1, "z")
        for f in factors:
            out = out * poly(f)
        return out

    for lo in range(7):
        for hi in range(lo + 1, 8):
            got_a, got_b, got_t = conv._tree_sum(leaves, a, b, lo, hi)
            want_t = sum((prod(a[lo:j]) * prod(b[j:hi - 1]) * poly(leaves[j])
                          for j in range(lo, hi)), UniPoly((), "z"))
            assert poly(got_t) == want_t, (lo, hi)
            assert (got_a is None) == (hi == 7 and hi - lo > 1), (lo, hi)
            assert (got_b is None) == (lo == 0 and hi - lo > 1), (lo, hi)
            if got_a is not None:
                assert poly(got_a) == prod(a[lo:hi - 1]), (lo, hi)
            if got_b is not None:
                assert poly(got_b) == prod(b[lo:hi - 1]), (lo, hi)


def test_d_coeffs_builds_rows_through_nu_only(monkeypatch):
    # outside a sweep d_coeffs asks the multisum power for its rows through
    # nu and no further: row 0 is one power of (1-y), whatever nk is
    import bernkit.convolution as conv
    tops = []
    power = conv.multisum_power
    monkeypatch.setattr(conv, "multisum_power",
                        lambda k, n, top=None: tops.append(top)
                        or power(k, n, top))
    for n, k, nu in [(1, 3, 0), (3, 2, 4), (4, 3, 12), (2, 30, 5)]:
        tops.clear()
        d_coeffs(n, k, nu)
        assert tops == [nu], (n, k, nu)


def test_d_coeffs_zero_constant():
    for n in range(1, 4):
        for k in range(1, 4):
            for nu in range(1, n * k + 1):
                assert d_coeffs(n, k, nu)[0] == 0
    assert d_coeffs(2, 2, 0)[0] == 1


# -- theorem/corollary verifiers ----------------------------------------------

@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (3, 3)])
def test_thm1_passes(n, k):
    assert verify_thm1(n, k) is None


def test_thm1_divisor_shape():
    d = theorem1_divisor(2)
    assert d == Z * lin(3, -1) * lin(3, -2) * lin(3, -3)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (1, 2)])
def test_corollary_passes(n, k):
    assert verify_corollary(n, k) is None


def test_corollary_values_explicit():
    s = s_direct(2, 1)
    assert s(Fraction(0)) == s(Fraction(1)) == s(Fraction(1, 2)) == 0
    s = s_direct(1, 2)
    assert s(Fraction(1, 2)) == 0


@pytest.mark.parametrize("n,k", [(2, 2), (4, 2), (2, 4)])
def test_thm6_passes(n, k):
    assert verify_thm6(n, k) is None


def test_corollary_full_grid():
    for n in range(1, 6):
        for k in range(1, 5):
            assert verify_corollary(n, k) is None, (n, k)


def test_thm6_full_grid():
    for n in range(2, 6, 2):
        for k in range(2, 5, 2):
            assert verify_thm6(n, k) is None, (n, k)


def test_thm6_rejects_odd():
    with pytest.raises(ValueError):
        verify_thm6(3, 2)
    with pytest.raises(ValueError):
        verify_thm6(2, 3)


def test_degree_check_even_k():
    assert degree_check(1, 2) is None  # degree 5
    assert degree_check(2, 2) is None  # degree 8
    assert s_series(1, 2).degree == 5
    assert s_series(2, 2).degree == 8
    with pytest.raises(ValueError):
        degree_check(2, 1)


def test_report_invariant():
    with pytest.raises(ValueError):
        VerificationReport("x", (), True, "unexpected witness")
    with pytest.raises(ValueError):
        VerificationReport("x", (), False, None)


# record type -> (field names in order, one value per field)
RECORDS = {
    VerificationReport: (("statement", "params", "passed", "witness"),
                         ("thm1", (("n", 2), ("k", 1)), False, "remainder")),
}
# another value for each record type's first field
OTHER_FIRST_FIELD = {VerificationReport: "thm6"}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_type_fields_equality_and_immutability(cls):
    names, values = RECORDS[cls]
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert cls._fields == names
    assert tuple(getattr(keyword, name) for name in names) == values
    assert positional == keyword and hash(positional) == hash(keyword)
    assert {positional: "seen"}[keyword] == "seen"
    other = cls(OTHER_FIRST_FIELD[cls], *values[1:])
    assert other != positional
    assert repr(positional) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(names, values)) + ")"
    assert pickle.loads(pickle.dumps(positional)) == positional
    with pytest.raises(AttributeError):
        setattr(positional, names[0], OTHER_FIRST_FIELD[cls])
    with pytest.raises(AttributeError):
        positional.extra = 1


def test_report_witness_defaults_to_none():
    report = VerificationReport("thm1", (("n", 1), ("k", 1)), True)
    assert report.witness is None
    assert report == VerificationReport("thm1", (("n", 1), ("k", 1)), True,
                                        None)


# -- coefficient of z ---------------------------------------------------------

def test_coeff_z_values():
    assert coeff_z_thm8(1, 1) == Fraction(-1, 3)
    assert coeff_z_thm8(2, 1) == Fraction(1, 10)
    assert coeff_z_thm8(1, 2) == Fraction(-1, 30)


def test_coeff_z_matches_direct():
    for n in range(1, 4):
        for k in range(1, 4):
            assert coeff_z_thm8(n, k) == s_direct(n, k).coefficient(1)


def coeff_z_by_the_full_sum(n, k):
    # Theorem 8's alternating sum over every term of the row, each factorial
    # from math.factorial: the reference for the palindromic half sum with
    # carried products
    row = a_coeff_list(k, n + 1)
    last = k * (n + 1) - 1
    total = sum((-1) ** j * a * math.factorial(n + j)
                * math.factorial(last - j) for j, a in enumerate(row))
    return Fraction((-1) ** last * (n + 1) * total,
                    math.factorial(k) * math.factorial(last + n + 1))


def test_coeff_z_matches_the_full_alternating_sum():
    # the row's top index (n+1)(k-1) is odd exactly at even n and even k,
    # so the grid holds both parities
    for n in range(1, 13):
        for k in range(1, 7):
            assert coeff_z_thm8(n, k) == coeff_z_by_the_full_sum(n, k), (n, k)


def test_coeff_z_even_even_is_zero():
    assert coeff_z_thm8(2, 2) == 0
    # the alternating sum vanishes on the whole even-even grid
    for n in (2, 4):
        for k in (2, 4):
            assert coeff_z_thm8(n, k) == 0


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


@pytest.mark.parametrize("k, n, j", [(0, 3, 1), (-2, 1, 0), (2, -1, 0),
                                     (1, 0, 0), (3, 0, 2)])
@pytest.mark.parametrize("compute", [a_jkn, a_jkn_multinomial, a_jkn_from_u])
def test_a_jkn_refuses_k_or_n_below_one_at_any_j(compute, k, n, j):
    # the input check comes before the test of j against 0..n(k-1)
    with pytest.raises(ValueError, match="need k >= 1 and n >= 1"):
        compute(k, n, j)


def test_a_jkn_three_routes_agree():
    for k in range(1, 4):
        for n in range(1, 5):
            full = a_coeff_list(k, n)
            assert list(full) == list(full)[::-1]   # palindromic
            for j in range(n * (k - 1) + 1):
                assert full[j] == a_jkn_multinomial(k, n, j)
                assert full[j] == a_jkn_from_u(k, n, j)


def test_a_jkn_multinomial_matches_the_polynomial_power():
    # k = 1 included: A_1(y)/y = 1, so the only vector is (n,) at j = 0
    for k in range(1, 7):
        for n in range(1, 7):
            full = a_coeff_list(k, n)
            assert [a_jkn_multinomial(k, n, j)
                    for j in range(n * (k - 1) + 1)] == list(full), (k, n)
            assert a_jkn_multinomial(k, n, n * (k - 1) + 1) == 0


def test_u_nu_values():
    for k in range(1, 4):
        for n in range(1, 4):
            assert u_nu(k, n, 0) == 1
            assert u_nu(k, n, 1) == n * 2 ** k
    assert u_nu(1, 2, 2) == 10


@pytest.mark.parametrize("compute, args, expected", [
    (multisum_poly, (1, 0, 1200), UniPoly.constant(1, "y")),
    (u_nu, (1, 1200, 0), 1),
    # a cap of k = 1,200 parts
    (multisum_poly_multinomial, (1200, 0, 1), UniPoly.constant(1, "y"))])
def test_walks_take_more_parts_than_the_recursion_limit(compute, args,
                                                        expected):
    # each walk keeps its pending work on a list, not the call stack
    assert compute(*args) == expected


def test_u_matches_series_expansion():
    for k in range(1, 4):
        for n in range(1, 4):
            for nu in range(7):
                assert u_nu(k, n, nu) == u_from_a_series(k, n, nu)


def test_u_nu_matches_closed_form_and_series_at_depth():
    # prod j_i summed over the compositions of nu+n into n positive parts is
    # [x^{nu+n}] (x/(1-x)^2)^n = C(nu+2n-1, 2n-1); a walk over the
    # compositions, one product each, would not finish at (30, 30), about
    # 6e16 of them, and the sum over multisets takes milliseconds
    import time
    start = time.perf_counter()
    for n in range(1, 13):
        for nu in range(13):
            assert u_nu(1, n, nu) == math.comb(nu + 2 * n - 1, 2 * n - 1), \
                (n, nu)
    assert u_nu(1, 30, 30) == math.comb(89, 59) == 448755316337720114153376
    assert u_nu(3, 40, 40) == u_from_a_series(3, 40, 40)
    assert time.perf_counter() - start < 10


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
            assert not p.div_rem(lin(2, -1))[1]


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


# -- the per-run memo and the enumeration guards --------------------------

def _counting_routes(monkeypatch):
    import bernkit.convolution as conv
    calls = []
    for name, route in list(conv.ROUTES.items()):
        monkeypatch.setitem(
            conv.ROUTES, name,
            lambda n, k, _name=name, _route=route:
            calls.append((_name, n, k)) or _route(n, k))
    return calls


def test_run_suite_computes_each_route_once_per_point(monkeypatch):
    import bernkit.convolution as conv
    calls = _counting_routes(monkeypatch)
    reports = conv.run_suite("all", 4, 3)
    assert all(r.passed for r in reports)
    grid = [(n, k) for n in range(1, 5) for k in range(1, 4)]
    assert sorted(calls) == sorted((route, n, k) for route in conv.ROUTES
                                   for n, k in grid)


def test_verify_outside_a_run_recomputes(monkeypatch):
    calls = _counting_routes(monkeypatch)
    assert verify_thm1(2, 1) is None
    assert verify_thm1(2, 1) is None
    assert calls == [("series", 2, 1)] * 2


def test_s_direct_forms_no_kernel_product(monkeypatch):
    # the direct route multiplies point values, so it shares neither the
    # convolution loop nor a construction of the series or eulerian route;
    # its factors come from the Bernoulli numbers, not the cached polynomials
    import bernkit.convolution as conv
    import bernkit.polycore as pc
    import bernkit.specialfns as sf

    def forbidden(*args, **kwargs):
        raise AssertionError("s_direct reached a forbidden kernel or route")

    expected = s_series(4, 3)
    for module, name in [(pc, "_mul_add"), (pc, "dot"),
                         (pc, "power_rows"), (conv, "power_rows"),
                         (conv, "build_F_direct"), (conv, "multisum_power"),
                         (conv, "multisum_poly"), (conv, "eulerian_poly"),
                         (sf, "eulerian_poly"), (conv, "bernoulli_poly"),
                         (sf, "bernoulli_poly")]:
        monkeypatch.setattr(module, name, forbidden)
    assert s_direct(4, 3) == expected


@pytest.mark.parametrize("n,k", [(5, 3), (7, 2), (9, 1), (3, 6), (6, 5)])
def test_direct_matches_eulerian_at_the_routes_grid(n, k):
    assert s_direct(n, k) == s_eulerian(n, k)


def test_s_direct_refuses_a_sum_above_its_degree_bound(monkeypatch):
    # the extra point is a check: a product of degree D + 1 in the sum
    # makes the interpolation raise instead of returning a wrong S
    import bernkit.convolution as conv
    real = conv._point_sums

    def one_degree_up(factors, dens):
        # g_0(z) -> z g_0(z): at (n, k) = (2, 1), D = 5, the compositions
        # (0, 1) and (1, 0) then have products of degree 6
        factors[0] = [z * v for z, v in enumerate(factors[0])]
        return real(factors, dens)

    monkeypatch.setattr(conv, "_point_sums", one_degree_up)
    with pytest.raises(ArithmeticError):
        s_direct(2, 1)


def naive_bernoulli_numbers(top):
    # B_0..B_top from sum_{i<=m} C(m+1, i) B_i = 0, so B_1 = -1/2
    b = []
    for m in range(top + 1):
        b.append(int(m == 0) - sum(
            (math.comb(m + 1, i) * b[i] for i in range(m)), Fraction(0))
            / (m + 1))
    return b


def naive_s_value(n, k, z):
    # the defining double sum at one rational z, one product per weak
    # composition (itertools.product), from Fraction Bernoulli numbers
    from itertools import product as tuples
    top = (k + 1) * (n - 1) + k  # the largest part, the one part of m = 1
    b = naive_bernoulli_numbers(k + 1 + top)
    g = []  # g[j] = B_r(z) / (j! r), r = k+1+j
    for j in range(top + 1):
        r = k + 1 + j
        g.append(sum(math.comb(r, i) * b[i] * z ** (r - i)
                     for i in range(r + 1)) / (math.factorial(j) * r))
    total = Fraction(0)
    for m in range(1, n + 1):
        t = (k + 1) * (n - m) + k
        inner = sum(math.prod(g[j] for j in parts)
                    for parts in tuples(range(t + 1), repeat=m)
                    if sum(parts) == t)
        total += (math.comb(n + 1, m) * math.factorial(k) ** (n - m)
                  * (-1) ** (k * m) * inner)
    return total


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5)
                                 for k in range(4)] + [(5, 3), (3, 6)])
def test_s_direct_matches_a_naive_composition_sum(n, k):
    s = s_direct(n, k)
    for z in (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)):
        assert s(z) == naive_s_value(n, k, z), (n, k, z)


def test_multiplicity_vectors_meet_each_weak_composition_once():
    # a multiset of parts stands for m!/prod c_j! weak compositions
    import bernkit.convolution as conv
    for t in range(15):
        for m in range(1, 8):
            for cap, want in [(t, math.comb(t + m - 1, m - 1)),
                              *[(k, conv._composition_count(k, t, m))
                                for k in range(t)]]:
                met = 0
                seen = set()
                for pairs in conv._multiplicity_vectors(cap, m, t):
                    parts = [j for j, _ in pairs]
                    assert parts == sorted(set(parts), reverse=True)
                    assert all(0 <= j <= cap and c >= 1 for j, c in pairs)
                    assert sum(c for _, c in pairs) == m
                    assert sum(j * c for j, c in pairs) == t
                    assert pairs not in seen
                    seen.add(pairs)
                    met += math.factorial(m) // math.prod(
                        math.factorial(c) for _, c in pairs)
                assert met == want, (t, m, cap)


def test_run_suite_enumerates_each_point_once(monkeypatch):
    # lemma 5 enumerates each of its points within the budget once, and
    # lemma 7 its one top row, nu = nk, per point; nothing is shared
    import bernkit.convolution as conv
    calls = []
    enumerate_ = conv.multisum_poly
    monkeypatch.setattr(conv, "multisum_poly",
                        lambda *args: calls.append(args) or enumerate_(*args))
    reports = conv.run_suite("all", 4, 3)
    assert all(r.passed for r in reports)
    lemma5 = [(k, nu, n) for k in range(1, 4) for n in range(1, 5)
              for nu in range(1, n * k + 1)]
    # the default grid is within the budget, in the order the suite table
    # runs lemma 5 then lemma 7
    assert all(conv._composition_count(*point)
               <= conv.LEMMA5_ENUMERATION_BUDGET for point in lemma5)
    assert calls == lemma5 + [(k, n * k, n) for k in range(1, 4)
                              for n in range(1, 5)]
    assert sum(r.statement == "lemma7" for r in reports) == 12


def test_lemma5_above_the_budget_skips_the_enumeration(monkeypatch):
    import bernkit.convolution as conv
    assert conv._composition_count(5, 20, 8) > conv.LEMMA5_ENUMERATION_BUDGET

    def forbidden(*args, **kwargs):
        raise AssertionError("enumeration above the budget")

    monkeypatch.setattr(conv, "multisum_poly", forbidden)
    assert conv.verify_lemma5(5, 20, 8) is None


def test_lemma5_budget_covers_the_default_grid(monkeypatch):
    import bernkit.convolution as conv
    counts = [conv._composition_count(k, nu, n) for k in range(1, 4)
              for n in range(1, 5) for nu in range(1, n * k + 1)]
    assert max(counts) <= conv.LEMMA5_ENUMERATION_BUDGET
    calls = []
    enumerate_ = conv.multisum_poly
    monkeypatch.setattr(conv, "multisum_poly",
                        lambda *args: calls.append(args) or enumerate_(*args))
    assert conv.verify_lemma5(3, 6, 4) is None
    assert calls == [(3, 6, 4)]


def test_composition_count_matches_enumeration():
    from bernkit.convolution import _composition_count
    from itertools import product as tuples
    for k in range(1, 4):
        for n in range(1, 5):
            for nu in range(n * k + 2):
                brute = sum(sum(c) == nu
                            for c in tuples(range(k + 1), repeat=n))
                assert _composition_count(k, nu, n) == brute, (k, nu, n)


def test_lemma5_reports_a_corrupted_power(monkeypatch):
    import bernkit.convolution as conv
    power = conv.multisum_power(2, 3)
    broken = list(power)
    broken[4] = broken[4] + UniPoly([0, 1], "y")
    monkeypatch.setattr(conv, "multisum_power",
                        lambda k, n, top=None: broken)
    witness = conv.verify_lemma5(2, 4, 3)
    assert witness.startswith("power vs multinomial differ")
