import random
from fractions import Fraction

import pytest

from bernkit.polycore import UniPoly, dot, factorial, power_rows
from bernkit.series import _x_over_expm1_nums, build_F_direct, build_F_eulerian
from bernkit.specialfns import bernoulli_number, bernoulli_poly, eulerian_poly


def as_series(values, order, var="z"):
    # a series through x^order as a list of order + 1 UniPoly coefficients:
    # values cut there and padded with zeros, scalars made constants
    cs = [c if isinstance(c, UniPoly) else UniPoly.constant(c, var)
          for c in values][:order + 1]
    return cs + [UniPoly((), var)] * (order + 1 - len(cs))


def one(order):
    return as_series([1], order)


def series_mul(a, b):
    # the truncated product through the shorter order, one dot per
    # coefficient: the reference that power_rows and the builders are
    # checked against
    var = a[0].var
    return [dot(((a[i], b[m - i], 1) for i in range(m + 1)), var)
            for m in range(min(len(a), len(b)))]


def exp_zx(order):
    # e^{zx}: the coefficient of x^m is z^m/m!
    return [UniPoly.monomial(Fraction(1, factorial(m)), m)
            for m in range(order + 1)]


def x_over_expm1(r, order):
    # (x/(e^x-1))^r through x^order as a series of constants
    nums, den = _x_over_expm1_nums(r, order)
    return as_series([Fraction(b, den) for b in nums], order)


def reset_x_over_expm1(monkeypatch):
    # the process-wide x/(e^x-1) back at its start value, x^0 alone, so a
    # test sees every growth whatever ran before it
    import bernkit.series as series
    monkeypatch.setattr(series, "_x_over_expm1", ([1], 1))


# 1 - e^x through x^4: a zero constant term, so no inverse
ONE_MINUS_EXP_X = as_series(
    [0] + [Fraction(-1, factorial(m)) for m in range(1, 5)], 4)


def test_pow_zero_is_identity():
    a = as_series([1, 5, 7], 4)
    assert power_rows(a, 0, 4) == one(4)


def test_pow_matches_repeated_mul():
    rng = random.Random(3)
    for _ in range(10):
        h0 = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                      rng.randint(1, 4))
        rest = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for _ in range(6)]
        a = as_series([h0] + rest, 6)
        acc = one(6)
        for n in range(5):
            assert power_rows(a, n, 6) == acc
            acc = series_mul(acc, a)


def test_pow_with_polynomial_coefficients_matches_repeated_mul():
    z = UniPoly.variable("z")
    # unit H_0, and coefficients of positive degree
    values = [1, z, 3 * z - 2, 0, z * z]
    for order in (0, 3, 7):
        a = as_series(values, order)
        acc = one(order)
        for n in range(7):
            assert power_rows(a, n, order) == acc, (order, n)
            acc = series_mul(acc, a)


@pytest.mark.parametrize("a", [-2, 0, 1, 3])
def test_pow_refuses_a_constant_term_that_is_not_a_unit(a):
    # a power needs a nonzero constant H_0, whatever the exponent: a zero
    # constant term (positive valuation, or the zero series) and a
    # polynomial H_0 are refused
    z = UniPoly.variable("z")
    cases = [
        [0, 2, z, Fraction(1, 3), 0, z - 1],             # valuation 1
        [0, 0, Fraction(-1, 2), z, 0, 1],                # valuation 2
        [],                                              # zero series
        [1 + z, z, 0, 2 - z, z * z],                     # H_0 = 1 + z
        [3 * z * z - 1, 1, z, 0, 5],                     # H_0 = 3z^2 - 1
    ]
    for values in cases:
        for order in (0, 3, 7):
            with pytest.raises(ValueError):
                power_rows(as_series(values, order), a, order)
    with pytest.raises(ValueError):
        power_rows(ONE_MINUS_EXP_X, a, 4)


def test_negative_pow_is_power_of_inverse():
    a = as_series([Fraction(-2, 3), UniPoly([1, 2]), 0, UniPoly([0, 0, 1])],
                  8)
    inv = power_rows(a, -1, 8)
    assert series_mul(a, inv) == one(8)
    acc = one(8)
    for n in range(5):
        assert power_rows(a, -n, 8) == acc
        acc = series_mul(acc, inv)
    for bad in (ONE_MINUS_EXP_X, as_series([UniPoly([1, 1])], 3),
                as_series([], 3)):
        with pytest.raises(ValueError):
            power_rows(bad, -2, len(bad) - 1)


def test_pow_with_negative_constant_term():
    # H_0 = -2: the scalar division by m H_0 moves the sign to the
    # numerators, and every coefficient keeps a positive denominator
    order = 9
    a = as_series([-2, 1], order)
    inv = power_rows(a, -1, order)
    # 1/(x - 2) = -sum_m x^m / 2^{m+1}
    assert inv == as_series(
        [Fraction(-1, 2 ** (m + 1)) for m in range(order + 1)], order)
    acc, acc_inv = one(order), one(order)
    for n in range(1, 5):
        acc, acc_inv = series_mul(acc, a), series_mul(acc_inv, inv)
        power, power_inv = power_rows(a, n, order), power_rows(a, -n, order)
        assert power == acc, n
        assert power_inv == acc_inv, n
        assert series_mul(power, power_inv) == one(order), n
        for c in power + power_inv:
            assert c.den > 0


def test_inverse_roundtrip_and_bernoulli_numbers():
    s = x_over_expm1(1, 10)
    for m in range(11):
        assert s[m] == UniPoly.constant(
            bernoulli_number(m) * Fraction(1, factorial(m)), "z")
    # A * A^{-1} == 1
    expm1_over_x = as_series(
        [Fraction(1, factorial(m + 1)) for m in range(11)], 10)
    inverse = power_rows(expm1_over_x, -1, 10)
    assert series_mul(expm1_over_x, inverse) == one(10)


def test_inverse_requires_unit():
    with pytest.raises(ValueError):
        power_rows(ONE_MINUS_EXP_X, -1, 4)
    with pytest.raises(ValueError):
        power_rows(as_series([UniPoly([0, 1], "z")], 3), -1, 3)


def test_bernoulli_generating_function():
    # (x/(e^x-1)) e^{zx} has coefficients B_m(z)/m!
    s = series_mul(x_over_expm1(1, 8), exp_zx(8))
    for m in range(9):
        assert factorial(m) * s[m] == bernoulli_poly(m)


def miller_x_over_expm1(r, order):
    # the reference: one Miller power of (e^x-1)/x at a = -r
    expm1_over_x = as_series([Fraction(1, factorial(m + 1))
                              for m in range(order + 1)], order)
    return power_rows(expm1_over_x, -r, order)


def test_norlund_powers_match_the_miller_power(monkeypatch):
    # from the start value, so the rising orders meet the series at every
    # length it takes, and the later r cut a longer series
    reset_x_over_expm1(monkeypatch)
    for r in range(1, 9):
        for order in range(31):
            expected = miller_x_over_expm1(r, order)
            assert x_over_expm1(r, order) == expected, (r, order)
    for r, order in [(0, 5), (1, -1)]:
        with pytest.raises(ValueError):
            _x_over_expm1_nums(r, order)
    with pytest.raises(ValueError):
        build_F_eulerian(2, -1)


def test_x_over_expm1_nums_inverts_once(monkeypatch):
    import bernkit.series as series
    reset_x_over_expm1(monkeypatch)
    calls = []
    rows = series.power_rows
    monkeypatch.setattr(series, "power_rows",
                        lambda h, a, top: calls.append((a, top))
                        or rows(h, a, top))
    for r in (1, 2, 7):
        _x_over_expm1_nums(r, 20)
    # built once, through twice the order asked
    assert calls == [(-1, 40)]
    # cut, never rebuilt, up to that order; rebuilt past it
    _x_over_expm1_nums(5, 12)
    _x_over_expm1_nums(3, 40)
    assert calls == [(-1, 40)]
    _x_over_expm1_nums(1, 41)
    assert calls == [(-1, 40), (-1, 82)]


def build_F_eulerian_ladder(k, order):
    # the reference: e^{zx} sum_i c_i(z) e^{ix} through the (z+i)^m ladder,
    # c_i(z) = sum_j [y^i] (1-y)^j A_{k-j}(y) z^j / (j! (k-j)!), times the
    # Miller power of x/(e^x-1), one series product
    in_y = [UniPoly([1, -1], "y") ** j * eulerian_poly(k - j)
            for j in range(k + 1)]
    c = [UniPoly([Fraction(p.coefficient(i), factorial(j) * factorial(k - j))
                  for j, p in enumerate(in_y)], "z")
         for i in range(k + 1)]
    shifts = [UniPoly([i, 1], "z") for i in range(k + 1)]
    powers = [UniPoly.constant(1, "z")] * (k + 1)
    at_exp = []
    for m in range(order + 1):
        weight = Fraction(1, factorial(m))
        at_exp.append(dot(((c_i, p, weight) for c_i, p in zip(c, powers)),
                          "z"))
        powers = [p * s for p, s in zip(powers, shifts)]
    return series_mul(miller_x_over_expm1(k + 1, order), at_exp)


@pytest.mark.parametrize("k", range(1, 7))
def test_build_F_eulerian_matches_the_ladder_construction(k):
    top = 6 * (k + 1)
    for order in range(top + 1):
        expected = build_F_eulerian_ladder(k, order)
        assert build_F_eulerian(k, order) == expected, (k, order)


def test_build_F_eulerian_reads_no_bernoulli_data(monkeypatch):
    import bernkit.series as series
    import bernkit.specialfns as sf
    points = [(k, 6 * (k + 1)) for k in range(1, 5)]
    expected = [build_F_direct(k, order) for k, order in points]
    # so x/(e^x-1) is inverted below, with Bernoulli data forbidden
    reset_x_over_expm1(monkeypatch)

    class Forbidden:
        def __getattr__(self, name):
            raise AssertionError("the Eulerian side read the Bernoulli cache")

    def forbidden(*args, **kwargs):
        raise AssertionError("the Eulerian side read Bernoulli data")

    for module, name in [(sf, "bernoulli_poly"), (sf, "bernoulli_number"),
                         (series, "bernoulli_poly")]:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(sf, "bernoulli_cache", Forbidden())
    orders = _record_comparison_orders(monkeypatch)
    for (k, order), f in zip(points, expected):
        assert build_F_eulerian(k, order) == f, k
    assert orders == [24, 60]


def test_build_F_direct_k0_matches_bernoulli():
    f = build_F_direct(0, 6)
    for j in range(7):
        assert factorial(j) * f[j] == bernoulli_poly(j)


def test_build_F_direct_small():
    f = build_F_direct(1, 2)
    assert f == [UniPoly([1], "z"), UniPoly((), "z"),
                 Fraction(-1, 2) * bernoulli_poly(2)]
    f2 = build_F_direct(2, 6)
    assert not f2[1]
    assert not f2[2]


def test_builders_return_order_plus_one_coefficients():
    # x^order may fall below F_k's first nonconstant term x^{k+1}: the
    # lists are cut there (order < k), end at the zeros (order = k), or
    # run on past them (order > k), with one coefficient per power of x
    for k in range(1, 6):
        longer = build_F_direct(k, k + 3)
        for order in range(k + 3):
            direct = build_F_direct(k, order)
            assert len(direct) == order + 1, (k, order)
            assert build_F_eulerian(k, order) == direct, (k, order)
            assert direct == longer[:order + 1], (k, order)
    assert build_F_direct(0, 0) == [UniPoly([1], "z")]
    with pytest.raises(ValueError):
        build_F_direct(2, -1)


def test_build_F_eulerian_equals_direct():
    # the lemma-4 grid 6(k+1) for k = 1..5, and one shorter truncation
    for k, order in [(k, 6 * (k + 1)) for k in range(1, 6)] + [(3, 10)]:
        assert build_F_eulerian(k, order) == build_F_direct(k, order), k
    with pytest.raises(ValueError):
        build_F_eulerian(0, 4)


def test_coefficient_extraction():
    assert exp_zx(5)[3] == UniPoly([0, 0, 0, Fraction(1, 6)], "z")
    assert build_F_direct(1, 4)[0] == UniPoly([1], "z")
    # with n = 2, k = 1: k!^{n-1} [x^{(k+1)n-1}] F^n = S for the row below it
    f = build_F_direct(1, 4)
    coeff = power_rows(f, 2, 4)[3]
    z = UniPoly.variable("z")
    assert factorial(1) * coeff == (
        Fraction(-1, 3) * z * (z - 1) * (2 * z - 1))


def test_reflection_of_F():
    # coefficientwise: (-1)^m * [x^m]F_k(x, 1-z) == [x^m]F_k(x, z)
    for k in range(5):
        for m, c in enumerate(build_F_direct(k, 12)):
            assert (-1) ** m * c.compose_affine(-1, 1) == c


def test_bernoulli_cache_check_grows_its_series_within_a_run(monkeypatch):
    from bernkit.convolution import per_run_memo, verify_bernoulli_cache
    from bernkit.specialfns import bernoulli_cache
    # start from a short cache so the run's comparison series has to grow;
    # _nums is the number store the cache grows from, and _den, which a
    # growth may rescale, is put back with it
    for name in ("_nums", "polys"):
        monkeypatch.setattr(bernoulli_cache, name,
                            getattr(bernoulli_cache, name)[:9])
    monkeypatch.setattr(bernoulli_cache, "_den", bernoulli_cache._den)
    reset_x_over_expm1(monkeypatch)
    orders = _record_comparison_orders(monkeypatch)
    with per_run_memo():
        for m in range(41):
            assert verify_bernoulli_cache(m) is None, m
    # each growth goes through twice the first order past the series,
    # whatever the cache's length
    assert orders == [2, 6, 14, 30, 62]


def test_bernoulli_cache_check_inverts_once_from_a_reset_series(
        monkeypatch):
    from bernkit.convolution import verify_bernoulli_cache
    reset_x_over_expm1(monkeypatch)
    orders = _record_comparison_orders(monkeypatch)
    assert verify_bernoulli_cache(5) is None
    assert orders == [10]
    assert verify_bernoulli_cache(5) is None
    assert orders == [10]


def test_lemma4_and_the_cache_check_share_one_inverse_within_a_run(
        monkeypatch):
    import bernkit.convolution as conv
    import bernkit.series as series
    reset_x_over_expm1(monkeypatch)
    orders = _record_comparison_orders(monkeypatch)
    with conv.per_run_memo():
        for k in (1, 2, 3):
            assert conv.verify_lemma4(k, 6 * (k + 1)) is None
        for m in range(25):
            assert conv.verify_bernoulli_cache(m) is None
        # the sweep memo holds no part of it
        assert conv._run_memo.get() == {}
    # built once, for k = 1 through x^24, which the cache check cuts too
    assert orders == [24]
    assert len(series._x_over_expm1[0]) == 25


def test_lemma4_inverts_once_from_a_reset_series(monkeypatch):
    from bernkit.convolution import verify_lemma4
    reset_x_over_expm1(monkeypatch)
    orders = _record_comparison_orders(monkeypatch)
    assert verify_lemma4(1, 12) is None
    assert orders == [24]
    assert verify_lemma4(1, 12) is None
    assert orders == [24]


def test_a_second_sweep_inverts_nothing(monkeypatch):
    import bernkit.specialfns as sf
    from bernkit.convolution import run_suite
    reset_x_over_expm1(monkeypatch)
    # a fresh Bernoulli cache too: run_suite checks every published entry,
    # and one grown by earlier work would ask for a longer series
    monkeypatch.setattr(sf, "bernoulli_cache", sf.BernoulliCache())
    orders = _record_comparison_orders(monkeypatch)
    assert all(r.passed for r in run_suite("all", 4, 3))
    assert orders == [24]
    assert all(r.passed for r in run_suite("all", 4, 3))
    assert orders == [24]


def test_x_over_expm1_safe_under_concurrent_growth(monkeypatch):
    import time
    from concurrent.futures import ThreadPoolExecutor
    import bernkit.series as series
    orders = list(range(41))
    random.Random(2019).shuffle(orders)
    reset_x_over_expm1(monkeypatch)
    expected = [x_over_expm1(3, order) for order in orders]
    reset_x_over_expm1(monkeypatch)
    # the published length when each growth starts, then at the end; the
    # pause lets every thread ask before the first growth is published
    lengths = []
    rows = series.power_rows

    def slow(h, a, top):
        lengths.append(len(series._x_over_expm1[0]))
        time.sleep(0.01)
        return rows(h, a, top)

    monkeypatch.setattr(series, "power_rows", slow)
    with ThreadPoolExecutor(8) as pool:
        got = list(pool.map(lambda order: x_over_expm1(3, order), orders))
    lengths.append(len(series._x_over_expm1[0]))
    assert got == expected
    assert lengths == sorted(lengths)
    assert lengths[-1] > 40


def _record_comparison_orders(monkeypatch):
    # the orders to which x/(e^x-1) is built by inversion, in call order:
    # the tops of the series module's power_rows calls at a = -1
    import bernkit.series as series
    orders = []
    rows = series.power_rows

    def recording(h, a, top):
        if a == -1:
            orders.append(top)
        return rows(h, a, top)

    monkeypatch.setattr(series, "power_rows", recording)
    return orders
