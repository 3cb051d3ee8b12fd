"""Differential test of the UniPoly kernel against a slow Fraction reference.

All three routes to S[n,k](z) run on the same base ring, so a bug there would
be common to all of them and route agreement could not show it.  RefPoly
below is the guard: a plain list of Fractions that shares no code with
bernkit.polycore.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bernkit.polycore as pc  # noqa: E402
from bernkit.polycore import (NEG_INFINITY, UniPoly, dot,  # noqa: E402
                              interpolate, power_rows)


class RefPoly:
    """Dense polynomial over a list of Fractions, trailing zeros stripped."""

    def __init__(self, cs):
        self.cs = [Fraction(c) for c in cs]
        while self.cs and self.cs[-1] == 0:
            self.cs.pop()

    def c(self, i):
        return self.cs[i] if i < len(self.cs) else Fraction(0)

    def __add__(self, o):
        n = max(len(self.cs), len(o.cs))
        return RefPoly([self.c(i) + o.c(i) for i in range(n)])

    def __neg__(self):
        return RefPoly([-c for c in self.cs])

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if not isinstance(o, RefPoly):
            return RefPoly([c * o for c in self.cs])
        out = [Fraction(0)] * (len(self.cs) + len(o.cs))
        for i, a in enumerate(self.cs):
            for j, b in enumerate(o.cs):
                out[i + j] += a * b
        return RefPoly(out)

    def __pow__(self, n):
        out = RefPoly([1])
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, t):
        acc = Fraction(0)
        for c in reversed(self.cs):
            acc = acc * t + c
        return acc

    def compose_affine(self, a, b):
        acc = RefPoly([])
        for c in reversed(self.cs):
            acc = acc * RefPoly([b, a]) + RefPoly([c])
        return acc


def same(p: UniPoly, r: RefPoly) -> bool:
    return list(p.coeffs) == r.cs


BIG = 2 ** 260
small_int = st.integers(-6, 6)
big_int = st.integers(-BIG, BIG)
scalars = st.one_of(
    st.just(0), small_int, big_int,
    st.builds(Fraction, small_int, st.integers(1, 12)),
    st.builds(Fraction, big_int, st.integers(1, BIG)))
coeff_lists = st.lists(scalars, max_size=8)
short_lists = st.lists(scalars, max_size=4)


def assert_canonical(p: UniPoly) -> None:
    assert p.den > 0
    assert all(type(c) is int for c in p.nums)
    if p.nums:
        assert p.nums[-1] != 0
        assert math.gcd(p.den, *p.nums) == 1
    else:
        assert p.den == 1


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists)
def test_ring_operations_match_reference(a, b):
    p, q = UniPoly(a), UniPoly(b)
    ra, rb = RefPoly(a), RefPoly(b)
    for got, want in ((p, ra), (p + q, ra + rb), (p - q, ra - rb),
                      (-p, -ra), (p * q, ra * rb)):
        assert_canonical(got)
        assert same(got, want)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, scalars)
def test_scalar_operations_match_reference(a, s):
    p, r = UniPoly(a), RefPoly(a)
    for got, want in ((p * s, r * s), (s * p, r * s),
                      (p + s, r + RefPoly([s])), (p - s, r - RefPoly([s])),
                      (s - p, RefPoly([s]) - r)):
        assert_canonical(got)
        assert same(got, want)


int_coeffs = st.one_of(st.just(0), small_int, big_int)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.lists(int_coeffs, max_size=6),
                          st.lists(int_coeffs, max_size=6),
                          st.one_of(small_int, big_int)), max_size=5))
@example([([0, -3, 0], [7], -2), ([5], [0, 0, 1], 1), ([2], [-1], 0)])
@example([([1, 0, -1], [4, 0, 0, 2], -5), ([], [3], 2), ([0], [0], -1)])
def test_mul_sum_matches_sum_of_reference_products(terms):
    # negative scales, length-1 operands and zero entries; the sum is as
    # long as the longest product, trailing zeros kept, and [] for none
    got = pc._mul_sum(terms)
    want = RefPoly([])
    for a, b, s in terms:
        want = want + RefPoly(a) * RefPoly(b) * s
    assert all(type(c) is int for c in got)
    assert len(got) == max((len(a) + len(b) - 1 for a, b, _ in terms
                            if a and b), default=0)
    assert RefPoly(got).cs == want.cs


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(coeff_lists, coeff_lists, scalars), max_size=6))
def test_dot_matches_sum_of_reference_products(terms):
    got = dot(((UniPoly(a, "y"), UniPoly(b, "y"), w) for a, b, w in terms),
              "y")
    want = RefPoly([])
    for a, b, w in terms:
        want = want + RefPoly(a) * RefPoly(b) * w
    assert_canonical(got)
    assert got.var == "y"
    assert same(got, want)
    top = len(want.cs)
    assert [got.coefficient(i) for i in range(top + 1)] == want.cs + [0]
    assert got.leading_coefficient() == (want.cs[-1] if want.cs else 0)


def test_dot_of_nothing_is_the_zero_polynomial():
    p = UniPoly([Fraction(1, 3), 2])
    for terms in ([], [(p, UniPoly(), 5), (UniPoly(), p, 1), (p, p, 0),
                       (p, -p, Fraction(1, 7)), (p, p, Fraction(1, 7))]):
        got = dot(terms, "z")
        assert (got.nums, got.den, got.var) == ((), 1, "z")
    assert dot([], "y") == UniPoly((), "y")


def test_dot_rejects_a_variable_mismatch():
    z, y = UniPoly([1, Fraction(1, 3)], "z"), UniPoly([2, 1], "y")
    for terms in ([(z, y, 1)], [(y, z, 1)], [(y, y, 1)],
                  [(z, z, 1), (z, y, 0)], [(UniPoly((), "y"), z, 1)]):
        with pytest.raises(ValueError):
            dot(terms, "z")


@settings(max_examples=60, deadline=None)
@given(short_lists, st.integers(0, 12))
def test_power_matches_reference(a, n):
    got = UniPoly(a) ** n
    assert_canonical(got)
    assert same(got, RefPoly(a) ** n)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, scalars)
def test_evaluation_matches_reference(a, t):
    value = UniPoly(a)(t)
    assert type(value) is Fraction
    assert value == RefPoly(a)(t)


def ref_series_product(f, g, top):
    # the x^0..x^top coefficients of (sum f_i x^i)(sum g_j x^j)
    return [sum((f[i] * g[m - i] for i in range(m + 1)
                 if i < len(f) and m - i < len(g)), RefPoly([]))
            for m in range(top + 1)]


@settings(max_examples=100, deadline=None)
@given(scalars.filter(bool), st.lists(short_lists, max_size=3),
       st.integers(-3, 4), st.integers(0, 5))
def test_power_rows_match_repeated_reference_products(h0, rest, a, top):
    h = [RefPoly([h0])] + [RefPoly(cs) for cs in rest]
    polys = [UniPoly([h0], "y")] + [UniPoly(cs, "y") for cs in rest]
    got = power_rows(polys, a, top)
    assert len(got) == top + 1
    for g in got:
        assert_canonical(g)
        assert g.var == "y"
    # G = H^a: for a >= 0, G = 1 * H * ... * H; for a < 0, G * H^{-a} = 1
    lhs = [RefPoly(g.coeffs) for g in got]
    rhs = [RefPoly([1])] + [RefPoly([])] * top
    for _ in range(abs(a)):
        if a > 0:
            rhs = ref_series_product(rhs, h, top)
        else:
            lhs = ref_series_product(lhs, h, top)
    assert [r.cs for r in lhs] == [r.cs for r in rhs]


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.just([]), st.builds(lambda cs, lead: cs + [lead],
                                        st.lists(scalars, min_size=1,
                                                 max_size=2),
                                        scalars.filter(bool))),
       st.lists(short_lists, max_size=3), st.integers(-3, 4),
       st.integers(0, 5))
def test_power_rows_refuses_an_h0_that_is_not_a_nonzero_constant(
        h0, rest, a, top):
    # a zero or non-constant h_0 is refused before any row is computed
    polys = [UniPoly(h0, "y")] + [UniPoly(cs, "y") for cs in rest]
    with mock.patch.object(pc, "dot", side_effect=AssertionError("a row")):
        with pytest.raises(ValueError):
            power_rows(polys, a, top)


def values_over_one_denominator(r: RefPoly, points: int):
    # r(0..points-1) as integer numerators over their lcm denominator
    values = [r(Fraction(z)) for z in range(points)]
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


@settings(max_examples=150, deadline=None)
@given(st.lists(scalars, max_size=13), st.integers(0, 2))
def test_interpolation_recovers_the_reference(a, extra):
    r = RefPoly(a)
    degree = max(len(r.cs) - 1, 0) + extra
    nums, den = values_over_one_denominator(r, degree + 2)
    got = interpolate(nums, den, "y")
    assert_canonical(got)
    assert got.var == "y"
    assert same(got, r)


@settings(max_examples=100, deadline=None)
@given(st.lists(scalars, min_size=1, max_size=12), scalars.filter(bool))
def test_interpolation_refuses_values_above_the_degree_bound(a, lead):
    # a polynomial of degree exactly D + 1, fed in as D + 2 values, which
    # set the bound D
    r = RefPoly(list(a) + [lead])
    nums, den = values_over_one_denominator(r, len(r.cs))
    with pytest.raises(ArithmeticError):
        interpolate(nums, den, "z")


def test_interpolation_refuses_fewer_than_two_values():
    # D + 2 values fix the degree bound D >= 0: one value fixes none
    for values in ([], [1], [0]):
        with pytest.raises(ValueError):
            interpolate(values, 1, "z")
    assert interpolate([3, 3], 1, "z") == UniPoly([3], "z")


@settings(max_examples=100, deadline=None)
@given(coeff_lists, scalars, scalars)
def test_compose_affine_matches_reference(a, s, t):
    got = UniPoly(a).compose_affine(s, t)
    assert_canonical(got)
    assert same(got, RefPoly(a).compose_affine(s, t))


@settings(max_examples=100, deadline=None)
@given(coeff_lists, short_lists)
def test_div_rem_reconstructs_dividend(a, b):
    p, d = UniPoly(a), UniPoly(b)
    if not d:
        with pytest.raises(ZeroDivisionError):
            p.div_rem(d)
        return
    q, r = p.div_rem(d)
    assert_canonical(q)
    assert_canonical(r)
    rebuilt = RefPoly(q.coeffs) * RefPoly(d.coeffs) + RefPoly(r.coeffs)
    assert rebuilt.cs == RefPoly(a).cs
    assert r.degree < d.degree


@settings(max_examples=150, deadline=None)
@given(coeff_lists, st.builds(Fraction, st.integers(1, BIG),
                              st.integers(1, BIG)))
def test_equal_polys_from_scaled_inputs_hash_equal(a, s):
    p = UniPoly(a)
    scaled = UniPoly([c * s for c in a]) * (1 / s)
    padded = UniPoly(list(a) + [0, Fraction(0)])
    for other in (scaled, padded, p + p - p):
        assert other == p
        assert hash(other) == hash(p)
        assert other.nums == p.nums and other.den == p.den


def test_trailing_zeros_and_zero_polynomial():
    p = UniPoly([Fraction(1, 2), 3, 0, Fraction(0)])
    assert p.coeffs == (Fraction(1, 2), Fraction(3))
    assert p.degree == 1
    for zero in (UniPoly(), UniPoly([0, 0, Fraction(0, 7)]),
                 p - p, p * 0, p * UniPoly()):
        assert zero.degree == NEG_INFINITY
        assert zero.coeffs == ()
        assert (zero.nums, zero.den) == ((), 1)
        assert zero == UniPoly((), "z")
        assert hash(zero) == hash(UniPoly((), "z"))


def test_mixing_variables_raises():
    p, q = UniPoly([1, Fraction(1, 3)], "z"), UniPoly([2, 1], "y")
    for op in (lambda: p + q, lambda: p - q, lambda: p * q,
               lambda: p.div_rem(q)):
        with pytest.raises(ValueError):
            op()
