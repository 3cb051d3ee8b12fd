"""Truncated formal power series in x with polynomial coefficients.

The ring is Q[z][[x]] cut at a fixed order N, held as a list of UniPoly
coefficients (index = power of x).  The routes need only exact products and
powers, so those are the operations a series has; a product of series of
different orders is truncated to the smaller order.  Every series the
routes raise to a power has constant term 1, so a power, negative or not,
needs a nonzero constant term (a unit of Q[z]).  Builders for the
generating functions used downstream live here as well: (x/(e^x-1))^r, the
higher-order Bernoulli polynomials read off it, and the two constructions
of the auxiliary series F_k(x, z).  The named families they read come from
specialfns, which imports nothing but the base ring.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .polycore import UniPoly, dot, factorial, power_rows
from .specialfns import bernoulli_poly, eulerian_poly


class TruncSeries:
    """Power series through x**order with UniPoly coefficients."""

    __slots__ = ("order", "coeffs", "var")

    def __init__(self, order: int, coeffs: Iterable[UniPoly] = (),
                 var: str = "z"):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = list(coeffs)[:order + 1]
        if cs:
            var = cs[0].var
        cs += [UniPoly((), var)] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def one(cls, order: int, var: str = "z") -> "TruncSeries":
        return cls(order, [UniPoly.constant(1, var)], var)

    def coefficient(self, m: int) -> UniPoly:
        if not 0 <= m <= self.order:
            raise ValueError(
                f"coefficient index {m} beyond truncation order {self.order}")
        return self.coeffs[m]

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, coeffs={list(self.coeffs)!r})"

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TruncSeries(
            n, [dot(((a[i], b[m - i], 1) for i in range(m + 1)), self.var)
                for m in range(n + 1)], self.var)

    def __pow__(self, a: int) -> "TruncSeries":
        """self**a for any integer a by J.C.P. Miller's recurrence,
        polycore.power_rows; the constant coefficient must be a nonzero
        constant, a unit of Q[z] (ValueError otherwise)."""
        return TruncSeries(
            self.order, power_rows(self.coeffs, a, self.order), self.var)


def x_over_expm1_pow(r: int, order: int) -> TruncSeries:
    """(x/(e^x - 1))^r, as the (-r)-th power of (e^x - 1)/x."""
    if r < 1:
        raise ValueError("r must be >= 1")
    expm1_over_x = TruncSeries(
        order, [UniPoly.constant(Fraction(1, factorial(m + 1)), "z")
                for m in range(order + 1)])
    return expm1_over_x ** -r


def higher_bernoulli_poly(m: int, r: int) -> UniPoly:
    """Order-r Bernoulli polynomial: m! * [x^m] (x/(e^x-1))^r e^{zx}, read
    off the first m+1 coefficients of (x/(e^x-1))^r by _exp_zx_read_off."""
    if m < 0 or r < 1:
        raise ValueError("need m >= 0 and r >= 1")
    return _exp_zx_read_off(x_over_expm1_pow(r, m), m)


def _exp_zx_read_off(series: TruncSeries, m: int) -> UniPoly:
    # m! [x^m] X(x) e^{zx} for a series X with constant coefficients
    # X_0..X_m: its z^d coefficient is m!/d! X_{m-d}, formed as an integer
    # numerator over the lcm of the X_i denominators
    xs = [series.coefficient(i) for i in range(m + 1)]
    den = math.lcm(*[x.den for x in xs])
    nums = [0] * (m + 1)
    scale = 1  # m!/d!
    for d in range(m, -1, -1):
        x = xs[m - d]
        if x.nums:
            nums[d] = scale * x.nums[0] * (den // x.den)
        scale *= d
    return UniPoly._build(nums, den, "z")


def build_F_direct(k: int, order: int) -> TruncSeries:
    """F_k(x,z) from its defining coefficients:

    1 + (-1)^k (x^{k+1}/k!) sum_{m>=0} B_{m+k+1}(z)/(m+k+1) * x^m/m!
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    sign = (-1) ** k
    cs = [UniPoly.constant(1, "z")] + [UniPoly((), "z")] * k
    for m in range(order - k):
        cs.append(bernoulli_poly(m + k + 1)
                  * Fraction(sign, factorial(k) * factorial(m) * (m + k + 1)))
    return TruncSeries(order, cs)


def build_F_eulerian(k: int, order: int) -> TruncSeries:
    """F_k(x,z) rebuilt from Eulerian polynomials:

    (x/(e^x-1))^{k+1} e^{xz} sum_{j=0}^{k} (1-e^x)^j A_{k-j}(e^x)/(k-j)! * z^j/j!

    The sum is first formed as sum_i c_i(z) y^i with y = e^x: each
    (1-y)^j A_{k-j}(y) has degree at most k in y, so c_i(z) collects
    [y^i] (1-y)^j A_{k-j}(y) / (j! (k-j)!) over the powers z^j.  Then
    y^i -> e^{ix}, and e^{zx} e^{ix} = e^{(z+i)x} gives the x^m coefficient
    of e^{zx} sum_i c_i(z) e^{ix} as sum_i c_i(z) (z+i)^m/m!, each (z+i)^m
    carried from the one before by one multiply; one series product is
    left.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (k = 0 is covered by the "
                         "direct construction)")
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
    return x_over_expm1_pow(k + 1, order) * TruncSeries(order, at_exp)
