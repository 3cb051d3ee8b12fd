"""Formal power series in x with polynomial coefficients, cut at x^N.

A series of Q[z][[x]] is a plain list of its N+1 UniPoly coefficients
(index = power of x).  The routes need one operation on such a series,
a power of F_k, and polycore.power_rows (J.C.P. Miller's recurrence) is
it; so this module holds builders only: (x/(e^x-1))^r, the higher-order
Bernoulli polynomials read off it, and the two constructions of the
auxiliary series F_k(x, z), each a list of exactly order + 1
coefficients.  x/(e^x-1) is a family beside B_m and A_k: one
process-wide series that only grows, each growth one inverse by
power_rows, and (x/(e^x-1))^r is r-1 of Norlund's steps on its cut.  It
and the Eulerian construction of F_k work on series with constant
coefficients as integer numerators over one denominator, so a scalar
costs an int operation, not a polynomial one.  The named families they
read come from specialfns, which imports nothing but the base ring.
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from fractions import Fraction
from operator import add, mul

from .polycore import UniPoly, _mul_sum, binomial, factorial, power_rows
from .specialfns import bernoulli_poly, eulerian_poly


#: x/(e^x-1) through the largest order built so far, as the integer
#: numerators of its coefficients over one denominator.  Like the specialfns
#: caches it is process-wide, only grows, and grows under a lock;
#: reachable so tests can reset it
_x_over_expm1 = ([1], 1)
_x_over_expm1_lock = allocate_lock()


def _x_over_expm1_nums(r: int, order: int) -> tuple[list[int], int]:
    """(x/(e^x - 1))^r through x^order, as the integer numerators of its
    coefficients over one denominator.

    x/(e^x-1) is the process-wide series _x_over_expm1 cut at x^order:
    Miller's rows do not depend on where they are cut.  When it stops below
    x^order, one polycore.power_rows call at a = -1 inverts (e^x-1)/x
    through x^(2 order) and replaces it, so rising orders rebuild it about
    log2(top) times at most and a default sweep once.  No step reads
    Bernoulli data.  Each higher power is one step of Norlund's recurrence
    for B^{(s)}_m = m! [x^m] (x/(e^x-1))^s,

        B^{(s+1)}_m = (1 - m/s) B^{(s)}_m - m B^{(s)}_{m-1},

    which on the coefficients b_m = B^{(s)}_m / m! reads
    s b'_m = (s - m) b_m - s b_{m-1}, run on the numerators over a
    denominator that gains the factor s.  The steps cost about r * order
    integer operations, so a power far above its order costs more than
    one Miller power at a = -r would.
    """
    global _x_over_expm1
    if r < 1 or order < 0:
        raise ValueError("need r >= 1 and order >= 0")
    with _x_over_expm1_lock:
        if len(_x_over_expm1[0]) <= order:
            coeffs = power_rows(
                [UniPoly.constant(Fraction(1, factorial(m + 1)), "z")
                 for m in range(2 * order + 1)], -1, 2 * order)
            den = math.lcm(*[c.den for c in coeffs])
            _x_over_expm1 = ([c.nums[0] * (den // c.den) if c.nums else 0
                              for c in coeffs], den)
        nums, den = _x_over_expm1
    nums = nums[:order + 1]
    for s in range(1, r):
        nums = [(s - m) * b - s * before
                for m, (b, before) in enumerate(zip(nums, [0] + nums))]
        den *= s
    return nums, den


def higher_bernoulli_poly(m: int, r: int) -> UniPoly:
    """Order-r Bernoulli polynomial: m! * [x^m] (x/(e^x-1))^r e^{zx}, read
    off the first m+1 coefficients of (x/(e^x-1))^r by _exp_zx_read_off."""
    if m < 0 or r < 1:
        raise ValueError("need m >= 0 and r >= 1")
    return _exp_zx_read_off(*_x_over_expm1_nums(r, m))


def _exp_zx_read_off(xs: list[int], den: int) -> UniPoly:
    # m! [x^m] X(x) e^{zx} for a series X with constant coefficients
    # X_0..X_m = xs[0..m] / den: its z^d coefficient is m!/d! X_{m-d}
    m = len(xs) - 1
    nums = [0] * (m + 1)
    scale = 1  # m!/d!
    for d in range(m, -1, -1):
        nums[d] = scale * xs[m - d]
        scale *= d
    return UniPoly._build(nums, den, "z")


def build_F_direct(k: int, order: int) -> list[UniPoly]:
    """F_k(x,z) through x^order from its defining coefficients:

    1 + (-1)^k (x^{k+1}/k!) sum_{m>=0} B_{m+k+1}(z)/(m+k+1) * x^m/m!
    """
    if k < 0 or order < 0:
        raise ValueError("need k >= 0 and order >= 0")
    sign = (-1) ** k
    cs = [UniPoly.constant(1, "z")] + [UniPoly((), "z")] * k
    for m in range(order - k):
        cs.append(bernoulli_poly(m + k + 1)
                  * Fraction(sign, factorial(k) * factorial(m) * (m + k + 1)))
    return cs[:order + 1]


def build_F_eulerian(k: int, order: int) -> list[UniPoly]:
    """F_k(x,z) through x^order rebuilt from Eulerian polynomials:

    (x/(e^x-1))^{k+1} e^{xz} sum_{j=0}^{k} (1-e^x)^j A_{k-j}(e^x)/(k-j)! * z^j/j!

    Regrouped by powers of z, F = e^{zx} sum_j z^j K_j(x) with
    K_j = (x/(e^x-1))^{k+1} P_j(x) and, y = e^x,
    P_j = sum_i [y^i] (1-y)^j A_{k-j}(y) e^{ix} / (j! (k-j)!), whose x^m
    coefficient is sum_i [y^i] (1-y)^j A_{k-j}(y) i^m / (j! (k-j)! m!).
    Both factors of K_j have constant coefficients, so K_j is a product of
    integer numerator lists over one denominator shared by every j, formed
    through x^order only, one dense sum per coefficient; (1-y)^j A_{k-j}(y)
    is one product (polycore._mul_sum) of the binomial row of (1-y)^j with
    A_{k-j}'s coefficients.  The z^d coefficient of [x^m] F is
    sum_j [x^{m-d+j}] K_j / (d-j)!.  (x/(e^x-1))^{k+1} comes from
    _x_over_expm1_nums, on the process-wide x/(e^x-1).  Nothing here reads
    Bernoulli data, and no power of (1-y) is formed as a polynomial.
    """
    if k < 1:
        raise ValueError("k must be >= 1 (k = 0 is covered by the "
                         "direct construction)")
    xs, x_den = _x_over_expm1_nums(k + 1, order)
    # i^m order!/m!, so P_j's x^m numerator over k! order! is
    # C(k,j) sum_i [y^i] (1-y)^j A_{k-j}(y) i^m order!/m!
    weights = [factorial(order) // factorial(m) for m in range(order + 1)]
    at = [[i ** m * w for m, w in enumerate(weights)] for i in range(k + 1)]
    products = []
    for j in range(k + 1):
        # C(k,j) (1-y)^j A_{k-j}(y)
        ones = [(-1) ** i * binomial(j, i) for i in range(j + 1)]
        in_y = _mul_sum(((ones, eulerian_poly(k - j).nums, binomial(k, j)),))
        p = [0] * (order + 1)
        for e, row in zip(in_y, at):
            p = [v + e * i_m for v, i_m in zip(p, row)]
        # x^0..x^order of K_j only: one dense sum per kept coefficient
        p.reverse()
        products.append([sum(map(mul, xs, p[order - m:]))
                         for m in range(order + 1)])
    den = x_den * factorial(k) * factorial(order)
    cs = []
    scale = []  # m!/e! for e = 0..m
    for m in range(order + 1):
        scale = [v * m for v in scale] + [1]
        nums = [0] * (m + k + 1)
        for j, k_j in enumerate(products):
            # z^{j+e} gets [x^{m-e}] K_j m!/e!
            nums[j:j + m + 1] = map(add, nums[j:j + m + 1],
                                    map(mul, k_j[m::-1], scale))
        cs.append(UniPoly._build(nums, den * factorial(m), "z"))
    return cs
