"""Convolution-sum polynomials S[n,k](z) and everything proved about them.

S[n,k](z) is the signed, binomially weighted sum over weak compositions of
products of scaled Bernoulli polynomials:

    S[n,k](z) = sum_{m=1}^{n} C(n+1,m) k!^{n-m} (-1)^{km}
                sum_{j_1..j_m >= 0, sum = (k+1)(n-m)+k}
                prod_i B_{k+1+j_i}(z) / (j_i! (k+1+j_i)).

Three independent routes compute it (the defining sum, extraction from the
power of the auxiliary series F_k, and the Eulerian/higher-order-Bernoulli
expansion); the verifiers below check the symmetry, divisibility, and
coefficient statements that hold for these polynomials, plus the integer
sequences attached to their linear coefficients.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cache
from itertools import accumulate, product, repeat
from operator import add, mul

from . import specialfns
from .polycore import (UniPoly, _mul_sum, binomial, factorial,
                       falling_product, interpolate, multinomial, power_rows)
from .specialfns import (bernoulli_number, bernoulli_poly, eulerian_number,
                         eulerian_poly)
from .series import (_exp_zx_read_off, _x_over_expm1_nums, build_F_direct,
                     build_F_eulerian, higher_bernoulli_poly)


# ---------------------------------------------------------------------------
# the three routes to S[n,k](z)
# ---------------------------------------------------------------------------

def s_direct(n: int, k: int) -> UniPoly:
    """S[n,k](z) by the defining double sum, term by term.

    The reference oracle for the other routes: it reads the Bernoulli
    numbers alone and no kernel product.  Every polynomial is held by its
    values at z = 0..D+1, D = (k+1)n + k: each composition's product has
    degree exactly D, so D bounds deg S.  The factors
    g_j = B_r(z)/(j! r), r = k+1+j, are evaluated once, as integer
    numerators over their own denominators, from the Bernoulli number B_r
    alone: B_r(z+1) - B_r(z) = r z^{r-1}, so at an integer point
    B_r(z)/r = B_r/r + sum_{i<z} i^{r-1}, one running sum, and the 1/j! goes
    into the denominator.  The inner sum of each m is then the plain sum of
    prod g_{j_i} over the weak compositions, which _point_sums adds one
    product per multiset of parts; that regroups the same sum exactly.  One
    exact interpolation recovers S, and raises ArithmeticError unless the
    difference of order D+1, at the extra point, vanishes.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    degree = (k + 1) * n + k
    top = (k + 1) * (n - 1) + k  # the one part of m = 1
    factors, dens = {}, {}
    # a part of m >= 2 parts is at most top - k - 1; top first, so the
    # Bernoulli cache grows once
    for j in [top, *range(top - k)]:
        r = k + 1 + j
        b = bernoulli_number(r) / r  # reduced, so the values are too
        factors[j] = list(accumulate(
            [b.numerator] + [b.denominator * i ** (r - 1)
                             for i in range(degree + 1)]))
        dens[j] = b.denominator * factorial(j)
    sums = _point_sums(factors, dens)
    terms = []
    for m in range(1, n + 1):
        t = (k + 1) * (n - m) + k
        weight = binomial(n + 1, m) * factorial(k) ** (n - m) * (-1) ** (k * m)
        terms.append((weight, *sums(t, m, t)))
    common = math.lcm(*[d for _, d, _ in terms])
    total = [0] * (degree + 2)
    for weight, d, values in terms:
        scale = weight * (common // d)
        total = [x + scale * v for x, v in zip(total, values)]
    return interpolate(total, common, "z")


def _point_sums(factors: dict[int, list[int]], dens: dict[int, int]):
    """sums(t, m, cap) = (den, values): the sum over weak compositions
    (j_1..j_m) of t, each part at most cap, of prod f_{j_i}, at every
    point, as integer numerators over den.

    factors[j] holds the numerators of f_j at the points over dens[j]; a
    part that a composition can hold must have an entry.  The compositions
    are grouped by their multiplicity vectors c (c_j parts equal to j,
    _multiplicity_vectors), so each group adds (m!/prod c_j!) prod f_j^{c_j}
    and each pointwise power f_j^c is formed once per call of _point_sums.
    den is the lcm of the groups' denominators prod dens[j]^{c_j}, so no
    product carries a denominator it does not need (one common denominator
    for every factor would put its full size into every group).  s_direct,
    multisum_poly_multinomial and u_nu (one point, den 1) call it."""
    @cache
    def power(j, c):
        return [v ** c for v in factors[j]]

    def sums(t, m, cap):
        vectors = list(_multiplicity_vectors(cap, m, t))
        groups = [math.prod(dens[j] ** c for j, c in v) for v in vectors]
        den = math.lcm(*groups)
        acc = repeat(0)  # the empty sum takes the factors' length
        for v, d in zip(vectors, groups):
            scale = multinomial([c for _, c in v]) * (den // d)
            values = map(scale.__mul__, power(*v[0]))
            for pair in v[1:]:
                values = map(mul, values, power(*pair))
            acc = list(map(add, acc, values))
        return den, acc

    return sums


def _walk(pairs: dict, factors: dict, cap: int, rest: int, parts: int):
    """The sum, point by point, of the products of every weak composition
    of rest into parts >= 2 parts, each at most cap: multisum_poly's
    enumeration, called only where such a composition exists.

    A part j at a level of `parts` parts contributes factors[j] and ranges
    over max(0, rest - (parts-1) cap)..min(cap, rest), so the parts after
    it can still reach rest - j; pairs[rest] lists the point-value products
    of the last two parts.  The pending prefixes are kept on a list, not
    the call stack, so any number of parts is walked; the sums are exact,
    so their order does not matter."""
    # the empty product and the empty sum take the factors' length
    acc, pending = repeat(0), [(rest, parts, repeat(1))]
    while pending:
        rest, parts, prefix = pending.pop()
        if parts == 2:
            for pair in pairs[rest]:
                acc = list(map(add, acc, map(mul, prefix, pair)))
            continue
        for j in range(max(0, rest - (parts - 1) * cap), min(cap, rest) + 1):
            pending.append((rest - j, parts - 1,
                            list(map(mul, prefix, factors[j]))))
    return acc


def s_series(n: int, k: int) -> UniPoly:
    """S[n,k](z) = k!^n * [x^{(k+1)(n+1)-1}] F_k(x,z)^{n+1}.

    F_k and its power are truncated at that coefficient, the one read."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    order = (k + 1) * (n + 1) - 1
    power = power_rows(build_F_direct(k, order), n + 1, order)
    return factorial(k) ** n * power[order]


def s_eulerian(n: int, k: int) -> UniPoly:
    """S[n,k](z) through the d-coefficient / falling-product expansion:

    (1/(k! M!)) sum_{nu=0}^{mk} z^nu sum_{j=0}^{mk} d_j^{(mk-nu)}
                prod_{r=1}^{M} (m z + j - r),
    with m = n+1 and M = m(k+1) - 1.  Every d-row is read from one
    multisum_power(k, m), which a sweep builds once for this route and
    lemma 5 together, and multiplied by the binomial row of (1-y)^nu
    (_d_row).

    Regrouped by j, this is sum_j P_j(z) D_j(z) with
    D_j = sum_nu d_j^{(mk-nu)} z^nu and P_j = prod_{t=j-M}^{j-1} (m z + t).
    Every P_j holds C = prod_{t=-n}^{-1} (m z + t), so
    P_j = C R_j L_j with R_j = prod_{t<j} a_t and L_j = prod_{t>=j} b_t,
    a_t = m z + t and b_t = m z + t - M for t = 0..mk-1.  From the d-rows
    to the sum of R_j L_j D_j, formed by _tree_sum, everything is an
    integer coefficient list; that sum is divided once by k! M! and
    multiplied once by C.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    m = n + 1
    length = m * (k + 1) - 1
    top = m * k
    power = _multisum_power_per_run(k, m)
    rows = [_d_row(power[top - nu], nu, top + 1) for nu in range(top + 1)]
    # leaf j is D_j: column j of the d-rows
    leaves = list(zip(*rows))
    a = [[t, m] for t in range(top)]
    b = [[t - length, m] for t in range(top)]
    _, _, total = _tree_sum(leaves, a, b, 0, top + 1)
    return falling_product(m, 0, n) * UniPoly._build(
        total, factorial(k) * factorial(length), "z")


def _tree_sum(leaves, a, b, lo, hi):
    # (A, B, T) for the leaves lo..hi-1, all integer coefficient lists in z:
    # A = prod_{t=lo}^{hi-2} a_t, B = prod_{t=lo}^{hi-2} b_t and
    # T = sum_j (prod_{t=lo}^{j-1} a_t) (prod_{t=j}^{hi-2} b_t) leaves[j].
    # The two halves meet at the factors a_{mid-1} and b_{mid-1}, so the
    # products stay balanced and their coefficients small below the top.
    # Only a left half's A and a right half's B are read, so A is None on
    # the right edge (hi == len(leaves)) and B on the left edge (lo == 0).
    if hi - lo == 1:
        return [1], [1], leaves[lo]
    mid = (lo + hi) // 2
    a_l, b_l, t_l = _tree_sum(leaves, a, b, lo, mid)
    a_r, b_r, t_r = _tree_sum(leaves, a, b, mid, hi)
    left = _mul_sum(((a_l, a[mid - 1], 1),))
    right = _mul_sum(((b[mid - 1], b_r, 1),))
    return (_mul_sum(((left, a_r, 1),)) if hi < len(leaves) else None,
            _mul_sum(((b_l, right, 1),)) if lo > 0 else None,
            _mul_sum(((t_l, right, 1), (left, t_r, 1))))


ROUTES: dict[str, Callable[[int, int], UniPoly]] = {
    "direct": s_direct,
    "series": s_series,
    "eulerian": s_eulerian,
}


def s_routes(k: int) -> list[str]:
    """The routes to S[n,k] that apply at k, "direct" first: the eulerian
    route needs k >= 1."""
    return ["direct", "series"] + (["eulerian"] if k >= 1 else [])


def s_poly(n: int, k: int, route: str = "direct") -> UniPoly:
    """Dispatch to one of the three routes ("direct", "series", "eulerian").

    Inside a `per_run_memo` block each (n, k, route) is computed once and
    the same polynomial is returned to every later caller; outside one every
    call recomputes.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return _once_per_run(("s", n, k, route), lambda: ROUTES[route](n, k))


#: objects computed once per sweep, keyed by what they are; None outside a
#: `per_run_memo` block, where every function recomputes.  A context
#: variable, so a sweep never sees a memo opened by another thread.
_run_memo: ContextVar[dict | None] = ContextVar("run_memo", default=None)


@contextmanager
def per_run_memo():
    """Share these among the checks run inside the block, each built once:

    - ("s", n, k, route): S[n,k] on one route (s_poly);
    - ("multisum_power", k, n): multisum_power(k, n), read by the eulerian
      route at n = n'+1 and by lemma 5's power computation.

    Each is derived from a family cache.  `run_suite` opens one per call,
    so nothing outlives a sweep and a fault injected into a family cache
    between sweeps is seen by the next one.  x/(e^x-1) is derived from no
    cache, so it is a process-wide family of its own
    (series._x_over_expm1)."""
    token = _run_memo.set({})
    try:
        yield
    finally:
        _run_memo.reset(token)


def _once_per_run(key, build):
    memo = _run_memo.get()
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


# ---------------------------------------------------------------------------
# multisum polynomials and d-coefficients
# ---------------------------------------------------------------------------

def multisum_poly(k: int, nu: int, n: int) -> UniPoly:
    """S^{(n)}_{k,nu}(y) = sum over weak compositions (j_1..j_n) of nu, each
    part at most k, of prod_i C(k, j_i) A_{j_i}(y), by direct enumeration.

    Every composition's product has degree exactly nu, so each factor
    C(k,j) A_j(y) is held by its values at y = 0..nu+1 (_multisum_points).
    _walk with a cap of k forms each composition's product point by point,
    the last two parts as one precomputed pair, and one exact interpolation
    recovers the sum; it raises ArithmeticError unless the difference of
    order nu+1, at the extra point, vanishes."""
    if k < 1 or n < 1 or nu < 0:
        raise ValueError("need k >= 1, n >= 1, nu >= 0")
    if nu > n * k:
        return UniPoly((), "y")
    factors, common = _multisum_points(k, nu, n)
    if n == 1:
        return interpolate(factors[nu], common, "y")
    # the totals left for the last two parts
    pairs = {rest: [list(map(mul, factors[j], factors[rest - j]))
                    for j in range(max(0, rest - k), min(k, rest) + 1)]
             for rest in range(max(0, nu - (n - 2) * k), min(2 * k, nu) + 1)}
    values = _walk(pairs, factors, k, nu, n)
    return interpolate(values, common ** n, "y")


def multisum_poly_multinomial(k: int, nu: int, n: int) -> UniPoly:
    """Same polynomial via the multinomial theorem: the compositions are
    grouped by the multiset of their parts, one product of the point values
    of _multisum_points per multiset weighted by its multinomial coefficient
    (_point_sums), and one exact interpolation recovers the sum; it raises
    ArithmeticError unless the difference of order nu+1 vanishes."""
    if k < 1 or n < 1 or nu < 0:
        raise ValueError("need k >= 1, n >= 1, nu >= 0")
    if nu > n * k:
        return UniPoly((), "y")
    factors, common = _multisum_points(k, nu, n)
    den, values = _point_sums(factors, dict.fromkeys(factors, common))(
        nu, n, k)
    return interpolate(values, den, "y")


def _multisum_points(k: int, nu: int, n: int) -> tuple[dict, int]:
    """(factors, common): the values of C(k,j) A_j(y) at y = 0..nu+1, by
    Horner's rule, as integer numerators over one common denominator, for
    every part j that a weak composition of nu into n parts, each at most
    k, can hold: every part is at least what the other n-1 cannot reach."""
    polys = {j: eulerian_poly(j)
             for j in range(max(0, nu - (n - 1) * k), min(k, nu) + 1)}
    common = math.lcm(*[p.den for p in polys.values()])
    factors = {}
    for j, p in polys.items():
        scale = binomial(k, j) * (common // p.den)
        values = []
        for y in range(nu + 2):
            acc = 0
            for c in reversed(p.nums):
                acc = acc * y + c
            values.append(scale * acc)
        factors[j] = values
    return factors, common


def _multiplicity_vectors(cap, n, nu):
    """The multisets of n parts in 0..cap with sum nu, each as its
    (part, count) pairs with count >= 1, largest part first: a multiset
    stands for the n!/prod count! weak compositions that reorder it.

    The walk picks the largest part left and its count, only where the
    remaining slots, each below that part, can still reach the remaining
    weight; so every branch ends in a multiset, and a part that does not
    occur adds no level to the walk.  The pending heads are kept on a list,
    not the call stack, so any n or cap is walked.  _point_sums (for
    s_direct, multisum_poly_multinomial and u_nu) and a_jkn_multinomial
    read it."""
    pending = [((), cap, n, nu)]
    while pending:
        head, cap, slots, weight = pending.pop()
        if not weight:
            yield head + ((0, slots),) if slots else head
            continue
        # the largest part p: slots * p >= weight
        for p in range(-(-weight // slots), min(cap, weight) + 1):
            pending += [(head + ((p, c),), p - 1, slots - c, weight - p * c)
                        for c in range(1, min(slots, weight // p) + 1)
                        if weight - p * c <= (slots - c) * (p - 1)]


def multisum_power(k: int, n: int, top: int | None = None) -> list[UniPoly]:
    """[S^{(n)}_{k,0}(y), ..., S^{(n)}_{k,top}(y)] at once, top = nk when
    not given: they are the x-coefficients p_t of
    (sum_{j=0}^{k} a_j x^j)^n, a_j = C(k,j) A_j(y), by J.C.P. Miller's
    recurrence in the base ring (polycore.power_rows).  Since
    a_0 = A_0 = 1, p_0 = 1 and

        t p_t = sum_{i=1}^{min(k,t)} ((n+1) i - t) a_i p_{t-i},

    one sum of products and one division by t per row; rows through top
    read only the a_j with j <= top.  The a_j must lie in Z[y] (ValueError
    otherwise), so every p_t does as well, and that is checked: a row
    outside Z[y] raises ArithmeticError."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    top = n * k if top is None else top
    base = [binomial(k, j) * eulerian_poly(j) for j in range(min(k, top) + 1)]
    for a_j in base:
        a_j.integer_coeffs()  # ValueError unless a_j is in Z[y]
    power = power_rows(base, n, top)
    for t, p_t in enumerate(power):
        if p_t.den != 1:
            raise ArithmeticError(f"row {t} of the power is not in Z[y]")
    return power


def _multisum_power_per_run(k: int, n: int) -> list[UniPoly]:
    # multisum_power(k, n), built once per (k, n) inside a sweep
    return _once_per_run(("multisum_power", k, n),
                         lambda: multisum_power(k, n))


def multisum_poly_power(k: int, nu: int, n: int) -> UniPoly:
    """S^{(n)}_{k,nu}(y) read as row nu of multisum_power(k, n), the zero
    polynomial for nu > nk.  Inside a `per_run_memo` block the whole power
    is built once per (k, n), for the eulerian route to share; outside one
    only its rows through min(nu, nk)."""
    if nu < 0:
        raise ValueError("need nu >= 0")
    if _run_memo.get() is None:
        power = multisum_power(k, n, min(nu, n * k))
    else:
        power = _multisum_power_per_run(k, n)
    return power[nu] if nu < len(power) else UniPoly((), "y")


def lemma5_coeffs(k: int, nu: int, n: int) -> tuple[int, int, int]:
    """Closed forms for the y^1, y^2, and leading coefficients of
    S^{(n)}_{k,nu}(y), for nu >= 1 (the y^2 value is meaningful for nu >= 2):

    c1 = n C(k,nu);  c2 = C(n,2)[C(2k,nu) - 2C(k,nu)] + n(2^nu - nu - 1)C(k,nu);
    c_nu = C(nk, nu).
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    c1 = n * binomial(k, nu)
    c2 = (binomial(n, 2) * (binomial(2 * k, nu) - 2 * binomial(k, nu))
          + n * (2 ** nu - nu - 1) * binomial(k, nu))
    c_lead = binomial(n * k, nu)
    return c1, c2, c_lead


def _d_row(row: UniPoly, e: int, size: int) -> list[int]:
    """The coefficients of (1-y)^e * row for a row in Z[y], as ints cut or
    padded to size: one product of the row's numerators with the binomial
    row (-1)^i C(e, i) of (1-y)^e, so no power of (1-y) is formed as a
    polynomial.  ValueError unless the row is in Z[y]."""
    ones = [1]  # (-1)^i C(e, i), each from the one before
    for i in range(e):
        ones.append(-ones[-1] * (e - i) // (i + 1))
    return (_mul_sum(((row.integer_coeffs(), ones, 1),)) + [0] * size)[:size]


def d_coeffs(n: int, k: int, nu: int) -> tuple[int, ...]:
    """Coefficients d_j of (1-y)^{nk-nu} * S^{(n)}_{k,nu}(y), j = 0..nk, as
    an int tuple: _d_row of row nu.  The row is multisum_poly_power's, so
    outside a `per_run_memo` block the multisum power is built through row
    nu only, and the cost follows nu: row 0 is the binomial row of
    (1-y)^{nk} alone."""
    if not 0 <= nu <= n * k:
        raise ValueError("need 0 <= nu <= n*k")
    return tuple(_d_row(multisum_poly_power(k, nu, n), n * k - nu,
                        n * k + 1))


# ---------------------------------------------------------------------------
# coefficients of (A_k(y)/y)^n and the inner power sums u
# ---------------------------------------------------------------------------

def a_coeff_list(k: int, n: int) -> tuple[int, ...]:
    """Coefficients of (A_k(y)/y)^n, index j = 0..n(k-1)."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    a_k = eulerian_poly(k)
    shifted = UniPoly._build(list(a_k.nums[1:]), a_k.den, "y")
    size = n * (k - 1) + 1
    return ((shifted ** n).integer_coeffs() + (0,) * size)[:size]


def a_jkn(k: int, n: int, j: int) -> int:
    """[y^j] (A_k(y)/y)^n, by the polynomial power."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if j < 0 or j > n * (k - 1):
        return 0
    return a_coeff_list(k, n)[j]


def a_jkn_multinomial(k: int, n: int, j: int) -> int:
    """Same coefficient by the multinomial theorem on
    A_k(y)/y = sum_{t=0}^{k-1} A(k,t+1) y^t:

    sum C(n; m_0..m_{k-1}) A(k,1)^{m_0} ... A(k,k)^{m_{k-1}},
    over m_0 + .. + m_{k-1} = n with m_1 + 2 m_2 + .. + (k-1) m_{k-1} = j.
    """
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if j < 0 or j > n * (k - 1):
        return 0
    return sum(multinomial([m_t for _, m_t in pairs]) * math.prod(
        eulerian_number(k, t + 1) ** m_t for t, m_t in pairs)
        for pairs in _multiplicity_vectors(k - 1, n, j))


def u_nu(k: int, n: int, nu: int) -> int:
    """sum over compositions (j_1..j_n), all parts >= 1, of nu+n,
    of (j_1 * ... * j_n)^k: with i = j - 1, the sum over the weak
    compositions of nu into n parts of prod (i+1)^k, which _point_sums adds
    one product per multiset of parts, on one-point factors."""
    if k < 1 or n < 1 or nu < 0:
        raise ValueError("need k >= 1, n >= 1, nu >= 0")
    factors = {i: [(i + 1) ** k] for i in range(nu + 1)}
    _, (total,) = _point_sums(factors, dict.fromkeys(factors, 1))(nu, n, nu)
    return total


def u_from_a_series(k: int, n: int, nu: int) -> int:
    """[y^nu] of (A_k(y)/y)^n / (1-y)^{(k+1)n}, via the binomial expansion
    of the geometric factor; equals u_nu when the power-sum identity holds."""
    a = a_coeff_list(k, n)
    e = (k + 1) * n
    top = min(nu, len(a) - 1)
    return sum(a[j] * binomial(nu - j + e - 1, e - 1) for j in range(top + 1))


def a_jkn_from_u(k: int, n: int, j: int) -> int:
    """a_j as the alternating binomial transform of the u values:
    sum_{nu=0}^{j} (-1)^{j-nu} C((k+1)n, j-nu) u_nu."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if j < 0 or j > n * (k - 1):
        return 0
    return _a_row_from_u(k, n, j)[j]


def _a_row_from_u(k: int, n: int, top: int) -> list[int]:
    # a_0..a_top from u_0..u_top, each u value computed once
    e = (k + 1) * n
    u = [u_nu(k, n, nu) for nu in range(top + 1)]
    return [sum((-1) ** (j - nu) * binomial(e, j - nu) * u[nu]
                for nu in range(j + 1)) for j in range(top + 1)]


# ---------------------------------------------------------------------------
# coefficient of z in S[n,k](z)
# ---------------------------------------------------------------------------

def coeff_z_thm8(n: int, k: int) -> Fraction:
    """The z-coefficient of S[n,k](z) by the alternating-sum formula:

    ((-1)^{k(n+1)-1} (n+1) / (k! ((k+1)(n+1)-1)!))
        * sum_j (-1)^j a_j^{(k,n+1)} (n+j)! (k(n+1)-1-j)!

    evaluated for any parity of (n, k); it is 0 when n and k are both even
    (S is then divisible by z^2).  The sum is _z_coefficient's, over the
    row a_coeff_list(k, n+1).
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return _z_coefficient(a_coeff_list(k, n + 1), n, k)


def _z_coefficient(row: list[int], n: int, k: int) -> Fraction:
    """Theorem 8's z-coefficient from row, the coefficients of
    (A_k(y)/y)^{n+1}, j = 0..top with top = (n+1)(k-1).

    The signed factorial product (-1)^j (n+j)! (k(n+1)-1-j)! of term j is
    carried from the term before by one multiply and one exact division.
    The row is palindromic and the factorial product is symmetric under
    j -> top-j, so terms j and top-j differ by (-1)^top: the sum is
    (1 + (-1)^top) times the terms j < top/2, plus the middle term when top
    is even.  At odd top, that is n and k both even, the sum is 0."""
    top = (n + 1) * (k - 1)
    last = k * (n + 1) - 1
    u = factorial(n) * factorial(last)
    acc = 0
    for j in range((top + 1) // 2):
        acc += row[j] * u
        # (last-j) divides (last-j)!, so the division is exact
        u = -u * (n + j + 1) // (last - j)
    acc *= 1 + (-1) ** top
    if top % 2 == 0:
        acc += row[top // 2] * u
    return Fraction((-1) ** last * (n + 1) * acc,
                    factorial(k) * factorial(last + n + 1))


def coeff_z_closed(n: int, k: int) -> Fraction:
    """Closed forms for the z-coefficient:

    k = 1:          (-1)^n / C(2n+1, n)           (all n >= 1)
    k = 2, n odd:   -(n+1)!^2 ((3n+1)/2)! / (2 (3n+2)! ((n+1)/2)!)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if k == 1:
        return Fraction((-1) ** n, binomial(2 * n + 1, n))
    if k == 2:
        if n % 2 == 0:
            raise ValueError(
                "the coefficient is 0 for even n (z^2 divides); the closed "
                "form applies to odd n only")
        half = (n + 1) // 2
        return -Fraction(factorial(n + 1) ** 2 * factorial(n + half),
                         2 * factorial(3 * n + 2) * factorial(half))
    raise ValueError("closed forms exist for k in {1, 2} only")


# ---------------------------------------------------------------------------
# the integer sequences attached to k = 2 and k = 3
# ---------------------------------------------------------------------------

def _a_ratio(n: int) -> tuple[int, int]:
    # a_{n+2} / a_n as (numerator, denominator)
    return 12 * (3 * n + 2) * (3 * n + 4), (n + 2) * (n + 3)


def a_sequence(count: int) -> list[int]:
    """a_0..a_{count-1} from the two-step recurrence

    (n+2)(n+3) a_{n+2} = 12 (3n+2)(3n+4) a_n,   a_0 = 1, a_1 = 3,

    one small-by-big multiply and one exact division per term; a nonzero
    remainder raises ArithmeticError.

    Derivation from the defining cubic recurrence (see a_sequence_cubic):
    A(x) = sum a_n x^n satisfies A = 1 + 3x A^2 - 2x^2 A^3, so B = xA
    satisfies x = B(1-B)(1-2B), and u = 1-2B is the root near 1 of the
    trinomial u^3 - u + 4x = 0.  Each parity class of the coefficients of
    that root is hypergeometric in x^2 (Glasser, "Hypergeometric functions
    and the trinomial equation", 2000): W = u^{-2} solves W = 1 + 4x W^{3/2},
    whence a_n = 2^{2n+1}/(3n+2) C((3n+2)/2, n+1), a Gamma ratio for odd n
    whose step n -> n+2 is the rational ratio above.  The even class is
    exactly a_closed_even.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    a = [1, 3][:count]
    for n in range(count - 2):
        num, den = _a_ratio(n)
        q, r = divmod(num * a[n], den)
        if r:
            raise ArithmeticError(
                f"a_{n + 2} = {num * a[n]}/{den} is not an integer")
        a.append(q)
    return a


def a_sequence_cubic(count: int) -> list[int]:
    """a_0..a_{count-1} from the defining cubic-equation recurrence

    a_n = [n=0] + 3 sum_{i+j=n-1} a_i a_j - 2 sum_{i+j+l=n-2} a_i a_j a_l.

    The running square sq[m] = sum_{i+j=m} a_i a_j is carried along, so the
    cubic sum is sum_l a_l sq[n-2-l] and each term costs O(n).  This is the
    definitional oracle that verify_cor10 holds a_sequence to.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    a: list[int] = []
    sq: list[int] = []
    for n in range(count):
        v = 1 if n == 0 else 3 * sq[n - 1]
        v -= 2 * sum(a[l] * sq[n - 2 - l] for l in range(n - 1))
        a.append(v)
        sq.append(sum(a[i] * a[n - i] for i in range(n + 1)))
    return a


def a_closed_even(n: int) -> int:
    """Closed form for even index: a_n = 2^{2n}/(n+1) * C(3n/2, n)."""
    if n % 2:
        raise ValueError("closed form applies to even n")
    v = Fraction(2 ** (2 * n), n + 1) * binomial(3 * n // 2, n)
    if v.denominator != 1:
        raise ValueError(f"closed form gave non-integer a_{n} = {v}")
    return v.numerator


def c_sequence(count: int) -> list[Fraction]:
    """c_0..c_{count-1} with 1/c_n = 2(3n+2) a_n."""
    return [Fraction(1, 2 * (3 * n + 2) * a_n)
            for n, a_n in enumerate(a_sequence(count))]


def c3_sequence(count: int) -> list[Fraction]:
    """z-coefficients of S[n,3](z) for n = 1..count, by Theorem 8's sum
    (_z_coefficient), where the (A_3(y)/y)^{n+1} = (1+4y+y^2)^{n+1}
    coefficients are carried from one n to the next by one multiplication
    by 1+4y+y^2."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    row = [1, 4, 1]
    for n in range(1, count + 1):
        nxt = row + [0, 0]
        for j, c in enumerate(row):
            nxt[j + 1] += 4 * c
            nxt[j + 2] += c
        row = nxt
        out.append(_z_coefficient(row, n, 3))
    return out


def c3_recurrence_residual(values: list[Fraction], n: int) -> Fraction:
    """Residual of 12(4n+5)(4n+11) c_{n+2} - 8(n+3)(2n+3) c_{n+1}
    - (n+2)(n+3) c_n for the 1-based triple starting at n."""
    c_n = values[n - 1]
    c_n1 = values[n]
    c_n2 = values[n + 1]
    return (12 * (4 * n + 5) * (4 * n + 11) * c_n2
            - 8 * (n + 3) * (2 * n + 3) * c_n1
            - (n + 2) * (n + 3) * c_n)


def _c3_recurrence_holds(values: list[Fraction]) -> bool:
    if len(values) < 3:
        raise ValueError("need count >= 3: the c3 recurrence check "
                         "reads triples of terms")
    return all(c3_recurrence_residual(values, n) == 0
               for n in range(1, len(values) - 1))


#: sequence name -> (the function of this module that tabulates it, the
#: index of its first term, {check name: test of a prefix}), in the order
#: the CLI lists them; the checks in the order it prints them.  The function
#: is looked up on this module by name when a command runs, so a wrapper
#: bound to the module attribute (a tracer) is the one called.
SEQUENCES = {
    "c": ("c_sequence", 0, {
        "unit_fractions": lambda c: all(v.numerator == 1 for v in c),
        "even_denominators": lambda c: all(v.denominator % 2 == 0 for v in c),
        "denominator_divisible_by_2(3n+2)": lambda c: all(
            v.denominator % (2 * (3 * n + 2)) == 0 for n, v in enumerate(c))}),
    "a": ("a_sequence", 0, {"positive_integers": lambda a: all(
        isinstance(v, int) and v > 0 for v in a)}),
    "c3": ("c3_sequence", 1,
           {"recurrence_residual_zero": _c3_recurrence_holds}),
}


def seq_checks(name: str, values: list) -> dict[str, bool]:
    """Consistency flags, as the CLI prints them, of a prefix `values` of
    sequence `name`: one per check of its SEQUENCES row (KeyError for a
    name the table lacks).  A c3 prefix of fewer than 3 terms holds no
    triple to check: ValueError."""
    return {check: test(values) for check, test in SEQUENCES[name][2].items()}


# ---------------------------------------------------------------------------
# quotient polynomials p_n(z)
# ---------------------------------------------------------------------------

def p_poly(n: int) -> UniPoly:
    """p_n(z): S[n,1](z) divided by z(z-1) B_n^{(n+1)}((n+1)z), normalized to
    constant coefficient 1.  Raises if the division leaves a remainder or if
    the pre-normalization constant coefficient is zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = s_poly(n, 1, "series")
    divisor = (UniPoly([0, 1], "z") * UniPoly([-1, 1], "z")
               * higher_bernoulli_poly(n, n + 1).compose_affine(n + 1, 0))
    q, r = s.div_rem(divisor)
    if r:
        raise ValueError(f"nonzero remainder {r!r} dividing S[{n},1]")
    c0 = q.coefficient(0)
    if c0 == 0:
        raise ValueError(
            f"quotient for n={n} has zero constant coefficient; "
            "not normalized")
    return q * (Fraction(1) / c0)


# ---------------------------------------------------------------------------
# verification: each verify_* function checks one statement at one parameter
# tuple and returns None when it holds, else a witness string saying what
# failed; run_suite turns the results into VerificationReport records
# ---------------------------------------------------------------------------

class VerificationReport(namedtuple("VerificationReport",
                                    "statement params passed witness")):
    """Pass/fail record for one (statement, parameter tuple): `params` holds
    (name, value) pairs, and the witness string is present exactly on
    failure."""
    __slots__ = ()

    def __new__(cls, statement: str, params: tuple[tuple[str, int], ...],
                passed: bool, witness: str | None = None):
        if passed == (witness is not None):
            raise ValueError("witness must be present exactly on failure")
        return super().__new__(cls, statement, params, passed, witness)


def theorem1_divisor(n: int) -> UniPoly:
    """z * prod_{j=1}^{n+1} ((n+1)z - j)."""
    return UniPoly([0, 1], "z") * falling_product(n + 1, 0, n + 1)


def verify_thm1(n: int, k: int, route: str = "series") -> str | None:
    """Symmetry S(1-z) = (-1)^{(k+1)(n+1)-1} S(z) and divisibility by
    z prod_{j=1}^{n+1}((n+1)z - j)."""
    s = s_poly(n, k, route)
    sign = (-1) ** ((k + 1) * (n + 1) - 1)
    reflected = s.compose_affine(-1, 1)
    if reflected != sign * s:
        return (f"symmetry fails: S(1-z) - ({sign})*S(z) = "
                f"{reflected - sign * s!r}")
    _, r = s.div_rem(theorem1_divisor(n))
    if r:
        return f"division remainder {r!r}"
    return None


def verify_corollary(n: int, k: int, route: str = "series") -> str | None:
    """S(0) = S(1) = 0; additionally S(1/2) = 0 when n or k is odd."""
    s = s_poly(n, k, route)
    points = [Fraction(0), Fraction(1)]
    if n % 2 or k % 2:
        points.append(Fraction(1, 2))
    for pt in points:
        val = s(pt)
        if val != 0:
            return f"S({pt}) = {val} != 0"
    return None


def verify_thm6(n: int, k: int, route: str = "series") -> str | None:
    """z^2 (z-1)^2 divides S[n,k](z) for even n and even k."""
    if n % 2 or k % 2:
        raise ValueError("both n and k must be even")
    s = s_poly(n, k, route)
    divisor = (UniPoly([0, 1], "z") * UniPoly([-1, 1], "z")) ** 2
    _, r = s.div_rem(divisor)
    if r:
        return f"remainder {r!r}"
    return None


def verify_routes(n: int, k: int) -> str | None:
    """Exact agreement of every applicable route."""
    names = s_routes(k)
    polys = {name: s_poly(n, k, name) for name in names}
    base = polys[names[0]]
    for name in names[1:]:
        if polys[name] != base:
            return (f"{names[0]} vs {name}: difference "
                    f"{polys[name] - base!r}")
    return None


def verify_lemma4(k: int, order: int) -> str | None:
    """The Eulerian construction of F_k equals the direct one.  The
    Eulerian side cuts the process-wide x/(e^x-1) that
    verify_bernoulli_cache reads as well; that series is built by
    inversion, never from Bernoulli data."""
    direct = build_F_direct(k, order)
    eulerian = build_F_eulerian(k, order)
    for m, (d, e) in enumerate(zip(direct, eulerian)):
        if d != e:
            return f"coefficient of x^{m} differs: {e - d!r}"
    return None


#: verify_lemma5 compares the composition enumeration as well wherever the
#: point has at most this many weak compositions with parts <= k; the
#: default grid (n <= 4, k <= 3) peaks at 44 and n <= 5, k <= 4 at 381
LEMMA5_ENUMERATION_BUDGET = 500


def _composition_count(k: int, nu: int, n: int) -> int:
    """Number of weak compositions of nu into n parts, each at most k
    (inclusion-exclusion over the parts forced above k)."""
    return sum((-1) ** i * binomial(n, i)
               * binomial(nu - i * (k + 1) + n - 1, n - 1)
               for i in range(n + 1) if nu - i * (k + 1) >= 0)


def verify_lemma5(k: int, nu: int, n: int) -> str | None:
    """Closed coefficient values of the multisum polynomial, plus agreement
    of its independent computations.

    The closed values are read from multisum_poly_power, whose power is
    built once per (k, n) inside a sweep, and that polynomial must equal the
    multinomial computation.  Where the point has at most
    LEMMA5_ENUMERATION_BUDGET compositions (the whole default grid) the
    composition enumeration must equal them too, so three computations are
    compared; above the budget the enumeration is skipped and two are
    compared.  The enumeration is one walk at this nu, inside a sweep or
    out.
    """
    q = multisum_poly_multinomial(k, nu, n)
    if _composition_count(k, nu, n) <= LEMMA5_ENUMERATION_BUDGET:
        e = multisum_poly(k, nu, n)
        if e != q:
            return f"enumeration vs multinomial differ: {e - q!r}"
    p = multisum_poly_power(k, nu, n)
    if p != q:
        return f"power vs multinomial differ: {p - q!r}"
    c1, c2, c_lead = lemma5_coeffs(k, nu, n)
    if p.coefficient(0) != 0:
        return f"nonzero constant term {p.coefficient(0)}"
    if p.coefficient(1) != c1:
        return f"y coefficient {p.coefficient(1)} != {c1}"
    if nu >= 2 and p.coefficient(2) != c2:
        return f"y^2 coefficient {p.coefficient(2)} != {c2}"
    if p.coefficient(nu) != c_lead:
        return f"leading coefficient {p.coefficient(nu)} != {c_lead}"
    return None


def verify_lemma7(k: int, n: int) -> str | None:
    """Top multisum polynomial equals A_k(y)^n and is divisible by y^n.

    The top polynomial is enumerated at nu = nk alone: its one composition
    (k, .., k) costs n-1 products."""
    top = multisum_poly(k, n * k, n)
    power = eulerian_poly(k) ** n
    if top != power:
        return f"difference {top - power!r}"
    _, r = top.div_rem(UniPoly.monomial(1, n, "y"))
    if r:
        return f"y^{n} does not divide: remainder {r!r}"
    return None


def verify_thm8(n: int, k: int) -> str | None:
    """The alternating-sum formula reproduces the z-coefficient of the
    defining sum (both are 0 when n and k are even)."""
    direct = s_poly(n, k, "direct").coefficient(1)
    formula = coeff_z_thm8(n, k)
    if formula != direct:
        return f"formula {formula} != direct {direct}"
    return None


def verify_cor9(n: int, k: int) -> str | None:
    """Closed-form z-coefficients agree with the alternating-sum formula."""
    closed = coeff_z_closed(n, k)
    formula = coeff_z_thm8(n, k)
    if closed != formula:
        return f"closed {closed} != formula {formula}"
    return None


def verify_cor10(n: int) -> str | None:
    """a_n is a positive integer; 1/c_n is even and divisible by 2(3n+2);
    for even n the binomial closed form reproduces a_n.

    a_n is read from the two-step recurrence and from the cubic one, which
    must agree; the closed form is compared with the cubic value, so no
    check rests on the two-step ratio alone."""
    a = a_sequence(n + 1)[n]
    cubic = a_sequence_cubic(n + 1)[n]
    if a != cubic:
        return f"two-step recurrence a_{n} = {a} != cubic recurrence {cubic}"
    if not (isinstance(a, int) and a > 0):
        return f"a_{n} = {a} not a positive integer"
    c = c_sequence(n + 1)[n]
    if c.numerator != 1:
        return f"c_{n} = {c} not a unit fraction"
    if c.denominator % 2 or c.denominator % (2 * (3 * n + 2)):
        return f"1/c_{n} = {c.denominator} fails divisibility"
    if n % 2 == 0 and cubic != a_closed_even(n):
        return (f"cubic recurrence a_{n} = {cubic} != closed form "
                f"{a_closed_even(n)}")
    return None


def verify_polylog(k: int, order: int = 20) -> str | None:
    """A_k(y)/(1-y)^{k+1} = sum_m m^k y^m through y^order (eq. 2.8).

    With A_k = sum_m a_m y^m over its common denominator d, the expansion
    sum_m e_m y^m satisfies (1-y)^{k+1} sum_m e_m y^m = A_k(y), so

        d e_m = d a_m - sum_{j=1}^{k+1} (-1)^j C(k+1,j) d e_{m-j},

    stepped on integers and compared with d m^k; the witness names the
    first m where they differ."""
    if k < 1 or order < 1:
        raise ValueError("need k >= 1 and order >= 1")
    a_k = eulerian_poly(k)
    nums, den = a_k.nums, a_k.den
    weights = [(-1) ** j * binomial(k + 1, j) for j in range(1, k + 2)]
    e: list[int] = []
    for m in range(order + 1):
        e_m = nums[m] if m < len(nums) else 0
        e_m -= sum(w * e[m - j] for j, w in enumerate(weights[:m], 1))
        if e_m != m ** k * den:
            return (f"coefficient of y^{m}: d*e_{m} = {e_m} != "
                    f"d*{m}^{k} = {den * m ** k} (d = {den})")
        e.append(e_m)
    return None


def verify_bernoulli_cache(m: int) -> str | None:
    """The cached B_m(z) equals m! [x^m] (x/(e^x-1)) e^{zx}.

    The cache is built by the number recurrence, the comparison value by
    series inversion that never reads the cache, so a corrupted cache entry
    cannot hide.  B_m(z) is read off the first m+1 coefficients of the
    process-wide x/(e^x-1) that lemma 4 cuts too (series._exp_zx_read_off),
    with no e^{zx} series formed.  The cache is read off the specialfns
    module when the check runs.
    """
    cached = bernoulli_poly(m)
    independent = _exp_zx_read_off(*_x_over_expm1_nums(1, m))
    if cached != independent:
        return f"cached {cached!r} != series value {independent!r}"
    return None


def degree_check(n: int, k: int, route: str = "series") -> str | None:
    """For even k, deg S[n,k] = (k+1)(n+1) - 1."""
    if k % 2:
        raise ValueError("the degree statement is asserted for even k only")
    s = s_poly(n, k, route)
    expected = (k + 1) * (n + 1) - 1
    if s.degree != expected:
        return f"degree {s.degree} != {expected}"
    return None


# ---------------------------------------------------------------------------
# verification sweeps (used by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def _bernoulli_top(k_max: int) -> int:
    # B_0..B_top get a report line each, so the line count depends on k_max
    return 6 * (k_max + 1)


def _n_by_k(n_max: int, k_max: int):
    return product(range(1, n_max + 1), range(1, k_max + 1))


#: statement -> (verifier name, parameter names, parameter grid as a function
#: of (n_max, k_max)), in the order "all" runs them.  This table is the one
#: place that names a check and labels its parameters: the grid's tuples are
#: the verifier's positional arguments, and a report pairs them with the
#: names.  The verifier is looked up on this module by name when a check
#: runs, so a wrapper bound to the module attribute (a tracer, a test's
#: monkeypatch) is the one called.
SUITE_TABLE = {
    "routes": ("verify_routes", ("n", "k"), _n_by_k),
    "thm1": ("verify_thm1", ("n", "k"), _n_by_k),
    "thm6": ("verify_thm6", ("n", "k"),
             lambda n_max, k_max: product(range(2, n_max + 1, 2),
                                          range(2, k_max + 1, 2))),
    "corollary": ("verify_corollary", ("n", "k"), _n_by_k),
    "lemma4": ("verify_lemma4", ("k", "N"),
               lambda n_max, k_max: ((k, 6 * (k + 1))
                                     for k in range(1, k_max + 1))),
    "lemma5": ("verify_lemma5", ("k", "nu", "n"),
               lambda n_max, k_max: ((k, nu, n) for k in range(1, k_max + 1)
                                     for n in range(1, n_max + 1)
                                     for nu in range(1, n * k + 1))),
    "lemma7": ("verify_lemma7", ("k", "n"),
               lambda n_max, k_max: product(range(1, k_max + 1),
                                            range(1, n_max + 1))),
    "thm8": ("verify_thm8", ("n", "k"), _n_by_k),
    # k = 1 at every n, k = 2 at odd n, each only within k_max
    "cor9": ("verify_cor9", ("n", "k"),
             lambda n_max, k_max: ((n, k) for k in (1, 2)[:k_max]
                                   for n in range(1, n_max + 1, k))),
    "cor10": ("verify_cor10", ("n",),
              lambda n_max, k_max: ((n,) for n in range(n_max + 1))),
    "eq2.8": ("verify_polylog", ("k", "N"),
              lambda n_max, k_max: ((k, 20) for k in range(1, k_max + 1))),
    # the named suites only consume B_m for m >= 2; this row makes a fault
    # anywhere in the reported range of the cache fail "all"
    "bernoulli-cache": ("verify_bernoulli_cache", ("m",),
                        lambda n_max, k_max: (
                            (m,) for m in range(_bernoulli_top(k_max) + 1))),
}

#: the suites a caller can name; "bernoulli-cache" runs under "all" only
SUITES = tuple(SUITE_TABLE)[:-1]


def _run_check(statement: str, params: tuple) -> VerificationReport:
    # one statement at one ((name, value), ...) tuple; a check that raises
    # becomes a FAIL report whose witness names the exception
    verify = globals()[SUITE_TABLE[statement][0]]
    try:
        witness = verify(*(value for _, value in params))
    except Exception as exc:
        witness = f"{type(exc).__name__}: {exc}"
    return VerificationReport(statement, params, witness is None, witness)


def run_suite(suite: str, n_max: int, k_max: int) -> list[VerificationReport]:
    """One report per check of a named suite, or of every SUITE_TABLE row
    for "all", in table order.  A check that raises is a FAIL and the sweep
    goes on.  After every check of "all", each Bernoulli cache entry
    published above the reported range is verified as well and reported
    only when it fails, so the output does not depend on what the process
    computed before, yet a fault anywhere in the cache fails the run.
    """
    if suite == "all":
        statements = list(SUITE_TABLE)
    elif suite in SUITES:
        statements = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    with per_run_memo():
        reports = []
        for statement in statements:
            _, names, grid = SUITE_TABLE[statement]
            reports += [_run_check(statement, tuple(zip(names, values)))
                        for values in grid(n_max, k_max)]
        if suite == "all":
            published = len(specialfns.bernoulli_cache.polys)
            above = [_run_check("bernoulli-cache", (("m", m),))
                     for m in range(_bernoulli_top(k_max) + 1, published)]
            reports += [r for r in above if not r.passed]
    return reports
