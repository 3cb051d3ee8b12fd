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

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Union

from .polycore import (UniPoly, binomial, factorial, falling_product,
                       multinomial)
from .specialfns import bernoulli_poly, eulerian_poly, higher_bernoulli_poly
from .series import build_F_direct


# ---------------------------------------------------------------------------
# the three routes to S[n,k](z)
# ---------------------------------------------------------------------------

def _sum_over_compositions(total, parts, factor, prefix):
    # sum over weak compositions (j_1..j_parts) of `total` of prod factor(j_i),
    # carrying the partial product so prefixes are shared
    if parts == 1:
        return prefix * factor(total)
    acc = None
    for j in range(total + 1):
        f = factor(j)
        if not f:
            continue
        term = _sum_over_compositions(total - j, parts - 1, factor, prefix * f)
        acc = term if acc is None else acc + term
    return acc if acc is not None else prefix * 0


def s_direct(n: int, k: int) -> UniPoly:
    """S[n,k](z) by brute-force enumeration of the defining double sum.

    Deliberately naive; this is the reference oracle for the other routes.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    cache: dict[int, UniPoly] = {}

    def factor(j: int) -> UniPoly:
        if j not in cache:
            cache[j] = bernoulli_poly(k + 1 + j) * Fraction(
                1, factorial(j) * (k + 1 + j))
        return cache[j]

    total = UniPoly((), "z")
    one = UniPoly.constant(1, "z")
    for m in range(1, n + 1):
        t = (k + 1) * (n - m) + k
        weight = binomial(n + 1, m) * factorial(k) ** (n - m) * (-1) ** (k * m)
        total = total + weight * _sum_over_compositions(t, m, factor, one)
    return total


def s_series(n: int, k: int) -> UniPoly:
    """S[n,k](z) = k!^n * [x^{(k+1)(n+1)-1}] F_k(x,z)^{n+1}."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    order = (k + 1) * (n + 1)
    power = build_F_direct(k, order) ** (n + 1)
    return factorial(k) ** n * power.coefficient(order - 1)


def s_eulerian(n: int, k: int) -> UniPoly:
    """S[n,k](z) through the d-coefficient / falling-product expansion:

    (1/(k! M!)) sum_{nu=0}^{mk} z^nu sum_{j=0}^{mk} d_j^{(mk-nu)}
                prod_{r=1}^{M} (m z + j - r),
    with m = n+1 and M = m(k+1) - 1.  Every d-row is read from one
    multisum_power(k, m).
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    m = n + 1
    length = m * (k + 1) - 1
    power = multisum_power(k, m)
    products = [falling_product(m, j, length) for j in range(m * k + 1)]
    total = UniPoly((), "z")
    for nu in range(m * k + 1):
        d = _d_row(power, m * k - nu)
        inner = UniPoly((), "z")
        for j, dj in enumerate(d):
            if dj:
                inner = inner + dj * products[j]
        total = total + UniPoly.monomial(1, nu, "z") * inner
    return total * Fraction(1, factorial(k) * factorial(length))


ROUTES: dict[str, Callable[[int, int], UniPoly]] = {
    "direct": s_direct,
    "series": s_series,
    "eulerian": s_eulerian,
}


def s_poly(n: int, k: int, route: str = "direct") -> UniPoly:
    """Dispatch to one of the three routes ("direct", "series", "eulerian")."""
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}")
    return ROUTES[route](n, k)


@dataclass(frozen=True)
class SnkResult:
    """One computed S[n,k](z) tagged with the route that produced it."""
    n: int
    k: int
    route: str
    poly: UniPoly


def s_all_routes(n: int, k: int) -> list[SnkResult]:
    """Compute S[n,k] by every applicable route (eulerian needs k >= 1)."""
    names = ["direct", "series"] + (["eulerian"] if k >= 1 else [])
    return [SnkResult(n, k, name, s_poly(n, k, name)) for name in names]


# ---------------------------------------------------------------------------
# multisum polynomials and d-coefficients
# ---------------------------------------------------------------------------

def multisum_poly(k: int, nu: int, n: int) -> UniPoly:
    """S^{(n)}_{k,nu}(y) = sum over weak compositions (j_1..j_n) of nu of
    prod_i C(k, j_i) A_{j_i}(y), by direct enumeration."""
    if k < 1 or n < 1 or nu < 0:
        raise ValueError("need k >= 1, n >= 1, nu >= 0")
    if nu > n * k:
        return UniPoly((), "y")

    def factor(j: int) -> UniPoly:
        if j > k:
            return UniPoly((), "y")
        return binomial(k, j) * eulerian_poly(j)

    return _sum_over_compositions(nu, n, factor, UniPoly.constant(1, "y"))


def multisum_poly_multinomial(k: int, nu: int, n: int) -> UniPoly:
    """Same polynomial via the multinomial theorem: group compositions by
    the multiplicity vector (m_0..m_k) of their parts."""
    if k < 1 or n < 1 or nu < 0:
        raise ValueError("need k >= 1, n >= 1, nu >= 0")
    acc = UniPoly((), "y")
    for counts in _multiplicity_vectors(k, n, nu):
        term = UniPoly.constant(multinomial(counts), "y")
        for t, m_t in enumerate(counts):
            if m_t:
                term = term * (binomial(k, t) ** m_t) * eulerian_poly(t) ** m_t
        acc = acc + term
    return acc


def _multiplicity_vectors(k, n, nu):
    # vectors (m_0..m_k) with sum m_t = n and sum t*m_t = nu
    def rec(t, slots, weight):
        if t == k:
            if k * slots == weight:
                yield (slots,)
            return
        hi = slots if t == 0 else min(slots, weight // t)
        for m_t in range(hi + 1):
            rest_weight = weight - t * m_t
            # remaining slots hold values in t+1..k
            if rest_weight > (slots - m_t) * k:
                continue
            for tail in rec(t + 1, slots - m_t, rest_weight):
                yield (m_t,) + tail

    yield from rec(0, n, nu)


def multisum_power(k: int, n: int) -> list[UniPoly]:
    """[S^{(n)}_{k,0}(y), ..., S^{(n)}_{k,nk}(y)] at once: they are the
    x-coefficients of (sum_{j=0}^{k} C(k,j) A_j(y) x^j)^n, built by n-fold
    multiplication of x-polynomials whose coefficients lie in Z[y]."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    base = [binomial(k, j) * eulerian_poly(j) for j in range(k + 1)]
    power = base
    for _ in range(n - 1):
        out = [UniPoly((), "y")] * (len(power) + k)
        for i, p in enumerate(power):
            for j, b in enumerate(base, i):
                out[j] = out[j] + p * b
        power = out
    return power


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


@dataclass(frozen=True)
class DCoeffTable:
    """Coefficients d_j of (1-y)^{nk-nu} * S^{(n)}_{k,nu}(y), j = 0..nk."""
    n: int
    k: int
    nu: int
    d: tuple[int, ...]


def _d_row(power: list[UniPoly], nu: int) -> tuple[int, ...]:
    # coefficients of (1-y)^{nk-nu} * power[nu], padded to length nk+1,
    # where power = multisum_power(k, n) has nk+1 entries
    size = len(power)
    poly = UniPoly([1, -1], "y") ** (size - 1 - nu) * power[nu]
    return (poly.integer_coeffs() + (0,) * size)[:size]


def d_coeffs(n: int, k: int, nu: int) -> DCoeffTable:
    if not 0 <= nu <= n * k:
        raise ValueError("need 0 <= nu <= n*k")
    return DCoeffTable(n, k, nu, _d_row(multisum_power(k, n), nu))


# ---------------------------------------------------------------------------
# coefficients of (A_k(y)/y)^n and the inner power sums u
# ---------------------------------------------------------------------------

def a_coeff_list(k: int, n: int) -> tuple[int, ...]:
    """Coefficients of (A_k(y)/y)^n, index j = 0..n(k-1)."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    shifted = UniPoly(eulerian_poly(k).coeffs[1:], "y")
    size = n * (k - 1) + 1
    return ((shifted ** n).integer_coeffs() + (0,) * size)[:size]


def a_jkn(k: int, n: int, j: int) -> int:
    """[y^j] (A_k(y)/y)^n, by the polynomial power."""
    if j < 0 or j > n * (k - 1):
        return 0
    return a_coeff_list(k, n)[j]


def a_jkn_multinomial(k: int, n: int, j: int) -> int:
    """Same coefficient by the constrained multinomial sum:

    sum_{r=0}^{n} C(n,r) sum C(r; j_2..j_k) A(k,2)^{j_2} ... A(k,k)^{j_k},
    inner sum over j_2+..+j_k = r with j_2 + 2 j_3 + .. + (k-1) j_k = j.
    """
    from .specialfns import eulerian_number
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    if j < 0 or j > n * (k - 1):
        return 0

    def inner(t, slots, weight):
        # choose j_t for t = 2..k; each contributes weight (t-1) per slot
        if t > k:
            return 1 if slots == 0 and weight == 0 else 0
        acc = 0
        for m_t in range(min(slots, weight // (t - 1)) + 1):
            rest = weight - (t - 1) * m_t
            if rest < 0 or rest > (slots - m_t) * (k - 1):
                continue
            sub = inner(t + 1, slots - m_t, rest)
            if sub:
                acc += (binomial(slots, m_t)
                        * eulerian_number(k, t) ** m_t * sub)
        return acc

    return sum(binomial(n, r) * inner(2, r, j) for r in range(n + 1))


def u_nu(k: int, n: int, nu: int) -> int:
    """sum over compositions (j_1..j_n), all parts >= 1, of nu+n,
    of (j_1 * ... * j_n)^k."""
    if k < 1 or n < 1 or nu < 0:
        raise ValueError("need k >= 1, n >= 1, nu >= 0")

    def rec(parts, remaining, prod):
        if parts == 1:
            return prod * remaining ** k
        return sum(rec(parts - 1, remaining - j, prod * j ** k)
                   for j in range(1, remaining - parts + 2))

    return rec(n, nu + n, 1)


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
    if j < 0 or j > n * (k - 1):
        return 0
    e = (k + 1) * n
    return sum((-1) ** (j - nu) * binomial(e, j - nu) * u_nu(k, n, nu)
               for nu in range(j + 1))


# ---------------------------------------------------------------------------
# coefficient of z in S[n,k](z)
# ---------------------------------------------------------------------------

def coeff_z_formula(n: int, k: int) -> Fraction:
    """The alternating-sum formula for the z-coefficient of S[n,k](z):

    ((-1)^{k(n+1)-1} (n+1) / (k! ((k+1)(n+1)-1)!))
        * sum_j (-1)^j a_j^{(k,n+1)} (n+j)! (k(n+1)-1-j)!

    evaluated for any parity of (n, k).
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    a = a_coeff_list(k, n + 1)
    acc = sum((-1) ** j * a[j] * factorial(n + j)
              * factorial(k * (n + 1) - 1 - j)
              for j in range(len(a)))
    sign = (-1) ** (k * (n + 1) - 1)
    return Fraction(sign * (n + 1) * acc,
                    factorial(k) * factorial((k + 1) * (n + 1) - 1))


def coeff_z_thm8(n: int, k: int) -> Fraction:
    """Coefficient of z in S[n,k](z).

    For n and k both even the coefficient is 0 (S is divisible by z^2); the
    raw formula is still evaluated as a cross-check and any nonzero value is
    reported loudly rather than dropped.
    """
    raw = coeff_z_formula(n, k)
    if n % 2 == 0 and k % 2 == 0:
        if raw != 0:
            warnings.warn(
                f"z-coefficient formula gave nonzero value {raw} for even "
                f"pair (n={n}, k={k}) where divisibility forces 0",
                RuntimeWarning, stacklevel=2)
        return Fraction(0)
    return raw


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

@dataclass(frozen=True)
class SeqTable:
    """A computed sequence prefix: values[i] is the term of index start+i."""
    name: str
    start: int
    values: tuple[Union[int, Fraction], ...]


def a_sequence(count: int) -> list[int]:
    """a_0..a_{count-1} from the cubic-equation recurrence

    a_n = [n=0] + 3 sum_{i+j=n-1} a_i a_j - 2 sum_{i+j+l=n-2} a_i a_j a_l.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    a: list[int] = []
    for n in range(count):
        v = 1 if n == 0 else 0
        v += 3 * sum(a[i] * a[n - 1 - i] for i in range(n))
        v -= 2 * sum(a[i] * a[j] * a[n - 2 - i - j]
                     for i in range(n - 1) for j in range(n - 1 - i))
        a.append(v)
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


def _a_j_k3(n1: int, j: int) -> int:
    # [y^j] (y^2 + 4y + 1)^{n1} via the binomial double sum
    return sum(binomial(n1, i) * binomial(n1 - i, j - 2 * i)
               * 4 ** (j - 2 * i)
               for i in range(j // 2 + 1))


def c3_sequence(count: int) -> list[Fraction]:
    """z-coefficients of S[n,3](z) for n = 1..count, via the alternating-sum
    formula with the binomial closed form for the (A_3(y)/y)-power
    coefficients."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    for n in range(1, count + 1):
        n1 = n + 1
        acc = sum((-1) ** j * _a_j_k3(n1, j) * factorial(n + j)
                  * factorial(3 * n1 - 1 - j)
                  for j in range(2 * n1 + 1))
        out.append(Fraction((-1) ** n * n1 * acc,
                            6 * factorial(4 * n1 - 1)))
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


def seq_a(count: int) -> SeqTable:
    return SeqTable("a", 0, tuple(a_sequence(count)))


def seq_c(count: int) -> SeqTable:
    return SeqTable("c", 0, tuple(c_sequence(count)))


def seq_c3(count: int) -> SeqTable:
    return SeqTable("c3", 1, tuple(c3_sequence(count)))


def seq_checks(table: SeqTable) -> dict[str, bool]:
    """Per-sequence consistency flags, as emitted by the CLI."""
    if table.name == "a":
        return {"positive_integers": all(
            isinstance(v, int) and v > 0 for v in table.values)}
    if table.name == "c":
        flags = {"unit_fractions": True, "even_denominators": True,
                 "denominator_divisible_by_2(3n+2)": True}
        for n, v in enumerate(table.values):
            if v.numerator != 1:
                flags["unit_fractions"] = False
            if v.denominator % 2:
                flags["even_denominators"] = False
            if v.denominator % (2 * (3 * n + 2)):
                flags["denominator_divisible_by_2(3n+2)"] = False
        return flags
    if table.name == "c3":
        values = list(table.values)
        ok = all(c3_recurrence_residual(values, n) == 0
                 for n in range(1, len(values) - 1))
        return {"recurrence_residual_zero": ok}
    raise ValueError(f"unknown sequence {table.name!r}")


# ---------------------------------------------------------------------------
# quotient polynomials p_n(z)
# ---------------------------------------------------------------------------

def p_poly(n: int, route: str = "series") -> UniPoly:
    """p_n(z): S[n,1](z) divided by z(z-1) B_n^{(n+1)}((n+1)z), normalized to
    constant coefficient 1.  Raises if the division leaves a remainder or if
    the pre-normalization constant coefficient is zero."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = s_poly(n, 1, route)
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
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record for one (statement, parameter tuple)."""
    statement: str
    params: tuple[tuple[str, int], ...]
    passed: bool
    witness: Optional[str] = None

    def __post_init__(self):
        if self.passed == (self.witness is not None):
            raise ValueError("witness must be present exactly on failure")

    def label(self) -> str:
        return " ".join(f"{k}={v}" for k, v in self.params)


def _report(statement, params, passed, witness=None):
    return VerificationReport(statement, tuple(params), passed,
                              witness if not passed else None)


def theorem1_divisor(n: int) -> UniPoly:
    """z * prod_{j=1}^{n+1} ((n+1)z - j)."""
    return UniPoly([0, 1], "z") * falling_product(n + 1, 0, n + 1)


def verify_thm1(n: int, k: int, route: str = "series") -> VerificationReport:
    """Symmetry S(1-z) = (-1)^{(k+1)(n+1)-1} S(z) and divisibility by
    z prod_{j=1}^{n+1}((n+1)z - j)."""
    params = [("n", n), ("k", k)]
    s = s_poly(n, k, route)
    sign = (-1) ** ((k + 1) * (n + 1) - 1)
    reflected = s.compose_affine(-1, 1)
    if reflected != sign * s:
        return _report("thm1", params, False,
                       f"symmetry fails: S(1-z) - ({sign})*S(z) = "
                       f"{reflected - sign * s!r}")
    _, r = s.div_rem(theorem1_divisor(n))
    if r:
        return _report("thm1", params, False,
                       f"division remainder {r!r}")
    return _report("thm1", params, True)


def verify_corollary(n: int, k: int,
                     route: str = "series") -> VerificationReport:
    """S(0) = S(1) = 0; additionally S(1/2) = 0 when n or k is odd."""
    params = [("n", n), ("k", k)]
    s = s_poly(n, k, route)
    points = [Fraction(0), Fraction(1)]
    if n % 2 or k % 2:
        points.append(Fraction(1, 2))
    bad = [(pt, s(pt)) for pt in points if s(pt) != 0]
    if bad:
        pt, val = bad[0]
        return _report("corollary", params, False, f"S({pt}) = {val} != 0")
    return _report("corollary", params, True)


def verify_thm6(n: int, k: int, route: str = "series") -> VerificationReport:
    """z^2 (z-1)^2 divides S[n,k](z) for even n and even k."""
    if n % 2 or k % 2:
        raise ValueError("both n and k must be even")
    params = [("n", n), ("k", k)]
    s = s_poly(n, k, route)
    divisor = (UniPoly([0, 1], "z") * UniPoly([-1, 1], "z")) ** 2
    _, r = s.div_rem(divisor)
    if r:
        return _report("thm6", params, False, f"remainder {r!r}")
    return _report("thm6", params, True)


def verify_routes(n: int, k: int) -> VerificationReport:
    """Exact agreement of every applicable route."""
    params = [("n", n), ("k", k)]
    polys = {"direct": s_direct(n, k), "series": s_series(n, k)}
    if k >= 1:
        polys["eulerian"] = s_eulerian(n, k)
    names = list(polys)
    base = polys[names[0]]
    for name in names[1:]:
        if polys[name] != base:
            return _report("routes", params, False,
                           f"{names[0]} vs {name}: difference "
                           f"{polys[name] - base!r}")
    return _report("routes", params, True)


def verify_lemma4(k: int, order: int) -> VerificationReport:
    """The Eulerian construction of F_k equals the direct one."""
    from .series import build_F_eulerian
    params = [("k", k), ("N", order)]
    direct = build_F_direct(k, order)
    eulerian = build_F_eulerian(k, order)
    for m in range(order + 1):
        if direct.coefficient(m) != eulerian.coefficient(m):
            return _report("lemma4", params, False,
                           f"coefficient of x^{m} differs: "
                           f"{eulerian.coefficient(m) - direct.coefficient(m)!r}")
    return _report("lemma4", params, True)


def verify_lemma5(k: int, nu: int, n: int) -> VerificationReport:
    """Closed coefficient values of the multisum polynomial, plus agreement
    of its two computations."""
    params = [("k", k), ("nu", nu), ("n", n)]
    p = multisum_poly(k, nu, n)
    q = multisum_poly_multinomial(k, nu, n)
    if p != q:
        return _report("lemma5", params, False,
                       f"enumeration vs multinomial differ: {p - q!r}")
    c1, c2, c_lead = lemma5_coeffs(k, nu, n)
    if p.coefficient(0) != 0:
        return _report("lemma5", params, False,
                       f"nonzero constant term {p.coefficient(0)}")
    if p.coefficient(1) != c1:
        return _report("lemma5", params, False,
                       f"y coefficient {p.coefficient(1)} != {c1}")
    if nu >= 2 and p.coefficient(2) != c2:
        return _report("lemma5", params, False,
                       f"y^2 coefficient {p.coefficient(2)} != {c2}")
    if p.coefficient(nu) != c_lead:
        return _report("lemma5", params, False,
                       f"leading coefficient {p.coefficient(nu)} != {c_lead}")
    return _report("lemma5", params, True)


def verify_lemma7(k: int, n: int) -> VerificationReport:
    """Top multisum polynomial equals A_k(y)^n and is divisible by y^n."""
    params = [("k", k), ("n", n)]
    top = multisum_poly(k, n * k, n)
    power = eulerian_poly(k) ** n
    if top != power:
        return _report("lemma7", params, False,
                       f"difference {top - power!r}")
    _, r = top.div_rem(UniPoly.monomial(1, n, "y"))
    if r:
        return _report("lemma7", params, False,
                       f"y^{n} does not divide: remainder {r!r}")
    return _report("lemma7", params, True)


def verify_thm8(n: int, k: int) -> VerificationReport:
    """The alternating-sum formula reproduces the z-coefficient of the
    defining sum (both are 0 when n and k are even)."""
    params = [("n", n), ("k", k)]
    direct = s_direct(n, k).coefficient(1)
    formula = coeff_z_thm8(n, k)
    raw = coeff_z_formula(n, k)
    if formula != direct:
        return _report("thm8", params, False,
                       f"formula {formula} != direct {direct}")
    if raw != direct:
        return _report("thm8", params, False,
                       f"raw formula {raw} != direct {direct}")
    return _report("thm8", params, True)


def verify_cor9(n: int, k: int) -> VerificationReport:
    """Closed-form z-coefficients agree with the alternating-sum formula."""
    params = [("n", n), ("k", k)]
    closed = coeff_z_closed(n, k)
    formula = coeff_z_thm8(n, k)
    if closed != formula:
        return _report("cor9", params, False,
                       f"closed {closed} != formula {formula}")
    return _report("cor9", params, True)


def verify_cor10(n: int) -> VerificationReport:
    """a_n is a positive integer; 1/c_n is even and divisible by 2(3n+2);
    for even n the binomial closed form reproduces a_n."""
    params = [("n", n)]
    a = a_sequence(n + 1)[n]
    if not (isinstance(a, int) and a > 0):
        return _report("cor10", params, False, f"a_{n} = {a} not a positive "
                                               "integer")
    c = c_sequence(n + 1)[n]
    if c.numerator != 1:
        return _report("cor10", params, False, f"c_{n} = {c} not a unit "
                                               "fraction")
    if c.denominator % 2 or c.denominator % (2 * (3 * n + 2)):
        return _report("cor10", params, False,
                       f"1/c_{n} = {c.denominator} fails divisibility")
    if n % 2 == 0 and a != a_closed_even(n):
        return _report("cor10", params, False,
                       f"recurrence a_{n} = {a} != closed form "
                       f"{a_closed_even(n)}")
    return _report("cor10", params, True)


def verify_polylog(k: int, order: int = 20) -> VerificationReport:
    """Truncated power-sum expansion of A_k(y)/(1-y)^{k+1}."""
    from .specialfns import polylog_neg_check
    params = [("k", k), ("N", order)]
    if polylog_neg_check(k, order):
        return _report("eq2.8", params, True)
    return _report("eq2.8", params, False,
                   "series expansion disagrees with the power table")


def verify_bernoulli_cache(m: int) -> VerificationReport:
    """The cached B_m(z) equals m! [x^m] (x/(e^x-1)) e^{zx}.

    The cache is built by the number recurrence, the comparison value by
    series inversion that never reads the cache, so a corrupted cache entry
    cannot hide.
    """
    from .series import exp_zx, x_over_expm1_pow
    params = [("m", m)]
    cached = bernoulli_poly(m)
    independent = factorial(m) * (
        x_over_expm1_pow(1, m) * exp_zx(m)).coefficient(m)
    if cached != independent:
        return _report("bernoulli-cache", params, False,
                       f"cached {cached!r} != series value {independent!r}")
    return _report("bernoulli-cache", params, True)


def degree_check(n: int, k: int, route: str = "series") -> VerificationReport:
    """For even k, deg S[n,k] = (k+1)(n+1) - 1."""
    if k % 2:
        raise ValueError("the degree statement is asserted for even k only")
    params = [("n", n), ("k", k)]
    s = s_poly(n, k, route)
    expected = (k + 1) * (n + 1) - 1
    if s.degree != expected:
        return _report("degree", params, False,
                       f"degree {s.degree} != {expected}")
    return _report("degree", params, True)


# ---------------------------------------------------------------------------
# verification sweeps (used by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

#: a check yields one report, or a list of reports spliced in its place
Check = Callable[[], Union[VerificationReport, list[VerificationReport]]]


def checks_routes(n_max: int, k_max: int) -> list[Check]:
    return [lambda n=n, k=k: verify_routes(n, k)
            for n in range(1, n_max + 1) for k in range(1, k_max + 1)]


def checks_thm1(n_max: int, k_max: int) -> list[Check]:
    return [lambda n=n, k=k: verify_thm1(n, k)
            for n in range(1, n_max + 1) for k in range(1, k_max + 1)]


def checks_thm6(n_max: int, k_max: int) -> list[Check]:
    return [lambda n=n, k=k: verify_thm6(n, k)
            for n in range(2, n_max + 1, 2) for k in range(2, k_max + 1, 2)]


def checks_corollary(n_max: int, k_max: int) -> list[Check]:
    return [lambda n=n, k=k: verify_corollary(n, k)
            for n in range(1, n_max + 1) for k in range(1, k_max + 1)]


def checks_lemma4(k_max: int) -> list[Check]:
    return [lambda k=k: verify_lemma4(k, 6 * (k + 1))
            for k in range(1, k_max + 1)]


def checks_lemma5(n_max: int, k_max: int) -> list[Check]:
    return [lambda k=k, nu=nu, n=n: verify_lemma5(k, nu, n)
            for k in range(1, k_max + 1) for n in range(1, n_max + 1)
            for nu in range(1, n * k + 1)]


def checks_lemma7(n_max: int, k_max: int) -> list[Check]:
    return [lambda k=k, n=n: verify_lemma7(k, n)
            for k in range(1, k_max + 1) for n in range(1, n_max + 1)]


def checks_thm8(n_max: int, k_max: int) -> list[Check]:
    return [lambda n=n, k=k: verify_thm8(n, k)
            for n in range(1, n_max + 1) for k in range(1, k_max + 1)]


def checks_cor9(n_max: int) -> list[Check]:
    out = [lambda n=n: verify_cor9(n, 1) for n in range(1, n_max + 1)]
    out += [lambda n=n: verify_cor9(n, 2) for n in range(1, n_max + 1, 2)]
    return out


def checks_cor10(n_max: int) -> list[Check]:
    return [lambda n=n: verify_cor10(n) for n in range(n_max + 1)]


def checks_polylog(k_max: int, order: int = 20) -> list[Check]:
    return [lambda k=k: verify_polylog(k, order)
            for k in range(1, k_max + 1)]


def checks_bernoulli_cache(top: int) -> list[Check]:
    # B_0..B_top are reported, so the count depends on the suite parameters
    # only; the last check also verifies every entry published above top by
    # the time it runs and reports just the failures among them, so an
    # injected fault anywhere in the cache still fails the run
    return ([lambda m=m: verify_bernoulli_cache(m) for m in range(top + 1)]
            + [lambda: _failing_bernoulli_cache_entries(top)])


def _failing_bernoulli_cache_entries(top: int) -> list[VerificationReport]:
    from .specialfns import bernoulli_cache
    reports = (verify_bernoulli_cache(m)
               for m in range(top + 1, len(bernoulli_cache.polys)))
    return [r for r in reports if not r.passed]


SUITES = ("routes", "thm1", "thm6", "corollary", "lemma4", "lemma5",
          "lemma7", "thm8", "cor9", "cor10", "eq2.8")


def suite_checks(suite: str, n_max: int, k_max: int) -> list[Check]:
    """Build the (canonically ordered) check list for a named suite."""
    builders = {
        "routes": lambda: checks_routes(n_max, k_max),
        "thm1": lambda: checks_thm1(n_max, k_max),
        "thm6": lambda: checks_thm6(n_max, k_max),
        "corollary": lambda: checks_corollary(n_max, k_max),
        "lemma4": lambda: checks_lemma4(k_max),
        "lemma5": lambda: checks_lemma5(n_max, k_max),
        "lemma7": lambda: checks_lemma7(n_max, k_max),
        "thm8": lambda: checks_thm8(n_max, k_max),
        "cor9": lambda: checks_cor9(n_max),
        "cor10": lambda: checks_cor10(n_max),
        "eq2.8": lambda: checks_polylog(k_max),
    }
    if suite == "all":
        out: list[Check] = []
        for name in SUITES:
            out.extend(builders[name]())
        # the named suites only consume B_m for m >= 2; the cache sweep makes
        # a fault anywhere in the published cache flip the run to failure
        out.extend(checks_bernoulli_cache(6 * (k_max + 1)))
        return out
    if suite not in builders:
        raise ValueError(f"unknown suite {suite!r}")
    return builders[suite]()


def run_checks(checks: list[Check],
               parallel: bool = False) -> list[VerificationReport]:
    """Execute checks, preserving list order (also under --parallel)."""
    if parallel:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor() as pool:
            results = list(pool.map(lambda c: c(), checks))
    else:
        results = [c() for c in checks]
    reports: list[VerificationReport] = []
    for r in results:
        reports.extend(r if isinstance(r, list) else [r])
    return reports
