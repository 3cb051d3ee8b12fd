"""Exact base ring: rationals, dense univariate polynomials, counting helpers.

A polynomial is stored as a tuple of integer numerators over one positive
common denominator: coefficient i is ``nums[i] / den``.  The form is
canonical (trailing zeros stripped, ``gcd(den, *nums) == 1``, and the zero
polynomial has ``den == 1``), so equality and hashing compare integers, and
the arithmetic runs on plain ``int``s with one gcd normalisation when a
result is built.  ``dot`` forms a whole sum of products that way: every
product goes into one integer list over one common denominator, so a
convolution costs one normalisation instead of one per ``*`` and ``+``;
``UniPoly``'s ``+`` and ``-`` are such sums too.  ``_mul_add`` is the one
convolution loop; ``_mul_sum`` adds scaled products of integer coefficient
lists into one new list on top of it, and serves ``UniPoly.__mul__``,
``dot`` and the integer-list products of the eulerian side (the d-rows and
product tree of the eulerian route, and (1-y)^j A_{k-j}(y) in the Eulerian
construction of F_k); ``compose_affine`` runs ``_mul_add`` into a list it
has seeded.  ``power_rows`` raises a power series with polynomial
coefficients and a nonzero constant lowest coefficient to an integer power
by Miller's recurrence, one ``dot`` and one division by a scalar per row,
in the variable of that coefficient; both fast routes to S[n,k] take their
powers from it.  ``interpolate`` builds the
same form from a polynomial's D+2 integer values at 0..D+1 over one
denominator, D read from their number, and refuses values of degree above
D; both point-value sums, the direct route to S[n,k] and the multisum
enumeration, recover their sums with it.  Coefficients, points and
scalars are ``int`` or ``Fraction``; a float raises TypeError.
``coeffs`` presents the coefficients as reduced ``fractions.Fraction``s; it
is built on first use and cached.  Each polynomial carries a symbolic
variable tag ("z" or "y"); the tag is metadata for display, but mixing tags
in a binary operation is rejected as a bug.

tests/test_kernel_reference.py checks this kernel against a small
``Fraction`` reference that shares no code with it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

#: degree of the zero polynomial (a sentinel below every integer, never -1)
NEG_INFINITY = float("-inf")


factorial = math.factorial


def binomial(n: int, m: int) -> int:
    """C(n, m); zero outside 0 <= m <= n."""
    if m < 0 or m > n:
        return 0
    return math.comb(n, m)


def multinomial(parts: Sequence[int]) -> int:
    """factorial(sum(parts)) / prod(factorial(p) for p in parts), exactly."""
    total = sum(parts)
    out = 1
    for p in parts:
        out *= math.comb(total, p)
        total -= p
    return out


class UniPoly:
    """Dense univariate polynomial over the rationals.

    coeffs[i] is the coefficient of var**i, equal to nums[i] / den.  Trailing
    zeros are stripped on construction; the zero polynomial has empty
    coefficient tuples.
    """

    __slots__ = ("nums", "den", "var", "_coeffs")

    def __init__(self, coeffs: Iterable[int | Fraction] = (), var: str = "z"):
        cs = list(coeffs)
        _check_rational(*cs)
        den = math.lcm(*[c.denominator for c in cs])
        self._set([c.numerator * (den // c.denominator) for c in cs],
                  den, var)

    def _set(self, nums: list[int], den: int, var: str) -> None:
        # canonicalise numerators (a list this may modify) over den > 0
        while nums and not nums[-1]:
            nums.pop()
        if not nums:
            den = 1
        elif den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = [c // g for c in nums]
                den //= g
        self.nums = tuple(nums)
        self.den = den
        self.var = var
        self._coeffs = None

    @classmethod
    def _build(cls, nums: list[int], den: int, var: str) -> "UniPoly":
        p = cls.__new__(cls)
        p._set(nums, den, var)
        return p

    @classmethod
    def constant(cls, c: int | Fraction, var: str = "z") -> "UniPoly":
        return cls([c], var)

    @classmethod
    def variable(cls, var: str = "z") -> "UniPoly":
        return cls([0, 1], var)

    @classmethod
    def monomial(cls, c: int | Fraction, power: int,
                 var: str = "z") -> "UniPoly":
        return cls([0] * power + [c], var)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built once and cached."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(c, den) for c in self.nums)
        return self._coeffs

    @property
    def degree(self):
        return len(self.nums) - 1 if self.nums else NEG_INFINITY

    def __bool__(self) -> bool:
        return bool(self.nums)

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def leading_coefficient(self) -> Fraction:
        return Fraction(self.nums[-1], self.den) if self.nums else Fraction(0)

    def integer_coeffs(self) -> tuple[int, ...]:
        """The coefficients as ints; raises ValueError unless all are
        integers."""
        if self.den != 1:
            raise ValueError(
                f"polynomial has non-integer coefficients (common "
                f"denominator {self.den}): {self!r}")
        return self.nums

    def _check_var(self, other: "UniPoly") -> None:
        if self.var != other.var:
            raise ValueError(
                f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return (self.den == other.den and self.nums == other.nums
                    and self.var == other.var)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den, self.var))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r}, var={self.var!r})"

    def __add__(self, other):
        # UniPoly first: a miss on Fraction goes through ABCMeta, which is slow
        if not isinstance(other, UniPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = UniPoly.constant(other, self.var)
        self._check_var(other)
        one = UniPoly._build([1], 1, self.var)
        return dot(((self, one, 1), (other, one, 1)), self.var)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = UniPoly.constant(other, self.var)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            self._check_var(other)
            return UniPoly._build(_mul_sum(((self.nums, other.nums, 1),)),
                                  self.den * other.den, self.var)
        if isinstance(other, (int, Fraction)):
            s = other.numerator
            return UniPoly._build([c * s for c in self.nums],
                                  self.den * other.denominator, self.var)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        """self**n by left-to-right binary powering: one squaring per bit
        below the top one and one multiply by self per further set bit,
        floor(log2 n) + popcount(n) - 1 products in all."""
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return UniPoly.constant(1, self.var)
        out = self
        for bit in bin(n)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __call__(self, at: int | Fraction) -> Fraction:
        """Evaluate by Horner's rule, homogenised so the loop runs on ints."""
        _check_rational(at)
        if not self.nums:
            return Fraction(0)
        p, q = at.numerator, at.denominator
        acc, q_pow = 0, 1
        for c in reversed(self.nums):
            acc = acc * p + c * q_pow
            q_pow *= q
        return Fraction(acc, self.den * (q_pow // q))

    def compose_affine(self, a: int | Fraction,
                       b: int | Fraction) -> "UniPoly":
        """Return p(a*var + b) with coefficients expanded exactly."""
        _check_rational(a, b)
        if not self.nums:
            return self
        # a*var + b = (l0 + l1*var) / d with integers l0, l1, d
        d = a.denominator * b.denominator
        l0 = b.numerator * a.denominator
        l1 = a.numerator * b.denominator
        acc: list[int] = []
        d_pow = 1
        for c in reversed(self.nums):
            nxt = [c * d_pow] + [0] * len(acc)
            _mul_add(nxt, acc, (l0, l1), 1)
            acc, d_pow = nxt, d_pow * d
        return UniPoly._build(acc, self.den * (d_pow // d), self.var)

    def div_rem(self, d: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Long division: self = q*d + r with deg r < deg d.

        Runs on the integer numerators.  When the leading numerator of d
        does not divide the next coefficient, the working remainder and the
        quotient so far are scaled so that it does, and the scale joins the
        common denominators of q and r.
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        self._check_var(d)
        dn = d.nums
        dd = len(dn) - 1
        num = list(self.nums)
        if len(num) - 1 < dd:
            return UniPoly((), self.var), self
        lead = dn[-1]
        q = [0] * (len(num) - dd)
        scale = 1
        # invariant: scale * self.nums == q * dn + num, as integer polynomials
        for i in range(len(num) - 1, dd - 1, -1):
            c = num[i]
            if not c:
                continue
            s = abs(lead) // math.gcd(c, lead)
            if s != 1:
                num = [x * s for x in num[:i + 1]]
                q = [x * s for x in q]
                scale *= s
                c *= s
            f = c // lead
            q[i - dd] = f
            for j, x in enumerate(dn, i - dd):
                num[j] -= f * x
        den = scale * self.den
        return (UniPoly._build([x * d.den for x in q], den, self.var),
                UniPoly._build(num[:dd], den, self.var))


def _check_rational(*values) -> None:
    # a float would be rounded already; the ring is exact
    if not all(isinstance(v, (int, Fraction)) for v in values):
        raise TypeError("UniPoly arithmetic takes int or Fraction values")


def _mul_add(out: list[int], a: Sequence[int], b: Sequence[int],
             scale: int) -> None:
    # out[i + j] += scale * a[i] * b[j]: the one convolution loop of the
    # package, with the shorter operand outside and the scale applied to it
    if len(a) > len(b):
        a, b = b, a
    if scale != 1:
        a = [x * scale for x in a]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y


def _mul_sum(terms: Iterable[tuple[Sequence[int], Sequence[int], int]]
             ) -> list[int]:
    # sum of s * a * b over the (a, b, s) triples of integer coefficient
    # lists, as one list as long as the longest product; an empty a or b
    # adds nothing, and with none left the sum is []
    live = [term for term in terms if term[0] and term[1]]
    if not live:
        return []
    out = [0] * (max(len(a) + len(b) for a, b, _ in live) - 1)
    for a, b, s in live:
        _mul_add(out, a, b, s)
    return out


def dot(terms: Iterable[tuple[UniPoly, UniPoly, int | Fraction]],
        var: str) -> UniPoly:
    """sum of w * p * q over the (p, q, w) triples, as one polynomial in var.

    Every product is scaled to one common denominator, the lcm of the
    p.den * q.den * w.denominator, and added into one integer list, so the
    result is normalised once.  A triple with a zero p, q or w adds nothing;
    the empty sum is the zero polynomial.  Every p and q must be in var.
    """
    live = []
    for p, q, w in terms:
        if p.var != var or q.var != var:
            raise ValueError(
                f"variable mismatch: {p.var!r} * {q.var!r} in a sum over "
                f"{var!r}")
        if p.nums and q.nums and w:
            live.append((p.nums, q.nums, w.numerator,
                         p.den * q.den * w.denominator))
    den = math.lcm(*[d for _, _, _, d in live])
    return UniPoly._build(_mul_sum((a, b, s * (den // d))
                                   for a, b, s, d in live), den, var)


def power_rows(h: Sequence[UniPoly], a: int, top: int) -> list[UniPoly]:
    """G_0..G_top of G = (sum_j h_j x^j)^a for a nonzero constant h_0, by
    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), in h_0's
    variable.

    G_0 = h_0^a and m h_0 G_m = sum_{j=1}^{m} ((a+1) j - m) h_j G_{m-j}, so
    each row costs one `dot` over the nonzero h_j and one division by the
    scalar m h_0; h may be shorter than top + 1.  Every integer a is
    allowed: a = 0 gives 1, 0, 0, ... and a = -1 the inverse.  ValueError,
    before any row is computed, unless h_0 is a nonzero constant.
    """
    h0 = h[0]
    var = h0.var
    if h0.degree != 0:
        raise ValueError(
            f"the constant term must be a nonzero constant, not {h0!r}")
    # acc / (m h_0) = (acc.nums * d) / (acc.den * m c) for h_0 = c/d,
    # the sign moved to the numerators so the denominator stays > 0
    c, d = h0.nums[0], h0.den
    if c < 0:
        c, d = -c, -d
    support = [j for j in range(1, min(top, len(h) - 1) + 1) if h[j]]
    g = [UniPoly.constant(h0.coefficient(0) ** a, var)]
    for m in range(1, top + 1):
        # integer weights: scaling the sum once is cheaper than a Fraction
        # weight per term
        acc = dot(((h[j], g[m - j], (a + 1) * j - m)
                   for j in support if j <= m), var)
        g.append(UniPoly._build([x * d for x in acc.nums],
                                acc.den * m * c, var))
    return g


def interpolate(values: Sequence[int], den: int, var: str) -> UniPoly:
    """The polynomial p in var of degree <= D = len(values) - 2 with
    p(i) = values[i] / den at the integer points i = 0..D+1, by Newton
    forward differences.

    The point D+1 is the check: its difference of order D+1 must
    vanish, and ArithmeticError is raised when it does not, so values of a
    polynomial of higher degree are refused instead of being interpolated
    through the first D+1 points.  With c_i the i-th difference at 0,
    p = sum_i c_i C(var, i); times D! that is integer throughout, and the
    division by den * D! happens once, in the canonical form.  ValueError
    for fewer than 2 values.
    """
    degree = len(values) - 2
    if degree < 0:
        raise ValueError(f"need at least 2 values, got {len(values)}")
    # the differences here and the Newton-basis Horner steps below work in
    # place: at a sweep's small degrees a new list per step costs more than
    # the arithmetic
    row = list(values)
    heads = []
    for m in range(degree + 1, 0, -1):
        heads.append(row[0])
        for t in range(m):
            row[t] = row[t + 1] - row[t]
    if row[0]:
        raise ArithmeticError(
            f"the values are not those of a polynomial of degree <= {degree}: "
            f"difference {degree + 1} is {row[0]}/{den}")
    # Horner's rule in the Newton basis:
    # acc <- acc * (var - i) + c_i D!/i!
    acc = [heads[degree]]
    scale = 1
    for i in range(degree - 1, -1, -1):
        scale *= i + 1
        acc.insert(0, 0)
        for t in range(len(acc) - 1):
            acc[t] -= i * acc[t + 1]
        acc[0] += heads[i] * scale
    return UniPoly._build(acc, den * scale, var)


def falling_product(a: int, b: int, length: int) -> UniPoly:
    """prod_{r=1}^{length} (a*z + b - r); the empty product is 1."""
    if length < 0:
        raise ValueError("length must be >= 0")
    out = UniPoly([1], "z")
    for r in range(1, length + 1):
        out = out * UniPoly([b - r, a], "z")
    return out
