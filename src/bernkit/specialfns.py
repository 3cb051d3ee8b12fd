"""Named polynomial and number families.

Bernoulli numbers B_k and polynomials B_k(z), and the Eulerian number
triangle A(k, j) and polynomials A_k(y), each grown on demand in a
process-wide cache.  This module reads only the base ring, polycore; the
higher-order Bernoulli polynomials, which need a power series, live in
series.
"""

from __future__ import annotations

import math
from _thread import allocate_lock
from fractions import Fraction

from .polycore import UniPoly, binomial


class BernoulliCache:
    """Monotone cache of Bernoulli numbers and polynomials.  Entries are
    appended under a lock, so threads that grow it at once cannot append
    the same entry twice; polys[k] is published after B_k.

    The numbers are stored once, on integers: _nums[j] / _den is B_j, over
    the common denominator of every number computed so far, so each new
    number costs one Fraction and each polynomial one normalisation.  The
    recurrence grows _nums alone, so a fault put into polys does not spread
    into the entries built after it."""

    def __init__(self):
        self.polys = [UniPoly([1], "z")]
        self._nums = [1]
        self._den = 1
        self._lock = allocate_lock()

    def ensure(self, k: int) -> None:
        if len(self.polys) > k:
            return
        with self._lock:
            nums = self._nums
            while len(nums) <= k:
                # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
                m = len(nums)
                acc = sum(binomial(m + 1, j) * nums[j]
                          for j in range(m) if nums[j])
                b_m = Fraction(-acc, (m + 1) * self._den)
                grow = b_m.denominator // math.gcd(b_m.denominator, self._den)
                if grow != 1:
                    self._nums = nums = [x * grow for x in nums]
                    self._den *= grow
                nums.append(b_m.numerator * (self._den // b_m.denominator))
            while len(self.polys) <= k:
                m = len(self.polys)
                self.polys.append(UniPoly._build(
                    [binomial(m, i) * nums[m - i] for i in range(m + 1)],
                    self._den, "z"))


class EulerianCache:
    """Monotone cache of the Eulerian triangle and polynomials.

    Row conventions are pinned by the golden tests against the classical
    table (A_3(y) = y^3 + 4y^2 + y, ...): A(0,0) = 1, A(k,0) = 0 for k >= 1,
    and A(k,j) = j*A(k-1,j) + (k-j+1)*A(k-1,j-1).  Rows are appended under
    a lock, as in BernoulliCache; polys[k] is published after triangle[k].
    """

    def __init__(self):
        self.triangle = [[1]]
        self.polys = [UniPoly([1], "y")]
        self._lock = allocate_lock()

    def ensure(self, k: int) -> None:
        if len(self.polys) > k:
            return
        with self._lock:
            while len(self.triangle) <= k:
                m = len(self.triangle)
                prev = self.triangle[-1]
                row = [0] * (m + 1)
                for j in range(1, m + 1):
                    left = prev[j] if j < len(prev) else 0
                    row[j] = j * left + (m - j + 1) * prev[j - 1]
                self.triangle.append(row)
                self.polys.append(UniPoly(row, "y"))


#: process-wide caches; reachable so tests can inject faults deliberately
bernoulli_cache = BernoulliCache()
eulerian_cache = EulerianCache()


def bernoulli_number(k: int) -> Fraction:
    """B_k, via the recurrence sum_{j=0}^{m} C(m+1,j) B_j = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cache = bernoulli_cache
    cache.ensure(k)
    with cache._lock:  # a growth rescales _nums and _den one after the other
        return Fraction(cache._nums[k], cache._den)


def bernoulli_poly(k: int) -> UniPoly:
    """B_k(z) = sum_j C(k,j) B_j z^{k-j}; monic of degree k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    bernoulli_cache.ensure(k)
    return bernoulli_cache.polys[k]


def eulerian_number(k: int, j: int) -> int:
    """A(k, j); zero outside 0 <= j <= k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if j < 0 or j > k:
        return 0
    eulerian_cache.ensure(k)
    return eulerian_cache.triangle[k][j]


def eulerian_poly(k: int) -> UniPoly:
    """A_k(y) = sum_j A(k,j) y^j, with A_0 = 1 and A_k(0) = 0 for k >= 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    eulerian_cache.ensure(k)
    return eulerian_cache.polys[k]
