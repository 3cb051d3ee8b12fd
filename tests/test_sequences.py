from fractions import Fraction

import pytest

from bernkit.convolution import (a_closed_even, a_sequence, a_sequence_cubic,
                                 c3_recurrence_residual, c3_sequence,
                                 c_sequence, coeff_z_thm8, seq_checks)
from bernkit.polycore import binomial, factorial


def a_sequence_triple_sum(count):
    # the cubic recurrence summed afresh for every n, O(n^3) in all
    a = []
    for n in range(count):
        v = 1 if n == 0 else 0
        v += 3 * sum(a[i] * a[n - 1 - i] for i in range(n))
        v -= 2 * sum(a[i] * a[j] * a[n - 2 - i - j]
                     for i in range(n - 1) for j in range(n - 1 - i))
        a.append(v)
    return a


def c3_sequence_double_sum(count):
    # [y^j] (y^2 + 4y + 1)^{n+1} by the binomial double sum for every j
    def a_j(n1, j):
        return sum(binomial(n1, i) * binomial(n1 - i, j - 2 * i)
                   * 4 ** (j - 2 * i) for i in range(j // 2 + 1))

    out = []
    for n in range(1, count + 1):
        n1 = n + 1
        acc = sum((-1) ** j * a_j(n1, j) * factorial(n + j)
                  * factorial(3 * n1 - 1 - j) for j in range(2 * n1 + 1))
        out.append(Fraction((-1) ** n * n1 * acc, 6 * factorial(4 * n1 - 1)))
    return out


def test_a_first_values():
    assert a_sequence(5) == [1, 3, 16, 105, 768]
    assert a_sequence(2)[1] == 3 * a_sequence(1)[0] ** 2


def test_a_even_closed_form():
    a = a_sequence(11)
    assert a_closed_even(6) == 49152
    for n in range(0, 11, 2):
        assert a[n] == a_closed_even(n)
    with pytest.raises(ValueError):
        a_closed_even(3)


def test_a_matches_cubic_reference():
    assert a_sequence(60) == a_sequence_cubic(60) == a_sequence_triple_sum(60)


def test_a_two_step_recurrence_matches_cubic_through_400():
    assert a_sequence(400) == a_sequence_cubic(400)


def test_a_wrong_recurrence_coefficient_raises(monkeypatch):
    from bernkit import convolution
    monkeypatch.setattr(convolution, "_a_ratio",
                        lambda n: (13 * (3 * n + 2) * (3 * n + 4),
                                   (n + 2) * (n + 3)))
    assert a_sequence(2) == [1, 3]          # no step taken yet
    with pytest.raises(ArithmeticError, match="a_2 = 104/6"):
        a_sequence(3)


def test_a_even_closed_form_through_300():
    a = a_sequence(300)
    for n in range(0, 300, 2):
        assert a[n] == a_closed_even(n)


def test_c_first_values():
    assert c_sequence(5) == [Fraction(1, 4), Fraction(1, 30),
                             Fraction(1, 256), Fraction(1, 2310),
                             Fraction(1, 21504)]
    assert 1 / c_sequence(2)[1] == 30 == 2 * 5 * 3


def test_c_divisibility():
    for n, c in enumerate(c_sequence(13)):
        assert c.numerator == 1
        assert c.denominator % 2 == 0
        assert c.denominator % (2 * (3 * n + 2)) == 0


def test_c_ties_to_z_coefficient():
    c = c_sequence(10)
    for n in range(1, 10, 2):
        assert -c[n] == coeff_z_thm8(n, 2)


def test_c3_first_values():
    assert c3_sequence(4) == [Fraction(-1, 126), Fraction(-1, 1155),
                              Fraction(-1, 6930), Fraction(-10, 513513)]


def test_c3_matches_double_sum_reference():
    assert c3_sequence(80) == c3_sequence_double_sum(80)


def test_c3_matches_formula_through_8():
    vals = c3_sequence(8)
    for n in range(1, 9):
        assert vals[n - 1] == coeff_z_thm8(n, 3)


def test_c3_recurrence_explicit_at_n1():
    # 12(4n+5)(4n+11) c_3 - 8(n+3)(2n+3) c_2 - (n+2)(n+3) c_1 at n = 1
    vals = c3_sequence(3)
    lhs = 12 * 9 * 15 * vals[2] - 8 * 4 * 5 * vals[1] - 3 * 4 * vals[0]
    assert lhs == 0


def test_c3_recurrence_through_20():
    vals = c3_sequence(20)
    for n in range(1, 19):
        assert c3_recurrence_residual(vals, n) == 0


def test_c3_matches_formula_route():
    assert c3_sequence(1)[0] == coeff_z_thm8(1, 3)
    assert c3_sequence(3)[2] == coeff_z_thm8(3, 3)


def test_c3_matches_both_routes_at_n5():
    # binomial a_j route vs general formula vs the defining sum itself
    from bernkit.convolution import s_direct
    assert (c3_sequence(5)[4] == coeff_z_thm8(5, 3)
            == s_direct(5, 3).coefficient(1) == Fraction(-727, 267711444))


def test_seq_tables_and_checks():
    values = a_sequence(5)
    assert values == [1, 3, 16, 105, 768]
    assert seq_checks("a", values) == {"positive_integers": True}
    assert seq_checks("a", [1, 0]) == {"positive_integers": False}

    assert all(seq_checks("c", c_sequence(5)).values())
    assert not any(seq_checks("c", [Fraction(2, 3)]).values())

    assert seq_checks("c3", c3_sequence(6)) == {
        "recurrence_residual_zero": True}
    for count in (1, 2):  # no triple, so nothing to check
        with pytest.raises(ValueError):
            seq_checks("c3", c3_sequence(count))

    with pytest.raises(KeyError):  # not a row of the table
        seq_checks("b", [1])
    with pytest.raises(ValueError):
        a_sequence(0)


def test_a_closed_even_raises_on_non_integer(monkeypatch):
    from bernkit import convolution
    monkeypatch.setattr(convolution, "binomial", lambda n, m: 1)
    with pytest.raises(ValueError):
        a_closed_even(2)       # 2^4 / 3 is not an integer
