"""Acceptance gate: one test per criterion, exact comparisons throughout.

Each test prints one line  `ACCEPTANCE <id> <name>: PASS|FAIL (<elapsed>)`
(run pytest with -s to watch them) and enforces the expected wall-clock
budget for the criterion.
"""

import contextlib
import time
from fractions import Fraction

from bernkit.cli import main as cli_main
from bernkit.convolution import (a_jkn_from_u, a_jkn_multinomial,
                                 a_coeff_list, a_sequence,
                                 c3_recurrence_residual, c3_sequence,
                                 c_sequence, coeff_z_closed, coeff_z_thm8,
                                 p_poly, s_direct, s_eulerian,
                                 s_series, u_from_a_series, u_nu,
                                 verify_thm1)
from bernkit.polycore import UniPoly, factorial, falling_product
from bernkit.series import build_F_direct, build_F_eulerian
from bernkit.specialfns import bernoulli_cache, bernoulli_poly, eulerian_poly

Z = UniPoly.variable("z")


def lin(a, b):
    return UniPoly([b, a], "z")


@contextlib.contextmanager
def criterion(num, name, limit_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {num:>2} {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num:>2} {name}: PASS "
          f"({elapsed:.2f}s, budget {limit_seconds}s)")
    assert elapsed < limit_seconds


def test_criterion_01_table1():
    with criterion(1, "table 1 reproduction", 10):
        full_rows = {
            (1, 1): Fraction(-1, 3) * Z * lin(1, -1) * lin(2, -1),
            (2, 1): Fraction(1, 20) * Z * lin(1, -1) * lin(3, -1)
                    * lin(3, -2) * lin(2, -1),
            (3, 1): Fraction(-1, 105) * Z * lin(1, -1) * lin(4, -1)
                    * lin(2, -1) * lin(4, -3) * UniPoly([1, -1, 1], "z"),
            (4, 1): Fraction(-1, 18144) * Z * lin(1, -1) * lin(5, -1)
                    * lin(5, -2) * lin(5, -3) * lin(5, -4) * lin(2, -1)
                    * UniPoly([-6, -13, 13], "z"),
            (1, 2): Fraction(1, 30) * Z * lin(1, -1) * lin(2, -1)
                    * UniPoly([-1, -3, 3], "z"),
            (2, 2): Fraction(1, 160) * Z ** 2 * lin(1, -1) ** 2
                    * lin(3, -1) * lin(3, -2) * UniPoly([-2, -7, 7], "z"),
        }
        for (n, k), expected in full_rows.items():
            assert s_direct(n, k) == expected, (n, k)

        # rows with elided cofactors: displayed factors, degree, and the
        # displayed extreme cofactor coefficients
        s32 = s_direct(3, 2)
        assert s32.degree == 11
        shown = Z * lin(1, -1) * lin(4, -1) * lin(2, -1) * lin(4, -3)
        q, r = (20790 * s32).div_rem(shown)
        assert not r
        assert q.degree == 6
        assert q.leading_coefficient() == 321
        assert q.coefficient(0) == -3

        s42 = s_direct(4, 2)
        assert s42.degree == 14
        shown = (Z ** 2 * lin(1, -1) ** 2 * lin(5, -1) * lin(5, -2)
                 * lin(5, -3) * lin(5, -4))
        q, r = (16765056 * s42).div_rem(shown)
        assert not r
        assert q.degree == 6
        assert q.leading_coefficient() == 19302
        assert q.coefficient(0) == -348


def test_criterion_02_table2():
    with criterion(2, "table 2 reproduction", 1):
        expected_b = {
            0: [1],
            1: [Fraction(-1, 2), 1],
            2: [Fraction(1, 6), -1, 1],
            3: [0, Fraction(1, 2), Fraction(-3, 2), 1],
            4: [Fraction(-1, 30), 0, 1, -2, 1],
            5: [0, Fraction(-1, 6), 0, Fraction(5, 3), Fraction(-5, 2), 1],
            6: [Fraction(1, 42), 0, Fraction(-1, 2), 0, Fraction(5, 2),
                -3, 1],
        }
        expected_a = {
            0: [1], 1: [0, 1], 2: [0, 1, 1], 3: [0, 1, 4, 1],
            4: [0, 1, 11, 11, 1], 5: [0, 1, 26, 66, 26, 1],
            6: [0, 1, 57, 302, 302, 57, 1],
        }
        for k in range(7):
            assert bernoulli_poly(k) == UniPoly(expected_b[k], "z")
            assert eulerian_poly(k) == UniPoly(expected_a[k], "y")


def test_criterion_03_table3():
    with criterion(3, "table 3 reproduction", 30):
        expected = {
            1: [1],
            2: [1, -2],
            3: [1, -1, 1],
            4: [1, Fraction(1, 6), Fraction(-13, 2), Fraction(13, 3)],
            5: [1, Fraction(3, 2), Fraction(-27, 2), 24, -12],
            6: [1, Fraction(179, 60), Fraction(-473, 24), 29,
                Fraction(-571, 24), Fraction(571, 60)],
        }
        for n in range(1, 7):
            assert p_poly(n) == UniPoly(expected[n], "z"), n


def test_criterion_04_route_agreement():
    with criterion(4, "route agreement (12 tuples)", 120):
        for n in range(1, 5):
            for k in range(1, 4):
                d = s_direct(n, k)
                assert d == s_series(n, k), (n, k)
                assert d == s_eulerian(n, k), (n, k)


def test_criterion_05_theorem1():
    with criterion(5, "symmetry and divisor (n<=5, k<=4)", 300):
        for n in range(1, 6):
            for k in range(1, 5):
                witness = verify_thm1(n, k)
                assert witness is None, witness


def test_criterion_06_k0_identity():
    with criterion(6, "k=0 closed form (n<=6)", 5):
        for n in range(1, 7):
            assert (factorial(n) * s_direct(n, 0)
                    == falling_product(n + 1, 0, n)), n


def test_criterion_07_lemma4():
    with criterion(7, "Eulerian F-series equality (k<=5)", 30):
        for k in range(1, 6):
            order = 6 * (k + 1)
            assert build_F_eulerian(k, order) == build_F_direct(k, order), k


def test_criterion_08_sequences():
    with criterion(8, "sequence values and recurrences", 10):
        assert c_sequence(5) == [Fraction(1, 4), Fraction(1, 30),
                                 Fraction(1, 256), Fraction(1, 2310),
                                 Fraction(1, 21504)]
        assert a_sequence(5) == [1, 3, 16, 105, 768]
        assert c3_sequence(4) == [Fraction(-1, 126), Fraction(-1, 1155),
                                  Fraction(-1, 6930), Fraction(-10, 513513)]
        c3 = c3_sequence(22)
        for n in range(1, 21):
            assert c3_recurrence_residual(c3, n) == 0, n
        for n, c in enumerate(c_sequence(13)):
            assert c.numerator == 1
            assert c.denominator % 2 == 0
            assert c.denominator % (2 * (3 * n + 2)) == 0


def test_criterion_09_z_coefficient():
    with criterion(9, "z-coefficient formula and closed forms", 120):
        for n in range(1, 5):
            for k in range(1, 4):
                direct = s_direct(n, k).coefficient(1)
                if n % 2 == 0 and k % 2 == 0:
                    assert direct == 0
                    assert coeff_z_thm8(n, k) == 0
                else:
                    assert coeff_z_thm8(n, k) == direct, (n, k)
        for n in range(1, 9):
            assert coeff_z_closed(n, 1) == coeff_z_thm8(n, 1), n
        for n in range(1, 10, 2):
            assert coeff_z_closed(n, 2) == coeff_z_thm8(n, 2), n


def test_criterion_10_section5_identities():
    with criterion(10, "power-coefficient identities (k<=3, n<=4)", 60):
        for k in range(1, 4):
            for n in range(1, 5):
                full = a_coeff_list(k, n)
                for j in range(n * (k - 1) + 1):
                    assert full[j] == a_jkn_multinomial(k, n, j), (k, n, j)
                    assert full[j] == a_jkn_from_u(k, n, j), (k, n, j)
                for nu in range(9):
                    assert u_nu(k, n, nu) == u_from_a_series(k, n, nu), \
                        (k, n, nu)


def test_criterion_11_fault_injection(capsys):
    with criterion(11, "fault injection flips verify-all to exit 1", 600):
        # clean run first: exit 0
        assert cli_main(["verify", "all"]) == 0
        capsys.readouterr()
        bernoulli_cache.ensure(8)
        for idx in (0, 1, 2, 5, 8):
            original = bernoulli_cache.polys[idx]
            broken = list(original.coeffs)
            broken[0] += 1
            bernoulli_cache.polys[idx] = UniPoly(broken, "z")
            try:
                code = cli_main(["verify", "all"])
            finally:
                bernoulli_cache.polys[idx] = original
            out = capsys.readouterr().out
            assert code == 1, f"corrupting B_{idx} did not fail the sweep"
            fail_lines = [line for line in out.splitlines()
                          if line.startswith("FAIL")]
            assert fail_lines, out
            assert all("::" in line for line in fail_lines)  # witness data
        # caches restored: sweep passes again
        assert cli_main(["verify", "all"]) == 0
        capsys.readouterr()
