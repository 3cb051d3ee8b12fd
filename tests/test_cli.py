import json
import os
import subprocess
import sys
from fractions import Fraction

import bernkit
from bernkit.cli import (fmt_rational, main, parse_rational, poly_from_document,
                         poly_latex, poly_plain)
from bernkit.convolution import p_poly, s_direct
from bernkit.polycore import UniPoly, falling_product
from bernkit.specialfns import bernoulli_poly


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run(argv + ["--format", "json"], capsys)
    return code, json.loads(out)


def test_rational_roundtrip():
    for q in (Fraction(0), Fraction(3), Fraction(-1, 3),
              Fraction(1, 16765056)):
        assert parse_rational(fmt_rational(q)) == q


def test_poly_rendering():
    p = UniPoly([0, Fraction(-1, 3), 1, Fraction(-2, 3)], "z")
    assert poly_plain(p) == "-2/3*z^3 + z^2 - 1/3*z"
    assert poly_latex(p) == r"-\frac{2}{3}z^{3}+z^{2}-\frac{1}{3}z"
    assert poly_plain(UniPoly((), "z")) == "0"
    assert poly_plain(UniPoly([1], "z")) == "1"


def test_compute_s_all_routes_json(capsys):
    code, doc = run_json(
        ["compute", "s", "--n", "1", "--k", "1", "--route", "all"], capsys)
    assert code == 0
    assert doc["agreement"] is True
    assert set(doc["routes"]) == {"direct", "series", "eulerian"}
    expect = ["0/1", "-1/3", "1/1", "-2/3"]
    assert doc["coefficients"] == expect
    assert all(v == expect for v in doc["routes"].values())
    assert poly_from_document(doc) == s_direct(1, 1)


def test_compute_s_k0(capsys):
    code, out = run(["compute", "s", "--n", "3", "--k", "0"], capsys)
    assert code == 0
    # (1/6)(4z-1)(4z-2)(4z-3) expanded has leading term 32/3 z^3
    assert "32/3*z^3" in out
    code, doc = run_json(["compute", "s", "--n", "3", "--k", "0"], capsys)
    expected = Fraction(1, 6) * falling_product(4, 0, 3)
    assert poly_from_document(doc) == expected


def test_compute_multisum(capsys):
    code, out = run(
        ["compute", "multisum", "--k", "2", "--nu", "1", "--n", "3"], capsys)
    assert code == 0
    assert "6*y" in out
    code, doc = run_json(
        ["compute", "multisum", "--k", "2", "--nu", "1", "--n", "3",
         "--route", "all"], capsys)
    assert code == 0 and doc["agreement"] is True
    assert list(doc["routes"]) == ["enumeration", "multinomial", "power"]


def test_compute_f_coeff(capsys):
    code, doc = run_json(
        ["compute", "F-coeff", "--k", "1", "--m", "2", "--route", "all"],
        capsys)
    assert code == 0
    assert doc["agreement"] is True
    assert poly_from_document(doc) == Fraction(-1, 2) * bernoulli_poly(2)


def test_compute_d_coeffs(capsys):
    code, doc = run_json(
        ["compute", "d-coeffs", "--n", "3", "--k", "1", "--nu", "0"], capsys)
    assert code == 0
    assert doc["coefficients"] == ["1/1", "-3/1", "3/1", "-1/1"]


def test_compute_p(capsys):
    code, doc = run_json(["compute", "p", "--n", "4"], capsys)
    assert code == 0
    assert poly_from_document(doc) == p_poly(4)


def test_compute_a_jkn_and_u(capsys):
    code, doc = run_json(
        ["compute", "a_jkn", "--k", "3", "--n", "2", "--route", "all"],
        capsys)
    assert code == 0
    assert doc["agreement"] is True
    assert doc["coefficients"] == ["1/1", "8/1", "18/1", "8/1", "1/1"]
    code, doc = run_json(
        ["compute", "u_nu", "--k", "1", "--n", "2", "--nu", "2"], capsys)
    assert code == 0
    assert doc["value"] == "10/1"


def test_usage_errors(capsys):
    assert main(["compute", "s", "--k", "1"]) == 2          # missing --n
    capsys.readouterr()
    assert main(["compute", "s", "--n", "0", "--k", "1"]) == 2
    capsys.readouterr()
    assert main(["compute", "s", "--n", "1", "--k", "1",
                 "--route", "bogus"]) == 2
    capsys.readouterr()
    assert main(["compute", "nonsense"]) == 2
    capsys.readouterr()
    assert main(["verify", "thm1", "--n-max", "0"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def test_table2(capsys):
    code, out = run(["table", "2", "--format", "latex"], capsys)
    assert code == 0
    assert r"\begin{tabular}" in out and r"\end{tabular}" in out
    # B_5(z) row
    assert r"z^{5}-\frac{5}{2}z^{4}+\frac{5}{3}z^{3}-\frac{1}{6}z" in out
    code, doc = run_json(["table", "2"], capsys)
    assert code == 0
    assert len(doc["entries"]) == 7
    b6 = doc["entries"][6]["B"]
    assert poly_from_document(b6) == bernoulli_poly(6)


def test_table3(capsys):
    code, out = run(["table", "3"], capsys)
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("n=")]
    assert len(rows) == 6
    assert rows[1].endswith("-2*z + 1")


def test_table1_json(capsys):
    code, doc = run_json(["table", "1"], capsys)
    assert code == 0
    assert len(doc["entries"]) == 8
    for entry in doc["entries"]:
        expected = s_direct(entry["n"], entry["k"])
        assert poly_from_document(
            {"variable": "z", "coefficients": entry["coefficients"]}
        ) == expected


def test_seq_output(capsys):
    code, out = run(["seq", "c", "--count", "5"], capsys)
    assert code == 0
    assert "c_0 = 1/4" in out and "c_4 = 1/21504" in out
    code, out = run(["seq", "a", "--count", "5"], capsys)
    assert "a_4 = 768" in out
    code, doc = run_json(["seq", "c3", "--count", "4"], capsys)
    assert doc["values"] == ["-1/126", "-1/1155", "-1/6930", "-10/513513"]
    assert doc["checks"]["recurrence_residual_zero"] is True


def test_verify_routes_exit0(capsys):
    code, out = run(["verify", "routes", "--n-max", "3", "--k-max", "2"],
                    capsys)
    assert code == 0
    assert out.count("PASS") == 6
    assert "6/6 checks passed" in out


def test_verify_eq28(capsys):
    code, out = run(["verify", "eq2.8", "--k-max", "4"], capsys)
    assert code == 0
    assert out.count("PASS eq2.8") == 4
    assert "N=20" in out


def test_verify_thm1_sweep(capsys):
    code, out = run(["verify", "thm1", "--n-max", "4", "--k-max", "2"],
                    capsys)
    assert code == 0
    assert out.count("PASS thm1") == 8


def test_verify_all_default_output_is_stable(capsys):
    code, first = run(["verify", "all"], capsys)
    assert code == 0
    code, second = run(["verify", "all"], capsys)
    assert code == 0
    assert first == second


def test_verify_all_output_ignores_cache_history(capsys):
    from bernkit.specialfns import bernoulli_cache
    code, before = run(["verify", "all"], capsys)
    assert code == 0
    bernoulli_poly(40)
    code, after = run(["verify", "all"], capsys)
    assert code == 0
    assert after == before
    # B_30 lies above the reported range, yet a fault there still fails
    original = bernoulli_cache.polys[30]
    broken = list(original.coeffs)
    broken[0] += 1
    bernoulli_cache.polys[30] = UniPoly(broken, "z")
    try:
        code, out = run(["verify", "all"], capsys)
    finally:
        bernoulli_cache.polys[30] = original
    assert code == 1
    fail_lines = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fail_lines) == 1
    assert fail_lines[0].startswith("FAIL bernoulli-cache m=30 ::")


def test_verify_failure_json_carries_witness(capsys):
    from bernkit.specialfns import bernoulli_cache
    bernoulli_cache.ensure(4)
    original = bernoulli_cache.polys[3]
    broken = list(original.coeffs)
    broken[1] += 1
    bernoulli_cache.polys[3] = UniPoly(broken, "z")
    try:
        code, doc = run_json(
            ["verify", "routes", "--n-max", "2", "--k-max", "2"], capsys)
    finally:
        bernoulli_cache.polys[3] = original
    assert code == 1
    assert doc["passed"] is False
    failed = [r for r in doc["reports"] if not r["passed"]]
    assert failed
    assert all(isinstance(r["witness"], str) and r["witness"]
               for r in failed)
    passed = [r for r in doc["reports"] if r["passed"]]
    assert all(r["witness"] is None for r in passed)


def test_verify_json_and_parallel_determinism(capsys):
    args = ["verify", "lemma5", "--n-max", "2", "--k-max", "2"]
    code, sequential = run(args, capsys)
    assert code == 0
    code, parallel = run(args + ["--parallel"], capsys)
    assert code == 0
    assert sequential == parallel
    code, sorted_out = run(args + ["--sorted"], capsys)
    assert code == 0
    # canonical order: same lines, forced into sorted order, stable across
    # parallel execution
    assert sorted(sorted_out.splitlines()) == sorted(sequential.splitlines())
    code, sorted_parallel = run(args + ["--sorted", "--parallel"], capsys)
    assert sorted_parallel == sorted_out
    code, doc = run_json(args, capsys)
    assert doc["passed"] is True
    assert doc["counts"] == {"total": len(doc["reports"]), "failed": 0}


def test_verify_latex(capsys):
    code, out = run(["verify", "cor10", "--format", "latex",
                     "--n-max", "3"], capsys)
    assert code == 0
    assert r"\begin{tabular}" in out


def test_console_entry_point_subprocess():
    # the child imports the same bernkit as this process, installed or not
    src = os.path.dirname(os.path.dirname(bernkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bernkit.cli", "verify", "cor10",
         "--n-max", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


def test_json_polynomial_roundtrip_everywhere(capsys):
    targets = [
        ["compute", "s", "--n", "2", "--k", "1"],
        ["compute", "p", "--n", "3"],
        ["compute", "multisum", "--k", "2", "--nu", "3", "--n", "2"],
        ["compute", "F-coeff", "--k", "2", "--m", "4"],
    ]
    for argv in targets:
        code, doc = run_json(argv, capsys)
        assert code == 0
        p = poly_from_document(doc)
        redoc = {"variable": p.var,
                 "coefficients": [fmt_rational(c) for c in p.coeffs]}
        assert poly_from_document(redoc) == p
