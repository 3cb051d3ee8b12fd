import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import bernkit
from bernkit.cli import (fmt_rational, main, poly_from_document, poly_latex,
                         poly_plain)
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
        assert Fraction(fmt_rational(q)) == q


#: (coefficients, variable, plain, LaTeX), as the renderers print them
RENDERED = [
    ([0, Fraction(-1, 3), 1, Fraction(-2, 3)], "z",
     "-2/3*z^3 + z^2 - 1/3*z", r"-\frac{2}{3}z^{3}+z^{2}-\frac{1}{3}z"),
    ((), "z", "0", "0"),
    ([1], "z", "1", "1"),
    ([-1], "z", "-1", "-1"),
    ([0, -1], "z", "-z", "-z"),
    ([Fraction(-3, 4)], "z", "-3/4", r"-\frac{3}{4}"),
    ([Fraction(1, 2), 0, -1], "z", "-z^2 + 1/2", r"-z^{2}+\frac{1}{2}"),
    ([0, 2, Fraction(-5, 3), 1], "y",
     "y^3 - 5/3*y^2 + 2*y", r"y^{3}-\frac{5}{3}y^{2}+2y"),
    ([Fraction(-7, 2), 0, 1], "y", "y^2 - 7/2", r"y^{2}-\frac{7}{2}"),
]


def test_poly_rendering():
    for coeffs, var, plain, latex in RENDERED:
        p = UniPoly(coeffs, var)
        assert poly_plain(p) == plain, coeffs
        assert poly_latex(p) == latex, coeffs


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


def test_compute_s_route_all_lists_each_applicable_route(capsys):
    code, doc = run_json(
        ["compute", "s", "--n", "2", "--k", "2", "--route", "all"], capsys)
    assert code == 0
    assert list(doc["routes"]) == ["direct", "series", "eulerian"]
    assert doc["agreement"] is True
    assert len({tuple(v) for v in doc["routes"].values()}) == 1
    assert doc["coefficients"] == doc["routes"]["direct"]
    assert poly_from_document(doc).degree == (2 + 1) * (2 + 1) - 1
    # the eulerian route needs k >= 1, so k = 0 lists the other two only
    code, doc = run_json(
        ["compute", "s", "--n", "2", "--k", "0", "--route", "all"], capsys)
    assert code == 0
    assert list(doc["routes"]) == ["direct", "series"]
    code, out = run(["compute", "s", "--n", "2", "--k", "0", "--route", "all"],
                    capsys)
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "s n=2 k=0 [direct]", "s n=2 k=0 [series]", "agreement"]


def test_compute_s_k0(capsys):
    code, out = run(["compute", "s", "--n", "3", "--k", "0"], capsys)
    assert code == 0
    # (1/6)(4z-1)(4z-2)(4z-3) expanded has leading term 32/3 z^3
    assert "32/3*z^3" in out
    code, doc = run_json(["compute", "s", "--n", "3", "--k", "0"], capsys)
    expected = Fraction(1, 6) * falling_product(4, 0, 3)
    assert poly_from_document(doc) == expected


def test_compute_s_k0_routes_disagree_on_a_corrupted_bernoulli_poly(capsys):
    # at k = 0 there is no eulerian route; the direct route reads only the
    # Bernoulli numbers, so a fault in the cached B_2(z), which the series
    # route reads, is a disagreement rather than two equal wrong answers
    from bernkit.specialfns import bernoulli_cache
    argv = ["compute", "s", "--n", "2", "--k", "0", "--route", "all"]
    code, out = run(argv, capsys)
    assert (code, out.splitlines()[-1]) == (0, "agreement: True")
    original = bernoulli_cache.polys[2]
    broken = list(original.coeffs)
    broken[1] += 1
    bernoulli_cache.polys[2] = UniPoly(broken, "z")
    try:
        code, out = run(argv, capsys)
    finally:
        bernoulli_cache.polys[2] = original
    assert (code, out.splitlines()[-1]) == (0, "agreement: False")


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
    # m = 2 <= k = 5: both constructions are cut at x^2, where F_5 is 0
    code, out = run(
        ["compute", "F-coeff", "--k", "5", "--m", "2", "--route", "all"],
        capsys)
    assert code == 0
    assert out.splitlines() == ["F-coeff k=5 m=2 [direct]: 0",
                                "F-coeff k=5 m=2 [eulerian]: 0",
                                "agreement: True"]


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
    # an option the target does not take is refused, not ignored
    for argv, option in [
            (["p", "--n", "3", "--route", "bogus"], "route"),
            (["u_nu", "--k", "1", "--n", "2", "--nu", "2", "--route", "all"],
             "route"),
            (["d-coeffs", "--n", "3", "--k", "1", "--nu", "0",
              "--route", "power"], "route"),
            (["s", "--n", "2", "--k", "1", "--j", "5"], "j"),
            (["F-coeff", "--k", "1", "--m", "2", "--nu", "7"], "nu")]:
        assert main(["compute"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"target {argv[0]!r} does not take --{option}" in captured.err
    assert main(["verify", "thm1", "--n-max", "0"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    # a sweep with no checks is refused, not passed
    for argv in (["--n-max", "1"], ["--k-max", "1"]):
        assert main(["verify", "thm6"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("suite 'thm6' has no checks" in captured.err
                and "smallest grid is --n-max 2 --k-max 2" in captured.err)
    # c3's recurrence check reads triples, so fewer terms check nothing
    for count in ("1", "2"):
        assert main(["seq", "c3", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "need count >= 3" in captured.err


def test_verify_has_no_sorted_option(capsys):
    # reports come in one order, the suite table's, and no option reorders
    # them; verify takes no flag, so --sorted is refused like any unknown
    # option
    from bernkit.cli import COMMANDS
    assert main(["verify", "all", "--sorted"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("bernkit: error: unknown option '--sorted' "
                            "for verify\n")
    for _, _, (_, _, choices), options_for in COMMANDS.values():
        for choice in choices:
            assert all(kind is not bool
                       for kind, _ in options_for(choice).values())


EMPTY = hashlib.sha256(b"").hexdigest()

#: argv -> (exit code, SHA-256 of stdout), or (0, None) for help, whose
#: stdout is a usage text.  Every row but the help rows, the abbreviation,
#: the empty thm6 sweep and --sorted prints what it printed under argparse.
GRAMMAR = [
    ("compute s --n=2 --k=1", 0,
     "105b60d4796fb7ac928892b39eaf02b938d4bc2cd5f3cefd3d09128f57e4dd7f"),
    ("compute s --n 2 --k=1 --route=all", 0,
     "19b236b4c95a68698d11ab6a1c33df7ef6a9b20f897b11ac7fd881fc75ed320f"),
    ("compute --n 2 --k 1 s", 0,
     "105b60d4796fb7ac928892b39eaf02b938d4bc2cd5f3cefd3d09128f57e4dd7f"),
    ("compute s --n 5 --k 1 --n 2", 0,
     "105b60d4796fb7ac928892b39eaf02b938d4bc2cd5f3cefd3d09128f57e4dd7f"),
    ("compute a_jkn --k 3 --n 2 --j -1", 0,
     "0df0e56d4088883b3b7f8cbf7d033abc626aaceeddc1e2152a1a6fb18e39b614"),
    ("compute F-coeff --k -1 --m 3", 2, EMPTY),
    ("compute p --n 3 --format latex", 0,
     "d93ce88fad99733b9502eb809e2d416d0f6cb86a98e6acd7f45a7d94884dc4ed"),
    ("table 3 --format=json", 0,
     "9450fe3122ea85b055f881a6e515a98f383b6adfbf7bf5b98e6f4c699472da2c"),
    ("table 01", 0,
     "25f19bc6cbaf316a3af401db6161dcfd1b301e346033004ce8b0669020bf9cb8"),
    ("seq c3 --count 4 --format latex", 0,
     "bf515594595d7b27c80989d44c5849806bd5bf5791ab75e5822de1212649f9fa"),
    ("seq a --count=3 --count 5", 0,
     "88f262347049605f923bc8d8000396be6a800bdd1314a4ddf4be55e8893d9793"),
    ("verify cor10 --n-max 3 --format json", 0,
     "e47fc76ef1ab054cb491b3d7d62c369833d2d42745165bfa17892d0c413bb73d"),
    ("verify thm1 --k-max 1 --n-max 2 --k-max 2", 0,
     "cb3339c762ae01f091be130567c623e7d9d9c41f441f29f276ad444a137d60be"),
    # usage errors: exit 2 and nothing on stdout
    ("", 2, EMPTY),
    ("bogus", 2, EMPTY),
    ("verify bogus", 2, EMPTY),
    ("table 4", 2, EMPTY),
    ("table -1", 2, EMPTY),
    ("table 1 2", 2, EMPTY),
    ("verify", 2, EMPTY),
    ("verify all --parallel", 2, EMPTY),
    ("compute s --n 1 --k 1 --format xml", 2, EMPTY),
    ("compute p --n x", 2, EMPTY),
    ("seq a --count 2.5", 2, EMPTY),
    ("seq a", 2, EMPTY),
    ("compute s --n 1 --k", 2, EMPTY),
    # changed on purpose: help text, no abbreviations, no empty sweep,
    # no --sorted (reports come in suite-table order)
    ("-h", 0, None),
    ("--help", 0, None),
    ("verify -h", 0, None),
    ("compute s --help", 0, None),
    ("verify thm1 --n-m 2", 2, EMPTY),
    ("verify thm6 --n-max 1", 2, EMPTY),
    ("verify --sorted lemma7 --n-max 2 --k-max 2", 2, EMPTY),
]


@pytest.mark.parametrize("argv, code, digest", GRAMMAR)
def test_grammar_parity(capsys, argv, code, digest):
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    if digest is None:
        assert captured.out.startswith("usage: bernkit ")
        assert captured.err == ""
    else:
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
    if code == 2:
        assert captured.err.startswith("bernkit: error: ")


def test_help_is_made_from_the_tables(capsys):
    from bernkit.cli import COMMANDS, TARGETS
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in COMMANDS:
        assert f"  bernkit {command} " in out
    assert main(["compute", "-h"]) == 0
    out = capsys.readouterr().out
    for target in TARGETS:
        assert f"  bernkit compute {target} " in out
    assert "  bernkit compute p --n N\n" in out
    assert main(["verify", "all", "-h"]) == 0
    assert "[--n-max N_MAX (default 4)]" in capsys.readouterr().out


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


def test_verify_cor9_respects_k_max(capsys):
    # k = 2 rows, at odd n, only when k_max >= 2
    code, out = run(["verify", "cor9", "--k-max", "1"], capsys)
    assert code == 0
    assert out.splitlines() == [f"PASS cor9 n={n} k=1" for n in range(1, 5)] + [
        "4/4 checks passed"]
    code, out = run(["verify", "all", "--n-max", "2", "--k-max", "1"], capsys)
    assert code == 0
    assert [line for line in out.splitlines() if " cor9 " in line] == [
        "PASS cor9 n=1 k=1", "PASS cor9 n=2 k=1"]
    code, out = run(["verify", "cor9", "--n-max", "3", "--k-max", "2"], capsys)
    assert code == 0
    assert [line.split(" ", 2)[2] for line in out.splitlines()[:-1]] == [
        "n=1 k=1", "n=2 k=1", "n=3 k=1", "n=1 k=2", "n=3 k=2"]


def test_compute_a_jkn_builds_each_route_row_once(capsys, monkeypatch):
    # a full row is one polynomial power and one u value per nu; one --j
    # reads u_0..u_j
    import bernkit.convolution as conv
    calls = {"a_coeff_list": [], "u_nu": []}
    for name, calls_of in calls.items():
        real = getattr(conv, name)
        monkeypatch.setattr(conv, name, lambda *args, real=real,
                            calls_of=calls_of: calls_of.append(args)
                            or real(*args))
    code, doc = run_json(
        ["compute", "a_jkn", "--k", "3", "--n", "5", "--route", "all"],
        capsys)
    assert code == 0 and doc["agreement"] is True
    assert len(doc["coefficients"]) == 11
    assert calls["a_coeff_list"] == [(3, 5)]
    assert calls["u_nu"] == [(3, 5, nu) for nu in range(11)]
    for calls_of in calls.values():
        calls_of.clear()
    code, out = run(["compute", "a_jkn", "--k", "3", "--n", "5", "--j", "4",
                     "--route", "u"], capsys)
    assert code == 0 and out == "a_jkn k=3 n=5 j=4: 1770\n"
    assert calls["u_nu"] == [(3, 5, nu) for nu in range(5)]


def test_verify_thm1_sweep(capsys):
    code, out = run(["verify", "thm1", "--n-max", "4", "--k-max", "2"],
                    capsys)
    assert code == 0
    assert out.count("PASS thm1") == 8


#: SHA-256 of `bernkit verify all` at its defaults: the reports in
#: suite-table order, the one order there is
VERIFY_ALL_DIGEST = (
    "e0b77a0a987aeeef5760704fae6d057e0c4b90011ffad314aa803786255cd1ec")


@pytest.mark.parametrize("extra, digest", [
    ([], VERIFY_ALL_DIGEST),
    (["--n-max", "5", "--k-max", "4"],
     "4c7825490976440930583890f7f8d47c345c3f7800877799a106ec60b448824b"),
    (["--n-max", "6", "--k-max", "4"],
     "94cd9c2684931a864f3dab730063db8255dd6879ed58af7378c651d9d431a15f"),
    (["--format", "json"],
     "f17d1867302ab4a81dcfa2331e093c0dc9c7d8de770480fc39ab39e849078931"),
    (["--format", "latex"],
     "b284fac0ad353a32de51011c9c87b21f5e34a6b3c6f69321ca7b5eff1dee32ba"),
])
def test_verify_all_output_matches_pinned_digest(capsys, extra, digest):
    code, out = run(["verify", "all"] + extra, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["seq", "a", "--count", "300"],
     "a57b29e768b6067b4cc2505fa110fd3ac8d6becd581ff7e2b26b530f32f92c09"),
    (["seq", "c", "--count", "60"],
     "4bb61cf0d84f30665c5e6d27e51d776fcbc15f5fe30986ab58869d837b02333b"),
    (["seq", "c3", "--count", "80"],
     "18ac0a615b1fdbfc239ed9b66331488e04f5b19d1f96f36bc0e16ef67d50db52"),
    (["table", "3"],
     "8d8b2b38e77511bd0afd608289f13f898b253fb949a1aa1b842764716ff1e282"),
    (["table", "1"],
     "25f19bc6cbaf316a3af401db6161dcfd1b301e346033004ce8b0669020bf9cb8"),
    (["table", "1", "--format", "json"],
     "af326eb7852c041924c87d5b91d0b86099e0c642c12dc30e1561da86d216d5d5"),
    (["table", "1", "--format", "latex"],
     "52263ef322f0c80e52b97f1339c6ab18703d4694ef720f27970e2fea69d6a8d9"),
    (["table", "2"],
     "bbc515997d2e43565c3f28d487a5b635426c609a214c1c703f6d0e769678cfd3"),
    (["table", "2", "--format", "json"],
     "d51a71d38788b29e2cdaedbe94734b8361e41296e74f0c94b710e0d6642ad4e4"),
    (["table", "2", "--format", "latex"],
     "c49d724ede7b7bb969016d661fe9e0635b7bef59f64d1368dff66519a6920a3c"),
    (["table", "3", "--format", "json"],
     "9450fe3122ea85b055f881a6e515a98f383b6adfbf7bf5b98e6f4c699472da2c"),
    (["table", "3", "--format", "latex"],
     "73b57791e04c4c6384cac54a6f5727be4117c178dfbb62fbdc057a390a8a677c"),
    (["seq", "a", "--count", "40", "--format", "json"],
     "6aa099d46f0ca3bfd270b202fbd3390b5603021f120d4a1152b572abc90d25c8"),
    (["seq", "a", "--count", "40", "--format", "latex"],
     "a8d9dda9df5b7531f9a4d3e494b42583bfd7e7d5218d9d3d3ebd205cc1f6663e"),
    (["seq", "c", "--count", "30", "--format", "json"],
     "18836f93fe3ae7caaabacd6f9942b1d9838d2c14254ef7a0c92b8320d63a10f5"),
    (["seq", "c", "--count", "30", "--format", "latex"],
     "568be9c103ba3b9ef0fd989186d3ed8ba48d1778154bc0662d4f30ed6d00c5bb"),
    (["seq", "c3", "--count", "20", "--format", "json"],
     "6bf492445d25817f033207a692a07a6ef6d10bec6141e600dee728594eef1b96"),
    (["seq", "c3", "--count", "20", "--format", "latex"],
     "d638ec7c6918f5d2383b5b6e23c54189212bc6b08bc09e17948912376e840547"),
])
def test_sequence_output_matches_pinned_digest(capsys, argv, digest):
    code, out = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: per compute target: every route name, `all`, the default, a bad route and
#: the edge points, plus one missing and one out-of-range argument
COMPUTE_MATRIX = {
    "s": [["--n", "2", "--k", "2"]]
    + [["--n", "2", "--k", "2", "--route", r]
       for r in ("direct", "series", "eulerian", "all", "bogus")]
    + [["--n", "2", "--k", "0"]]
    + [["--n", "2", "--k", "0", "--route", r]
       for r in ("series", "eulerian", "all")]
    + [["--k", "1"], ["--n", "0", "--k", "1"]],
    "F-coeff": [["--k", "2", "--m", "3"]]
    + [["--k", "2", "--m", "3", "--route", r]
       for r in ("direct", "eulerian", "all", "bogus")]
    + [["--k", "0", "--m", "3"]]
    + [["--k", "0", "--m", "3", "--route", r] for r in ("eulerian", "all")]
    + [["--m", "3"], ["--k", "-1", "--m", "3"]],
    "multisum": [["--k", "2", "--nu", "3", "--n", "2"]]
    + [["--k", "2", "--nu", "3", "--n", "2", "--route", r]
       for r in ("enumeration", "multinomial", "power", "all", "bogus")]
    + [["--k", "2", "--nu", nu, "--n", "2", "--route", r]
       for nu in ("0", "5") for r in ("enumeration", "power", "all")]
    + [["--k", "2", "--n", "2"], ["--k", "0", "--nu", "1", "--n", "2"]],
    "d-coeffs": [["--n", "3", "--k", "1", "--nu", "0"],
                 ["--n", "2", "--k", "2", "--nu", "2"],
                 ["--n", "2", "--k", "2", "--nu", "4"],
                 ["--n", "2", "--k", "2"],
                 ["--n", "2", "--k", "0", "--nu", "0"],
                 ["--n", "2", "--k", "2", "--nu", "5"]],
    "p": [["--n", "1"], ["--n", "3"], [], ["--n", "0"]],
    "a_jkn": [["--k", "3", "--n", "2"]]
    + [["--k", "3", "--n", "2", "--route", r]
       for r in ("poly", "multinomial", "u", "all", "bogus")]
    + [["--k", "3", "--n", "2", "--j", "1"]]
    + [["--k", "3", "--n", "2", "--j", "1", "--route", r]
       for r in ("poly", "multinomial", "u", "all")]
    + [["--k", "3"], ["--k", "0", "--n", "2"]],
    "u_nu": [["--k", "1", "--n", "2", "--nu", "2"],
             ["--k", "2", "--n", "3", "--nu", "4"],
             ["--k", "2", "--n", "3", "--nu", "0"],
             ["--k", "2", "--n", "3"], ["--k", "2", "--n", "0", "--nu", "1"]],
}


@pytest.mark.parametrize("target, digest", [
    ("s",
     "6e4ede0e1283929004bc18ef75d48271a73f017a5a2dfaa3cc592d53e8c2a638"),
    ("F-coeff",
     "991f85726d10e92c52e0d85c60d0111e1d2ad8434cdaa57a8bef5ed608d5df58"),
    ("multisum",
     "f3684e8cebf6428ddc73e56509d12426400aa26e30ad0702123db862b68ffbce"),
    ("d-coeffs",
     "c1177ea7452dab542d2eeaf93c4fac619611ffed85bfc62ed9d3816b48ed71dd"),
    ("p",
     "cf5a050ba0566eb2345dd95a82dd417747f410bc57a8f4ebd8d7b7244e534f83"),
    ("a_jkn",
     "8b9b22f2c1bd3b2923f020e1d1ddd4e8ba7d0ec59d8f85d238513488b32add12"),
    ("u_nu",
     "2af67478ad7e418a668fa67c2c1d2bf765b8b842e93dba5b820d96830a626c77"),
])
def test_compute_output_matches_pinned_digest(capsys, target, digest):
    # stdout and exit code of every matrix row, in all three formats
    record = []
    for fmt in ("plain", "json", "latex"):
        for tail in COMPUTE_MATRIX[target]:
            code, out = run(["compute", target] + tail + ["--format", fmt],
                            capsys)
            record.append(f"{code}\n{out}")
    assert hashlib.sha256("".join(record).encode()).hexdigest() == digest


def test_verify_cor10_fails_on_corrupted_two_step_value(capsys, monkeypatch):
    from bernkit import convolution
    two_step = convolution.a_sequence

    def corrupted(count):
        a = two_step(count)
        if count > 3:
            a[3] += 1
        return a

    monkeypatch.setattr(convolution, "a_sequence", corrupted)
    code, out = run(["verify", "cor10"], capsys)
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL cor10 n=3 :: two-step recurrence a_3 = 106 != "
                     "cubic recurrence 105"]
    assert out.splitlines()[-1] == "4/5 checks passed"


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


def test_verify_json_counts_without_parallel(capsys):
    args = ["verify", "lemma5", "--n-max", "2", "--k-max", "2"]
    code, doc = run_json(args, capsys)
    assert code == 0
    assert doc["passed"] is True
    assert doc["counts"] == {"total": len(doc["reports"]), "failed": 0}
    # there is no --parallel option
    assert main(args + ["--parallel"]) == 2
    capsys.readouterr()


def test_verify_check_that_raises_is_a_fail_report(capsys):
    from bernkit.specialfns import eulerian_cache
    eulerian_cache.ensure(2)
    original = eulerian_cache.polys[2]
    broken = list(original.coeffs)
    broken[1] += Fraction(1, 2)
    eulerian_cache.polys[2] = UniPoly(broken, "y")
    try:
        code, out = run(["verify", "routes", "--n-max", "2", "--k-max", "2"],
                        capsys)
    finally:
        eulerian_cache.polys[2] = original
    assert code == 1
    lines = out.splitlines()
    assert [line.split(" ::")[0] for line in lines[:-1]] == [
        f"{'FAIL' if k == 2 else 'PASS'} routes n={n} k={k}"
        for n in (1, 2) for k in (1, 2)]
    fails = [line for line in lines if line.startswith("FAIL")]
    assert all(":: ValueError: " in line for line in fails)
    assert lines[-1] == "2/4 checks passed"


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("bernkit.cli.conv.p_poly", broken)
    assert main(["compute", "p", "--n", "2"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: injected" in err


def test_verify_latex(capsys):
    code, out = run(["verify", "cor10", "--format", "latex",
                     "--n-max", "3"], capsys)
    assert code == 0
    assert r"\begin{tabular}" in out


def test_console_entry_point_subprocess():
    # the child imports the same bernkit as this process, installed or not,
    # and starts with empty caches: it prints the pinned bytes
    src = os.path.dirname(os.path.dirname(bernkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bernkit.cli", "verify", "all"],
        capture_output=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_DIGEST


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
