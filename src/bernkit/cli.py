"""Command-line front end.

    bernkit <compute|table|seq|verify> [subargs] [--format plain|json|latex]

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error.  Every rational is printed as an exact "num/den" string; nothing is
ever rendered through floating point.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import convolution as conv
from .polycore import UniPoly
from .series import build_F_direct, build_F_eulerian
from .specialfns import bernoulli_poly, eulerian_poly


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def fmt_rational(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


def poly_coeff_strings(p: UniPoly) -> list[str]:
    return [fmt_rational(c) for c in p.coeffs]


def poly_from_document(doc: dict) -> UniPoly:
    return UniPoly([parse_rational(s) for s in doc["coefficients"]],
                   doc["variable"])


def poly_plain(p: UniPoly) -> str:
    if not p:
        return "0"
    parts = []
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = p.var if i == 1 else f"{p.var}^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def poly_latex(p: UniPoly) -> str:
    if not p:
        return "0"
    out = ""
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if not c:
            continue
        sign = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        if mag.denominator == 1:
            coeff = str(mag.numerator)
        else:
            coeff = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if i == 0:
            body = coeff
        else:
            var = p.var if i == 1 else f"{p.var}^{{{i}}}"
            body = var if mag == 1 else coeff + var
        out += sign + body
    return out


def render_poly(p: UniPoly, fmt: str) -> str:
    if fmt == "latex":
        return f"${poly_latex(p)}$"
    return poly_plain(p)


def emit(text: str) -> None:
    print(text)


def emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _require(args, names):
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise UsageError(f"target {args.target!r} requires --{name}")


def _check_range(cond, message):
    if not cond:
        raise UsageError(message)


def _poly_document(obj, params, p, routes=None):
    doc = {"object": obj, "params": params, "variable": p.var,
           "coefficients": poly_coeff_strings(p)}
    if routes is not None:
        doc["routes"] = {name: poly_coeff_strings(q)
                         for name, q in routes.items()}
        doc["agreement"] = len({q.coeffs for q in routes.values()}) == 1
    return doc


def _print_poly_result(obj, params, p, fmt, routes=None):
    if fmt == "json":
        emit_json(_poly_document(obj, params, p, routes))
        return
    label = " ".join(f"{k}={v}" for k, v in params.items())
    if routes is None:
        emit(f"{obj} {label}: {render_poly(p, fmt)}")
    else:
        for name, q in routes.items():
            emit(f"{obj} {label} [{name}]: {render_poly(q, fmt)}")
        agree = len({q.coeffs for q in routes.values()}) == 1
        emit(f"agreement: {agree}")


def cmd_compute(args) -> int:
    target = args.target
    fmt = args.fmt
    if target == "s":
        _require(args, ["n", "k"])
        _check_range(args.n >= 1 and args.k >= 0, "need n >= 1 and k >= 0")
        route = args.route or "direct"
        names = ["direct", "series"] + (["eulerian"] if args.k >= 1 else [])
        if route == "all":
            results = conv.s_all_routes(args.n, args.k)
            routes = {r.route: r.poly for r in results}
            _print_poly_result("s", {"n": args.n, "k": args.k},
                               results[0].poly, fmt, routes)
            return 0
        if route not in names:
            raise UsageError(f"route must be one of {names + ['all']}")
        p = conv.s_poly(args.n, args.k, route)
        _print_poly_result("s", {"n": args.n, "k": args.k}, p, fmt)
        return 0

    if target == "F-coeff":
        _require(args, ["k", "m"])
        _check_range(args.k >= 0 and args.m >= 0, "need k >= 0 and m >= 0")
        route = args.route or "direct"
        names = ["direct"] + (["eulerian"] if args.k >= 1 else [])
        if route == "all":
            routes = {name: _f_coefficient(name, args.k, args.m)
                      for name in names}
            _print_poly_result("F-coeff", {"k": args.k, "m": args.m},
                               next(iter(routes.values())), fmt, routes)
            return 0
        if route not in names:
            raise UsageError(f"route must be one of {names + ['all']}")
        p = _f_coefficient(route, args.k, args.m)
        _print_poly_result("F-coeff", {"k": args.k, "m": args.m}, p, fmt)
        return 0

    if target == "multisum":
        _require(args, ["k", "nu", "n"])
        _check_range(args.k >= 1 and args.n >= 1 and args.nu >= 0,
                     "need k >= 1, nu >= 0, n >= 1")
        route = args.route or "enumeration"
        funcs = {"enumeration": conv.multisum_poly,
                 "multinomial": conv.multisum_poly_multinomial,
                 "power": _multisum_from_power}
        params = {"k": args.k, "nu": args.nu, "n": args.n}
        if route == "all":
            routes = {name: f(args.k, args.nu, args.n)
                      for name, f in funcs.items()}
            _print_poly_result("multisum", params,
                               next(iter(routes.values())), fmt, routes)
            return 0
        if route not in funcs:
            raise UsageError(
                "route must be enumeration, multinomial, power or all")
        _print_poly_result("multisum", params,
                           funcs[route](args.k, args.nu, args.n), fmt)
        return 0

    if target == "d-coeffs":
        _require(args, ["n", "k", "nu"])
        _check_range(args.n >= 1 and args.k >= 1, "need n >= 1 and k >= 1")
        _check_range(0 <= args.nu <= args.n * args.k,
                     "need 0 <= nu <= n*k")
        table = conv.d_coeffs(args.n, args.k, args.nu)
        params = {"n": args.n, "k": args.k, "nu": args.nu}
        p = UniPoly(table.d, "y")
        if fmt == "json":
            doc = {"object": "d-coeffs", "params": params, "variable": "y",
                   "coefficients": [fmt_rational(d) for d in table.d]}
            emit_json(doc)
        else:
            label = " ".join(f"{k}={v}" for k, v in params.items())
            emit(f"d-coeffs {label}: {list(table.d)}")
            emit(f"as polynomial: {render_poly(p, fmt)}")
        return 0

    if target == "p":
        _require(args, ["n"])
        _check_range(args.n >= 1, "need n >= 1")
        _print_poly_result("p", {"n": args.n}, conv.p_poly(args.n), fmt)
        return 0

    if target == "a_jkn":
        _require(args, ["k", "n"])
        _check_range(args.k >= 1 and args.n >= 1, "need k >= 1 and n >= 1")
        route = args.route or "poly"
        funcs = {"poly": conv.a_jkn, "multinomial": conv.a_jkn_multinomial,
                 "u": conv.a_jkn_from_u}
        params = {"k": args.k, "n": args.n}
        js = ([args.j] if args.j is not None
              else list(range(args.n * (args.k - 1) + 1)))
        if args.j is not None:
            params["j"] = args.j
        if route == "all":
            routes = {name: UniPoly([f(args.k, args.n, j) for j in js], "y")
                      for name, f in funcs.items()}
            _print_poly_result("a_jkn", params,
                               next(iter(routes.values())), fmt, routes)
            return 0
        if route not in funcs:
            raise UsageError("route must be poly, multinomial, u or all")
        values = [funcs[route](args.k, args.n, j) for j in js]
        if fmt == "json":
            emit_json({"object": "a_jkn", "params": params, "variable": "y",
                       "coefficients": [fmt_rational(v) for v in values]})
        else:
            label = " ".join(f"{k}={v}" for k, v in params.items())
            emit(f"a_jkn {label}: {values if args.j is None else values[0]}")
        return 0

    if target == "u_nu":
        _require(args, ["k", "n", "nu"])
        _check_range(args.k >= 1 and args.n >= 1 and args.nu >= 0,
                     "need k >= 1, n >= 1, nu >= 0")
        value = conv.u_nu(args.k, args.n, args.nu)
        params = {"k": args.k, "n": args.n, "nu": args.nu}
        if fmt == "json":
            emit_json({"object": "u_nu", "params": params,
                       "value": fmt_rational(value)})
        else:
            label = " ".join(f"{k}={v}" for k, v in params.items())
            emit(f"u_nu {label}: {value}")
        return 0

    raise UsageError(f"unknown compute target {target!r}")


def _multisum_from_power(k: int, nu: int, n: int) -> UniPoly:
    power = conv.multisum_power(k, n)
    return power[nu] if nu < len(power) else UniPoly((), "y")


def _f_coefficient(route: str, k: int, m: int) -> UniPoly:
    builder = build_F_direct if route == "direct" else build_F_eulerian
    return builder(k, m).coefficient(m)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _latex_tabular(header: list[str], rows: list[list[str]]) -> str:
    cols = "|" + "|".join(["r"] + ["l"] * (len(header) - 1)) + "|"
    lines = [rf"\begin{{tabular}}{{{cols}}}", r"\hline",
             " & ".join(header) + r" \\", r"\hline"]
    lines += [" & ".join(row) + r" \\" for row in rows]
    lines += [r"\hline", r"\end{tabular}"]
    return "\n".join(lines)


def cmd_table(args) -> int:
    fmt = args.fmt
    if args.which == 1:
        entries = [(k, n, conv.s_direct(n, k))
                   for k in (1, 2) for n in range(1, 5)]
        if fmt == "json":
            emit_json({"object": "table1", "entries": [
                {"k": k, "n": n, "variable": "z",
                 "coefficients": poly_coeff_strings(p)}
                for k, n, p in entries]})
        elif fmt == "latex":
            emit(_latex_tabular(
                ["$k$", "$n$", "$S_{n,k}(z)$"],
                [[str(k), str(n), f"${poly_latex(p)}$"]
                 for k, n, p in entries]))
        else:
            for k, n, p in entries:
                emit(f"k={k} n={n}: {poly_plain(p)}")
        return 0

    if args.which == 2:
        rows = [(k, bernoulli_poly(k), eulerian_poly(k)) for k in range(7)]
        if fmt == "json":
            emit_json({"object": "table2", "entries": [
                {"k": k,
                 "B": {"variable": "z", "coefficients": poly_coeff_strings(b)},
                 "A": {"variable": "y", "coefficients": poly_coeff_strings(a)}}
                for k, b, a in rows]})
        elif fmt == "latex":
            emit(_latex_tabular(
                ["$k$", "$B_k(z)$", "$A_k(y)$"],
                [[str(k), f"${poly_latex(b)}$", f"${poly_latex(a)}$"]
                 for k, b, a in rows]))
        else:
            for k, b, a in rows:
                emit(f"k={k}: B = {poly_plain(b)}   A = {poly_plain(a)}")
        return 0

    if args.which == 3:
        rows = [(n, conv.p_poly(n)) for n in range(1, 7)]
        if fmt == "json":
            emit_json({"object": "table3", "entries": [
                {"n": n, "variable": "z",
                 "coefficients": poly_coeff_strings(p)} for n, p in rows]})
        elif fmt == "latex":
            emit(_latex_tabular(
                ["$n$", "$p_n(z)$"],
                [[str(n), f"${poly_latex(p)}$"] for n, p in rows]))
        else:
            for n, p in rows:
                emit(f"n={n}: {poly_plain(p)}")
        return 0

    raise UsageError("table number must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

def cmd_seq(args) -> int:
    _check_range(args.count >= 1, "need count >= 1")
    table = {"c": conv.seq_c, "a": conv.seq_a, "c3": conv.seq_c3}[
        args.name](args.count)
    checks = conv.seq_checks(table)
    if args.fmt == "json":
        emit_json({"object": "seq", "name": table.name, "start": table.start,
                   "values": [fmt_rational(v) for v in table.values],
                   "checks": checks})
        return 0
    if args.fmt == "latex":
        emit(_latex_tabular(
            ["$n$", "value"],
            [[str(table.start + i), f"${fmt_latex_rational(v)}$"]
             for i, v in enumerate(table.values)]))
        return 0
    for i, v in enumerate(table.values):
        emit(f"{table.name}_{table.start + i} = {v}")
    for key, ok in checks.items():
        emit(f"check {key}: {ok}")
    return 0


def fmt_latex_rational(v) -> str:
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    sign = "-" if v < 0 else ""
    return rf"{sign}\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    _check_range(args.n_max >= 1 and args.k_max >= 1,
                 "need --n-max >= 1 and --k-max >= 1")
    checks = conv.suite_checks(args.suite, args.n_max, args.k_max)
    reports = conv.run_checks(checks, parallel=args.parallel)
    if args.sorted:
        reports = sorted(reports, key=lambda r: (r.statement, r.params))
    ok = all(r.passed for r in reports)
    if args.fmt == "json":
        emit_json({"object": "verify", "suite": args.suite,
                   "params": {"n_max": args.n_max, "k_max": args.k_max},
                   "reports": [
                       {"statement": r.statement, "params": dict(r.params),
                        "passed": r.passed, "witness": r.witness}
                       for r in reports],
                   "passed": ok,
                   "counts": {"total": len(reports),
                              "failed": sum(not r.passed for r in reports)}})
    elif args.fmt == "latex":
        emit(_latex_tabular(
            ["statement", "params", "result"],
            [[r.statement, r.label(), "pass" if r.passed else "FAIL"]
             for r in reports]))
    else:
        for r in reports:
            if r.passed:
                emit(f"PASS {r.statement} {r.label()}")
            else:
                emit(f"FAIL {r.statement} {r.label()} :: {r.witness}")
        emit(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernkit",
        description="Exact computation and verification of Bernoulli-"
                    "polynomial convolution identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one object exactly")
    pc.add_argument("target", choices=["s", "F-coeff", "multisum", "d-coeffs",
                                       "p", "a_jkn", "u_nu"])
    pc.add_argument("--n", type=int)
    pc.add_argument("--k", type=int)
    pc.add_argument("--m", type=int)
    pc.add_argument("--nu", type=int)
    pc.add_argument("--j", type=int)
    pc.add_argument("--route")
    pc.add_argument("--format", dest="fmt", default="plain",
                    choices=["plain", "json", "latex"])
    pc.set_defaults(func=cmd_compute)

    pt = sub.add_parser("table", help="regenerate a reference table")
    pt.add_argument("which", type=int, choices=[1, 2, 3])
    pt.add_argument("--format", dest="fmt", default="plain",
                    choices=["plain", "json", "latex"])
    pt.set_defaults(func=cmd_table)

    ps = sub.add_parser("seq", help="emit a sequence prefix with checks")
    ps.add_argument("name", choices=["c", "a", "c3"])
    ps.add_argument("--count", type=int, required=True)
    ps.add_argument("--format", dest="fmt", default="plain",
                    choices=["plain", "json", "latex"])
    ps.set_defaults(func=cmd_seq)

    pv = sub.add_parser("verify", help="run a verification sweep")
    pv.add_argument("suite", choices=list(conv.SUITES) + ["all"])
    pv.add_argument("--n-max", dest="n_max", type=int, default=4)
    pv.add_argument("--k-max", dest="k_max", type=int, default=3)
    pv.add_argument("--parallel", action="store_true")
    pv.add_argument("--sorted", action="store_true")
    pv.add_argument("--format", dest="fmt", default="plain",
                    choices=["plain", "json", "latex"])
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"bernkit: error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
