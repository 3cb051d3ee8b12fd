"""Command-line front end.

    bernkit <compute|table|seq|verify> [subargs] [--format plain|json|latex]

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 internal error (any other uncaught exception; its traceback goes to
stderr).  A check that raises is a verification failure, not an internal
error: it becomes a FAIL report.  Every rational is printed as an exact
"num/den" string; nothing is ever rendered through floating point.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import partial

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
    import json  # only when JSON is asked for, to keep start-up lean
    print(json.dumps(doc, indent=2))


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _check_range(cond, message):
    if not cond:
        raise UsageError(message)


def _label(params):
    return " ".join(f"{k}={v}" for k, v in params.items())


def _poly_fields(p):
    return {"variable": p.var, "coefficients": poly_coeff_strings(p)}


def _poly_document(obj, params, p, routes=None):
    doc = {"object": obj, "params": params, **_poly_fields(p)}
    if routes is not None:
        doc["routes"] = {name: poly_coeff_strings(q)
                         for name, q in routes.items()}
        doc["agreement"] = len(set(routes.values())) == 1
    return doc


def _print_poly_result(obj, params, p, fmt, routes=None):
    if fmt == "json":
        emit_json(_poly_document(obj, params, p, routes))
    elif routes is None:
        emit(f"{obj} {_label(params)}: {render_poly(p, fmt)}")
    else:
        for name, q in routes.items():
            emit(f"{obj} {_label(params)} [{name}]: {render_poly(q, fmt)}")
        agree = len(set(routes.values())) == 1
        emit(f"agreement: {agree}")


def _print_d_coeffs(obj, params, table, fmt):
    if fmt == "json":
        emit_json({"object": obj, "params": params, "variable": "y",
                   "coefficients": [fmt_rational(d) for d in table.d]})
    else:
        emit(f"{obj} {_label(params)}: {list(table.d)}")
        emit(f"as polynomial: {render_poly(UniPoly(table.d, 'y'), fmt)}")


def _print_a_jkn(obj, params, values, fmt, routes=None):
    # one route prints the values, every route their polynomial in y
    if routes is not None:
        polys = {name: UniPoly(v, "y") for name, v in routes.items()}
        _print_poly_result(obj, params, UniPoly(values, "y"), fmt, polys)
    elif fmt == "json":
        emit_json({"object": obj, "params": params, "variable": "y",
                   "coefficients": [fmt_rational(v) for v in values]})
    else:
        emit(f"{obj} {_label(params)}: "
             f"{values[0] if 'j' in params else values}")


def _print_u_nu(obj, params, value, fmt):
    if fmt == "json":
        emit_json({"object": obj, "params": params,
                   "value": fmt_rational(value)})
    else:
        emit(f"{obj} {_label(params)}: {value}")


def _f_coefficient(route: str, k: int, m: int) -> UniPoly:
    builder = build_F_direct if route == "direct" else build_F_eulerian
    return builder(k, m).coefficient(m)


def _a_jkn_row(f, k: int, n: int, j: int | None) -> list[int]:
    js = [j] if j is not None else range(n * (k - 1) + 1)
    return [f(k, n, i) for i in js]


#: the integer parameters `compute` takes, in --help order
PARAMS = ("n", "k", "m", "nu", "j")

#: target -> (required parameters, optional parameters, range rule, usage
#: message, routes, printer).  The parameters are named in label order, and
#: every route function takes their values in that order, None for an
#: optional one not given.  The range rule and the routes are functions of
#: the parsed arguments; routes(args) maps route names to functions, the
#: default first, read off the modules per call so that a wrapper (a tracer,
#: a test's monkeypatch) is the one called.  A target without routes maps
#: None to its one function and takes no --route.  The printer prints one
#: route's value, or all of them when given `routes`; None means
#: `_print_poly_result`.  Plain tuples: a namedtuple class costs start-up.
TARGETS = {
    "s": (
        ("n", "k"), (), lambda a: a.n >= 1 and a.k >= 0,
        "need n >= 1 and k >= 0",
        lambda a: {r: partial(conv.s_poly, route=r)
                   for r in conv.s_routes(a.k)}, None),
    "F-coeff": (
        ("k", "m"), (), lambda a: a.k >= 0 and a.m >= 0,
        "need k >= 0 and m >= 0",
        lambda a: {r: partial(_f_coefficient, r)
                   for r in ["direct"] + (["eulerian"] if a.k >= 1 else [])},
        None),
    "multisum": (
        ("k", "nu", "n"), (), lambda a: a.k >= 1 and a.n >= 1 and a.nu >= 0,
        "need k >= 1, nu >= 0, n >= 1",
        lambda a: {"enumeration": conv.multisum_poly,
                   "multinomial": conv.multisum_poly_multinomial,
                   "power": conv.multisum_poly_power}, None),
    "d-coeffs": (
        ("n", "k", "nu"), (),
        lambda a: a.n >= 1 and a.k >= 1 and 0 <= a.nu <= a.n * a.k,
        "need n >= 1, k >= 1 and 0 <= nu <= n*k",
        lambda a: {None: conv.d_coeffs}, _print_d_coeffs),
    "p": (
        ("n",), (), lambda a: a.n >= 1, "need n >= 1",
        lambda a: {None: conv.p_poly}, None),
    "a_jkn": (
        ("k", "n"), ("j",), lambda a: a.k >= 1 and a.n >= 1,
        "need k >= 1 and n >= 1",
        lambda a: {"poly": partial(_a_jkn_row, conv.a_jkn),
                   "multinomial": partial(_a_jkn_row, conv.a_jkn_multinomial),
                   "u": partial(_a_jkn_row, conv.a_jkn_from_u)},
        _print_a_jkn),
    "u_nu": (
        ("k", "n", "nu"), (), lambda a: a.k >= 1 and a.n >= 1 and a.nu >= 0,
        "need k >= 1, n >= 1, nu >= 0",
        lambda a: {None: conv.u_nu}, _print_u_nu),
}


def cmd_compute(args) -> int:
    name = args.target
    required, optional, valid, usage, routes_for, show = TARGETS[name]
    names = required + optional
    for param in required:
        if getattr(args, param) is None:
            raise UsageError(f"target {name!r} requires --{param}")
    routes = routes_for(args)
    takes = names if None in routes else names + ("route",)
    for option in PARAMS + ("route",):
        if option not in takes and getattr(args, option) is not None:
            raise UsageError(f"target {name!r} does not take --{option}")
    _check_range(valid(args), usage)
    values = [getattr(args, param) for param in names]
    params = {p: v for p, v in zip(names, values) if v is not None}
    show = show or _print_poly_result
    route = args.route or next(iter(routes))
    if route == "all":
        results = {r: f(*values) for r, f in routes.items()}
        show(name, params, next(iter(results.values())), args.fmt, results)
    elif route in routes:
        show(name, params, routes[route](*values), args.fmt)
    else:
        raise UsageError(f"route must be one of {list(routes) + ['all']}")
    return 0


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


#: table number -> (object name, LaTeX header, rows), where rows() gives
#: (params, {name: poly}) pairs in print order.  A row of one polynomial
#: prints it bare; a row of several names each one.
TABLES = {
    1: ("table1", ["$k$", "$n$", "$S_{n,k}(z)$"],
        lambda: [({"k": k, "n": n}, {"S": conv.s_direct(n, k)})
                 for k in (1, 2) for n in range(1, 5)]),
    2: ("table2", ["$k$", "$B_k(z)$", "$A_k(y)$"],
        lambda: [({"k": k}, {"B": bernoulli_poly(k), "A": eulerian_poly(k)})
                 for k in range(7)]),
    3: ("table3", ["$n$", "$p_n(z)$"],
        lambda: [({"n": n}, {"p": conv.p_poly(n)}) for n in range(1, 7)]),
}


def cmd_table(args) -> int:
    obj, header, rows_for = TABLES[args.which]
    rows = rows_for()
    if args.fmt == "json":
        emit_json({"object": obj, "entries": [
            {**params, **(_poly_fields(*polys.values()) if len(polys) == 1
                          else {name: _poly_fields(p)
                                for name, p in polys.items()})}
            for params, polys in rows]})
    elif args.fmt == "latex":
        emit(_latex_tabular(header, [
            [str(v) for v in params.values()]
            + [f"${poly_latex(p)}$" for p in polys.values()]
            for params, polys in rows]))
    else:
        for params, polys in rows:
            cells = [poly_plain(p) if len(polys) == 1
                     else f"{name} = {poly_plain(p)}"
                     for name, p in polys.items()]
            emit(f"{_label(params)}: {'   '.join(cells)}")
    return 0


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
    reports = conv.run_suite(args.suite, args.n_max, args.k_max)
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
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", default="plain",
                     choices=["plain", "json", "latex"])

    pc = sub.add_parser("compute", parents=[fmt],
                        help="compute one object exactly")
    pc.add_argument("target", choices=list(TARGETS))
    for param in PARAMS:
        pc.add_argument(f"--{param}", type=int)
    pc.add_argument("--route")
    pc.set_defaults(func=cmd_compute)

    pt = sub.add_parser("table", parents=[fmt],
                        help="regenerate a reference table")
    pt.add_argument("which", type=int, choices=[1, 2, 3])
    pt.set_defaults(func=cmd_table)

    ps = sub.add_parser("seq", parents=[fmt],
                        help="emit a sequence prefix with checks")
    ps.add_argument("name", choices=["c", "a", "c3"])
    ps.add_argument("--count", type=int, required=True)
    ps.set_defaults(func=cmd_seq)

    pv = sub.add_parser("verify", parents=[fmt],
                        help="run a verification sweep")
    pv.add_argument("suite", choices=list(conv.SUITES) + ["all"])
    pv.add_argument("--n-max", dest="n_max", type=int, default=4)
    pv.add_argument("--k-max", dest="k_max", type=int, default=3)
    pv.add_argument("--sorted", action="store_true")
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
    except Exception:
        import traceback  # only on this path, to keep start-up lean
        traceback.print_exc()
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
