"""Command-line front end.

    bernkit <compute|table|seq|verify> [subargs] [--format plain|json|latex]

The grammar is one table, COMMANDS: each command's positional choices, its
options and its handler.  `-h` prints usage made from it.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error, 3 internal error (any other uncaught exception; its traceback goes to
stderr).  A check that raises is a verification failure, not an internal
error: it becomes a FAIL report.  Every rational is printed as an exact
"num/den" string; nothing is ever rendered through floating point.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from itertools import count
from types import SimpleNamespace

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


def fmt_latex_rational(v) -> str:
    v = Fraction(v)
    if v.denominator == 1:
        return str(v.numerator)
    sign = "-" if v < 0 else ""
    return rf"{sign}\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def poly_coeff_strings(p: UniPoly) -> list[str]:
    return [fmt_rational(c) for c in p.coeffs]


def poly_from_document(doc: dict) -> UniPoly:
    return UniPoly([Fraction(s) for s in doc["coefficients"]],
                   doc["variable"])


def _terms(p: UniPoly):
    # (negative, |c|, power) for each nonzero coefficient c, highest power
    # first: the one term walk of both renderers
    for i in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[i]
        if c:
            yield c < 0, abs(c), i


def poly_plain(p: UniPoly) -> str:
    text = ""
    for negative, mag, i in _terms(p):
        var = p.var if i == 1 else f"{p.var}^{i}"
        body = str(mag) if i == 0 else var if mag == 1 else f"{mag}*{var}"
        # the first term carries only a minus sign, with no space
        text += ((" - " if text else "-") if negative
                 else " + " if text else "") + body
    return text or "0"


def poly_latex(p: UniPoly) -> str:
    out = ""
    for negative, mag, i in _terms(p):
        var = p.var if i == 1 else f"{p.var}^{{{i}}}"
        coeff = fmt_latex_rational(mag)
        body = coeff if i == 0 else var if mag == 1 else coeff + var
        out += ("-" if negative else "+" if out else "") + body
    return out or "0"


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


def _label(pairs):
    return " ".join(f"{k}={v}" for k, v in pairs)


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
        emit(f"{obj} {_label(params.items())}: {render_poly(p, fmt)}")
    else:
        for name, q in routes.items():
            emit(f"{obj} {_label(params.items())} [{name}]: "
                 f"{render_poly(q, fmt)}")
        agree = len(set(routes.values())) == 1
        emit(f"agreement: {agree}")


def _emit_y_values(obj, params, values):
    # the JSON document of a coefficient list in y, trailing zeros kept
    emit_json({"object": obj, "params": params, "variable": "y",
               "coefficients": [fmt_rational(v) for v in values]})


def _print_d_coeffs(obj, params, d, fmt):
    if fmt == "json":
        _emit_y_values(obj, params, d)
    else:
        emit(f"{obj} {_label(params.items())}: {list(d)}")
        emit(f"as polynomial: {render_poly(UniPoly(d, 'y'), fmt)}")


def _print_a_jkn(obj, params, values, fmt, routes=None):
    # one route prints the values, every route their polynomial in y
    if routes is not None:
        polys = {name: UniPoly(v, "y") for name, v in routes.items()}
        _print_poly_result(obj, params, UniPoly(values, "y"), fmt, polys)
    elif fmt == "json":
        _emit_y_values(obj, params, values)
    else:
        emit(f"{obj} {_label(params.items())}: "
             f"{values[0] if 'j' in params else values}")


def _print_u_nu(obj, params, value, fmt):
    if fmt == "json":
        emit_json({"object": obj, "params": params,
                   "value": fmt_rational(value)})
    else:
        emit(f"{obj} {_label(params.items())}: {value}")


def _f_coefficient(route: str, k: int, m: int) -> UniPoly:
    builder = build_F_direct if route == "direct" else build_F_eulerian
    return builder(k, m)[m]


def _a_jkn_row(single, row, k: int, n: int, j: int | None) -> list[int]:
    # [single(k, n, j)] for one --j; otherwise the row a_0..a_top,
    # top = n(k-1), built once by row(k, n, top) where a route has one,
    # else j by j
    top = n * (k - 1)
    if j is not None:
        return [single(k, n, j)]
    if row is None:
        return [single(k, n, i) for i in range(top + 1)]
    return list(row(k, n, top))


#: target -> (required parameters, optional parameters, range rule, usage
#: message, routes, printer).  The parameters are named in label order, and
#: every route function takes their values in that order, None for an
#: optional one not given.  The range rule is a function of the parsed
#: arguments.  A target with routes holds routes(args), which maps route
#: names to functions, the default first, and takes --route; a target
#: without routes names its one function in `convolution`.  Either way the
#: functions are read off the modules per call, so that a wrapper (a tracer,
#: a test's monkeypatch) is the one called.  The printer prints one route's
#: value, or all of them when given `routes`; None means
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
        "need n >= 1, k >= 1 and 0 <= nu <= n*k", "d_coeffs", _print_d_coeffs),
    "p": (("n",), (), lambda a: a.n >= 1, "need n >= 1", "p_poly", None),
    "a_jkn": (
        ("k", "n"), ("j",), lambda a: a.k >= 1 and a.n >= 1,
        "need k >= 1 and n >= 1",
        lambda a: {"poly": partial(_a_jkn_row, conv.a_jkn,
                                   lambda k, n, top: conv.a_coeff_list(k, n)),
                   "multinomial": partial(_a_jkn_row, conv.a_jkn_multinomial,
                                          None),
                   "u": partial(_a_jkn_row, conv.a_jkn_from_u,
                                conv._a_row_from_u)},
        _print_a_jkn),
    "u_nu": (
        ("k", "n", "nu"), (), lambda a: a.k >= 1 and a.n >= 1 and a.nu >= 0,
        "need k >= 1, n >= 1, nu >= 0", "u_nu", _print_u_nu),
}


def cmd_compute(args) -> int:
    name = args.target
    required, optional, valid, usage, routes, show = TARGETS[name]
    _check_range(valid(args), usage)
    names = required + optional
    values = [getattr(args, param) for param in names]
    params = {p: v for p, v in zip(names, values) if v is not None}
    show = show or _print_poly_result
    if isinstance(routes, str):
        show(name, params, getattr(conv, routes)(*values), args.format)
        return 0
    routes = routes(args)
    route = args.route or next(iter(routes))
    if route == "all":
        results = {r: f(*values) for r, f in routes.items()}
        show(name, params, next(iter(results.values())), args.format, results)
    elif route in routes:
        show(name, params, routes[route](*values), args.format)
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
    obj, header, rows_for = TABLES[args.table]
    rows = rows_for()
    if args.format == "json":
        emit_json({"object": obj, "entries": [
            {**params, **(_poly_fields(*polys.values()) if len(polys) == 1
                          else {name: _poly_fields(p)
                                for name, p in polys.items()})}
            for params, polys in rows]})
    elif args.format == "latex":
        emit(_latex_tabular(header, [
            [str(v) for v in params.values()]
            + [f"${poly_latex(p)}$" for p in polys.values()]
            for params, polys in rows]))
    else:
        for params, polys in rows:
            cells = [poly_plain(p) if len(polys) == 1
                     else f"{name} = {poly_plain(p)}"
                     for name, p in polys.items()]
            emit(f"{_label(params.items())}: {'   '.join(cells)}")
    return 0


# ---------------------------------------------------------------------------
# seq
# ---------------------------------------------------------------------------

def cmd_seq(args) -> int:
    _check_range(args.count >= 1, "need count >= 1")
    name = args.sequence
    function, start, _ = conv.SEQUENCES[name]
    values = getattr(conv, function)(args.count)
    try:
        checks = conv.seq_checks(name, values)
    except ValueError as exc:  # too few terms for a check to read
        raise UsageError(str(exc)) from None
    if args.format == "json":
        emit_json({"object": "seq", "name": name, "start": start,
                   "values": [fmt_rational(v) for v in values],
                   "checks": checks})
        return 0
    if args.format == "latex":
        emit(_latex_tabular(
            ["$n$", "value"],
            [[str(start + i), f"${fmt_latex_rational(v)}$"]
             for i, v in enumerate(values)]))
        return 0
    for i, v in enumerate(values):
        emit(f"{name}_{start + i} = {v}")
    for key, ok in checks.items():
        emit(f"check {key}: {ok}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    _check_range(args.n_max >= 1 and args.k_max >= 1,
                 "need --n-max >= 1 and --k-max >= 1")
    reports = conv.run_suite(args.suite, args.n_max, args.k_max)
    if not reports:
        # a grid is empty below some (n_max, k_max); find the smallest one
        grid = conv.SUITE_TABLE[args.suite][2]
        m = next(m for m in count(1) if any(grid(m, m)))
        n_min = next(n for n in count(1) if any(grid(n, m)))
        k_min = next(k for k in count(1) if any(grid(m, k)))
        raise UsageError(f"suite {args.suite!r} has no checks at --n-max "
                         f"{args.n_max} --k-max {args.k_max}; its smallest "
                         f"grid is --n-max {n_min} --k-max {k_min}")
    ok = all(r.passed for r in reports)
    if args.format == "json":
        emit_json({"object": "verify", "suite": args.suite,
                   "params": {"n_max": args.n_max, "k_max": args.k_max},
                   "reports": [
                       {"statement": r.statement, "params": dict(r.params),
                        "passed": r.passed, "witness": r.witness}
                       for r in reports],
                   "passed": ok,
                   "counts": {"total": len(reports),
                              "failed": sum(not r.passed for r in reports)}})
    elif args.format == "latex":
        emit(_latex_tabular(
            ["statement", "params", "result"],
            [[r.statement, _label(r.params), "pass" if r.passed else "FAIL"]
             for r in reports]))
    else:
        for r in reports:
            if r.passed:
                emit(f"PASS {r.statement} {_label(r.params)}")
            else:
                emit(f"FAIL {r.statement} {_label(r.params)} :: {r.witness}")
        emit(f"{sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

#: the default of an option that must be given
REQUIRED = object()

FORMAT = {"format": (("plain", "json", "latex"), "plain")}


def _target_options(target):
    required, optional, _, _, routes, _ = TARGETS[target]
    return {**{p: (int, REQUIRED) for p in required},
            **{p: (int, None) for p in optional},
            **({} if isinstance(routes, str) else {"route": (str, None)}),
            **FORMAT}


#: command -> (handler name, help line, positional (name, type, choices),
#: options(choice)).  options maps each option the chosen positional takes
#: to (kind, default): kind is int or str, or a tuple of the values it may
#: take.  The handler is looked up by name when the command runs, so a
#: wrapper bound to the module attribute (a tracer) is the one called.
COMMANDS = {
    "compute": ("cmd_compute", "compute one object exactly",
                ("target", str, TARGETS), _target_options),
    "table": ("cmd_table", "regenerate a reference table",
              ("table", int, TABLES), lambda _: FORMAT),
    "seq": ("cmd_seq", "emit a sequence prefix with checks",
            ("sequence", str, conv.SEQUENCES),
            lambda _: {"count": (int, REQUIRED), **FORMAT}),
    "verify": ("cmd_verify", "run a verification sweep",
               ("suite", str, conv.SUITES + ("all",)),
               lambda _: {"n-max": (int, 4), "k-max": (int, 3), **FORMAT}),
}


def _choices(values) -> str:
    return "{" + ",".join(map(str, values)) + "}"


def _option_usage(option, kind, default) -> str:
    text = f"--{option} " + (_choices(kind) if isinstance(kind, tuple)
                             else option.upper().replace("-", "_"))
    if default is REQUIRED:
        return text
    if default is None:
        return f"[{text}]"
    return f"[{text} (default {default})]"


def _usage(command=None) -> str:
    """Help made from COMMANDS, for one command or for all: a line per set
    of options that positional choices share, `--format` said once."""
    lines = [f"usage: bernkit {command or _choices(COMMANDS)} ... "
             + _option_usage("format", *FORMAT["format"])]
    if command is None:
        lines += ["", "Exact computation and verification of Bernoulli-"
                      "polynomial convolution identities."]
    for name in [command] if command else COMMANDS:
        _, about, (_, _, choices), options_for = COMMANDS[name]
        forms = {}
        for choice in choices:
            forms.setdefault(" ".join(
                _option_usage(o, *spec) for o, spec in
                options_for(choice).items() if o not in FORMAT),
                []).append(choice)
        lines += ["", f"{about}:"] + [
            f"  bernkit {name} "
            + f"{_choices(chosen) if len(chosen) > 1 else chosen[0]} {options}"
            .rstrip() for options, chosen in forms.items()]
    return "\n".join(lines + [
        "", "exit codes: 0 success, 1 verification failure, 2 usage error, "
        "3 internal error"])


def _is_option(token: str) -> bool:
    # a negative number is a value, as in --k -1
    return token.startswith("-") and not token[1:].isdigit()


def _value(kind, text: str, what: str):
    if isinstance(kind, tuple):
        if text in kind:
            return text
        raise UsageError(f"{what} must be one of {_choices(kind)}, "
                         f"not {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{what} must be an integer, not {text!r}") from None


def _parse_argv(argv):
    """(command, arguments) for one command line, with arguments None when
    it asks for help, and command None for help on every command.  Options
    take `--opt value` or `--opt=value`, before or after the positional; the
    last of a repeated option wins.  Anything else raises UsageError."""
    if not argv:
        raise UsageError(f"a command is required: {_choices(COMMANDS)}")
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help"):
        return None, None
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}: "
                         f"choose from {_choices(COMMANDS)}")
    if "-h" in rest or "--help" in rest:
        return command, None
    _, _, (dest, kind, choices), options_for = COMMANDS[command]
    known = {}
    for choice in choices:
        known.update(options_for(choice))
    positional, given = None, {}
    tokens = iter(rest)
    for token in tokens:
        if not _is_option(token):
            if positional is not None:
                raise UsageError(f"unexpected argument {token!r}")
            positional = token
            continue
        name, eq, text = token.partition("=")
        option = name[2:]
        if not name.startswith("--") or option not in known:
            raise UsageError(f"unknown option {name!r} for {command}")
        if not eq:
            text = next(tokens, None)
            if text is None or _is_option(text):
                raise UsageError(f"{name} needs a value")
        given[option] = text
    if positional is None:
        raise UsageError(f"{command} needs a {dest}: {_choices(choices)}")
    choice = _value(kind, positional, dest)
    if choice not in choices:
        raise UsageError(f"unknown {dest} {positional!r}: "
                         f"choose from {_choices(choices)}")
    options = options_for(choice)
    label = f"{dest} {choice!r}"
    for option in given:
        if option not in options:
            raise UsageError(f"{label} does not take --{option}")
    args = SimpleNamespace(**{dest: choice})
    for option, (kind, default) in options.items():
        if option in given:
            value = _value(kind, given[option], f"--{option}")
        elif default is REQUIRED:
            raise UsageError(f"{label} requires --{option}")
        else:
            value = default
        setattr(args, option.replace("-", "_"), value)
    return command, args


def main(argv=None) -> int:
    try:
        command, args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            emit(_usage(command))
            return 0
        return globals()[COMMANDS[command][0]](args)
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
