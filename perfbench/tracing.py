"""Per-layer tracer for the benchmark's traced passes.

The tracer wraps functions and methods of each bernkit module from outside,
after the package is imported, and never edits the package.  A wrapped name
is replaced wherever callers look it up: on its class, in every bernkit
module that imported it by name, and in module-level dicts such as
``convolution.ROUTES`` that hold the function object.

Every wrapped call is a span with a group name such as ``polycore.mul``; the
first component of the group is the layer (the module).  A span's self time
is its duration minus the time its child spans cover.  The tracer's own
bookkeeping runs outside the timed interval of each call and is accumulated
separately as ``overhead``, so self times and inclusive times exclude it and
the root span's duration equals the sum of all self times plus the overhead.

Base-ring and other hot calls (hundreds of thousands per pass) are only
aggregated; spans of the remaining groups are also kept in memory with their
start, end and parent so the benchmark can write them out when the run ends.
"""

from __future__ import annotations

import inspect
import operator
import sys
import time
from fractions import Fraction

LAYERS = ("polycore", "specialfns", "series", "convolution", "cli")

# Methods are wrapped by name; a name missing at some commit is reported.
METHOD_GROUPS = {
    ("polycore", "UniPoly"): {
        "__mul__": "polycore.mul", "__rmul__": "polycore.mul",
        "__pow__": "polycore.pow",
        "__add__": "polycore.add", "__radd__": "polycore.add",
        "__sub__": "polycore.sub", "__rsub__": "polycore.sub",
        "__neg__": "polycore.sub",
        "div_rem": "polycore.divide_eval", "__call__": "polycore.divide_eval",
        "compose_affine": "polycore.divide_eval",
        "is_divisible_by": "polycore.divide_eval",
    },
    ("series", "TruncSeries"): {
        "__mul__": "series.mul", "__rmul__": "series.mul",
        "__pow__": "series.pow", "inverse": "series.inverse",
        "__add__": "series.add", "__radd__": "series.add",
        "__sub__": "series.add", "__rsub__": "series.add",
        "__neg__": "series.add",
    },
    ("specialfns", "BernoulliCache"): {"ensure": "specialfns.cache"},
    ("specialfns", "EulerianCache"): {"ensure": "specialfns.cache"},
}

CHECK_STATEMENTS = {
    "verify_routes": "routes", "verify_thm1": "thm1", "verify_thm6": "thm6",
    "verify_corollary": "corollary", "verify_lemma4": "lemma4",
    "verify_lemma5": "lemma5", "verify_lemma7": "lemma7",
    "verify_thm8": "thm8", "verify_cor9": "cor9", "verify_cor10": "cor10",
    "verify_polylog": "eq2.8", "verify_bernoulli_cache": "bernoulli-cache",
}

RENDER = ("fmt_rational", "fmt_latex_rational", "poly_coeff_strings",
          "poly_plain", "poly_latex", "render_poly", "emit", "emit_json",
          "_latex_tabular", "_print_poly_result", "_poly_document")

# Module functions that get their own group; every other public function of
# a layer module falls into "<layer>.other".  Private names listed here are
# wrapped too.
FUNCTION_GROUPS = {
    "build_F_direct": "series.build_F", "build_F_eulerian": "series.build_F",
    "build_G": "series.build_F",
    "s_direct": "convolution.s_direct", "s_series": "convolution.s_series",
    "s_eulerian": "convolution.s_eulerian",
    "multisum_poly": "convolution.multisum",
    "multisum_poly_multinomial": "convolution.multisum",
    "d_coeffs": "convolution.d_coeffs", "a_sequence": "convolution.a_sequence",
    **{name: f"convolution.check.{stmt}"
       for name, stmt in CHECK_STATEMENTS.items()},
    **{name: "cli.render" for name in RENDER},
}

# Left unwrapped: one-line wrappers of math.comb/math.factorial and the cache
# accessors, called in the innermost loops.  Their time counts for the
# caller; cache lookups are still counted at the caches' ``ensure``.
UNWRAPPED = {"binomial", "factorial", "bernoulli_number", "bernoulli_poly",
             "eulerian_number", "eulerian_poly", "console_main"}

# Groups called so often that only aggregates are kept, no individual spans.
AGGREGATE_ONLY = ("polycore.", "series.mul", "series.add",
                  "specialfns.cache", "cli.render")

ROUTE_GROUPS = {"convolution.s_direct": "direct",
                "convolution.s_series": "series",
                "convolution.s_eulerian": "eulerian"}

_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")


class Tracer:
    """Spans and counters of one child process (one command of a pass)."""

    def __init__(self):
        self.groups: dict[str, list] = {}   # group -> [calls, self, incl, depth]
        self.spans: list = []               # [name, start, end, parent]
        self.missing: list[str] = []
        self.mul_products = 0
        self.mul_max_bits = 0
        self.cache_lookups = 0
        self.cache_growths = 0
        self.cache_build_s = 0.0
        self.route_keys: list = []
        self._overhead = [0.0]
        self._stack: list = []              # frames: [child_time, overhead]
        self._span_stack: list[int] = []
        self._root_start = 0.0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import bernkit.cli  # noqa: F401  (the CLI layer is traced too)
        modules = {name: sys.modules[f"bernkit.{name}"] for name in LAYERS}
        for (layer, cls_name), methods in METHOD_GROUPS.items():
            cls = getattr(modules[layer], cls_name, None)
            for meth, group in methods.items():
                if cls is None or meth not in vars(cls):
                    self.missing.append(f"{layer}.{cls_name}.{meth}")
                    continue
                setattr(cls, meth, self._wrap(
                    vars(cls)[meth], f"{layer}.{cls_name}.{meth}", group))
        wrapped = set()
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if name in UNWRAPPED or (name.startswith("_")
                                         and name not in FUNCTION_GROUPS):
                    continue
                group = FUNCTION_GROUPS.get(name, f"{layer}.other")
                self._replace(obj, self._wrap(obj, f"{layer}.{name}", group))
                wrapped.add(name)
        self.missing += sorted(set(FUNCTION_GROUPS) - wrapped)
        if self.missing:
            print("perfbench: not found, left untraced: "
                  + ", ".join(self.missing), file=sys.stderr)
        self._root_start = time.perf_counter()
        self._stack.append([0.0, 0.0])
        self.spans.append(["child", self._root_start, None, None])
        self._span_stack.append(0)

    def _replace(self, orig, wrapper) -> None:
        # rebind every place a bernkit module holds this function object
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bernkit"
                                   or mod_name.startswith("bernkit.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is orig:
                            val[key] = wrapper

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, fn, name, group):
        g = self.groups.setdefault(group, [0, 0.0, 0.0, 0])
        pre = post = None
        if group == "polycore.mul":
            pre, post = self._mul_pre, self._mul_post
        elif group == "specialfns.cache":
            pre, post = self._cache_pre, self._cache_post
        elif group in ROUTE_GROUPS:
            route = ROUTE_GROUPS[group]
            keys = self.route_keys

            def pre(args, kwargs):
                keys.append((route, *args[:2]))
        keep_span = not group.startswith(AGGREGATE_ONLY)
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        overhead = self._overhead
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_enter = clock()
            token = pre(args, kwargs) if pre else None
            frame = [0.0, overhead[0]]
            stack.append(frame)
            if keep_span:
                sid = len(spans)
                spans.append([name, 0.0, 0.0, span_stack[-1]])
                span_stack.append(sid)
            g[3] += 1
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                g[3] -= 1
                stack.pop()
                dur = t1 - t0
                inclusive = dur - (overhead[0] - frame[1])
                g[0] += 1
                g[1] += dur - frame[0]
                if not g[3]:
                    g[2] += inclusive
                if keep_span:
                    span_stack.pop()
                    span = spans[sid]
                    span[1] = t0
                    span[2] = t1
                if post:
                    post(token, args, result, inclusive)
                t_exit = clock()
                overhead[0] += (t_exit - t_enter) - dur
                stack[-1][0] += t_exit - t_enter

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters -------------------------------------------------------------

    def _mul_pre(self, args, kwargs):
        a, b = args[0], args[1]
        coeffs = a.coeffs
        if isinstance(b, (int, Fraction)):
            self.mul_products += len(coeffs)
        elif type(b) is type(a):
            nonzero = len(coeffs) - coeffs.count(0)
            self.mul_products += nonzero * len(b.coeffs)

    def _mul_post(self, token, args, result, inclusive):
        # result is None when the call raised, NotImplemented for other types
        coeffs = getattr(result, "coeffs", None)
        if coeffs:
            bits = max(max(map(int.bit_length, map(_numerator, coeffs))),
                       max(map(int.bit_length, map(_denominator, coeffs))))
            if bits > self.mul_max_bits:
                self.mul_max_bits = bits

    def _cache_pre(self, args, kwargs):
        return len(args[0].polys)

    def _cache_post(self, before, args, result, inclusive):
        self.cache_lookups += 1
        if len(args[0].polys) != before:
            self.cache_growths += 1
            self.cache_build_s += inclusive

    # -- results ------------------------------------------------------------------

    def finish(self) -> dict:
        """Close the root span and return the child's trace record."""
        end = time.perf_counter()
        root = self._stack.pop()
        self.spans[0][2] = end
        from bernkit import specialfns
        return {
            "root_s": end - self._root_start,
            "root_self_s": end - self._root_start - root[0],
            "overhead_s": self._overhead[0],
            "groups": {g: v[:3] for g, v in self.groups.items()},
            "mul_products": self.mul_products,
            "mul_max_bits": self.mul_max_bits,
            "cache_lookups": self.cache_lookups,
            "cache_growths": self.cache_growths,
            "cache_build_s": self.cache_build_s,
            "bernoulli_cache_len": len(specialfns.bernoulli_cache.polys),
            "eulerian_cache_len": len(specialfns.eulerian_cache.polys),
            "route_calls": len(self.route_keys),
            "route_distinct": len(set(self.route_keys)),
            "spans": self.spans,
            "missing": self.missing,
        }
