"""bernkit benchmark: three workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times untraced passes and reports the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced passes and
reports the per-layer metrics and the tracing overhead.  Every pass's output
is checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The workloads, the
metrics and which layer should move which metric are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("verify-default", "routes-grid", "sequences")
ROUTE_GRID = ((5, 3), (7, 2), (9, 1), (3, 6))
ROUTES = ("direct", "series", "eulerian")
SEQUENCE_COMMANDS = (("seq", "a", "--count", "300"),
                     ("seq", "c3", "--count", "80"),
                     ("table", "3"))
# operations checked per pass: one command, or one S computation
OPS_PER_PASS = {"verify-default": 1, "routes-grid": len(ROUTE_GRID) * 3,
                "sequences": len(SEQUENCE_COMMANDS)}
# a pass over its budget is killed and counted as failed
PASS_BUDGET_S = {"verify-default": 60.0, "routes-grid": 120.0,
                 "sequences": 60.0}
SETUP_PROBES = 8
MIN_PASSES = 3
RECORD_PREFIX = "perfbench-record "   # as in child.py
LAYERS = tracing.LAYERS
CHECK_STATEMENTS = tuple(tracing.CHECK_STATEMENTS.values())

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Times in the result line are rescaled to a reference host speed: each
# child's times are multiplied by this time over the mean of the calibration
# samples the child took while it ran (see child.py).  This is about the
# samples' median on the host the benchmark was written on, whose speed
# changed by up to 2x within seconds and drifted over minutes; see README.md.
REFERENCE_CALIBRATION_S = 0.0008
PER_LAYER = (
    ("polycore.mul.calls", "count"),
    ("polycore.mul.coeff_products", "count"),
    ("polycore.mul.self_s", "s"),
    ("polycore.mul.ns_per_product", "ns"),
    ("polycore.mul.max_bits", "bits"),
    ("polycore.add.calls", "count"),
    ("polycore.add.self_s", "s"),
    ("polycore.divide_eval.self_s", "s"),
    ("series.mul.calls", "count"),
    ("series.mul.self_s", "s"),
    ("series.pow.calls", "count"),
    ("series.pow.s", "s"),
    ("series.inverse.self_s", "s"),
    ("series.build_F.s", "s"),
    ("specialfns.bernoulli.cache_len", "count"),
    ("specialfns.eulerian.cache_len", "count"),
    ("specialfns.cache.build_s", "s"),
    ("specialfns.cache.hit_ratio", "ratio"),
    ("convolution.s_direct.s", "s"),
    ("convolution.s_series.s", "s"),
    ("convolution.s_eulerian.s", "s"),
    ("convolution.s_poly.calls", "count"),
    ("convolution.s_poly.distinct", "count"),
    ("convolution.s_poly.useful_ratio", "ratio"),
    ("convolution.multisum.calls", "count"),
    ("convolution.multisum.s", "s"),
    ("convolution.d_coeffs.s", "s"),
    ("convolution.a_sequence.s", "s"),
    *((f"convolution.check.{stmt}.s", "s") for stmt in CHECK_STATEMENTS),
    ("cli.render.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("untraced.self_s", "s"),
    ("trace.wrapper_s", "s"),
    ("trace.overhead_s", "s"),
)


def monotonic() -> float:
    # system-wide on Linux, so parent and child readings can be subtracted
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def pass_specs(workload: str, rng: random.Random) -> list[dict]:
    """The commands of one pass; the seed only permutes their order."""
    if workload == "verify-default":
        return [{"kind": "cli", "argv": ["verify", "all"]}]
    if workload == "routes-grid":
        calls = [[n, k, route] for n, k in ROUTE_GRID for route in ROUTES]
        rng.shuffle(calls)
        return [{"kind": "routes", "calls": [call]} for call in calls]
    if workload == "sequences":
        commands = [list(c) for c in SEQUENCE_COMMANDS]
        rng.shuffle(commands)
        return [{"kind": "cli", "argv": argv} for argv in commands]
    raise ValueError(f"unknown workload {workload!r}")


def run_child(spec: dict, timeout: float):
    """Run one command in a fresh interpreter; None if it ran out of time."""
    # the same interpreter settings whatever the caller's environment:
    # bytecode caches written and read, stdout buffered as for a user
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    spawned = monotonic()
    argv = [sys.executable, CHILD, json.dumps(spec)]
    if spec.get("trace"):
        argv.append("--trace")
    proc = subprocess.Popen(argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    wall = monotonic() - spawned
    record = None
    for line in reversed(err.decode(errors="replace").splitlines()):
        if line.startswith(RECORD_PREFIX):
            record = json.loads(line[len(RECORD_PREFIX):])
            break
    if record is None:
        return {"spec": spec, "wall": wall, "code": proc.returncode,
                "stdout": out.decode(errors="replace"), "record": None,
                "setup": None, "rss_mb": None, "sample_s": None, "scale": 1.0}
    sample_s = record["sample_mean_s"]
    # times without the sampler's own; a traced child is not sampled and
    # keeps its times unscaled
    return {"spec": spec, "wall": wall - record["sampler_s"],
            "code": proc.returncode,
            "stdout": out.decode(errors="replace"), "record": record,
            "setup": (record["imported"] - spawned
                      - record["sampler_at_import_s"]),
            "rss_mb": record["maxrss_kb"] / 1024, "sample_s": sample_s,
            "scale": REFERENCE_CALIBRATION_S / sample_s if sample_s else 1.0}


def check_pass(workload: str, children: list[dict], expected: dict) -> dict:
    """Check every output of a pass; one failure per operation at most."""
    exp = expected[workload]
    failed = 0
    route_s = defaultdict(float)
    canonical = []
    if workload == "verify-default":
        child = children[0]
        lines = child["stdout"].splitlines()
        ok = (child["code"] == 0 and child["record"] is not None
              and exp["summary"] in lines
              and not any(line.startswith("FAIL") for line in lines))
        failed += not ok
        canonical.append(child["stdout"])
    elif workload == "routes-grid":
        by_point = defaultdict(dict)
        for child in children:
            try:
                results = json.loads(child["stdout"])
            except ValueError:
                results = []
            for r in results if child["code"] == 0 else ():
                by_point[(r["n"], r["k"])][r["route"]] = r["coeffs"]
                route_s[r["route"]] += r["s"] * child["scale"]
        for n, k in ROUTE_GRID:
            got = by_point.get((n, k), {})
            agree = (len(got) == len(ROUTES)
                     and len({tuple(c) for c in got.values()}) == 1)
            for route in ROUTES:
                coeffs = got.get(route)
                ok = (agree and coeffs is not None
                      and sha256("\n".join(coeffs)) == exp[f"{n},{k}"])
                failed += not ok
                canonical.append(f"{n},{k},{route}:{coeffs}")
    else:
        for child in children:
            key = " ".join(child["spec"]["argv"])
            lines = child["stdout"].splitlines()
            checks = [line for line in lines if line.startswith("check ")]
            ok = (child["code"] == 0 and child["record"] is not None
                  and sha256(child["stdout"]) == exp[key]
                  and all(line.endswith(": True") for line in checks)
                  and (bool(checks) or child["spec"]["argv"][0] != "seq"))
            failed += not ok
            canonical.append(f"{key}:{child['stdout']}")
    return {"failed": failed, "route_s": dict(route_s),
            "digest": sha256("\n".join(sorted(canonical)))}


def run_pass(workload: str, specs: list[dict], trace: bool, pass_id: int,
             expected: dict) -> dict:
    """Run the commands of one pass one after another and check them."""
    ops = OPS_PER_PASS[workload]
    deadline = monotonic() + PASS_BUDGET_S[workload]
    children = []
    for spec in specs:
        child = run_child(dict(spec, trace=trace),
                          max(deadline - monotonic(), 0.001))
        if child is None:
            return {"timed_out": True, "ops": ops, "failed": ops,
                    "trace": trace, "pass_id": pass_id}
        children.append(child)
    checked = check_pass(workload, children, expected)
    records = [c["record"] for c in children if c["record"]]
    return {
        "timed_out": False, "ops": ops, "failed": checked["failed"],
        "trace": trace, "pass_id": pass_id,
        "wall": sum(c["wall"] for c in children),
        "scaled": sum(c["wall"] * c["scale"] for c in children),
        "samples_s": [c["sample_s"] for c in children if c["sample_s"]],
        "setups": [c["setup"] for c in children if c["setup"] is not None],
        "setups_scaled": [c["setup"] * c["scale"] for c in children
                          if c["setup"] is not None],
        "rss_mb": max((c["rss_mb"] for c in children if c["rss_mb"]),
                      default=0.0),
        "route_s": checked["route_s"], "digest": checked["digest"],
        "stdout_bytes": sum(len(c["stdout"].encode()) for c in children),
        "traces": [r["trace"] for r in records if "trace" in r],
    }


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    groups = defaultdict(lambda: [0, 0.0, 0.0])
    total = defaultdict(float)
    for t in p["traces"]:
        for name, (calls, self_s, incl_s) in t["groups"].items():
            g = groups[name]
            g[0] += calls
            g[1] += self_s
            g[2] += incl_s
        for key in ("mul_products", "cache_lookups", "cache_growths",
                    "cache_build_s", "route_calls", "route_distinct",
                    "overhead_s"):
            total[key] += t[key]
        for key in ("mul_max_bits", "bernoulli_cache_len",
                    "eulerian_cache_len"):
            total[key] = max(total[key], t[key])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "polycore.mul.calls": groups["polycore.mul"][0],
        "polycore.mul.coeff_products": total["mul_products"],
        "polycore.mul.self_s": groups["polycore.mul"][1],
        "polycore.mul.ns_per_product": ratio(
            groups["polycore.mul"][1] * 1e9, total["mul_products"]),
        "polycore.mul.max_bits": total["mul_max_bits"],
        "polycore.add.calls": groups["polycore.add"][0],
        "polycore.add.self_s": groups["polycore.add"][1],
        "polycore.divide_eval.self_s": groups["polycore.divide_eval"][1],
        "series.mul.calls": groups["series.mul"][0],
        "series.mul.self_s": groups["series.mul"][1],
        "series.pow.calls": groups["series.pow"][0],
        "series.pow.s": groups["series.pow"][2],
        "series.inverse.self_s": groups["series.inverse"][1],
        "series.build_F.s": groups["series.build_F"][2],
        "specialfns.bernoulli.cache_len": total["bernoulli_cache_len"],
        "specialfns.eulerian.cache_len": total["eulerian_cache_len"],
        "specialfns.cache.build_s": total["cache_build_s"],
        "specialfns.cache.hit_ratio": ratio(
            total["cache_lookups"] - total["cache_growths"],
            total["cache_lookups"]),
        "convolution.s_poly.calls": total["route_calls"],
        "convolution.s_poly.distinct": total["route_distinct"],
        "convolution.s_poly.useful_ratio": ratio(total["route_distinct"],
                                                 total["route_calls"]),
        "convolution.multisum.calls": groups["convolution.multisum"][0],
        "cli.render.s": groups["cli.render"][2],
        "cli.stdout_bytes": p["stdout_bytes"],
        "trace.wrapper_s": total["overhead_s"],
    }
    for name in ("s_direct", "s_series", "s_eulerian", "multisum", "d_coeffs",
                 "a_sequence"):
        m[f"convolution.{name}.s"] = groups[f"convolution.{name}"][2]
    for stmt in CHECK_STATEMENTS:
        m[f"convolution.check.{stmt}.s"] = groups[f"convolution.check.{stmt}"][2]
    traced_self = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(g[1] for name, g in groups.items()
                                   if name.split(".")[0] == layer)
        traced_self += m[f"{layer}.self_s"]
    m["untraced.self_s"] = p["wall"] - traced_self - total["overhead_s"]
    return m


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(samples: list[float]) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bernkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        # each child's mean calibration sample
        "calibration_ms": {
            "median": statistics.median(samples) * 1e3,
            "min": min(samples) * 1e3, "max": max(samples) * 1e3,
            "children": len(samples)} if samples else None,
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        expected: dict, min_passes: int = MIN_PASSES) -> dict:
    """Run passes for about ``seconds`` and summarise them."""
    rng = random.Random(seed)
    start = monotonic()
    # not measured: the first import in a fresh checkout writes bytecode
    run_child({"kind": "import"}, 60.0)
    setups, setups_scaled, samples = [], [], []
    for _ in range(SETUP_PROBES):
        probe = run_child({"kind": "import"}, 60.0)
        if probe and probe["setup"] is not None:
            setups.append(probe["setup"])
            setups_scaled.append(probe["setup"] * probe["scale"])
            samples.append(probe["sample_s"])
    passes = []
    last_wall = {False: 0.0, True: 0.0}   # by "traced"
    while True:
        untraced = [p for p in passes if not p["trace"]]
        traced = [p for p in passes if p["trace"]]
        enough = (len(traced) >= 1 and len(untraced) >= 1 if trace
                  else len(untraced) >= min_passes)
        traced_next = trace and len(traced) < len(untraced)
        if enough and monotonic() - start + last_wall[traced_next] > seconds:
            break
        p = run_pass(workload, pass_specs(workload, rng), traced_next,
                     len(passes), expected)
        passes.append(p)
        if not p["timed_out"]:
            last_wall[traced_next] = p["wall"]
            setups += p["setups"]
            setups_scaled += p["setups_scaled"]
            samples += p["samples_s"]
        else:
            last_wall[traced_next] = PASS_BUDGET_S[workload]
    done = [p for p in passes if not p["timed_out"]]
    untraced = [p for p in done if not p["trace"]]
    traced = [p for p in done if p["trace"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = {"workload": workload, "seed": seed, "trace": trace,
               "attempted": attempted, "failed": failed,
               "passes": len(passes), "timed_out": len(passes) - len(done),
               "untraced": untraced, "traced": traced,
               "env": environment(samples)}
    if not untraced or (trace and not traced):
        return summary
    summary["end_to_end"] = {
        "wall_s": [p["scaled"] for p in untraced],
        "setup_s": setups_scaled,
        "peak_rss_mb": [p["rss_mb"] for p in untraced],
    }
    summary["wall_s"] = statistics.mean(p["scaled"] for p in untraced)
    summary["unscaled"] = {"wall_s": [p["wall"] for p in untraced],
                           "setup_s": setups}
    if workload == "routes-grid":
        for route in ROUTES:
            summary["end_to_end"][f"route_{route}_s"] = [
                p["route_s"].get(route, 0.0) for p in untraced]
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        layer = {name: statistics.median(m[name] for m in per_pass)
                 for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layer["trace.overhead_s"] = (min(p["wall"] for p in traced)
                                     - min(p["wall"] for p in untraced))
        summary["per_layer"] = layer
    return summary


def write_spans(summary: dict) -> str:
    """Write the spans of the traced passes, one JSON object per line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"spans-{summary['workload']}-seed{summary['seed']}.jsonl")
    with open(path, "w") as f:
        for p in summary["traced"]:
            for child, t in enumerate(p["traces"]):
                for i, (name, start, end, parent) in enumerate(t["spans"]):
                    f.write(json.dumps({
                        "pass": p["pass_id"], "child": child, "id": i,
                        "name": name, "start": start, "end": end,
                        "parent": parent}) + "\n")
    return path


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(summary: dict) -> dict:
    """Print every metric by name with its unit; return the result line."""
    attempted, failed = summary["attempted"], summary["failed"]
    print(f"workload {summary['workload']} seed {summary['seed']} "
          f"trace {int(summary['trace'])}: {summary['passes']} passes, "
          f"{summary['timed_out']} over budget")
    print(f"failed_frac = {failed / attempted:.6f} "
          f"({failed} of {attempted} operations failed)")
    e2e = summary["end_to_end"]
    value = {name: statistics.median(values) for name, values in e2e.items()}
    value["wall_s"] = summary["wall_s"]
    units = dict(END_TO_END, route_direct_s="s", route_series_s="s",
                 route_eulerian_s="s")

    def spread(values):
        q1, q3 = quartiles(values)
        return f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"

    for name, values in e2e.items():
        what = spread(values)
        if name == "wall_s":
            what = f"mean of the passes; {what}"
        print(f"{name} = {value[name]:.6g} {units[name]} ({what})")
    print(f"times above are scaled, child by child, by "
          f"{REFERENCE_CALIBRATION_S * 1e3:g} ms over the child's mean "
          f"calibration sample (median "
          f"{summary['env']['calibration_ms']['median']:.4g} ms)")
    for name, values in summary["unscaled"].items():
        print(f"unscaled {name} = {statistics.median(values):.6g} s "
              f"({spread(values)})")
    for name, unit in PER_LAYER if summary["trace"] else ():
        print(f"{name} = {summary['per_layer'][name]:.6g} {unit} "
              f"(median of {len(summary['traced'])} traced passes)")
    print("env " + json.dumps(summary["env"], sort_keys=True))
    if summary["trace"]:
        metrics = {name: {"value": summary["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": value[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bernkit", "__init__.py")):
        print(f"perfbench: no bernkit sources under {SRC}", file=sys.stderr)
        return 2
    with open(EXPECTED) as f:
        expected = json.load(f)
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  expected)
    if "end_to_end" not in summary or (args.trace
                                       and "per_layer" not in summary):
        print("perfbench: no pass completed within its budget",
              file=sys.stderr)
        return 1
    if args.trace:
        print(f"spans written to {os.path.relpath(write_spans(summary))}")
    result = report(summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
