"""Spans around the package's public functions, recorded from outside.

``install`` wraps each function named in ``TARGETS`` and rebinds the
wrapper in every ``msdstat`` module namespace (and module-level dict) that
holds the original, since modules import each other's functions by name.
``disable`` restores the originals and ``enable`` puts the wrappers back.
Nothing in the package changes.

A span is ``[name, parent, op, start, end, attrs]``: parent is the index
of the enclosing span or -1, op is the operation id the benchmark set
when the span opened, and attrs holds the counters gathered at that
boundary. Spans stay in memory until the benchmark writes them out.
"""
from __future__ import annotations

import importlib
import inspect
import math
import numbers
import statistics
import sys
import time

SETUP_OP = -1


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP_OP

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter(), None, {}])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self.stack.pop()


def _signature(orig):
    try:
        return inspect.signature(orig)
    except (TypeError, ValueError):
        return None


def _bind(sig, args, kwargs):
    try:
        return sig.bind(*args, **kwargs)
    except TypeError:
        return None


def _arg(bound, name, default=None):
    if bound is None:
        return default
    if name in bound.arguments:
        return bound.arguments[name]
    param = bound.signature.parameters.get(name)
    if param is None or param.default is inspect.Parameter.empty:
        return default
    return param.default


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _hook_integrate(attrs, bound):
    """Replace the integrand so each call adds its abscissae to attrs."""
    f = _arg(bound, "f")
    if f is None:
        return
    attrs["points"] = 0

    def counted(x):
        k = _size(x)
        attrs["points"] += k
        attrs["accepted"] = k  # the level a batch integral returns on
        return f(x)

    bound.arguments["f"] = counted


def _hook_find_root(attrs, bound):
    f = _arg(bound, "f")
    if f is None:
        return
    attrs["fevals"] = 0

    def counted(x):
        attrs["fevals"] += 1
        return f(x)

    bound.arguments["f"] = counted


def _hook_kernel(attrs, bound):
    x = _arg(bound, "x")
    shape = getattr(x, "shape", None)
    if not shape:
        return
    n = int(shape[-1])
    rows = math.prod(int(s) for s in shape[:-1])
    attrs["datasets"] = rows
    attrs["pairs"] = rows * n * n


def _hook_quantile(attrs, bound):
    n = _arg(bound, "n")
    limit = _arg(bound, "odd_exact_limit")
    if isinstance(n, numbers.Integral) and limit is not None:
        attrs["odd_exact"] = int(n % 2 == 1 and n <= limit)


def _hook_cdf(attrs, bound):
    n = _arg(bound, "n")
    limit = _arg(bound, "odd_exact_limit")
    if isinstance(n, numbers.Integral) and limit is not None:
        attrs["odd_substituted"] = int(n % 2 == 1 and n > limit)


def _hook_lookup(attrs, bound):
    table, n = _arg(bound, "table"), _arg(bound, "n")
    sizes = getattr(table, "sizes", None)
    if sizes is not None and n is not None and n != math.inf:
        attrs["synth_row"] = int(float(n) not in sizes)


def _hook_build(attrs, bound):
    attrs["rename"] = f"tables.build_table.{_arg(bound, 'parity')}"


def _blocks(replicates) -> int:
    block = getattr(sys.modules.get("msdstat.simulation"), "BLOCK", 4096)
    return math.ceil(int(replicates) / block)


def _hook_multi(attrs, bound):
    attrs["blocks"] = _blocks(_arg(bound, "replicates", 0))


def _hook_power(attrs, bound):
    grid = list(_arg(bound, "grid", ()))
    attrs["blocks"] = len(grid) * _blocks(_arg(bound, "replicates", 0))


def _hook_bootstrap(attrs, bound):
    cfg = _arg(bound, "cfg")
    attrs["blocks"] = _blocks(getattr(cfg, "replicates", 0))


# module -> (function, hook); the span name is "<module short name>.<function>"
TARGETS = {
    "msdstat.datasets": (("load_study", None),),
    "msdstat.statistic": (("qe_values", _hook_kernel),
                          ("pwch_values", _hook_kernel),
                          ("msd", None)),
    "msdstat.distribution": (("quantile", _hook_quantile),
                             ("cdf", _hook_cdf),
                             ("cdf_even", None),
                             ("cdf_odd", None),
                             ("cdf_asymptotic", None)),
    "msdstat.numerics": (("integrate", _hook_integrate),
                         ("integrate_batch", _hook_integrate),
                         ("find_root", _hook_find_root)),
    "msdstat.tables": (("interp_quantile", _hook_lookup),
                       ("interp_probability", _hook_lookup),
                       ("build_table", _hook_build),
                       ("save_table", None),
                       ("load_table", None),
                       ("default_table", None)),
    "msdstat.simulation": (("simulate_multi_quantiles", _hook_multi),
                           ("simulate_power", _hook_power)),
    "msdstat.bootstrap": (("bootstrap_msd", _hook_bootstrap),),
}


def _wrap(rec: Recorder, name: str, orig, hook):
    sig = _signature(orig) if hook is not None else None

    def traced(*args, **kwargs):
        idx = rec.begin(name)
        try:
            if sig is not None:
                bound = _bind(sig, args, kwargs)
                if bound is not None:
                    attrs = rec.spans[idx][5]
                    hook(attrs, bound)
                    new_name = attrs.pop("rename", None)
                    if new_name:
                        rec.spans[idx][0] = new_name
                    args, kwargs = bound.args, bound.kwargs
            return orig(*args, **kwargs)
        finally:
            rec.end(idx)

    traced.__wrapped__ = orig
    traced.__doc__ = getattr(orig, "__doc__", None)
    return traced


def install(rec: Recorder) -> list:
    """Wrap every target and switch the wrappers on.

    Returns the patch list that ``enable`` and ``disable`` take.
    """
    wrappers = {}
    for modname, funcs in TARGETS.items():
        mod = importlib.import_module(modname)
        short = modname.rsplit(".", 1)[-1]
        for fname, hook in funcs:
            orig = getattr(mod, fname, None)
            if orig is not None:
                wrappers[id(orig)] = (orig, _wrap(rec, f"{short}.{fname}", orig, hook))
    patches = []
    for modname, mod in list(sys.modules.items()):
        if modname != "msdstat" and not modname.startswith("msdstat."):
            continue
        spaces = [vars(mod)]
        spaces += [v for v in vars(mod).values() if isinstance(v, dict)]
        for space in spaces:
            for key, val in list(space.items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    patches.append((space, key, val, hit[1]))
    enable(patches)
    return patches


def enable(patches: list) -> None:
    for space, key, orig, traced in patches:
        space[key] = traced


def disable(patches: list) -> None:
    for space, key, orig, traced in reversed(patches):
        space[key] = orig


# ---------------------------------------------------------------- metrics

PER_LAYER = (
    # name, unit
    ("interpreter.start_s", "s"),
    ("import.total_s", "s"),
    ("import.numpy_s", "s"),
    ("import.scipy_s", "s"),
    ("import.click_s", "s"),
    ("import.msdstat_self_s", "s"),
    ("cli.command_s.analyze-exact", "s"),
    ("cli.command_s.analyze-tables", "s"),
    ("cli.command_s.analyze-bootstrap", "s"),
    ("cli.command_s.quantile-exact-odd", "s"),
    ("cli.command_s.quantile-exact-even", "s"),
    ("cli.command_s.quantile-table", "s"),
    ("cli.command_s.bootstrap", "s"),
    ("cli.self_s", "s"),
    ("datasets.load_study.calls", "count"),
    ("datasets.load_study.time_s", "s"),
    ("statistic.qe_values.calls", "count"),
    ("statistic.qe_values.datasets", "count"),
    ("statistic.qe_values.time_s", "s"),
    ("statistic.qe_values.ns_per_pair", "ns"),
    ("statistic.qe_values.bytes_computed", "bytes"),
    ("statistic.pwch_values.time_s", "s"),
    ("statistic.msd.time_s", "s"),
    ("distribution.quantile.calls", "count"),
    ("distribution.quantile.time_s", "s"),
    ("distribution.quantile.first_call_s", "s"),
    ("distribution.cdf.calls_per_quantile", "ratio"),
    ("distribution.cdf_even.calls", "count"),
    ("distribution.cdf_even.time_s", "s"),
    ("distribution.cdf_odd.calls", "count"),
    ("distribution.cdf_odd.time_s", "s"),
    ("distribution.cdf_asymptotic.calls", "count"),
    ("distribution.cdf_asymptotic.time_s", "s"),
    ("distribution.route.odd_substituted.calls", "count"),
    ("numerics.integrate.calls", "count"),
    ("numerics.integrate.points", "count"),
    ("numerics.integrate.self_s", "s"),
    ("numerics.integrate_batch.calls", "count"),
    ("numerics.integrate_batch.points", "count"),
    ("numerics.integrate_batch.self_s", "s"),
    ("numerics.integrate_batch.useful_ratio", "ratio"),
    ("numerics.find_root.calls", "count"),
    ("numerics.find_root.fevals", "count"),
    ("tables.interp_quantile.calls", "count"),
    ("tables.interp_quantile.time_s", "s"),
    ("tables.interp_probability.time_s", "s"),
    ("tables.synth_row.calls", "count"),
    ("tables.build_table.even.time_s", "s"),
    ("tables.build_table.odd.time_s", "s"),
    ("tables.save_table.time_s", "s"),
    ("tables.load_table.time_s", "s"),
    ("tables.default_table.time_s", "s"),
    ("simulation.simulate_multi_quantiles.time_s", "s"),
    ("simulation.simulate_power.time_s", "s"),
    ("simulation.blocks", "count"),
    ("simulation.self_s", "s"),
    ("bootstrap.bootstrap_msd.time_s", "s"),
    ("bootstrap.blocks", "count"),
    ("bootstrap.self_s", "s"),
    ("trace.overhead_share", "ratio"),
)

# Metrics that must repeat exactly across traced runs with one seed.
COUNT_SUFFIXES = (".calls", ".points", ".fevals", ".blocks", ".datasets",
                  ".bytes_computed", "useful_ratio", "calls_per_quantile")


def is_count(name: str) -> bool:
    return name.endswith(COUNT_SUFFIXES)


def tally(spans: list[list]) -> dict:
    """Additive per-process totals over the spans of measured operations.

    Setup spans (op == SETUP_OP) are left out, except that the first
    ``quantile`` span of the process, wherever it falls, gives
    ``first_call`` when it is for an odd n on the exact route, the call
    that pays the lazy set-up of the odd-n quadrature. Time is inclusive
    per name, counting only the outermost span of a name, and self time is
    a span minus its direct children.
    """
    t: dict = {"first_call": []}
    child_time = [0.0] * len(spans)
    for name, parent, op, t0, t1, attrs in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    for name, parent, op, t0, t1, attrs in spans:
        if name == "distribution.quantile":
            if attrs.get("odd_exact"):
                t["first_call"].append(t1 - t0)
            break
    names = [s[0] for s in spans]

    def ancestors(i):
        p = spans[i][1]
        while p >= 0:
            yield p
            p = spans[p][1]

    def add(key, value):
        t[key] = t.get(key, 0) + value

    for i, (name, parent, op, t0, t1, attrs) in enumerate(spans):
        if op == SETUP_OP:
            continue
        dur = t1 - t0
        up = [names[a] for a in ancestors(i)]
        add(f"{name}.calls", 1)
        if name not in up:
            add(f"{name}.time_s", dur)
        add(f"{name}.self_s", dur - child_time[i])
        for key, value in attrs.items():
            add(f"{name}.{key}", value)
        if name == "distribution.cdf" and "distribution.quantile" in up:
            add("distribution.cdf.in_quantile", 1)
    return t


def merge(tallies: list[dict]) -> dict:
    out: dict = {"first_call": []}
    for t in tallies:
        for key, value in t.items():
            if key == "first_call":
                out["first_call"] += value
            else:
                out[key] = out.get(key, 0) + value
    return out


def layer_metrics(t: dict) -> dict:
    """Map merged tallies onto the PER_LAYER names.

    Most names are tally keys as they stand; the rest are sums or ratios.
    """
    g = t.get
    m = {name: g(name, 0) for name, _ in PER_LAYER}

    def ratio(num, den):
        return g(num, 0) / g(den) if g(den) else 0.0

    sims = ("simulation.simulate_multi_quantiles", "simulation.simulate_power")
    m.update({
        "statistic.qe_values.bytes_computed": 8 * g("statistic.qe_values.pairs", 0),
        "statistic.qe_values.ns_per_pair":
            1e9 * ratio("statistic.qe_values.time_s", "statistic.qe_values.pairs"),
        "distribution.quantile.first_call_s":
            statistics.median(t["first_call"]) if t["first_call"] else 0.0,
        "distribution.cdf.calls_per_quantile":
            ratio("distribution.cdf.in_quantile", "distribution.quantile.calls"),
        "distribution.route.odd_substituted.calls":
            g("distribution.cdf.odd_substituted", 0),
        "numerics.integrate_batch.useful_ratio":
            ratio("numerics.integrate_batch.accepted",
                  "numerics.integrate_batch.points"),
        "tables.synth_row.calls": g("tables.interp_quantile.synth_row", 0)
            + g("tables.interp_probability.synth_row", 0),
        "simulation.blocks": sum(g(f"{s}.blocks", 0) for s in sims),
        "simulation.self_s": sum(g(f"{s}.self_s", 0) for s in sims),
        "bootstrap.blocks": g("bootstrap.bootstrap_msd.blocks", 0),
        "bootstrap.self_s": g("bootstrap.bootstrap_msd.self_s", 0),
    })
    return m
