"""One long-lived benchmark process: set up, signal ready, run, report.

``run.py`` starts this with ``src`` on ``PYTHONPATH``. The
process imports the package, makes one warm-up call per route the workload
uses, prints ``READY``, and then runs a closed loop of operations: the next
operation starts only when the previous one has returned. It writes its
result to ``result.json`` (and, when traced, ``spans.json``) in the work
directory it is given.

With ``--setup-only`` it exits after ``READY``; ``run.py`` uses that to time
set-up several times per run. With ``--workload cli-cold`` only that mode
exists: it times the set-up a fresh ``msd`` command pays.

A traced run executes a fixed list of operations rather than a timed loop,
so its counts repeat exactly for one seed. Each operation runs twice, once
with the span wrappers switched off and once on, which one first
alternating from operation to operation; the two outputs must be
identical, and the two total times give the tracing overhead.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads
from workloads import LEVELS

# Tolerances of the correctness checks.
QE_RTOL = 1e-12          # q_e against a plain-Python median of |d_ij|
CDF_ROUND_TRIP = 1e-6    # cdf(crit, n) against the target probability
TABLE_PROB_TOL = 5e-4    # documented table-route agreement with quadrature
TABLE_REBUILD_TOL = 1e-9  # rebuilt table probabilities against bundled ones
LOOKUP_P_TOL = 1e-8      # lookups on rebuilt tables against bundled tables
LOOKUP_Q_TOL = 1e-6
ROUND_TRIP_P_TOL = 1e-8  # interp_probability(interp_quantile(p)) against p
SIM_SE = 4.0             # simulated quantile: standard errors allowed ...
# ... plus the stated accuracy of the independence approximation that gives
# the reference value (multi_quantile_adjusted against the published
# multiple-observation table, acceptance criterion C6)
SIM_APPROX = 0.02
POWER_SE = 5.0           # null detection rate against the nominal 5%
# Cycle c recomputes the bootstrap sizes REPLICATE_N[k] with k % 4 == c % 4,
# so four cycles cover every size.
REFERENCE_STRIDE = 4

TRACED_OPS = {
    "screen": workloads.screen_cycle_length(),
    "replicates": workloads.replicate_cycle_length(),
    "tables-build": 1,
}


class Fail(Exception):
    """An operation whose output is wrong."""


def _report(i: int, op: dict, why) -> None:
    print(f"check failed: op {i} ({op['kind']}, n={op.get('n')}): {why}",
          file=sys.stderr)


def _median_qe(xs, us):
    """Reference statistic: plain-Python median of |d_ij| over partners."""
    out = []
    for i, (xi, ui) in enumerate(zip(xs, us)):
        d = sorted(abs((xi - xj) / math.sqrt(ui ** 2 + uj ** 2))
                   for j, (xj, uj) in enumerate(zip(xs, us)) if j != i)
        m = len(d)
        out.append(d[m // 2] if m % 2 else 0.5 * (d[m // 2 - 1] + d[m // 2]))
    return out


def _sorted_qe(x, u):
    """Reference statistic for a batch of rows: sort |d_ij| over j != i."""
    import numpy as np
    rows, n = x.shape
    d = (np.abs(x[:, :, None] - x[:, None, :])
         / np.sqrt(u[:, None] ** 2 + u[None, :] ** 2))
    a = np.sort(d[:, ~np.eye(n, dtype=bool)].reshape(rows, n, n - 1), axis=-1)
    m = n - 1
    if m % 2:
        return a[..., m // 2]
    return 0.5 * (a[..., m // 2 - 1] + a[..., m // 2])


def _reference_bootstrap(op, block: int):
    """A bootstrap report recomputed in plain numpy, in the form run() returns.

    Replicates come from the streams the package's simulation module
    documents: blocks of ``block`` rows, block b drawn from
    Generator(Philox(SeedSequence(seed, spawn_key=(b,)))) as standard
    normals scaled by each lab's u. The statistic is a sort-based median,
    taken 256 replicates at a time to bound memory. Counts, p-values and
    their Holm and Benjamini-Hochberg adjustments are plain Python.
    """
    import numpy as np
    labels, xs, us = zip(*op["rows"])
    u = np.array(us)
    B, n = op["B"], op["n"]
    observed = _sorted_qe(np.array([xs]), u)[0]
    sims = []
    for b in range(math.ceil(B / block)):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(op["seed"], spawn_key=(b,))))
        z = rng.standard_normal((min(block, B - b * block), n)) * u
        sims += [_sorted_qe(z[k:k + 256], u) for k in range(0, len(z), 256)]
    sims = np.concatenate(sims)
    counts = [int(k) for k in (sims >= observed).sum(axis=0)]
    raw = [max(k, 1) / B for k in counts]
    order = sorted(range(n), key=raw.__getitem__)
    holm, bh = [0.0] * n, [0.0] * n
    step = 0.0
    for rank, i in enumerate(order):  # step-down: running maximum
        step = max(step, min(1.0, (n - rank) * raw[i]))
        holm[i] = step
    step = 1.0
    for rank in reversed(range(n)):   # step-up: running minimum from the top
        i = order[rank]
        step = min(step, n * raw[i] / (rank + 1))
        bh[i] = step
    qs = np.quantile(sims, LEVELS, axis=0, method="linear")
    return [[labels[i], float(observed[i]), [float(q) for q in qs[:, i]],
             [raw[i], counts[i] == 0], [holm[i], counts[i] == 0],
             [bh[i], counts[i] == 0]] for i in range(n)]


def _warm_study(work: Path, n: int) -> Path:
    path = work / f"warmup-{n}.csv"
    workloads.write_study(workloads.study_rows(random.Random(f"warmup:{n}"), n),
                          path)
    return path


# ------------------------------------------------------------------ screen

class Screen:
    def __init__(self, seed: int, work: Path):
        from msdstat import datasets, distribution, statistic, tables
        self.datasets, self.distribution = datasets, distribution
        self.statistic, self.tables = statistic, tables
        self.work = work
        self.ops = workloads.screen_ops(seed)

    def warm_up(self):
        datasets, statistic, tables = self.datasets, self.statistic, self.tables
        statistic.msd(datasets.load_study(_warm_study(self.work, 7)))
        for n in (7, 8, 101):  # odd exact, even exact, odd via n+1
            tables.multi_quantile_adjusted(n, LEVELS[0])

    def prepare(self, op):
        op["path"] = self.work / "study.csv"
        workloads.write_study(op["rows"], op["path"])

    def run(self, op):
        ds = self.datasets.load_study(op["path"])
        q = self.statistic.msd(ds).q_e.tolist()
        crit = [self.tables.multi_quantile_adjusted(ds.n, p) for p in LEVELS]
        flags = [[v > crit[0], v > crit[1], v > 2.0, v > 2.5] for v in q]
        return {"q": q, "crit": crit, "flags": flags}

    def check(self, done):
        """Per-op failures: q_e, flags, and each distinct (n, p) route."""
        tables = self.tables
        bad = set()
        crit_of = {}
        for i, (op, out) in enumerate(done):
            xs = [r[1] for r in op["rows"]]
            us = [r[2] for r in op["rows"]]
            ref = _median_qe(xs, us)
            if any(abs(a - r) > QE_RTOL * abs(r) for a, r in zip(out["q"], ref)):
                _report(i, op, "q_e differs from the plain-Python median")
                bad.add(i)
            want = [[v > out["crit"][0], v > out["crit"][1], v > 2.0, v > 2.5]
                    for v in ref]
            if want != out["flags"]:
                _report(i, op, "flags do not follow from q_e")
                bad.add(i)
            for p, c in zip(LEVELS, out["crit"]):
                crit_of.setdefault((op["n"], p), set()).add(c)
        wrong = set()
        for (n, p), cs in crit_of.items():
            if len(cs) != 1:
                wrong.add((n, p))
                continue
            (c,) = cs
            target = p ** (1.0 / n)
            table = tables.default_table("even" if n % 2 == 0 else "odd")
            exact = abs(self.distribution.cdf(c, n) - target)
            tabled = abs(tables.interp_probability(table, n, c) - target)
            if exact > CDF_ROUND_TRIP or tabled > TABLE_PROB_TOL:
                wrong.add((n, p))
        for i, (op, out) in enumerate(done):
            if any((op["n"], p) in wrong for p in LEVELS):
                _report(i, op, "critical value differs between calls or fails "
                               "the cdf or table round trip")
                bad.add(i)
        return bad

    def rate_items(self, op):
        return 1


# -------------------------------------------------------------- replicates

class Replicates:
    def __init__(self, seed: int, work: Path):
        from msdstat import bootstrap, distribution, simulation, statistic, tables
        self.bootstrap, self.distribution = bootstrap, distribution
        self.simulation, self.statistic, self.tables = simulation, statistic, tables
        self.ops = workloads.replicate_ops(seed)
        self.critical = {}

    def warm_up(self):
        bootstrap, simulation, statistic = (self.bootstrap, self.simulation,
                                            self.statistic)
        rows = workloads.study_rows(random.Random("warmup"), 10)
        ds = statistic.Dataset.from_arrays(*zip(*rows))
        bootstrap.bootstrap_msd(ds, bootstrap.BootstrapConfig(
            replicates=100, seed=0, levels=LEVELS))
        simulation.simulate_multi_quantiles(10, LEVELS, 1000, 0)
        # fixed detection threshold for the power calls: exact 95% quantile
        self.critical = {n: self.distribution.quantile(0.95, n)
                         for n in workloads.REPLICATE_SIM_N}
        simulation.simulate_power("msd", 10, (0.0,), 100, 0, self.critical[10])

    def prepare(self, op):
        if op["kind"] == "bootstrap" and "ds" not in op:
            op["ds"] = self.statistic.Dataset.from_arrays(*zip(*op["rows"]))
            op["cfg"] = self.bootstrap.BootstrapConfig(
                replicates=op["B"], seed=op["seed"], levels=LEVELS)

    def run(self, op):
        simulation = self.simulation
        if op["kind"] == "bootstrap":
            rep = self.bootstrap.bootstrap_msd(op["ds"], op["cfg"])
            return [[r.label, r.statistic, list(r.quantiles),
                     [r.p_raw.value, r.p_raw.is_upper_bound],
                     [r.p_holm.value, r.p_holm.is_upper_bound],
                     [r.p_bh.value, r.p_bh.is_upper_bound]] for r in rep.rows]
        if op["kind"] == "multi":
            est = simulation.simulate_multi_quantiles(op["n"], LEVELS, op["R"],
                                                      op["seed"])
            return [[e.p, e.value, e.std_error] for e in est]
        curve = simulation.simulate_power(
            "msd", op["n"], workloads.REPLICATE_POWER_GRID, op["R"],
            op["seed"], self.critical[op["n"]])
        return [curve.proportion.tolist(), curve.std_error.tolist()]

    def check(self, done):
        bad = set()
        rerun = {}
        for i, (op, out) in enumerate(done):
            rerun.setdefault(op["kind"], i)
            try:
                self._check_one(op, out)
                # some bootstrap sizes of each cycle, in turn, against an
                # independent recomputation of the whole report
                if (op["kind"] == "bootstrap"
                        and workloads.REPLICATE_N.index(op["n"]) % REFERENCE_STRIDE
                        == op["cycle"] % REFERENCE_STRIDE):
                    if out != _reference_bootstrap(op, self.simulation.BLOCK):
                        raise Fail("report differs from the plain-numpy "
                                   "reference")
            except Fail as exc:
                _report(i, op, exc)
                bad.add(i)
        # the same seed must give an identical report
        for i in rerun.values():
            op, out = done[i]
            if self.run(op) != out:
                _report(i, op, "a second run with the same seed differs")
                bad.add(i)
        return bad

    def _check_one(self, op, out):
        if op["kind"] == "bootstrap":
            if len(out) != op["n"]:
                raise Fail("row count")
            ref = _median_qe([r[1] for r in op["rows"]], [r[2] for r in op["rows"]])
            if [row[0] for row in out] != [r[0] for r in op["rows"]] or any(
                    abs(row[1] - r) > QE_RTOL * abs(r) for row, r in zip(out, ref)):
                raise Fail("observed statistic differs from the plain-Python "
                           "median")
            for label, stat, qs, raw, holm, bh in out:
                for p in (raw[0], holm[0], bh[0]):
                    if not 0.0 < p <= 1.0:
                        raise Fail("p-value outside (0, 1]")
                if holm[0] < raw[0] or bh[0] < raw[0]:
                    raise Fail("adjusted p-value below raw")
                if not (math.isfinite(qs[0]) and qs[0] <= qs[1]):
                    raise Fail("bootstrap quantiles")
        elif op["kind"] == "multi":
            for p, value, se in out:
                exact = self.tables.multi_quantile_adjusted(op["n"], p)
                if not abs(value - exact) <= SIM_SE * se + SIM_APPROX:
                    raise Fail("simulated quantile")
        else:
            prop, se = out
            if any(not 0.0 <= x <= 1.0 for x in prop):
                raise Fail("proportion outside [0, 1]")
            nominal = math.sqrt(0.05 * 0.95 / op["R"])
            if abs(prop[0] - 0.05) > POWER_SE * nominal:
                raise Fail("null detection rate")

    def rate_items(self, op):
        if op["kind"] == "bootstrap":
            return op["B"]
        if op["kind"] == "multi":
            return op["R"]
        return op["R"] * len(workloads.REPLICATE_POWER_GRID)


# ------------------------------------------------------------ tables-build

class TablesBuild:
    def __init__(self, seed: int, work: Path):
        from msdstat import distribution, tables
        self.distribution, self.tables = distribution, tables
        self.work = work
        self.ops = workloads.table_ops(seed)
        self.bundled = {}

    def warm_up(self):
        distribution, tables = self.distribution, self.tables
        distribution.cdf_even(1.0, 10)
        distribution.cdf_odd(1.0, 11)
        distribution.cdf_asymptotic(1.0)
        self.bundled = {par: tables.default_table(par) for par in ("even", "odd")}
        small = tables.build_table("even", max_n=6)
        path = self.work / "warmup-table.csv"
        tables.save_table(small, path)
        tables.interp_quantile(tables.load_table(path), 4, 0.95)
        tables.interp_probability(self.bundled["odd"], 41, 1.0)

    def prepare(self, op):
        pass

    def run(self, op):
        tables = self.tables
        built, loaded = {}, {}
        t0 = time.perf_counter()
        for par in ("even", "odd"):
            built[par] = tables.build_table(par)
        for par in ("even", "odd"):
            tables.save_table(built[par], self.work / f"msd_table_{par}.csv")
        for par in ("even", "odd"):
            loaded[par] = tables.load_table(self.work / f"msd_table_{par}.csv")
        t1 = time.perf_counter()
        qs, ps = [], []
        for n, p, q in op["sweep"]:
            table = loaded["even" if n % 2 == 0 else "odd"]
            qs.append(tables.interp_quantile(table, n, p))
            ps.append(tables.interp_probability(table, n, q))
        t2 = time.perf_counter()
        return {"built": built, "loaded": loaded, "qs": qs, "ps": ps,
                "build_s": t1 - t0, "sweep_s": t2 - t1}

    @staticmethod
    def same(a, b) -> bool:
        import numpy as np
        return (a["qs"] == b["qs"] and a["ps"] == b["ps"]
                and all(np.array_equal(a["built"][k].probs, b["built"][k].probs)
                        for k in a["built"]))

    def check(self, done):
        import numpy as np
        tables = self.tables
        bad = set()
        for i, (op, out) in enumerate(done):
            try:
                for par, ref in self.bundled.items():
                    b, l = out["built"][par], out["loaded"][par]
                    if (b.sizes != ref.sizes or l.sizes != b.sizes
                            or not np.array_equal(b.knots_t, ref.knots_t)
                            or not np.array_equal(l.probs, b.probs)
                            or not np.array_equal(l.knots_t, b.knots_t)):
                        raise Fail("table grid or save/load round trip")
                    if np.max(np.abs(b.probs - ref.probs)) > TABLE_REBUILD_TOL:
                        raise Fail("rebuilt table differs from bundled file")
                for k, ((n, p, q), qi, pi) in enumerate(
                        zip(op["sweep"], out["qs"], out["ps"])):
                    par = "even" if n % 2 == 0 else "odd"
                    ref = self.bundled[par]
                    dq = abs(qi - tables.interp_quantile(ref, n, p))
                    dp = abs(pi - tables.interp_probability(ref, n, q))
                    if dq > LOOKUP_Q_TOL or dp > LOOKUP_P_TOL:
                        raise Fail(f"lookup n={n} p={p} q={q} differs from "
                                   f"the bundled table by {dq:.3g} in q, "
                                   f"{dp:.3g} in p")
                    if k % 10 == 0:
                        table = out["loaded"][par]
                        err = abs(tables.interp_probability(table, n, qi) - p)
                        if err > ROUND_TRIP_P_TOL:
                            raise Fail(f"lookup round trip n={n} p={p}: {err:.3g}")
            except Fail as exc:
                _report(i, op, exc)
                bad.add(i)
        return bad

    def rate_items(self, op):
        return 2 * len(op["sweep"])


# ------------------------------------------------------------------ cli-cold

def cli_warm_up(work: Path):
    """The routes an ``msd`` command can take, once each, after its import."""
    import msdstat.cli  # noqa: F401  (the import a command pays)
    from importlib import resources

    import msdstat.bootstrap as bootstrap
    import msdstat.datasets as datasets
    import msdstat.statistic as statistic
    import msdstat.tables as tables
    ds = datasets.load_study(_warm_study(work, 7))
    statistic.msd(ds)
    for n in (7, 8):
        tables.multi_quantile_adjusted(n, LEVELS[0])
    data = resources.files("msdstat").joinpath("data/msd_table_odd.csv")
    tables.interp_quantile(tables.load_table(data), 7, LEVELS[0])
    tables.interp_quantile(tables.default_table("even"), 8, LEVELS[0])
    bootstrap.bootstrap_msd(ds, bootstrap.BootstrapConfig(
        replicates=200, seed=0, levels=LEVELS))


WORKLOADS = {"screen": Screen, "replicates": Replicates,
             "tables-build": TablesBuild}


def _run_timed(w, op):
    t0 = time.perf_counter()
    try:
        out = w.run(op)
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - t0
    return out, time.perf_counter() - t0


def measure(w, seconds: float) -> dict:
    """Closed loop over whole cycles until ``seconds`` of busy time."""
    done, lat, items, errors = [], [], 0, 0
    busy = 0.0
    done_cycle = None
    for op in w.ops:
        if busy >= seconds and op["cycle"] != done_cycle:
            break
        done_cycle = op["cycle"]
        w.prepare(op)
        out, dt = _run_timed(w, op)
        busy += dt
        if out is None:
            errors += 1
        else:
            done.append((op, out))
            lat.append(dt)
            items += w.rate_items(op)
    return {"done": done, "lat": lat, "busy": busy, "items": items,
            "errors": errors}


def measure_traced(w, count: int, patches: list) -> dict:
    """Each of ``count`` operations runs untraced and traced, in turn first."""
    done, lat, errors, mismatch = [], [], 0, 0
    total = {False: 0.0, True: 0.0}
    for i, op in enumerate(itertools.islice(w.ops, count)):
        w.prepare(op)
        outs, times = {}, {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            (tracer.enable if traced else tracer.disable)(patches)
            RECORDER.op = i if traced else tracer.SETUP_OP
            outs[traced], times[traced] = _run_timed(w, op)
        tracer.disable(patches)
        RECORDER.op = tracer.SETUP_OP
        if outs[False] is None or outs[True] is None:
            errors += 1
            continue
        same = (w.same(outs[False], outs[True]) if hasattr(w, "same")
                else outs[False] == outs[True])
        if not same:
            _report(i, op, "tracing changed the output")
            mismatch += 1
            continue
        done.append((op, outs[True]))
        lat.append(times[True])
        for traced in total:
            total[traced] += times[traced]
    return {"done": done, "lat": lat, "errors": errors + mismatch,
            "mismatch": mismatch, "plain_s": total[False],
            "traced_s": total[True]}


RECORDER = tracer.Recorder()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["cli-cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "cli-cold":
        cli_warm_up(args.workdir)
        print("READY", flush=True)
        return 0

    w = WORKLOADS[args.workload](args.seed, args.workdir)
    patches = tracer.install(RECORDER) if args.trace else None
    w.warm_up()
    if patches:
        tracer.disable(patches)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        res = measure_traced(w, TRACED_OPS[args.workload], patches)
    else:
        res = measure(w, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bad = w.check(res["done"])
    result = {
        "attempted": len(res["done"]) + res["errors"],
        "failed": len(bad) + res["errors"],
        "latencies": res["lat"],
        "peak_rss_kb": peak_kb,
    }
    if args.trace:
        result["plain_s"] = res["plain_s"]
        result["traced_s"] = res["traced_s"]
        result["mismatch"] = res["mismatch"]
        with open(args.workdir / "spans.json", "w") as fh:
            json.dump(RECORDER.spans, fh)
    else:
        result["busy_s"] = res["busy"]
        result["items"] = res["items"]
        if args.workload == "tables-build":
            outs = [out for _, out in res["done"]]
            result["build_s"] = [o["build_s"] for o in outs]
            result["sweep_s"] = [o["sweep_s"] for o in outs]
    with open(args.workdir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
