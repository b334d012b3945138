#!/usr/bin/env python3
"""The msdstat benchmark: one workload run per invocation.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports the package from
``src`` and installs nothing. Workloads:

  cli-cold      one ``msd`` command per operation, each in a fresh interpreter
  screen        load, score and screen one study per operation, warm process
  replicates    one bootstrap or Monte Carlo call per operation, warm process
  tables-build  regenerate, save and reload both tables, then a lookup sweep

Load is a closed loop with one client: the next operation starts when the
previous one has returned. Every output is checked; a wrong output counts
as a failed operation. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
fixed list of operations runs with spans recorded around the package's
public functions, and the metrics are the per-layer ones. The line before
it, starting with ``record:``, holds the machine record, sample counts and
the workload-specific figures.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads
from workloads import CLI_BOOTSTRAP_B, CLI_KINDS, LEVELS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TABLES_DIR = SRC / "msdstat" / "data"
WORKLOADS = ("cli-cold", "screen", "replicates", "tables-build")

SETUP_SAMPLES = 5        # set-ups timed per run; the median is reported
START_SAMPLES = 5        # `python -c pass` runs for interpreter.start_s
IMPORT_SAMPLES = 3       # `-X importtime` runs in a traced run
TRACED_CLI_OPS = 2 * len(CLI_KINDS)
RUN_BUDGET_S = 170.0     # a run must end within 180 s
CLI_TIMEOUT_S = 60.0
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    BLAS runs one thread: the load is one client, the package's BLAS calls
    are small matrix-vector products that a second thread only slows down,
    and one thread leaves the other core to ``run.py`` and the system.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("MSD_TABLES_DIR", "MSDBENCH_META", "MSDBENCH_TRACE")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


# ------------------------------------------------------------ processes

def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_worker(args, work: Path, env: dict, deadline: Deadline,
                 setup_only: bool):
    """Start worker.py; return it and its set-up time (start to READY)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    with open(work / "worker.err", "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], deadline.left())
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"READY":
            raise BenchError("worker did not become ready:\n"
                             + _tail(work / "worker.err"))
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def finish_worker(proc: subprocess.Popen, work: Path, deadline: Deadline):
    try:
        code = proc.wait(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker timed out")
    finally:
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"worker exited with {code}:\n"
                         + _tail(work / "worker.err"))


def _tail(path: Path, lines: int = 20) -> str:
    try:
        return "\n".join(path.read_text().splitlines()[-lines:])
    except OSError:
        return ""


def timed_setups(args, work, env, deadline, count) -> list[float]:
    out = []
    for _ in range(count):
        proc, setup = start_worker(args, work, env, deadline, setup_only=True)
        finish_worker(proc, work, deadline)
        out.append(setup)
    return out


# ------------------------------------------------------ worker workloads

def run_worker_workload(args, work: Path, env: dict, deadline: Deadline) -> dict:
    setups = timed_setups(args, work, env, deadline, SETUP_SAMPLES - 1)
    proc, setup = start_worker(args, work, env, deadline, setup_only=False)
    setups.append(setup)
    finish_worker(proc, work, deadline)
    res = json.loads((work / "result.json").read_text())
    res["setups"] = setups
    if res["failed"]:
        print(_tail(work / "worker.err"), file=sys.stderr)
    if args.trace:
        res["tally"] = tracer.tally(json.loads((work / "spans.json").read_text()))
    return res


# -------------------------------------------------------------- cli-cold

def run_command(op, i: int, work: Path, env: dict, traced: bool,
                deadline: Deadline) -> dict:
    study = work / f"study-{i}.csv"
    if op["rows"] is not None and not study.exists():
        workloads.write_study(op["rows"], study)
    meta = work / "meta.json"
    env = dict(env, MSDBENCH_META=str(meta))
    if traced:
        env["MSDBENCH_TRACE"] = "1"
    cmd = [sys.executable, str(BENCH / "msd_entry.py"),
           *workloads.cli_args(op, str(study), str(TABLES_DIR))]
    t0 = time.perf_counter()
    try:
        cp = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT,
                            timeout=min(CLI_TIMEOUT_S, deadline.left()))
    except subprocess.TimeoutExpired:
        return {"code": None, "stdout": b"", "wall": time.perf_counter() - t0}
    wall = time.perf_counter() - t0
    out = {"code": cp.returncode, "stdout": cp.stdout, "wall": wall,
           "study": study}
    try:
        info = json.loads(meta.read_text())
        meta.unlink()
    except (OSError, ValueError):
        info = {}
    out["peak_rss_kb"] = info.get("peak_rss_kb")
    out["spans"] = info.get("spans")
    return out


def run_cli_cold(args, work: Path, env: dict, deadline: Deadline) -> dict:
    setups = timed_setups(args, work, env, deadline, SETUP_SAMPLES)
    ops = workloads.cli_ops(args.seed)
    done = []        # (op, result of the run that is checked)
    errors = 0
    if not args.trace:
        busy = 0.0
        for i, op in enumerate(ops):
            if busy >= args.seconds and op["cycle"] != done[-1][0]["cycle"]:
                break
            r = run_command(op, i, work, env, False, deadline)
            busy += r["wall"]
            done.append((op, r))
        res = {"busy_s": busy}
    else:
        tallies, commands = [], []
        plain_s = traced_s = 0.0
        for i, op in enumerate(itertools.islice(ops, TRACED_CLI_OPS)):
            runs = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                runs[traced] = run_command(op, i, work, env, traced, deadline)
            if runs[False]["stdout"] != runs[True]["stdout"] \
                    or runs[False]["code"] != runs[True]["code"]:
                print(f"tracing changed the output of {op['kind']} n={op['n']}",
                      file=sys.stderr)
                errors += 1
                continue
            plain_s += runs[False]["wall"]
            traced_s += runs[True]["wall"]
            spans = runs[True]["spans"] or []
            tallies.append(tracer.tally(spans))
            for idx, (name, parent, opid, t0, t1, attrs) in enumerate(spans):
                if name == "cli.command":
                    child = sum(s[4] - s[3] for s in spans if s[1] == idx)
                    commands.append((op["kind"], t1 - t0, t1 - t0 - child))
            done.append((op, runs[True]))
        res = {"plain_s": plain_s, "traced_s": traced_s,
               "tally": tracer.merge(tallies), "commands": commands}
    bad = check_cli(done)
    good = [r for i, (op, r) in enumerate(done) if i not in bad]
    res.update({
        "attempted": len(done) + errors,
        "failed": len(bad) + errors,
        "latencies": [r["wall"] for r in good],
        "peak_rss_kb": statistics.median(
            r["peak_rss_kb"] for r in good if r["peak_rss_kb"]) if good else 0,
        "setups": setups,
    })
    return res


def check_cli(done) -> set:
    """Indices of commands whose exit code or output is wrong."""
    sys.path.insert(0, str(SRC))
    from msdstat import bootstrap, datasets, statistic, tables

    exact = {}

    def maq(n, p):
        if (n, p) not in exact:
            exact[(n, p)] = tables.multi_quantile_adjusted(n, p)
        return exact[(n, p)]

    def flag_marks(q, crit):
        return ["*" if f else "-"
                for f in (q > crit[0], q > crit[1], q > 2.0, q > 2.5)]

    def words(line):
        return line.split()

    def tokens(*parts):
        return " ".join(str(p) for p in parts).split()

    bad = set()
    for i, (op, r) in enumerate(done):
        kind, n, p = op["kind"], op["n"], op["p"]
        parity = "even" if n % 2 == 0 else "odd"
        try:
            if r["code"] != 0:
                raise ValueError(f"exit code {r['code']}")
            text = r["stdout"].decode()
            lines = text.splitlines()
            if kind.startswith("quantile"):
                if kind == "quantile-table":
                    value = tables.interp_quantile(
                        tables.default_table(parity), n, p ** (1.0 / n))
                else:
                    value = maq(n, p)
                if text.strip() != f"{value:.6g}":
                    raise ValueError("quantile")
                continue
            ds = datasets.load_study(r["study"])
            q = statistic.msd(ds).q_e.tolist()
            if kind == "analyze-tables":
                table = tables.load_table(TABLES_DIR / f"msd_table_{parity}.csv")
                crit = [tables.interp_quantile(table, n, lv ** (1.0 / n))
                        for lv in LEVELS]
                doc = json.loads(text)
                if doc["n"] != n or doc["critical_values"] != {
                        f"{lv:g}": c for lv, c in zip(LEVELS, crit)}:
                    raise ValueError("structured critical values")
                for row, obs, qe in zip(doc["results"], ds.observations, q):
                    if (row["lab"] != obs.label or row["q_e"] != qe
                            or [row["above_95"], row["above_99"],
                                row["above_2_0"], row["above_2_5"]]
                            != [qe > crit[0], qe > crit[1], qe > 2.0, qe > 2.5]):
                        raise ValueError("structured row")
                if len(doc["results"]) != n:
                    raise ValueError("structured row count")
                continue
            report = None
            if kind in ("analyze-bootstrap", "bootstrap"):
                report = bootstrap.bootstrap_msd(ds, bootstrap.BootstrapConfig(
                    replicates=CLI_BOOTSTRAP_B, seed=op["seed"], levels=LEVELS))
            if kind == "bootstrap":
                rows = lines[2:]
                if len(rows) != n:
                    raise ValueError("bootstrap row count")
                for line, row in zip(rows, report.rows):
                    if words(line) != tokens(
                            row.label, f"{row.statistic:.3f}",
                            f"{row.quantiles[0]:.4f}", f"{row.quantiles[1]:.4f}",
                            row.p_raw, row.p_holm, row.p_bh):
                        raise ValueError("bootstrap row")
                continue
            crit = [maq(n, lv) for lv in LEVELS]
            m = re.search(r"critical values \(exact\): 95% (\S+), 99% (\S+)$",
                          lines[0])
            if not m or list(m.groups()) != [f"{c:.4f}" for c in crit]:
                raise ValueError("critical values")
            rows = lines[4:4 + n]
            for line, obs, qe in zip(rows, ds.observations, q):
                if words(line) != tokens(obs.label, f"{obs.value:g}",
                                         f"{obs.uncertainty:g}", f"{qe:.3f}",
                                         *flag_marks(qe, crit)):
                    raise ValueError("analyze row")
            if len(rows) != n:
                raise ValueError("analyze row count")
            if report is not None:
                brows = lines[4 + n + 3:]
                if len(brows) != n:
                    raise ValueError("bootstrap block row count")
                for line, row in zip(brows, report.rows):
                    if words(line) != tokens(
                            row.label, f"{row.quantiles[0]:.4f}",
                            f"{row.quantiles[1]:.4f}", row.p_raw, row.p_bh):
                        raise ValueError("bootstrap block row")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            print(f"check failed: {kind} n={n}: {exc}", file=sys.stderr)
            bad.add(i)
    return bad


# ------------------------------------------------------- machine record

def interpreter_start(env: dict) -> float:
    times = []
    for _ in range(START_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       check=True, timeout=CLI_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def import_times(env: dict) -> dict:
    """Median over fresh interpreters of ``-X importtime`` for the CLI."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        cp = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import msdstat.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=CLI_TIMEOUT_S)
        s = {"total": 0, "numpy": 0, "scipy": 0, "click": 0, "msdstat": 0}
        for line in cp.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if not m:
                continue
            self_us, cum_us, indent, name = m.groups()
            top = name.split(".")[0]
            if len(indent) == 1 and top == "msdstat":
                s["total"] += int(cum_us)
            if top in s:
                s[top] += int(self_us)
        samples.append(s)
    names = {"total": "import.total_s", "numpy": "import.numpy_s",
             "scipy": "import.scipy_s", "click": "import.click_s",
             "msdstat": "import.msdstat_self_s"}
    return {metric: statistics.median(s[key] for s in samples) / 1e6
            for key, metric in names.items()}


def machine_record(env: dict, start_s: float) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = None
    try:
        import numpy
        deps = numpy.__config__.CONFIG.get("Build Dependencies", {})
        info = deps.get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version"),
                "config": info.get("openblas configuration")}
    except (ImportError, AttributeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "msdstat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "blas": blas,
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "interpreter.start_s": start_s,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------- metrics

def end_to_end(args, res: dict) -> tuple[dict, dict]:
    lat = res["latencies"]
    if not lat:
        raise BenchError("no operation completed")
    metrics = {
        "throughput_ops_s": len(lat) / res["busy_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": percentile(lat, 0.9),
        "setup_s": statistics.median(res["setups"]),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    side = {
        "latency_samples": len(lat),
        "samples_beyond_p90": sum(x > metrics["latency_p90_s"] for x in lat),
        "setup_samples_s": res["setups"],
        "failed_share": res["failed"] / max(res["attempted"], 1),
    }
    if args.workload == "replicates":
        side["datasets_per_s"] = res["items"] / res["busy_s"]
    if args.workload == "tables-build":
        side["build_s"] = statistics.median(res["build_s"])
        side["lookups_per_s"] = res["items"] / sum(res["sweep_s"])
    return metrics, side


def per_layer(res: dict, env: dict, start_s: float) -> tuple[dict, dict]:
    metrics = tracer.layer_metrics(res["tally"])
    metrics["interpreter.start_s"] = start_s
    metrics.update(import_times(env))
    commands = res.get("commands", [])
    for kind in CLI_KINDS:
        spans = [d for k, d, _ in commands if k == kind]
        metrics[f"cli.command_s.{kind}"] = statistics.median(spans) if spans else 0.0
    if commands:
        metrics["cli.self_s"] = statistics.median(s for _, _, s in commands)
    if res["plain_s"]:
        metrics["trace.overhead_share"] = res["traced_s"] / res["plain_s"] - 1.0
    side = {"untraced_s": res["plain_s"], "traced_s": res["traced_s"],
            "failed_share": res["failed"] / max(res["attempted"], 1)}
    return metrics, side


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="msdstat benchmark (see the module docstring).")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "msdstat" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_BUDGET_S)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = child_env()
        start_s = interpreter_start(env)
        if args.workload == "cli-cold":
            res = run_cli_cold(args, work, env, deadline)
        else:
            res = run_worker_workload(args, work, env, deadline)
        if args.trace:
            metrics, side = per_layer(res, env, start_s)
            units = dict(tracer.PER_LAYER)
        else:
            metrics, side = end_to_end(args, res)
            units = END_TO_END_UNITS
        record = machine_record(env, start_s)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print("record: " + json.dumps({"machine": record, "side": side}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
