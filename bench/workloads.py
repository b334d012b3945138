"""Seeded inputs for the benchmark workloads.

Everything here is plain Python (``random``, ``math``), so ``run.py`` can
generate inputs without importing the package under test. The same seed
always gives the same sequence of operations and the same study files.

Each workload is an endless sequence of *cycles*, and a run measures
whole cycles. A cycle holds a fixed multiset of operation shapes (command
kind, size parity or size band, replicate count) in a seeded order; the
seed draws the study data, the random-number seeds handed to the package
and, where a band is given, the exact sizes inside it. Fixing the shapes
per cycle keeps the cost of a run steady from seed to seed while the data
change.
"""
from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

LEVELS = (0.95, 0.99)

# cli-cold: one command per operation, drawn from these kinds.
CLI_KINDS = (
    "analyze-exact",
    "analyze-tables",
    "analyze-bootstrap",
    "quantile-exact-odd",
    "quantile-exact-even",
    "quantile-table",
    "bootstrap",
)
CLI_N = (5, 60)
CLI_BOOTSTRAP_B = 2000

# screen: n on 5..150, both parities, both sides of odd n = 99. Each cycle
# takes sizes from every cost band of n in proportion to the band's width,
# so n repeats across the cycles of a run.
SCREEN_N = (5, 150)
SCREEN_PER_CYCLE = {"odd-small": 4, "odd-large": 4, "even": 12, "odd-n+1": 4}

# replicates: one bootstrap or Monte Carlo call per operation. Bootstrap
# sizes sit on a fixed grid over 10..100 because the kernel's cost and
# memory grow as B * n**2, and a drawn size would make both vary by seed.
REPLICATE_N = (10, 23, 36, 49, 62, 75, 88, 100)
REPLICATE_SIM_N = (10, 20)
REPLICATE_MULTI_R = 16384
REPLICATE_POWER_R = 4096
REPLICATE_POWER_GRID = (0.0, 1.0, 2.0, 3.0, 4.0)

# tables-build: interpolated lookups per regeneration.
SWEEP_PAIRS = 1000
SWEEP_N = (3, 1000)
SWEEP_PS = (0.5, 0.8, 0.9, 0.95, 0.99)
SWEEP_Q = (0.05, 4.0)


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def study_rows(rng: random.Random, n: int) -> list[tuple[str, float, float]]:
    """A heteroscedastic interlaboratory study of n labs.

    Unit scale s is log-uniform on [1e-6, 1e6]. Each lab's standard
    uncertainty is s * sqrt(V) with V ~ chi-squared(3), as in the package's
    heteroscedastic guideline study, and its value is a common centre plus
    u * z. Half of the studies carry one lab displaced by 3 to 6 of its own
    uncertainties.
    """
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    centre = scale * 10.0 ** rng.uniform(1.0, 3.0)
    us = [scale * math.sqrt(sum(rng.gauss(0.0, 1.0) ** 2 for _ in range(3)))
          for _ in range(n)]
    xs = [centre + u * rng.gauss(0.0, 1.0) for u in us]
    if rng.random() < 0.5:
        k = rng.randrange(n)
        xs[k] += rng.choice((-1.0, 1.0)) * rng.uniform(3.0, 6.0) * us[k]
    return [(f"L{i + 1:03d}", x, u) for i, (x, u) in enumerate(zip(xs, us))]


def write_study(rows, path: Path) -> None:
    lines = ["lab,value,u"] + [f"{lab},{x!r},{u!r}" for lab, x, u in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _spread(pool: list, cycle: int, k: int):
    """Item of pool for cycle: a golden-ratio sequence, offset per kind k.

    Successive cycles fill the pool's range evenly, and the sequence does
    not depend on the seed, so every run of the same length does the same
    sizes of work.
    """
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    return pool[int(((cycle + 1) * golden + k / 7.0) % 1.0 * len(pool))]


def cli_ops(seed: int):
    """Endless cli-cold operations: one command of each kind per cycle.

    The seed draws the command order, the study data and the bootstrap
    seeds. Sizes and levels follow fixed sequences (see ``_spread``),
    because a command's cost depends on them: exact critical values cost
    far more for odd n and grow with n and p, and the bootstrap grows as
    n**2. The two ``analyze`` kinds that take the exact route use odd and
    even studies in turn, one of each per cycle.
    """
    lo, hi = CLI_N
    pools = {1: [n for n in range(lo, hi + 1) if n % 2],
             0: [n for n in range(lo, hi + 1) if n % 2 == 0],
             None: list(range(lo, hi + 1))}
    parity = {"quantile-exact-odd": lambda c: 1,
              "quantile-exact-even": lambda c: 0,
              "analyze-exact": lambda c: (c + 1) % 2,
              "analyze-bootstrap": lambda c: c % 2}
    for cycle in itertools.count():
        rng = _rng("cli-cold", seed, cycle)
        for kind in rng.sample(CLI_KINDS, len(CLI_KINDS)):
            k = CLI_KINDS.index(kind)
            pool = pools[parity[kind](cycle) if kind in parity else None]
            n = _spread(pool, cycle, k)
            op = {"cycle": cycle, "kind": kind, "n": n,
                  "p": LEVELS[(cycle + k) % 2],
                  "seed": rng.randrange(2 ** 32), "rows": None}
            if not kind.startswith("quantile"):
                op["rows"] = study_rows(rng, n)
            yield op


def cli_args(op: dict, study: str, tables_dir: str) -> list[str]:
    kind = op["kind"]
    if kind == "analyze-exact":
        return ["analyze", study]
    if kind == "analyze-tables":
        return ["analyze", study, "--tables", tables_dir,
                "--format", "structured"]
    if kind == "analyze-bootstrap":
        return ["analyze", study, "--bootstrap", str(CLI_BOOTSTRAP_B),
                "--seed", str(op["seed"])]
    if kind == "bootstrap":
        return ["bootstrap", study, "-B", str(CLI_BOOTSTRAP_B),
                "--seed", str(op["seed"])]
    args = ["quantile", "--n", str(op["n"]), "--p", repr(op["p"])]
    if kind == "quantile-table":
        args += ["--method", "table"]
    return args


def screen_ops(seed: int):
    """Endless screen operations; sizes follow fixed sequences per band."""
    lo, hi = SCREEN_N
    sizes = range(lo, hi + 1)
    bands = {
        "odd-small": [n for n in sizes if n % 2 and n < 50],
        "odd-large": [n for n in sizes if n % 2 and 50 <= n <= 99],
        "even": [n for n in sizes if n % 2 == 0],
        "odd-n+1": [n for n in sizes if n % 2 and n > 99],
    }
    for cycle in itertools.count():
        rng = _rng("screen", seed, cycle)
        ns = [_spread(bands[b], cycle * per + j, k)
              for k, (b, per) in enumerate(SCREEN_PER_CYCLE.items())
              for j in range(per)]
        rng.shuffle(ns)
        for n in ns:
            yield {"cycle": cycle, "kind": "screen", "n": n,
                   "rows": study_rows(rng, n)}


def screen_cycle_length() -> int:
    return sum(SCREEN_PER_CYCLE.values())


def replicate_ops(seed: int):
    """Endless replicates operations, twelve per cycle.

    One bootstrap call per size in REPLICATE_N, with B alternating between
    8192 and 4096 from size to size; two
    ``simulate_multi_quantiles`` and two ``simulate_power`` calls at
    n = 10 and 20.
    """
    for cycle in itertools.count():
        rng = _rng("replicates", seed, cycle)
        ops = []
        for k, n in enumerate(REPLICATE_N):
            b = 8192 if k % 2 == 0 else 4096
            ops.append({"kind": "bootstrap", "n": n, "B": b,
                        "seed": rng.randrange(2 ** 32),
                        "rows": study_rows(rng, n)})
        for n in REPLICATE_SIM_N:
            ops.append({"kind": "multi", "n": n, "R": REPLICATE_MULTI_R,
                        "seed": rng.randrange(2 ** 32)})
            ops.append({"kind": "power", "n": n, "R": REPLICATE_POWER_R,
                        "seed": rng.randrange(2 ** 32)})
        rng.shuffle(ops)
        for op in ops:
            op["cycle"] = cycle
            yield op


def replicate_cycle_length() -> int:
    return len(REPLICATE_N) + 2 * len(REPLICATE_SIM_N)


def table_ops(seed: int):
    """Endless tables-build operations: a regeneration plus a lookup sweep."""
    lo, hi = SWEEP_N
    for cycle in itertools.count():
        rng = _rng("tables-build", seed, cycle)
        sweep = [(rng.randint(lo, hi), rng.choice(SWEEP_PS),
                  rng.uniform(*SWEEP_Q)) for _ in range(SWEEP_PAIRS)]
        yield {"cycle": cycle, "kind": "regenerate", "sweep": sweep}
