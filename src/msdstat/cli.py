"""Command-line surface for the pairwise median scaled difference toolkit.

Exit codes: 0 success, 2 usage errors, 3 input/validation problems
(including unreadable paths, an unwritable ``tables generate --out``
directory and a forked ``tables generate`` child that dies), 4 numeric
failures. The root group maps library errors onto these codes for every
command, the ``tables`` and ``simulate`` subcommands included. The
``simulate`` commands print their delimited text on stdout only; a shell
redirection saves it.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, BootstrapRow, bootstrap_msd
from .datasets import _ascii, load_study
from .distribution import _parity
from .errors import ConvergenceError, MsdError
from .simulation import (simulate_hetero_guideline, simulate_multi_quantiles,
                         simulate_power, simulate_resistance)
from .statistic import INSPECT, SCREEN, msd
from .tables import (_critical_value, _table_file, _table_for, build_table,
                     save_table)

_LEVELS = (0.95, 0.99)
_Q_HEADS = " ".join(f"{f'q*({lv:g})':>10}" for lv in _LEVELS)
_NONFINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


class _Root(click.Group):
    def invoke(self, ctx):
        # map library failures onto the documented exit codes
        try:
            return super().invoke(ctx)
        except ConvergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except (MsdError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Root)
@click.version_option(version=__version__, prog_name="msd")
def entrypoint():
    """Flag anomalous results in location/uncertainty data.

    The statistic per observation is the median of its scaled differences
    against every other observation; critical values come from the exact
    sampling distribution, interpolation tables, or a parametric bootstrap.
    """


class _Ascii(click.ParamType):
    """A click number type that first refuses, as study and table files do,
    a string holding ``_`` or a non-ASCII character; the help text is the
    wrapped type's."""

    def convert(self, value, param, ctx):
        if isinstance(value, str):
            try:
                _ascii(value)
            except ValueError:
                self.fail(f"{value!r} is not a valid {self.name}.", param, ctx)
        return super().convert(value, param, ctx)


class _Int(_Ascii, click.types.IntParamType):
    pass


class _Float(_Ascii, click.types.FloatParamType):
    pass


class _IntRange(_Ascii, click.IntRange):
    pass


class _FloatRange(_Ascii, click.FloatRange):
    pass


_INT = _Int()
_N = _IntRange(min=3)
_P = _FloatRange(0.0, 1.0, min_open=True, max_open=True)


def _dump_json(doc) -> str:
    # JSON has no inf or nan; a round trip through the parser turns them
    # into strings, and finite floats round-trip exactly
    doc = json.loads(json.dumps(doc), parse_constant=_NONFINITE.__getitem__)
    return json.dumps(doc, indent=2, allow_nan=False)


def _p_json(p) -> dict:
    return {"value": p.value, "upper_bound": p.is_upper_bound, "text": str(p)}


def _bootstrap_json(row: BootstrapRow) -> dict:
    return {
        "quantiles": {f"{lv:g}": q for lv, q in zip(_LEVELS, row.quantiles)},
        "p_raw": _p_json(row.p_raw),
        "p_holm": _p_json(row.p_holm),
        "p_bh": _p_json(row.p_bh),
    }


def _mark(flag: bool) -> str:
    return "*" if flag else "-"


@entrypoint.command()
@click.argument("input_path", type=click.Path(dir_okay=False, path_type=Path))
@click.option("--bootstrap", "bootstrap_b", type=_INT, default=0,
              help="Bootstrap replicates; 0 disables the bootstrap block.")
@click.option("--seed", type=_INT, default=0, show_default=True,
              help="Random seed for the bootstrap.")
@click.option("--mode", type=click.Choice(["single", "multiple"]),
              default="multiple", show_default=True,
              help="Quantile family the 95%/99% flags compare against.")
@click.option("--tables", type=click.Path(file_okay=False, path_type=Path),
              default=None,
              help="Interpolation-table directory (default: exact "
                   "distribution).")
@click.option("--format", "fmt", type=click.Choice(["text", "structured"]),
              default="text", show_default=True)
def analyze(input_path, bootstrap_b, seed, mode, tables, fmt):
    """Score every observation in a study file and flag anomalies."""
    ds = load_study(input_path)
    cfg = (BootstrapConfig(replicates=bootstrap_b, seed=seed, levels=_LEVELS)
           if bootstrap_b else None)
    parity = _parity(ds.n)
    table = None if tables is None else _table_for(ds.n, tables)
    crit = tuple(_critical_value(ds.n, p, mode, table) for p in _LEVELS)
    provenance = "exact" if tables is None else str(tables)
    report = None if cfg is None else bootstrap_msd(ds, cfg)
    # report rows come in the dataset's observation order
    brows = (None,) * ds.n if report is None else report.rows

    rows = []
    for obs, qe, brow in zip(ds.observations, msd(ds).q_e.tolist(), brows):
        rows.append({
            "lab": obs.label,
            "value": obs.value,
            "u": obs.uncertainty,
            "q_e": qe,
            "above_95": bool(qe > crit[0]),
            "above_99": bool(qe > crit[1]),
            "above_2_0": bool(qe > INSPECT),
            "above_2_5": bool(qe > SCREEN),
            "bootstrap": None if brow is None else _bootstrap_json(brow),
        })

    if fmt == "structured":
        doc = {
            "kind": "msd-analysis",
            "schema_version": 2,
            "n": ds.n,
            "parity": parity,
            "mode": mode,
            "tables": provenance,
            "critical_values": {f"{p:g}": c for p, c in zip(_LEVELS, crit)},
            "thresholds": {"inspect": INSPECT, "screen": SCREEN},
            "seed": seed if report is not None else None,
            "bootstrap_replicates": bootstrap_b or None,
            "results": rows,
        }
        click.echo(_dump_json(doc))
        return

    click.echo(f"{ds.n} results ({parity}); "
               f"mode={mode}; critical values ({provenance}): "
               f"95% {crit[0]:.4f}, 99% {crit[1]:.4f}")
    click.echo(f"rules of thumb: inspect above {INSPECT}, "
               f"strict screen above {SCREEN}")
    click.echo("")
    click.echo(f"{'lab':<8} {'value':>12} {'u':>10} {'q_e':>8}  "
               f">95% >99% >{INSPECT} >{SCREEN}")
    for row in rows:
        click.echo(
            f"{row['lab']:<8} {row['value']:>12g} {row['u']:>10g} "
            f"{row['q_e']:>8.3f}  {_mark(row['above_95']):>4} "
            f"{_mark(row['above_99']):>4} {_mark(row['above_2_0']):>4} "
            f"{_mark(row['above_2_5']):>4}")
    if report is not None:
        click.echo("")
        click.echo(f"bootstrap: B={report.replicates} seed={report.seed} "
                   "adjusted by bh")
        click.echo(f"{'lab':<8} {_Q_HEADS} {'p_raw':>10} {'p_bh':>10}")
        for brow in brows:
            click.echo(f"{brow.label:<8} {brow.quantiles[0]:>10.4f} "
                       f"{brow.quantiles[1]:>10.4f} {str(brow.p_raw):>10} "
                       f"{str(brow.p_bh):>10}")


@entrypoint.command("bootstrap")
@click.argument("input_path", type=click.Path(dir_okay=False, path_type=Path))
@click.option("-B", "--replicates", type=_INT,
              default=BootstrapConfig.replicates, show_default=True)
@click.option("--seed", type=_INT, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "structured"]),
              default="text", show_default=True)
def bootstrap_cmd(input_path, replicates, seed, fmt):
    """Case-specific bootstrap quantiles and p-values for a study file."""
    ds = load_study(input_path)
    report = bootstrap_msd(ds, BootstrapConfig(
        replicates=replicates, seed=seed, levels=_LEVELS))
    if fmt == "structured":
        doc = {
            "kind": "msd-bootstrap",
            "schema_version": 1,
            "n": ds.n,
            "replicates": report.replicates,
            "seed": report.seed,
            "levels": list(report.levels),
            "quantile_method": report.quantile_method,
            "results": [{
                "lab": row.label,
                "q_e": row.statistic,
                **_bootstrap_json(row),
            } for row in report.rows],
        }
        click.echo(_dump_json(doc))
        return
    click.echo(f"bootstrap: B={report.replicates} seed={report.seed}")
    click.echo(f"{'lab':<8} {'q_e':>8} {_Q_HEADS} "
               f"{'p_raw':>10} {'p_holm':>10} {'p_bh':>10}")
    for row in report.rows:
        click.echo(f"{row.label:<8} {row.statistic:>8.3f} "
                   f"{row.quantiles[0]:>10.4f} {row.quantiles[1]:>10.4f} "
                   f"{str(row.p_raw):>10} {str(row.p_holm):>10} "
                   f"{str(row.p_bh):>10}")


@entrypoint.command("quantile")
@click.option("--n", type=_N, required=True,
              help="Number of observations in the study.")
@click.option("--p", type=_P, required=True)
@click.option("--mode", type=click.Choice(["single", "multiple"]),
              default="multiple", show_default=True,
              help="'multiple' adjusts p for a whole-dataset screen.")
@click.option("--method", type=click.Choice(["exact", "table"]),
              default="exact", show_default=True)
def quantile_cmd(n, p, mode, method):
    """Print a critical value of the statistic under exchangeable data."""
    table = _table_for(n, None) if method == "table" else None
    click.echo(f"{_critical_value(n, p, mode, table):.6g}")


@entrypoint.group()
def tables():
    """Build and inspect the quantile interpolation tables."""


@tables.command("generate")
@click.option("--out", type=click.Path(file_okay=False, path_type=Path),
              required=True, help="Directory the table files are written to.")
def tables_generate(out):
    """Rebuild the interpolation tables from the exact distribution."""
    out.mkdir(parents=True, exist_ok=True)
    # both tables are built before either is written, so a failed build
    # writes no table
    built = {parity: build_table(parity) for parity in ("even", "odd")}
    for parity, table in built.items():
        path = out / _table_file(parity)
        save_table(table, path)
        click.echo(f"wrote {path}")


def _parse_grid(ctx, param, value):
    try:
        lo, hi, step = (float(_ascii(t)) for t in value.split(":"))
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise ValueError
        return tuple(np.arange(lo, hi + 0.5 * step, step))
    except ValueError:
        raise click.BadParameter("expected LO:HI:STEP with STEP > 0")
    except MemoryError:
        raise click.BadParameter("expected LO:HI:STEP; this grid has too "
                                 "many points")


def _parse_sizes(ctx, param, value):
    try:
        return tuple(int(_ascii(t)) for t in value.split(","))
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of sizes")


@entrypoint.group()
def simulate():
    """Seeded Monte Carlo studies; output is plot-ready delimited text.

    Each command prints its text on stdout; a shell redirection saves it,
    as in: msd simulate power > power.csv
    """


@simulate.command("table3")
@click.option("--n", type=_N, required=True)
@click.option("--p", type=_P, default=0.95, show_default=True)
@click.option("--replicates", type=_INT, default=100_000, show_default=True)
@click.option("--seed", type=_INT, default=0, show_default=True)
def simulate_table3(n, p, replicates, seed):
    """Empirical multiple-observation critical value for one study size."""
    (est,) = simulate_multi_quantiles(n, (p,), replicates, seed)
    click.echo("\n".join([
        f"# multiple-observation quantile; replicates={replicates} seed={seed}",
        "n,p,estimate,std_error",
        f"{n},{p:g},{est.value!r},{est.std_error!r}",
    ]))


def _grid_study(kind, runner, grid, grid_help, doc):
    @simulate.command(kind, help=doc)
    @click.option("--grid", callback=_parse_grid, default=grid,
                  show_default=True, help=grid_help)
    @click.option("--stat", "statistic", type=click.Choice(["msd", "pwch"]),
                  default="msd", show_default=True)
    @click.option("--n", type=_N, default=10, show_default=True)
    @click.option("--replicates", type=_INT, default=10_000, show_default=True)
    @click.option("--seed", type=_INT, default=0, show_default=True)
    @click.option("--critical", type=_Float(), default=None,
                  help="Detection threshold (default: the 95% critical value, "
                       "exact for msd, self-calibrated for pwch).")
    def command(grid, statistic, n, replicates, seed, critical):
        curve = runner(statistic, n, grid, replicates, seed, critical)
        lines = [
            f"# {kind}; statistic={statistic} n={n} replicates={replicates} "
            f"seed={seed} critical={curve.critical!r}",
            "delta,proportion,std_error",
        ]
        lines += [f"{d:g},{float(p)!r},{float(s)!r}" for d, p, s in
                  zip(curve.grid, curve.proportion, curve.std_error)]
        click.echo("\n".join(lines))


_grid_study("power", simulate_power, "0:5:0.25",
            "Subject displacement grid LO:HI:STEP.",
            "Detection rate as the subject observation is displaced.")
_grid_study("resistance", simulate_resistance, "-8:8:1",
            "Contaminant displacement grid LO:HI:STEP.",
            "False-alarm rate on a null subject while another value wanders.")


@simulate.command("hetero")
@click.option("--sizes", callback=_parse_sizes, default="5,10,15,20,25",
              show_default=True)
@click.option("--replicates", type=_INT, default=10_000, show_default=True)
@click.option("--seed", type=_INT, default=0, show_default=True)
def simulate_hetero(sizes, replicates, seed):
    """Rule-of-thumb exceedance rates under chi-squared(3) variances."""
    study = simulate_hetero_guideline(sizes, replicates, seed)
    lines = [
        f"# guideline exceedance rates; replicates={replicates} seed={seed}",
        "n,value_rate,value_se,dataset_rate,dataset_se",
    ]
    lines += [
        f"{n},{float(vr)!r},{float(vs)!r},{float(dr)!r},{float(ds)!r}"
        for n, vr, vs, dr, ds in zip(study.sizes, study.value_rate,
                                     study.value_se, study.dataset_rate,
                                     study.dataset_se)]
    click.echo("\n".join(lines))
