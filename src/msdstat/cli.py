"""Command-line surface for the pairwise median scaled difference toolkit.

Exit codes: 0 success, 2 usage errors, 3 input/validation problems
(including unreadable or unwritable paths), 4 numeric failures. The root
group maps library errors onto these codes for every command, the
``tables`` and ``simulate`` subcommands included.
"""
from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, BootstrapRow, bootstrap_msd
from .datasets import load_study
from .errors import ConvergenceError, DataError, DomainError, TableRangeError
from .simulation import (
    calibrate_pwch_quantile,
    simulate_hetero_guideline,
    simulate_multi_quantiles,
    simulate_power,
    simulate_resistance,
)
from .statistic import msd
from .tables import (_critical_value, _table_file, _table_for, build_table,
                     save_table)

TABLES_ENV = "MSD_TABLES_DIR"
_LEVELS = (0.95, 0.99)
_NONFINITE = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}


class _Root(click.Group):
    def invoke(self, ctx):
        # map library failures onto the documented exit codes
        try:
            return super().invoke(ctx)
        except ConvergenceError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except (DataError, DomainError, TableRangeError, OSError) as exc:
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


def _tables_dir(flag_value) -> Path | None:
    if flag_value is not None:
        return Path(flag_value)
    env = os.environ.get(TABLES_ENV)
    return Path(env) if env else None


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
@click.option("--bootstrap", "bootstrap_b", type=int, default=0,
              help="Bootstrap replicates; 0 disables the bootstrap block.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Random seed for the bootstrap.")
@click.option("--mode", type=click.Choice(["single", "multiple"]),
              default="multiple", show_default=True,
              help="Quantile family the 95%/99% flags compare against.")
@click.option("--adjust", type=click.Choice(["holm", "bh"]), default="bh",
              show_default=True,
              help="Adjusted p-value column shown in text output.")
@click.option("--tables", type=click.Path(file_okay=False, path_type=Path),
              default=None,
              help=f"Interpolation-table directory (default: exact "
                   f"distribution, or ${TABLES_ENV} when set).")
@click.option("--format", "fmt", type=click.Choice(["text", "structured"]),
              default="text", show_default=True)
def analyze(input_path, bootstrap_b, seed, mode, adjust, tables, fmt):
    """Score every observation in a study file and flag anomalies."""
    ds = load_study(input_path)
    parity = "even" if ds.n % 2 == 0 else "odd"
    tables = _tables_dir(tables)
    table = None if tables is None else _table_for(ds.n, tables)
    crit = tuple(_critical_value(ds.n, p, mode, table) for p in _LEVELS)
    provenance = "exact" if tables is None else str(tables)
    report = None
    if bootstrap_b:
        report = bootstrap_msd(ds, BootstrapConfig(
            replicates=bootstrap_b, seed=seed, levels=_LEVELS))
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
            "above_2_0": bool(qe > 2.0),
            "above_2_5": bool(qe > 2.5),
            "bootstrap": None if brow is None else _bootstrap_json(brow),
        })

    if fmt == "structured":
        doc = {
            "kind": "msd-analysis",
            "schema_version": 1,
            "n": ds.n,
            "parity": parity,
            "mode": mode,
            "tables": provenance,
            "critical_values": {f"{p:g}": c for p, c in zip(_LEVELS, crit)},
            "thresholds": {"inspect": 2.0, "screen": 2.5},
            "adjust": adjust,
            "seed": seed if report is not None else None,
            "bootstrap_replicates": bootstrap_b or None,
            "results": rows,
        }
        click.echo(_dump_json(doc))
        return

    click.echo(f"{ds.n} results ({parity}); "
               f"mode={mode}; critical values ({provenance}): "
               f"95% {crit[0]:.4f}, 99% {crit[1]:.4f}")
    click.echo("rules of thumb: inspect above 2.0, strict screen above 2.5")
    click.echo("")
    click.echo(f"{'lab':<8} {'value':>12} {'u':>10} {'q_e':>8}  "
               f">95% >99% >2.0 >2.5")
    for row in rows:
        click.echo(
            f"{row['lab']:<8} {row['value']:>12g} {row['u']:>10g} "
            f"{row['q_e']:>8.3f}  {_mark(row['above_95']):>4} "
            f"{_mark(row['above_99']):>4} {_mark(row['above_2_0']):>4} "
            f"{_mark(row['above_2_5']):>4}")
    if report is not None:
        click.echo("")
        click.echo(f"bootstrap: B={report.replicates} seed={report.seed} "
                   f"adjusted by {adjust}")
        click.echo(f"{'lab':<8} {'q*(0.95)':>10} {'q*(0.99)':>10} "
                   f"{'p_raw':>10} {'p_' + adjust:>10}")
        for brow in brows:
            adj = brow.p_holm if adjust == "holm" else brow.p_bh
            click.echo(f"{brow.label:<8} {brow.quantiles[0]:>10.4f} "
                       f"{brow.quantiles[1]:>10.4f} {str(brow.p_raw):>10} "
                       f"{str(adj):>10}")


@entrypoint.command("bootstrap")
@click.argument("input_path", type=click.Path(dir_okay=False, path_type=Path))
@click.option("-B", "--replicates", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
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
    click.echo(f"{'lab':<8} {'q_e':>8} {'q*(0.95)':>10} {'q*(0.99)':>10} "
               f"{'p_raw':>10} {'p_holm':>10} {'p_bh':>10}")
    for row in report.rows:
        click.echo(f"{row.label:<8} {row.statistic:>8.3f} "
                   f"{row.quantiles[0]:>10.4f} {row.quantiles[1]:>10.4f} "
                   f"{str(row.p_raw):>10} {str(row.p_holm):>10} "
                   f"{str(row.p_bh):>10}")


@entrypoint.command("quantile")
@click.option("--n", type=click.IntRange(min=3), required=True,
              help="Number of observations in the study.")
@click.option("--p", type=click.FloatRange(0.0, 1.0, min_open=True,
                                           max_open=True), required=True)
@click.option("--mode", type=click.Choice(["single", "multiple"]),
              default="multiple", show_default=True,
              help="'multiple' adjusts p for a whole-dataset screen.")
@click.option("--method", type=click.Choice(["exact", "table"]),
              default="exact", show_default=True)
def quantile_cmd(n, p, mode, method):
    """Print a critical value of the statistic under exchangeable data."""
    table = _table_for(n, _tables_dir(None)) if method == "table" else None
    click.echo(f"{_critical_value(n, p, mode, table):.6g}")


@entrypoint.group()
def tables():
    """Build and inspect the quantile interpolation tables."""


@tables.command("generate")
@click.option("--parity", type=click.Choice(["even", "odd", "both"]),
              default="both", show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path),
              required=True, help="Directory the table files are written to.")
@click.option("--max-n", type=click.IntRange(min=3), default=None,
              help="Cap on the tabulated sizes, for quick partial builds.")
def tables_generate(parity, out, max_n):
    """Rebuild the interpolation tables from the exact distribution."""
    out.mkdir(parents=True, exist_ok=True)
    parities = ("even", "odd") if parity == "both" else (parity,)
    for par in parities:
        table = build_table(par, max_n=max_n)
        path = out / _table_file(par)
        save_table(table, path)
        click.echo(f"wrote {path}")


def _parse_grid(ctx, param, value):
    try:
        lo, hi, step = (float(t) for t in value.split(":"))
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise ValueError
        return tuple(np.arange(lo, hi + 0.5 * step, step))
    except ValueError:
        raise click.BadParameter("expected LO:HI:STEP with STEP > 0")


def _parse_sizes(ctx, param, value):
    try:
        return tuple(int(t) for t in value.split(","))
    except ValueError:
        raise click.BadParameter("expected a comma-separated list of sizes")


def _emit(lines, out: Path | None):
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        out.write_text(text)
        click.echo(f"wrote {out}")


@entrypoint.group()
def simulate():
    """Seeded Monte Carlo studies; output is plot-ready delimited text."""


@simulate.command("table3")
@click.option("--n", type=click.IntRange(min=3), required=True)
@click.option("--p", type=click.FloatRange(0.0, 1.0, min_open=True,
                                           max_open=True), default=0.95,
              show_default=True)
@click.option("--replicates", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              default=None)
def simulate_table3(n, p, replicates, seed, out):
    """Empirical multiple-observation critical value for one study size."""
    (est,) = simulate_multi_quantiles(n, (p,), replicates, seed)
    _emit([
        f"# multiple-observation quantile; replicates={replicates} seed={seed}",
        "n,p,estimate,std_error",
        f"{n},{p:g},{est.value!r},{est.std_error!r}",
    ], out)


def _grid_study(kind, runner, grid, grid_help, doc):
    @simulate.command(kind, help=doc)
    @click.option("--grid", callback=_parse_grid, default=grid,
                  show_default=True, help=grid_help)
    @click.option("--stat", "statistic", type=click.Choice(["msd", "pwch"]),
                  default="msd", show_default=True)
    @click.option("--n", type=click.IntRange(min=3), default=10,
                  show_default=True)
    @click.option("--replicates", type=int, default=10_000, show_default=True)
    @click.option("--seed", type=int, default=0, show_default=True)
    @click.option("--critical", type=float, default=None,
                  help="Detection threshold (default: the 95% critical value, "
                       "exact for msd, self-calibrated for pwch).")
    @click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
                  default=None)
    def command(grid, statistic, n, replicates, seed, critical, out):
        if critical is None:
            critical = (_critical_value(n, 0.95, "single")
                        if statistic == "msd" else
                        calibrate_pwch_quantile(n, 0.95, 200_000, seed))
        curve = runner(statistic, n, grid, replicates, seed, critical)
        lines = [
            f"# {kind}; statistic={statistic} n={n} replicates={replicates} "
            f"seed={seed} critical={critical!r}",
            "delta,proportion,std_error",
        ]
        lines += [f"{d:g},{float(p)!r},{float(s)!r}" for d, p, s in
                  zip(curve.grid, curve.proportion, curve.std_error)]
        _emit(lines, out)


_grid_study("power", simulate_power, "0:5:0.25",
            "Subject displacement grid LO:HI:STEP.",
            "Detection rate as the subject observation is displaced.")
_grid_study("resistance", simulate_resistance, "-8:8:1",
            "Contaminant displacement grid LO:HI:STEP.",
            "False-alarm rate on a null subject while another value wanders.")


@simulate.command("hetero")
@click.option("--sizes", callback=_parse_sizes, default="5,10,15,20,25",
              show_default=True)
@click.option("--replicates", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              default=None)
def simulate_hetero(sizes, replicates, seed, out):
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
    _emit(lines, out)
