"""Command-line surface: parsing, exit codes, routing, and reproducibility."""
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest
from click.testing import CliRunner

import msdstat
from msdstat import DataError, distribution, tables
from msdstat.cli import entrypoint
from msdstat.datasets import conductivity_study, load_study
from msdstat.errors import ConvergenceError
from msdstat.tables import (QuantileTable, _critical_value, _table_file,
                            build_table, default_table, save_table)

from conftest import write_study


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def study_path(tmp_path):
    path = tmp_path / "round.csv"
    write_study(conductivity_study(), path)
    return path


def invoke(runner, args, **kwargs):
    return runner.invoke(entrypoint, args, catch_exceptions=False, **kwargs)


class TestStudyFiles:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# heading\n\nlab,value,u\n# mid\na,1.0,0.5\n"
                        "b,2.0,0.5\n\nc,3.0,0.5\n")
        assert load_study(path).labels == ("a", "b", "c")

    def test_errors_name_the_line(self, tmp_path):
        cases = [
            ("lab,value,u\na,1.0,0.5\nb,2.0,oops\nc,3.0,0.5\n", ":3"),
            ("lab,value,u\na,1.0,0.5\nb,2.0\nc,3.0,0.5\n", ":3"),
            ("lab,value,u\na,1.0,0.5\nb,2.0,-1.0\nc,3.0,0.5\n", ":3"),
            ("lab,value,u\n,1.0,0.5\nb,2.0,1.0\nc,3.0,0.5\n", ":2"),
            ("value,u,lab\na,1.0,0.5\n", ":1"),
            ("lab,value,u\na,1.0,0.5\nb,nan,0.5\nc,3.0,0.5\n", ":3"),
            ("lab,value,u\na,1.0,0.5\nb,2.0,0.5\nc,-inf,0.5\n", ":4"),
            ("lab,value,u\na,1.0,inf\nb,2.0,0.5\nc,3.0,0.5\n", ":2"),
            ("lab,value,u\na,1.0,0.5\nb,2.0,nan\nc,3.0,0.5\n", ":3"),
            # float() reads "_" separators and non-ASCII digits; a study may not
            ("lab,value,u\na,1_0,0.5\nb,2.0,0.5\nc,3.0,0.5\n", ":2"),
            ("lab,value,u\na,1.0,0.5\nb,2.0,0.5\nc,3.0,0_5\n", ":4"),
            ("lab,value,u\na,1.0,0.5\nb,\uff11\uff12,0.5\nc,3.0,0.5\n",
             ":3"),
        ]
        for text, marker in cases:
            path = tmp_path / "bad.csv"
            path.write_text(text)
            with pytest.raises(DataError) as err:
                load_study(path)
            assert f"bad.csv{marker}" in str(err.value)

    def test_dataset_rules_still_apply(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lab,value,u\na,1.0,0.5\na,2.0,0.5\nb,3.0,0.5\n")
        with pytest.raises(DataError, match="bad.csv:3: duplicate labels: a"):
            load_study(path)
        path.write_text("lab,value,u\na,1.0,0.5\nb,2.0,0.5\n")
        with pytest.raises(DataError, match="bad.csv: need at least 3"):
            load_study(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# only comments\n")
        with pytest.raises(DataError, match="header"):
            load_study(path)

    def test_byte_order_mark_is_dropped(self, runner, study_path, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + study_path.read_bytes())
        assert load_study(marked) == load_study(study_path)
        plain, bom = (invoke(runner, ["analyze", str(path)]).output
                      for path in (study_path, marked))
        assert bom == plain


class TestAnalyze:
    def test_text_report_multiple_mode(self, runner, study_path):
        result = invoke(runner, ["analyze", str(study_path)])
        assert result.exit_code == 0
        assert "mode=multiple" in result.output
        assert "2.1552" in result.output and "2.5135" in result.output
        lab09 = next(l for l in result.output.splitlines()
                     if l.startswith("Lab09"))
        assert lab09.split()[-4:] == ["*", "*", "*", "*"]
        lab13 = next(l for l in result.output.splitlines()
                     if l.startswith("Lab13"))
        assert lab13.split()[-4:] == ["-", "-", "-", "-"]

    def test_structured_flags_match_numbers(self, runner, study_path):
        result = invoke(runner, ["analyze", str(study_path), "--format",
                                 "structured"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["kind"] == "msd-analysis"
        assert doc["n"] == 13 and doc["parity"] == "odd"
        assert doc["tables"] == "exact"
        crit95 = doc["critical_values"]["0.95"]
        crit99 = doc["critical_values"]["0.99"]
        assert crit95 < crit99
        for row in doc["results"]:
            assert row["above_95"] == (row["q_e"] > crit95)
            assert row["above_99"] == (row["q_e"] > crit99)
            assert row["above_2_0"] == (row["q_e"] > 2.0)
            assert row["above_2_5"] == (row["q_e"] > 2.5)
            assert row["bootstrap"] is None

    def test_flagged_sets(self, runner, study_path):
        result = invoke(runner, ["analyze", str(study_path), "--format",
                                 "structured"])
        doc = json.loads(result.output)
        above99 = {r["lab"] for r in doc["results"] if r["above_99"]}
        above95 = {r["lab"] for r in doc["results"] if r["above_95"]}
        # the four clear anomalies exceed the 99 % screen; lab 5 is a
        # marginal case that lands just above it (q_e 2.537 vs 2.514)
        assert {"Lab04", "Lab08", "Lab09", "Lab12"} <= above99
        assert "Lab05" in above95

    def test_bootstrap_block(self, runner, study_path):
        result = invoke(runner, ["analyze", str(study_path), "--bootstrap",
                                 "5000", "--seed", "21", "--format",
                                 "structured"])
        doc = json.loads(result.output)
        assert doc["bootstrap_replicates"] == 5000 and doc["seed"] == 21
        by_lab = {r["lab"]: r for r in doc["results"]}
        block = by_lab["Lab09"]["bootstrap"]
        assert block["p_raw"]["upper_bound"] is True
        assert block["p_raw"]["text"] == "< 0.0002"
        assert block["p_holm"]["value"] == pytest.approx(13 / 5000)
        assert by_lab["Lab05"]["bootstrap"]["p_raw"]["value"] == \
            pytest.approx(0.004)

    def test_identical_values_never_flag(self, runner, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("lab,value,u\na,1.0,0.5\nb,1.0,0.25\nc,1.0,0.125\n")
        result = invoke(runner, ["analyze", str(path), "--format",
                                 "structured"])
        doc = json.loads(result.output)
        for row in doc["results"]:
            assert row["q_e"] == 0.0
            assert not any([row["above_95"], row["above_99"],
                            row["above_2_0"], row["above_2_5"]])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_structured_output_is_strict_json(self, runner, tmp_path):
        # u spanning 620 decades is beyond any one rescaling: the
        # tiny-u pairs still divide by zero, so their scores come out inf
        # and their bootstrap quantiles nan, and JSON has no literal for
        # either
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        path = tmp_path / "span.csv"
        path.write_text("lab,value,u\nL0,1.0,1e-320\nL1,2.0,1e-320\n"
                        "L2,3.0,1e-320\nL3,10.0,1e300\n")
        result = invoke(runner, ["analyze", str(path), "--bootstrap", "200",
                                 "--format", "structured"])
        doc = json.loads(result.output, parse_constant=reject)
        assert [row["q_e"] for row in doc["results"]] == ["inf"] * 3 + [0.0]
        assert doc["results"][0]["bootstrap"]["quantiles"] == {
            "0.95": "nan", "0.99": "nan"}

    def test_partial_tables_exit_3(self, runner, tmp_path):
        tdir = tmp_path / "tables"
        tdir.mkdir()
        save_table(build_table("even", max_n=4), tdir / _table_file("even"))
        path = tmp_path / "eight.csv"
        path.write_text("lab,value,u\n" + "".join(
            f"L{i},{0.1 * i},1.0\n" for i in range(8)))
        result = runner.invoke(entrypoint, ["analyze", str(path), "--tables",
                                            str(tdir)])
        assert result.exit_code == 3
        assert "n=8" in result.output
        assert "Traceback" not in result.output

    def test_size_below_table_exits_3(self, runner, tmp_path):
        full = default_table("even")
        start = full.sizes.index(10)
        tdir = tmp_path / "tables"
        tdir.mkdir()
        save_table(QuantileTable("even", full.sizes[start:], full.knots_t,
                                 full.probs[start:]),
                   tdir / "msd_table_even.csv")
        path = tmp_path / "six.csv"
        path.write_text("lab,value,u\n" + "".join(
            f"L{i},{0.1 * i},1.0\n" for i in range(6)))
        result = runner.invoke(entrypoint, ["analyze", str(path), "--tables",
                                            str(tdir)])
        assert result.exit_code == 3
        assert result.stderr == ("error: n=6 is below the smallest tabulated "
                                 "size 10 of the even table\n")

    def test_asymptotic_row_only_table_exits_3(self, runner, tmp_path):
        full = default_table("even")
        tdir = tmp_path / "tables"
        tdir.mkdir()
        save_table(QuantileTable("even", (math.inf,), full.knots_t,
                                 full.probs[-1:]),
                   tdir / "msd_table_even.csv")
        path = tmp_path / "ten.csv"
        path.write_text("lab,value,u\n" + "".join(
            f"L{i},{0.1 * i},1.0\n" for i in range(10)))
        result = runner.invoke(entrypoint, ["analyze", str(path), "--tables",
                                            str(tdir)])
        assert result.exit_code == 3
        assert result.stderr == ("error: too few rows in the even table (0) "
                                 "to synthesize n=10\n")

    def test_table_routing_via_flag_and_env(self, runner, study_path,
                                            tmp_path):
        tdir = tmp_path / "tables"
        tdir.mkdir()
        save_table(build_table("odd", max_n=16), tdir / _table_file("odd"))
        flagged = invoke(runner, ["analyze", str(study_path), "--tables",
                                  str(tdir), "--format", "structured"])
        doc = json.loads(flagged.output)
        assert doc["tables"] == str(tdir)
        assert doc["critical_values"]["0.99"] == pytest.approx(2.5135,
                                                               abs=0.01)
        # the environment picks no route: only --tables does
        env = {"MSD_TABLES_DIR": str(tdir)}
        plain = invoke(runner, ["analyze", str(study_path), "--format",
                                "structured"], env=env)
        assert json.loads(plain.output)["tables"] == "exact"
        # n = 99 reads 2.47512 from the max_n=16 table
        bundled = _critical_value(99, 0.95, "multiple", default_table("odd"))
        lookup = invoke(runner, ["quantile", "--n", "99", "--p", "0.95",
                                 "--method", "table"], env=env)
        assert lookup.output == f"{bundled:.6g}\n" == "2.47502\n"

    def test_missing_input_exits_3(self, runner, tmp_path):
        result = runner.invoke(entrypoint,
                               ["analyze", str(tmp_path / "nope.csv")])
        assert result.exit_code == 3

    def test_malformed_row_exits_3_naming_row(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lab,value,u\na,1.0,0.5\nb,2.0,0\nc,3.0,0.5\n")
        result = runner.invoke(entrypoint, ["analyze", str(path)])
        assert result.exit_code == 3
        assert "bad.csv:3" in result.output

    def test_non_utf8_study_exits_3(self, runner, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"lab,value,u\nZ\xfcrich,1.0,0.5\nb,2.0,0.5\n"
                         b"c,3.0,0.5\n")
        result = runner.invoke(entrypoint, ["analyze", str(path)])
        assert result.exit_code == 3
        assert f"error: cannot read study file {path}" in result.output
        assert "Traceback" not in result.output

    def test_malformed_table_exits_3_naming_line(self, runner, study_path,
                                                 tmp_path):
        tdir = tmp_path / "tables"
        tdir.mkdir()
        path = tdir / _table_file("odd")
        save_table(build_table("odd", max_n=5), path)
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("5,"))
        lines[row] = "five" + lines[row][1:]
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(entrypoint, ["analyze", str(study_path),
                                            "--tables", str(tdir)])
        assert result.exit_code == 3
        assert f"msd_table_odd.csv:{row + 1}: size 'five'" in result.output
        assert "Traceback" not in result.output


class TestQuantileCmd:
    def test_single_observation_exact_and_table(self, runner):
        for method in ("exact", "table"):
            result = invoke(runner, ["quantile", "--n", "10", "--p", "0.95",
                                     "--mode", "single", "--method", method])
            assert result.exit_code == 0
            assert abs(float(result.output) - 1.497) < 0.002

    def test_multiple_observation_exact_and_table(self, runner):
        for method in ("exact", "table"):
            result = invoke(runner, ["quantile", "--n", "13", "--p", "0.99",
                                     "--method", method])
            assert abs(float(result.output) - 2.513) < 0.015

    def test_usage_errors_exit_2(self, runner):
        for args in (["quantile", "--n", "2", "--p", "0.5"],
                     ["quantile", "--n", "10", "--p", "0"],
                     ["quantile", "--n", "10", "--p", "1.0"],
                     ["quantile", "--n", "10", "--p", "0.5", "--method",
                      "magic"]):
            result = runner.invoke(entrypoint, args)
            assert result.exit_code == 2

    def test_beyond_table_range_exits_3(self, runner):
        result = runner.invoke(entrypoint, ["quantile", "--n", "3", "--p",
                                            "0.9999999", "--method", "table"])
        assert result.exit_code == 3


class TestTablesGenerate:
    # the full build, byte-compared with the bundled files in test_tables.py
    def test_writes_both_tables(self, generated_tables):
        out = generated_tables.out
        assert generated_tables.result.output == "".join(
            f"wrote {out / _table_file(parity)}\n" for parity in ("even", "odd"))
        assert sorted(p.name for p in out.iterdir()) == [
            "msd_table_even.csv", "msd_table_odd.csv"]

    def test_generated_tables_serve_lookups(self, runner, generated_tables,
                                            study_path):
        check = invoke(runner, ["analyze", str(study_path), "--tables",
                                str(generated_tables.out), "--format",
                                "structured"])
        doc = json.loads(check.output)
        assert doc["tables"] == str(generated_tables.out)
        assert doc["critical_values"]["0.99"] == pytest.approx(2.5135,
                                                               abs=0.01)

    @pytest.mark.parametrize("command, option", [
        (["tables", "generate", "--out", "{out}"], ["--parity", "even"]),
        (["tables", "generate", "--out", "{out}"], ["--max-n", "8"]),
        (["simulate", "table3", "--n", "7"], ["--out", "{out}"]),
        (["simulate", "power"], ["--out", "{out}"]),
        (["simulate", "resistance"], ["--out", "{out}"]),
        (["simulate", "hetero"], ["--out", "{out}"]),
        (["analyze", "{study}"], ["--adjust", "holm"]),
    ], ids=["--parity", "--max-n", "simulate table3 --out",
            "simulate power --out", "simulate resistance --out",
            "simulate hetero --out", "analyze --adjust"])
    def test_removed_options_are_usage_errors(self, runner, tmp_path,
                                              study_path, command, option):
        out = tmp_path / "t"
        result = runner.invoke(entrypoint, [a.format(out=out, study=study_path)
                                            for a in command + option])
        assert result.exit_code == 2
        assert f"No such option '{option[0]}'" in result.stderr
        assert not out.exists()

    def test_unwritable_target_exits_3(self, runner, tmp_path, monkeypatch):
        def build(parity):
            raise RuntimeError("the build started")

        monkeypatch.setattr("msdstat.cli.build_table", build)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        result = runner.invoke(entrypoint, ["tables", "generate", "--out",
                                            str(blocker / "sub")])
        assert result.exit_code == 3


    @pytest.mark.skipif(sys.platform != "linux",
                        reason="the build forks only on Linux")
    def test_a_dying_build_worker_exits_3_and_writes_nothing(
            self, runner, tmp_path, monkeypatch):
        # the even table is built; a worker of the odd build dies
        caller = os.getpid()

        def cdf_dying_in_a_worker(q, n):
            if n % 2 == 1 and os.getpid() != caller:
                os._exit(1)
            return distribution.cdf(q, n)

        monkeypatch.setattr(tables, "cdf", cdf_dying_in_a_worker)
        monkeypatch.setattr(tables, "_cpus", lambda: 2)
        monkeypatch.setattr(tables, "_alone", lambda: True)
        out = tmp_path / "tables"
        result = runner.invoke(entrypoint, ["tables", "generate", "--out",
                                            str(out)])
        assert result.exit_code == 3
        assert result.stderr.startswith("error: a table build worker died: ")
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

class TestSimulateCmds:
    def test_table3_value_and_reproducibility(self, runner):
        args = ["simulate", "table3", "--n", "10", "--p", "0.95",
                "--replicates", "100000", "--seed", "2"]
        first = invoke(runner, args)
        assert first.exit_code == 0
        text = first.stdout
        estimate = float(text.splitlines()[-1].split(",")[2])
        assert abs(estimate - 2.135) < 0.02
        assert invoke(runner, args).stdout == text
        other = invoke(runner, ["simulate", "table3", "--n", "10", "--p",
                                "0.95", "--replicates", "100000", "--seed",
                                "7"])
        assert other.exit_code == 0
        assert other.stdout != text

    def test_power_null_point_matches_level(self, runner):
        result = invoke(runner, ["simulate", "power", "--n", "10", "--grid",
                                 "0:0:1", "--replicates", "20000"])
        assert result.exit_code == 0
        rate = float(result.output.splitlines()[-1].split(",")[1])
        assert abs(rate - 0.05) < 0.01

    def test_resistance_stays_below_008(self, runner):
        result = invoke(runner, ["simulate", "resistance", "--stat", "msd",
                                 "--grid", "-6:6:6", "--replicates", "10000"])
        assert result.exit_code == 0
        rates = [float(line.split(",")[1])
                 for line in result.output.splitlines()[2:]]
        assert max(rates) <= 0.08

    def test_pwch_self_calibrates(self, runner):
        result = invoke(runner, ["simulate", "power", "--stat", "pwch",
                                 "--grid", "0:0:1", "--replicates", "2000"])
        assert result.exit_code == 0
        assert "critical=2.61" in result.output
        rate = float(result.output.splitlines()[-1].split(",")[1])
        assert 0.02 < rate < 0.08

    def test_hetero_output(self, runner):
        result = invoke(runner, ["simulate", "hetero", "--sizes", "5,15",
                                 "--replicates", "2000", "--seed", "9"])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[1] == "n,value_rate,value_se,dataset_rate,dataset_se"
        for line in lines[2:]:
            rate = float(line.split(",")[1])
            assert 0.0 < rate < 0.1

    def test_bad_grid_is_usage_error(self, runner):
        for command in ("power", "resistance"):
            for grid in ("5:1:1", "0:5:-1", "nope", "1:2", "0:inf:1",
                         "0:nan:1", "nan:1:1", "0:1:inf", "-inf:0:1",
                         "0:1e9:1e-9"):
                result = runner.invoke(entrypoint, ["simulate", command,
                                                    "--grid", grid])
                assert result.exit_code == 2, (command, grid)
                assert "expected LO:HI:STEP" in result.output

    def test_replicate_floor_maps_to_exit_3(self, runner):
        result = runner.invoke(entrypoint, ["simulate", "table3", "--n",
                                            "10", "--replicates", "500"])
        assert result.exit_code == 3

    def test_bad_sizes_is_usage_error(self, runner):
        result = runner.invoke(entrypoint, ["simulate", "hetero", "--sizes",
                                            "5,x"])
        assert result.exit_code == 2
        assert "expected a comma-separated list of sizes" in result.output

    def test_hetero_size_range_maps_to_exit_3(self, runner):
        result = runner.invoke(entrypoint, ["simulate", "hetero", "--sizes",
                                            "4,15"])
        assert result.exit_code == 3


    def test_bad_seed_and_replicates_exit_3(self, runner, study_path):
        # every seeded command, the flags that ask for too few replicates,
        # and the message they get
        study = str(study_path)
        floor = "replicates must be an integer >= 100, got 99"
        positive = "replicates must be a positive integer, got 0"
        commands = [
            (["analyze", study, "--bootstrap", "500"], ["--bootstrap", "99"],
             floor),
            (["bootstrap", study], ["-B", "99"], floor),
            (["simulate", "table3", "--n", "5", "--replicates", "1000"],
             ["--replicates", "999"],
             "replicates must be an integer >= 1000, got 999"),
            (["simulate", "power"], ["--replicates", "0"], positive),
            (["simulate", "resistance"], ["--replicates", "0"], positive),
            (["simulate", "hetero"], ["--replicates", "0"], positive),
        ]
        for args, few, message in commands:
            cases = [(["--seed", s], f"seed must be a 64-bit integer, got {s}")
                     for s in ("-1", str(2 ** 64))]
            for extra, want in cases + [(few, message)]:
                result = runner.invoke(entrypoint, args + extra)
                assert (result.exit_code, result.output) == (
                    3, f"error: {want}\n"), args + extra


class TestChecksBeforeWork:
    # the pwch calibration, the exact quantile and the table build raise if
    # they start, so a command that computes before checking its arguments
    # exits 1, not 3
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def work(*args, **kwargs):
            raise RuntimeError("work started before the checks")

        monkeypatch.setattr("msdstat.simulation._null_pool", work)
        monkeypatch.setattr("msdstat.tables.quantile", work)
        monkeypatch.setattr("msdstat.cli.build_table", work)

    @pytest.mark.parametrize("args, message", [
        (["simulate", "power", "--stat", "pwch", "--replicates", "0"],
         "replicates must be a positive integer, got 0"),
        (["simulate", "resistance", "--replicates", "0"],
         "replicates must be a positive integer, got 0"),
        (["analyze", "{study}", "--bootstrap", "50"],
         "replicates must be an integer >= 100, got 50"),
    ], ids=["simulate power --stat pwch", "simulate resistance",
            "analyze --bootstrap 50"])
    def test_bad_argument_exits_3_before_any_work(self, runner, study_path,
                                                  args, message):
        args = [a.format(study=study_path) for a in args]
        result = runner.invoke(entrypoint, args)
        assert (result.exit_code, result.output) == (3, f"error: {message}\n")


class TestBootstrapCmd:
    def test_text_table(self, runner, study_path):
        result = invoke(runner, ["bootstrap", str(study_path), "-B", "5000",
                                 "--seed", "21"])
        assert result.exit_code == 0
        assert "p_holm" in result.output and "p_bh" in result.output
        lab09 = next(l for l in result.output.splitlines()
                     if l.startswith("Lab09"))
        assert "< 0.0002" in lab09 and "< 0.0026" in lab09

    def test_structured(self, runner, study_path):
        result = invoke(runner, ["bootstrap", str(study_path), "-B", "500",
                                 "--seed", "1", "--format", "structured"])
        doc = json.loads(result.output)
        assert doc["kind"] == "msd-bootstrap"
        assert doc["quantile_method"] == "linear"
        assert doc["levels"] == [0.95, 0.99]
        assert len(doc["results"]) == 13
        for row in doc["results"]:
            assert 0.0 < row["p_raw"]["value"] <= 1.0

    def test_too_few_replicates_exits_3(self, runner, study_path):
        result = runner.invoke(entrypoint, ["bootstrap", str(study_path),
                                            "-B", "50"])
        assert result.exit_code == 3


class TestVersion:
    def test_version_from_source_tree(self, runner):
        result = invoke(runner, ["--version"])
        assert result.output == f"msd, version {msdstat.__version__}\n"


class TestPublicNames:
    def test_package_namespace_is_the_api(self):
        # ``msdstat/__init__.py``'s imports are the one list of the API
        names = {n for n, v in vars(msdstat).items()
                 if not n.startswith("_") and not isinstance(v, ModuleType)}
        assert names == {
            "BootstrapConfig", "BootstrapReport", "BootstrapRow",
            "ConvergenceError", "DataError", "Dataset", "DomainError",
            "HeteroStudy", "MsdError", "MsdResult", "Observation", "PValue",
            "PowerCurve", "QuantileEstimate", "QuantileTable",
            "TableRangeError", "bh_adjust", "bootstrap_msd", "build_table",
            "calibrate_pwch_quantile", "cdf", "cdf_asymptotic", "cdf_even",
            "cdf_odd", "conductivity_study", "default_table", "holm_adjust",
            "interp_probability", "interp_quantile", "load_study",
            "load_table", "msd", "multi_quantile_adjusted", "quantile",
            "save_table", "simulate_hetero_guideline",
            "simulate_multi_quantiles", "simulate_power",
            "simulate_resistance"}


class TestExitCodeMapping:
    @pytest.mark.parametrize("args", [
        ["quantile", "--n", "13", "--p", "0.95"],
        ["analyze"],
        ["simulate", "power", "--replicates", "100"],
        ["simulate", "resistance", "--replicates", "100"],
    ], ids=lambda args: " ".join(args))
    def test_numeric_failure_in_a_command_exits_4(self, runner, study_path,
                                                   monkeypatch, args):
        def fail(p, n):
            raise ConvergenceError("root search did not converge")

        monkeypatch.setattr("msdstat.tables.quantile", fail)
        if args == ["analyze"]:
            args = args + [str(study_path)]
        result = runner.invoke(entrypoint, args)
        assert result.exit_code == 4
        assert result.stdout == ""
        assert result.stderr == "error: root search did not converge\n"

    def test_unknown_subcommand_exits_2(self, runner):
        result = runner.invoke(entrypoint, ["frobnicate"])
        assert result.exit_code == 2


# Runs msd commands one after another in a fresh interpreter and prints,
# for the import and after each command, the scipy modules loaded,
# whether concurrent.futures is loaded, whether a second thread runs, and
# the command's own stdout.
_COLD_CHILD = """
import io, json, sys, threading
from contextlib import redirect_stdout
def state(printed=""):
    return {"scipy": sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy"),
            "futures": "concurrent.futures" in sys.modules,
            "multiprocessing": "multiprocessing" in sys.modules,
            "threads": threading.active_count() > 1,
            "stdout": printed}
from msdstat.cli import entrypoint
loaded = {"import msdstat.cli": state()}
for args in json.loads(sys.argv[1]):
    printed = io.StringIO()
    try:
        with redirect_stdout(printed):
            entrypoint(args, prog_name="msd")
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
    loaded[" ".join(args)] = state(printed.getvalue())
print(json.dumps(loaded))
"""


class TestColdStart:
    def test_scipy_is_loaded_only_by_exact_cdfs(self, study_path):
        # scipy comes with the exact cdfs alone, and concurrent.futures
        # with scipy; the kernel's threads live only inside a batch call,
        # so no command leaves one running; multiprocessing comes only with
        # a table build large enough to fork, which no command here makes
        package = Path(msdstat.__file__).resolve().parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package.parent), env.get("PYTHONPATH")]))
        single = [
            ["analyze", str(study_path), "--tables", str(package / "data")],
            ["quantile", "--n", "13", "--p", "0.95", "--method", "table"],
        ]
        replicates = ["bootstrap", str(study_path)]
        exact = ["quantile", "--n", "13", "--p", "0.95"]
        # the rest of the benchmark's cold commands, after scipy is loaded
        later = [["quantile", "--n", "12", "--p", "0.95"],
                 ["analyze", str(study_path), "--bootstrap", "500"]]
        out = subprocess.run(
            [sys.executable, "-c", _COLD_CHILD,
             json.dumps(single + [replicates, exact] + later)],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        loaded = json.loads(out.stdout)
        assert not any(s["threads"] or s["multiprocessing"]
                       for s in loaded.values())
        for args in later:
            loaded.pop(" ".join(args))
        exact_loaded = loaded.pop(" ".join(exact))
        assert "scipy.special" in exact_loaded["scipy"]
        assert "scipy.optimize" not in exact_loaded["scipy"]
        assert exact_loaded["stdout"] == "2.15521\n"
        assert loaded.pop(" ".join(replicates))["scipy"] == []
        assert len(loaded) == 1 + len(single)
        assert all(s["scipy"] == [] and not s["futures"]
                   for s in loaded.values())
        assert loaded[" ".join(single[1])]["stdout"] == "2.15528\n"
