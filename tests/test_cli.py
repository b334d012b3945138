"""Command-line surface: parsing, exit codes, routing, and reproducibility."""
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest
from click.testing import CliRunner

import msdstat
from msdstat import DataError
from msdstat.cli import TABLES_ENV, _check_out, entrypoint
from msdstat.datasets import conductivity_study, load_study, save_study
from msdstat.errors import ConvergenceError
from msdstat.tables import QuantileTable, default_table, save_table


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def study_path(tmp_path):
    path = tmp_path / "round.csv"
    save_study(conductivity_study(), path)
    return path


def invoke(runner, args, **kwargs):
    return runner.invoke(entrypoint, args, catch_exceptions=False, **kwargs)


class TestStudyFiles:
    def test_round_trip(self, tmp_path):
        ds = conductivity_study()
        path = tmp_path / "s.csv"
        save_study(ds, path)
        assert load_study(path) == ds

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

    def test_adjust_column_selection(self, runner, study_path):
        result = invoke(runner, ["analyze", str(study_path), "--bootstrap",
                                 "500", "--adjust", "holm"])
        assert "p_holm" in result.output
        result = invoke(runner, ["analyze", str(study_path), "--bootstrap",
                                 "500"])
        assert "p_bh" in result.output

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
        invoke(runner, ["tables", "generate", "--parity", "even", "--max-n",
                        "4", "--out", str(tdir)])
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
        assert result.stderr == ("error: the even table holds only the "
                                 "asymptotic row, so it cannot serve n=10\n")

    def test_table_routing_via_flag_and_env(self, runner, study_path,
                                            tmp_path):
        tdir = tmp_path / "tables"
        gen = invoke(runner, ["tables", "generate", "--out", str(tdir),
                              "--max-n", "16"])
        assert gen.exit_code == 0
        flagged = invoke(runner, ["analyze", str(study_path), "--tables",
                                  str(tdir), "--format", "structured"])
        doc = json.loads(flagged.output)
        assert doc["tables"] == str(tdir)
        assert doc["critical_values"]["0.99"] == pytest.approx(2.5135,
                                                               abs=0.01)
        via_env = invoke(runner, ["analyze", str(study_path), "--format",
                                  "structured"],
                         env={"MSD_TABLES_DIR": str(tdir)})
        assert json.loads(via_env.output)["tables"] == str(tdir)

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
        invoke(runner, ["tables", "generate", "--parity", "odd", "--max-n",
                        "5", "--out", str(tdir)])
        path = tdir / "msd_table_odd.csv"
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
    def test_generate_reload_and_reproduce(self, runner, tmp_path):
        out = tmp_path / "t1"
        result = invoke(runner, ["tables", "generate", "--parity", "even",
                                 "--out", str(out), "--max-n", "12"])
        assert result.exit_code == 0
        path = out / "msd_table_even.csv"
        assert path.exists()
        check = invoke(runner, ["quantile", "--n", "10", "--p", "0.95",
                                "--mode", "single", "--method", "table"],
                       env={"MSD_TABLES_DIR": str(out)})
        assert abs(float(check.output) - 1.497) < 0.002
        again = tmp_path / "t2"
        invoke(runner, ["tables", "generate", "--parity", "even", "--out",
                        str(again), "--max-n", "12"])
        assert (again / "msd_table_even.csv").read_bytes() == \
            path.read_bytes()

    def test_both_parities(self, runner, tmp_path):
        out = tmp_path / "t"
        result = invoke(runner, ["tables", "generate", "--out", str(out),
                                 "--max-n", "12"])
        assert result.exit_code == 0
        assert (out / "msd_table_even.csv").exists()
        assert (out / "msd_table_odd.csv").exists()

    def test_unwritable_target_exits_3(self, runner, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        result = runner.invoke(entrypoint, ["tables", "generate", "--out",
                                            str(blocker / "sub")])
        assert result.exit_code == 3


class TestSimulateCmds:
    def test_table3_value_and_reproducibility(self, runner, tmp_path):
        args = ["simulate", "table3", "--n", "10", "--p", "0.95",
                "--replicates", "100000", "--seed", "2"]
        first = invoke(runner, args + ["--out", str(tmp_path / "a.csv")])
        assert first.exit_code == 0
        text = (tmp_path / "a.csv").read_text()
        estimate = float(text.splitlines()[-1].split(",")[2])
        assert abs(estimate - 2.135) < 0.02
        invoke(runner, args + ["--out", str(tmp_path / "b.csv")])
        assert (tmp_path / "b.csv").read_text() == text
        other = invoke(runner, ["simulate", "table3", "--n", "10", "--p",
                                "0.95", "--replicates", "100000", "--seed",
                                "7", "--out", str(tmp_path / "c.csv")])
        assert other.exit_code == 0
        assert (tmp_path / "c.csv").read_text() != text

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

    def test_hetero_output(self, runner, tmp_path):
        out = tmp_path / "h.csv"
        result = invoke(runner, ["simulate", "hetero", "--sizes", "5,15",
                                 "--replicates", "2000", "--seed", "9",
                                 "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,value_rate,value_se,dataset_rate,dataset_se"
        for line in lines[2:]:
            rate = float(line.split(",")[1])
            assert 0.0 < rate < 0.1

    def test_bad_grid_is_usage_error(self, runner):
        for command in ("power", "resistance"):
            for grid in ("5:1:1", "0:5:-1", "nope", "1:2", "0:inf:1",
                         "0:nan:1", "nan:1:1", "0:1:inf", "-inf:0:1"):
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
             ["--replicates", "999"], "replicates=999 is too few for quantile "
             "estimation; need at least 1000"),
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
        monkeypatch.delenv(TABLES_ENV, raising=False)

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

    def test_tables_generate_checks_before_creating_out(self, runner,
                                                        tmp_path):
        out = tmp_path / "capped"
        result = runner.invoke(entrypoint, ["tables", "generate", "--parity",
                                            "even", "--max-n", "3", "--out",
                                            str(out)])
        assert (result.exit_code, result.output) == (
            3, "error: max_n=3 leaves no table rows\n")
        assert not out.exists()
        # an unwritable --out still fails before the build
        blocker = tmp_path / "file"
        blocker.write_text("x")
        result = runner.invoke(entrypoint, ["tables", "generate", "--out",
                                            str(blocker / "sub")])
        assert result.exit_code == 3


class TestSimulateOutBeforeWork:
    # every simulate study draws through simulation._blocks, so a study
    # that starts raises and the command exits 1
    STUDIES = [["simulate", "table3", "--n", "7"], ["simulate", "power"],
               ["simulate", "resistance"], ["simulate", "hetero"]]

    @pytest.fixture(autouse=True)
    def no_study(self, monkeypatch):
        def work(*args, **kwargs):
            raise RuntimeError("the study started")

        monkeypatch.setattr("msdstat.simulation._blocks", work)

    @pytest.mark.parametrize("where", ["missing/out.csv", "file/out.csv"],
                             ids=["missing directory", "file as directory"])
    @pytest.mark.parametrize("study", STUDIES, ids=" ".join)
    def test_unwritable_out_exits_3_with_the_write_error(self, runner,
                                                         tmp_path, study,
                                                         where):
        (tmp_path / "file").write_text("x")
        out = tmp_path / where
        with pytest.raises(OSError) as write:
            out.write_text("")
        result = runner.invoke(entrypoint, study + ["--out", str(out)])
        assert (result.exit_code, result.output) == (3,
                                                     f"error: {write.value}\n")
        assert not out.exists()

    @pytest.mark.parametrize("study", STUDIES, ids=" ".join)
    def test_out_untouched_until_the_study_succeeds(self, runner, tmp_path,
                                                    study):
        kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
        kept.write_text("kept\n")
        for out in (kept, new):
            result = runner.invoke(entrypoint, study + ["--out", str(out)])
            assert isinstance(result.exception, RuntimeError)
        assert kept.read_text() == "kept\n" and not new.exists()

    @pytest.mark.parametrize("target", ["locked/new.csv", "locked.csv"],
                             ids=["read-only directory", "read-only file"])
    def test_permission_check_matches_the_write(self, tmp_path, target):
        # the same verdict as the write itself, as any user (root writes both)
        locked_dir, locked_file = tmp_path / "locked", tmp_path / "locked.csv"
        locked_dir.mkdir()
        locked_file.write_text("kept\n")
        locked_dir.chmod(0o555)
        locked_file.chmod(0o444)
        out = tmp_path / target
        try:
            try:
                _check_out(out)
                checked = None
            except PermissionError as exc:
                checked = str(exc)
            assert locked_file.read_text() == "kept\n"
            assert not (locked_dir / "new.csv").exists()
            try:
                out.write_text("")
                written = None
            except PermissionError as exc:
                written = str(exc)
        finally:
            locked_dir.chmod(0o755)
            locked_file.chmod(0o644)
        assert checked == written

    @pytest.mark.parametrize("target", ["kept.csv", "new.csv"],
                             ids=["existing file", "new file"])
    def test_denied_write_exits_3_before_the_study(self, runner, tmp_path,
                                                   monkeypatch, target):
        # root may write anywhere, so the denial of writes is patched in
        monkeypatch.setattr("msdstat.cli.os.access",
                            lambda path, mode: not mode & os.W_OK)
        (tmp_path / "kept.csv").write_text("kept\n")
        out = tmp_path / target
        with pytest.raises(PermissionError) as err:
            _check_out(out)
        assert (err.value.errno, err.value.filename) == (errno.EACCES,
                                                         str(out))
        result = runner.invoke(entrypoint, ["simulate", "table3", "--n", "7",
                                            "--out", str(out)])
        assert (result.exit_code, result.output) == (3, f"error: {err.value}\n")
        assert (tmp_path / "kept.csv").read_text() == "kept\n"
        assert not (tmp_path / "new.csv").exists()


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
            "ASYMPTOTIC_LOWER_BOUND", "BootstrapConfig", "BootstrapReport",
            "BootstrapRow", "ConvergenceError", "DataError", "Dataset",
            "DomainError", "HeteroStudy", "MsdError", "MsdResult",
            "Observation", "PValue", "PowerCurve", "QuantileEstimate",
            "QuantileTable", "TableRangeError", "bh_adjust", "bootstrap_msd",
            "build_table", "calibrate_pwch_quantile", "cdf",
            "cdf_asymptotic", "cdf_even", "cdf_odd", "conditional_cdf",
            "conductivity_study", "default_table", "holm_adjust",
            "interp_probability", "interp_quantile", "load_study",
            "load_table", "msd", "multi_quantile_adjusted", "pairwise_chisq",
            "quantile", "save_study", "save_table",
            "simulate_hetero_guideline", "simulate_multi_quantiles",
            "simulate_power", "simulate_resistance"}


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
        monkeypatch.delenv(TABLES_ENV, raising=False)
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
# as its last line, the scipy modules loaded after the import and after
# each command.
_COLD_CHILD = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from msdstat.cli import entrypoint
loaded = {"import msdstat.cli": scipy_modules()}
for args in json.loads(sys.argv[1]):
    try:
        entrypoint(args, prog_name="msd")
    except SystemExit as exc:
        assert not exc.code, (args, exc.code)
    loaded[" ".join(args)] = scipy_modules()
print(json.dumps(loaded))
"""


class TestColdStart:
    def test_scipy_is_loaded_only_by_exact_cdfs(self, study_path):
        package = Path(msdstat.__file__).resolve().parent
        env = {k: v for k, v in os.environ.items() if k != TABLES_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(package.parent), env.get("PYTHONPATH")]))
        no_scipy = [
            ["bootstrap", str(study_path)],
            ["analyze", str(study_path), "--tables", str(package / "data")],
            ["quantile", "--n", "13", "--p", "0.95", "--method", "table"],
        ]
        exact = ["quantile", "--n", "13", "--p", "0.95"]
        out = subprocess.run(
            [sys.executable, "-c", _COLD_CHILD, json.dumps(no_scipy + [exact])],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        *printed, last = out.stdout.splitlines()
        loaded = json.loads(last)
        exact_loaded = loaded.pop(" ".join(exact))
        assert "scipy.special" in exact_loaded
        assert "scipy.optimize" not in exact_loaded
        assert loaded == {k: [] for k in loaded}
        assert len(loaded) == 1 + len(no_scipy)
        assert printed[-2:] == ["2.15528", "2.15521"]
