"""CLI golden: a fixed list of ``msd`` commands against a checked-in transcript.

Each command runs in-process; its stdout, stderr and exit code must match
``cli_golden.json`` byte for byte once temporary paths are normalised. The
one exception is the full-precision quadrature numbers (the structured
``critical_values`` and the ``critical=`` headers of ``simulate power`` and
``simulate resistance``), which must agree within 1e-12 relative: like the
bundled table bytes, their last bits follow the numpy/scipy build.

The test never writes the golden. A change that alters output on purpose
regenerates it with ``PYTHONPATH=src python tests/test_cli_golden.py`` and
lists the changed records in CHANGES.md. Regeneration keeps the stored
spelling of every full-precision number that still agrees under the rule
above, in records whose text moved too, so only output that moved is
rewritten, whatever the build's last bits.
"""
import json
import re
import sys
import tempfile
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import msdstat
from msdstat.cli import entrypoint
from msdstat.datasets import conductivity_study

from conftest import write_study

GOLDEN = Path(__file__).with_name("cli_golden.json")

_HELP = [[], ["analyze"], ["bootstrap"], ["quantile"], ["tables"],
         ["tables", "generate"], ["simulate"], ["simulate", "table3"],
         ["simulate", "power"], ["simulate", "resistance"],
         ["simulate", "hetero"]]

# {odd}: the 13-lab conductivity study; {even}: six labs, one far out;
# {data}: the bundled table directory; {tmp}: a scratch directory
COMMANDS = [cmd + ["--help"] for cmd in _HELP] + [
    ["--version"],
    ["analyze", "{odd}"],
    ["analyze", "{odd}", "--format", "structured"],
    ["analyze", "{odd}", "--mode", "single"],
    ["analyze", "{even}", "--format", "structured", "--mode", "single"],
    ["analyze", "{even}"],
    ["analyze", "{odd}", "--tables", "{data}"],
    ["analyze", "{odd}", "--tables", "{data}", "--mode", "single",
     "--format", "structured"],
    ["analyze", "{even}", "--tables", "{data}", "--format", "structured"],
    ["analyze", "{even}", "--tables", "{data}", "--mode", "single"],
    ["analyze", "{odd}", "--bootstrap", "200", "--seed", "3"],
    ["analyze", "{even}", "--bootstrap", "200", "--format", "structured"],
    ["bootstrap", "{odd}", "-B", "300", "--seed", "5"],
    ["bootstrap", "{even}", "-B", "200", "--format", "structured"],
    ["quantile", "--n", "13", "--p", "0.95"],
    ["quantile", "--n", "10", "--p", "0.99", "--mode", "single"],
    ["quantile", "--n", "13", "--p", "0.99", "--method", "table"],
    ["quantile", "--n", "150", "--p", "0.95", "--mode", "single",
     "--method", "table"],
    ["simulate", "table3", "--n", "7", "--replicates", "1000", "--seed", "2"],
    ["simulate", "power", "--grid", "0:2:1", "--replicates", "500"],
    ["simulate", "resistance", "--grid", "-2:2:2", "--stat", "pwch",
     "--critical", "3.5", "--replicates", "400", "--seed", "1"],
    ["simulate", "power", "--stat", "pwch", "--n", "5", "--grid", "0:2:1",
     "--replicates", "200"],
    ["simulate", "resistance", "--n", "5", "--grid", "-2:2:2",
     "--replicates", "200"],
    ["simulate", "hetero", "--sizes", "5,9", "--replicates", "300"],
    # exit 2: usage errors
    ["frobnicate"],
    ["quantile", "--n", "2", "--p", "0.95"],
    ["quantile", "--n", "10", "--p", "1.5"],
    ["analyze", "{odd}", "--mode", "pairwise"],
    ["analyze", "{odd}", "--adjust", "holm"],
    ["simulate", "power", "--grid", "1:0:1"],
    ["simulate", "hetero", "--sizes", "5,x"],
    ["tables", "generate", "--out", "{odd}"],
    ["tables", "generate", "--max-n", "8", "--out", "{tmp}/tables"],
    ["simulate", "table3", "--n", "7", "--replicates", "1000",
     "--out", "{tmp}/table3.csv"],
    # numbers on the command line follow the study-file rule: no "_" and
    # no non-ASCII digits, though int() and float() read both
    ["quantile", "--n", "1_3", "--p", "0.9_5"],
    ["simulate", "hetero", "--sizes", "\uff11\uff10"],
    ["simulate", "power", "--grid", "0:1_0:5"],
    # exit 3: input and validation errors
    ["analyze", "{tmp}/missing.csv"],
    ["analyze", "{odd}", "--bootstrap", "50"],
    ["bootstrap", "{odd}", "--seed", "-1"],
    ["quantile", "--n", "3", "--p", "0.9999999", "--method", "table"],
    ["simulate", "table3", "--n", "5", "--replicates", "10"],
    ["simulate", "hetero", "--sizes", "4", "--replicates", "10"],
    ["simulate", "power", "--critical", "-1", "--replicates", "100"],
    ["simulate", "power", "--stat", "pwch", "--replicates", "0"],
    ["tables", "generate", "--out", "{odd}/tables"],
]

# full-precision quadrature numbers: the structured critical values and
# the simulate headers' critical=
_LOOSE_SPAN = re.compile(r'"critical_values": \{[^}]*\}|critical=\S+')
_LOOSE_NUMBER = re.compile(r'(?<=": )-?\d[^,\s}]*|(?<==)\S+')


def _transcript(tmp: Path) -> list[dict]:
    """Run every command in ``tmp``; paths in the output come back as the
    placeholders they were given as."""
    write_study(conductivity_study(), tmp / "odd.csv")
    (tmp / "even.csv").write_text(
        "lab,value,u\nA,10.1,0.2\nB,10.0,0.1\nC,9.8,0.3\nD,10.3,0.2\n"
        "E,9.9,0.15\nF,12.0,0.2\n")
    paths = {"odd": str(tmp / "odd.csv"), "even": str(tmp / "even.csv"),
             "data": str(Path(msdstat.__file__).parent / "data"),
             "tmp": str(tmp)}
    runner = CliRunner()
    records = []
    for args in COMMANDS:
        result = runner.invoke(entrypoint, [a.format(**paths) for a in args],
                               prog_name="msd", terminal_width=80)
        if result.exit_code not in (0, 2, 3):
            raise AssertionError(f"{args}: exit {result.exit_code}\n"
                                 f"{result.output}") from result.exception
        out, err = result.stdout, result.stderr
        for name, path in paths.items():  # {tmp} last: it prefixes the studies
            out = out.replace(path, f"{{{name}}}")
            err = err.replace(path, f"{{{name}}}")
        records.append({"args": args, "exit": result.exit_code,
                        "stdout": out, "stderr": err})
    return records


def _split(text: str) -> tuple[str, list[str]]:
    """``text`` with its full-precision numbers masked, and those numbers as
    written."""
    numbers = []

    def mask(span):
        def take(m):
            numbers.append(m.group())
            return "#"
        return _LOOSE_NUMBER.sub(take, span.group())

    return _LOOSE_SPAN.sub(mask, text), numbers


def _close(got: list[str], want: list[str]) -> bool:
    return [float(x) for x in got] == pytest.approx(
        [float(x) for x in want], rel=1e-12, abs=0)


def _same_stdout(got: str, want: str) -> bool:
    """The golden's rule for stdout: equal text once the full-precision
    numbers are masked, and those numbers within 1e-12 relative."""
    got_text, got_nums = _split(got)
    want_text, want_nums = _split(want)
    return got_text == want_text and _close(got_nums, want_nums)


def _kept_numbers(got: str, want: str) -> str:
    """``got`` spelling its full-precision numbers as ``want`` does, when
    they agree under ``_same_stdout``'s rule; ``want`` itself when the
    masked text agrees too."""
    stored = _split(want)[1]
    if not _close(_split(got)[1], stored):
        return got
    spelled = iter(stored)
    return _LOOSE_SPAN.sub(lambda span: _LOOSE_NUMBER.sub(
        lambda m: next(spelled), span.group()), got)


def _regenerated(actual: list[dict], golden: list[dict]) -> str:
    """The golden file for ``actual``; every record keeps the stored
    spelling of its full-precision numbers while they still agree, so only
    output that moved is rewritten, whatever the build's last bits."""
    stored = {tuple(r["args"]): r["stdout"] for r in golden}
    records = []
    for record in actual:
        old = stored.get(tuple(record["args"]))
        if old is not None:
            record = {**record, "stdout": _kept_numbers(record["stdout"], old)}
        records.append(record)
    return json.dumps(records, indent=1) + "\n"


@pytest.fixture(scope="module")
def transcript(tmp_path_factory):
    return _transcript(tmp_path_factory.mktemp("golden"))


def test_cli_matches_golden(transcript):
    golden = json.loads(GOLDEN.read_text())
    assert [r["args"] for r in transcript] == [r["args"] for r in golden]
    for got, want in zip(transcript, golden):
        assert got["exit"] == want["exit"], got["args"]
        assert got["stderr"] == want["stderr"], got["args"]
        assert _same_stdout(got["stdout"], want["stdout"]), got["args"]


def test_regenerating_an_unchanged_golden_rewrites_nothing(transcript):
    text = GOLDEN.read_text()
    assert _regenerated(transcript, json.loads(text)) == text


def test_regenerating_a_moved_record_keeps_its_agreeing_numbers():
    def record(stdout):
        return {"args": ["analyze"], "exit": 0, "stdout": stdout, "stderr": ""}

    stored = ('{\n "critical_values": {\n  "0.95": 2.155205289289452\n },\n'
              ' "adjust": "bh"\n}\ncritical=3.5\n')
    moved = ('{\n "critical_values": {\n  "0.95": 2.1552052892894666\n },\n'
             ' "seed": null\n}\ncritical=3.5000000000000004\n')
    kept = ('{\n "critical_values": {\n  "0.95": 2.155205289289452\n },\n'
            ' "seed": null\n}\ncritical=3.5\n')
    assert json.loads(_regenerated([record(moved)], [record(stored)])) == \
        [record(kept)]
    # numbers that moved beyond the rule are rewritten with the text
    far = moved.replace("2.1552052892894666", "2.1552")
    assert json.loads(_regenerated([record(far)], [record(stored)])) == \
        [record(far)]


def test_every_command_has_a_help_golden():
    def paths(command, path):
        yield path
        if isinstance(command, click.Group):
            for name, sub in command.commands.items():
                yield from paths(sub, path + (name,))

    assert set(paths(entrypoint, ())) == {tuple(cmd) for cmd in _HELP}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        records = _transcript(Path(tmp))
    GOLDEN.write_text(_regenerated(records, json.loads(GOLDEN.read_text())))
    print(f"wrote {GOLDEN} ({len(records)} commands)", file=sys.stderr)
