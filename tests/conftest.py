import os
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from msdstat.cli import entrypoint
from msdstat.tables import _table_file, load_table


def write_study(ds, path):
    """Write ``ds`` as a study file: the ``lab,value,u`` header, then one
    ``label,repr(value),repr(u)`` line per lab."""
    lines = ["lab,value,u"] + [f"{o.label},{o.value!r},{o.uncertainty!r}"
                               for o in ds.observations]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_no_child():
    """Fail if this process has a child, running or not yet reaped, whether
    ``multiprocessing`` started it or a bare ``os.fork``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="also run long sweeps (full odd-size table reproduction and friends)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="long sweep, enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def generated_tables(tmp_path_factory):
    """``msd tables generate --out DIR``, the one full build of a test run:
    the command's result, DIR, and both tables loaded from DIR."""
    out = tmp_path_factory.mktemp("generated") / "tables"
    result = CliRunner().invoke(entrypoint, ["tables", "generate", "--out",
                                             str(out)], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return SimpleNamespace(
        result=result, out=out,
        tables={parity: load_table(out / _table_file(parity))
                for parity in ("even", "odd")})
