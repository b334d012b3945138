import faulthandler
import gc
import math
import multiprocessing
import os
import re
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from msdstat import distribution, tables
from msdstat import (
    DataError,
    DomainError,
    TableRangeError,
    cdf,
    cdf_asymptotic,
    cdf_even,
    quantile,
)
from msdstat.errors import ConvergenceError
from msdstat.tables import (
    EVEN_SIZES,
    ODD_SIZES,
    QuantileTable,
    build_table,
    default_table,
    interp_probability,
    interp_quantile,
    knot_grid,
    load_table,
    multi_quantile_adjusted,
    save_table,
)

import property_checks as props
import reference_tables as ref

SUPPORT_Q = 0.674 / math.sqrt(2.0)


class TestGrids:
    def test_knot_grid_shape(self):
        t = knot_grid()
        assert t.shape == (51,)
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.all(np.diff(t) > 0)
        assert np.isclose(t, SUPPORT_Q / (1 + SUPPORT_Q)).any()

    def test_size_grids(self):
        assert EVEN_SIZES[:3] == (4, 6, 8) and EVEN_SIZES[-1] == 500_000
        assert 34 in EVEN_SIZES and 94 in EVEN_SIZES and 100 in EVEN_SIZES
        assert ODD_SIZES[:3] == (3, 5, 7) and 189 in ODD_SIZES
        assert ODD_SIZES[-1] == 500_000  # spliced even rows


class TestBuild:
    def test_small_even_build(self):
        tab = build_table("even", max_n=12)
        assert tab.parity == "even"
        assert tab.sizes == (4, 6, 8, 10, 12, math.inf)
        # stored value at an exact knot equals direct quadrature
        t = tab.knots_t[37]
        q = t / (1 - t)
        k = tab.sizes.index(10)
        assert abs(tab.probs[k, 37] - cdf_even(q, 10)) < 1e-12
        assert np.all(tab.probs[:, -1] == 1.0)

    def test_asymptotic_row_zero_at_support_knot(self):
        tab = default_table("even")
        t_support = SUPPORT_Q / (1 + SUPPORT_Q)
        k = int(np.argmin(np.abs(tab.knots_t - t_support)))
        assert tab.knots_t[k] == pytest.approx(t_support, abs=1e-15)
        assert tab.probs[-1, k] == 0.0

    def test_parity_validation(self):
        with pytest.raises(DomainError):
            build_table("both")
        with pytest.raises(DomainError, match="max_n=3 leaves no table rows"):
            build_table("even", max_n=3)

    def test_quadrature_failure_names_n_and_q(self, monkeypatch):
        def cdf_failing_above_1(q, n):
            if q > 1.0:
                raise ConvergenceError("budget exhausted")
            return distribution.cdf(q, n)

        monkeypatch.setattr(tables, "cdf", cdf_failing_above_1)
        t = next(t for t in knot_grid() if t > 0.5)
        with pytest.raises(ConvergenceError, match=re.escape(
                f"table build failed at n=4, q={t / (1 - t):.6g}: "
                "budget exhausted")) as err:
            build_table("even", max_n=4)
        assert str(err.value.__cause__) == "budget exhausted"

    def test_odd_rows_above_99_are_the_even_case(self):
        # the odd table holds the runtime rule: odd n > 99 is the even
        # case at n + 1, and from 500 up it lists the even rows themselves
        even, odd = default_table("even"), default_table("odd")
        i, j = odd.sizes.index(500), even.sizes.index(500)
        assert odd.sizes[i:] == even.sizes[j:]
        assert np.array_equal(odd.probs[i:], even.probs[j:])
        for n in (109, 129, 149, 169, 189):
            assert np.array_equal(odd.probs[odd.sizes.index(n)],
                                  tables._build_row(n + 1, knot_grid())), n

    def test_shipped_tables_match_fresh_build(self, generated_tables):
        for parity in ("even", "odd"):
            shipped = default_table(parity)
            fresh = generated_tables.tables[parity]
            assert shipped.sizes == fresh.sizes
            assert np.array_equal(shipped.knots_t, fresh.knots_t)
            assert np.array_equal(shipped.probs, fresh.probs)


@pytest.fixture()
def rows_by_process(monkeypatch, tmp_path):
    """Route ``tables.cdf`` through a recorder, in whichever process calls
    it; the fixture reads back {pid: sizes whose cells that process
    computed}."""
    log = tmp_path / "cells"
    log.mkdir()

    def recorded(q, n):
        with open(log / str(os.getpid()), "a") as fh:
            fh.write(f"{n}\n")
        return distribution.cdf(q, n)

    monkeypatch.setattr(tables, "cdf", recorded)

    def read():
        found = {int(p.name): set(p.read_text().split()) for p in log.iterdir()}
        for p in log.iterdir():
            p.unlink()
        return found
    return read


def _cpus(monkeypatch, k):
    # the test process keeps native threads (the no_hang watchdog, BLAS's
    # own pool), so a test that wants the pool also tells the guard it runs
    # alone
    monkeypatch.setattr(tables, "_cpus", lambda: k)
    monkeypatch.setattr(tables, "_alone", lambda: True)


def _no_fork(monkeypatch):
    def refused():
        raise AssertionError("the build forked")
    monkeypatch.setattr(os, "fork", refused)


def _in_a_child(fn, daemon=False):
    """``fn()`` in a forked ``multiprocessing`` child, returned or failed
    here."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def run():
        try:
            send.send((True, fn()))
        except BaseException as exc:
            send.send((False, repr(exc)))

    child = ctx.Process(target=run, daemon=daemon)
    child.start()
    try:
        assert receive.poll(100), "the child sent nothing"
        ok, value = receive.recv()
    finally:
        child.join(10)
    assert ok, value
    return value


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the build forks only on Linux")
class TestPooledBuild:
    """Two forked workers compute a large build's rows, give the inline
    build's bits, report its errors and leave no process or thread."""

    @pytest.fixture(autouse=True)
    def no_hang(self):
        # a build that waits forever on a lost worker ends the run with a
        # traceback instead
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    @pytest.mark.parametrize("parity, max_n", [("odd", 25), ("even", 30)])
    def test_forked_rows_match_inline_rows(self, monkeypatch, rows_by_process,
                                           parity, max_n):
        _cpus(monkeypatch, 1)
        inline = build_table(parity, max_n=max_n)
        assert rows_by_process().keys() == {os.getpid()}
        _cpus(monkeypatch, 2)
        threads = threading.active_count()
        forked = build_table(parity, max_n=max_n)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        assert forked.sizes == inline.sizes
        assert np.array_equal(forked.probs, inline.probs)
        # the caller computes the first row, and the workers every other
        ran = rows_by_process()
        assert ran.pop(os.getpid()) == {str(inline.sizes[0])}
        assert 1 <= len(ran) <= 2
        assert set().union(*ran.values()) == {str(n) for n in inline.sizes[1:]}

    def test_a_failure_in_a_worker_names_its_row(self, monkeypatch):
        caller = os.getpid()

        def cdf_failing_in_a_worker(q, n):
            if n == 21 and q > 1.0 and os.getpid() != caller:
                raise ConvergenceError("budget exhausted")
            return distribution.cdf(q, n)

        monkeypatch.setattr(tables, "cdf", cdf_failing_in_a_worker)
        _cpus(monkeypatch, 2)
        t = next(t for t in knot_grid() if t > 0.5)
        with pytest.raises(ConvergenceError, match=re.escape(
                f"table build failed at n=21, q={t / (1 - t):.6g}: "
                "budget exhausted")):
            build_table("odd", max_n=25)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_fails_the_build(self, monkeypatch):
        caller = os.getpid()

        def cdf_dying_in_a_worker(q, n):
            if n == 21 and os.getpid() != caller:
                os._exit(1)
            return distribution.cdf(q, n)

        monkeypatch.setattr(tables, "cdf", cdf_dying_in_a_worker)
        _cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError,
                           match="a table build worker died: "):
            build_table("odd", max_n=25)
        assert multiprocessing.active_children() == []

    def test_a_refused_fork_builds_inline(self, monkeypatch, rows_by_process):
        # the first worker starts and the second meets a process limit: the
        # first is stopped and the caller computes every row
        _cpus(monkeypatch, 1)
        inline = build_table("even", max_n=30)
        rows_by_process()
        forks = []

        def second_refused():
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        fork = os.fork
        monkeypatch.setattr(os, "fork", second_refused)
        _cpus(monkeypatch, 2)
        built = build_table("even", max_n=30)
        assert len(forks) == 2
        assert multiprocessing.active_children() == []
        assert np.array_equal(built.probs, inline.probs)
        assert rows_by_process().keys() == {os.getpid()}

    def test_one_cpu_builds_inline(self, monkeypatch, rows_by_process):
        _cpus(monkeypatch, 1)
        _no_fork(monkeypatch)
        build_table("even", max_n=30)
        assert rows_by_process().keys() == {os.getpid()}

    def test_a_second_thread_keeps_the_build_inline(self, monkeypatch,
                                                    rows_by_process):
        # the no_hang watchdog is a C thread, which threading does not list
        # but a fork meets all the same
        monkeypatch.setattr(tables, "_cpus", lambda: 2)
        _no_fork(monkeypatch)
        assert not tables._alone()
        build_table("even", max_n=30)
        assert rows_by_process().keys() == {os.getpid()}

    def test_the_guard_counts_each_thread(self):
        # a forked child runs one thread until it starts another
        def alone_then_not():
            first = tables._alone()
            done = threading.Event()
            other = threading.Thread(target=done.wait)
            other.start()
            try:
                return first, tables._alone()
            finally:
                done.set()
                other.join()

        assert _in_a_child(alone_then_not) == (True, False)

    def test_a_daemonic_child_builds_inline(self, monkeypatch,
                                            rows_by_process):
        # a multiprocessing.Pool worker may not start children of its own
        _cpus(monkeypatch, 1)
        inline = build_table("even", max_n=30)
        rows_by_process()
        _cpus(monkeypatch, 2)
        probs, pid = _in_a_child(
            lambda: (build_table("even", max_n=30).probs, os.getpid()),
            daemon=True)
        assert np.array_equal(probs, inline.probs)
        assert rows_by_process().keys() == {pid}

    def test_a_build_below_the_row_floor_runs_inline(self, monkeypatch,
                                                     rows_by_process):
        _cpus(monkeypatch, 2)
        _no_fork(monkeypatch)
        small = build_table("even", max_n=22)
        assert len(small.sizes) == tables._POOL_MIN_ROWS - 1
        assert rows_by_process().keys() == {os.getpid()}


class TestTableType:
    def test_invariants_enforced(self):
        t = np.array([0.0, 0.5, 1.0])
        good = np.array([[0.0, 0.5, 1.0], [0.0, 0.6, 1.0]])
        QuantileTable("even", (4.0, math.inf), t, good)
        with pytest.raises(DataError):
            QuantileTable("even", (4.0, 6.0), t, good)  # no asymptotic row
        with pytest.raises(DataError):
            QuantileTable("even", (6.0, 4.0, math.inf), t,
                          np.vstack([good, good[:1]]))  # not ascending
        bad = good.copy()
        bad[0, 2] = 0.999
        with pytest.raises(DataError):
            QuantileTable("even", (4.0, math.inf), t, bad)  # last col != 1
        bad = good.copy()
        bad[0, 1] = -0.1
        with pytest.raises(DataError):
            QuantileTable("even", (4.0, math.inf), t, bad)
        bad = np.array([[0.0, 0.7, 0.6], [0.0, 0.6, 1.0]])
        with pytest.raises(DataError):
            QuantileTable("even", (4.0, math.inf), t, bad)  # decreasing row

    def test_loaded_table_freed_after_lookups(self, tmp_path):
        # lookups must keep no reference to a loaded table alive
        path = tmp_path / "table.csv"
        save_table(build_table("even", max_n=8), path)
        tab = load_table(path)
        interp_quantile(tab, 6, 0.95)
        interp_quantile(tab, 6, 0.99)
        interp_probability(tab, 10, 1.0)
        interp_probability(tab, math.inf, 1.0)
        ref = weakref.ref(tab)
        del tab
        gc.collect()
        assert ref() is None


class TestPersistence:
    def test_round_trip(self, tmp_path):
        tab = build_table("even", max_n=8)
        path = tmp_path / "table.csv"
        save_table(tab, path)
        back = load_table(path)
        assert back.parity == tab.parity
        assert back.sizes == tab.sizes
        assert np.array_equal(back.knots_t, tab.knots_t)
        assert np.array_equal(back.probs, tab.probs)

    def test_byte_stability(self, tmp_path):
        tab = build_table("odd", max_n=9)
        p1, p2, p3 = (tmp_path / f"t{i}.csv" for i in range(3))
        save_table(tab, p1)
        save_table(load_table(p1), p2)
        save_table(build_table("odd", max_n=9), p3)
        b1, b2, b3 = (p.read_bytes() for p in (p1, p2, p3))
        assert b1 == b2 == b3

    def test_blank_lines_are_skipped(self, tmp_path):
        bundled = Path(tables.__file__).parent / "data" / "msd_table_even.csv"
        spaced = tmp_path / "spaced.csv"
        spaced.write_text(bundled.read_text().replace("\n", "\n\n"))
        tab, back = default_table("even"), load_table(spaced)
        assert back.sizes == tab.sizes
        assert np.array_equal(back.knots_t, tab.knots_t)
        assert np.array_equal(back.probs, tab.probs)

    def test_header_records_build_constants(self, tmp_path):
        path = tmp_path / "table.csv"
        save_table(build_table("even", max_n=8), path)
        header = dict(line[2:].split(": ", 1)
                      for line in path.read_text().splitlines()
                      if line.startswith("# ") and ": " in line)
        tolerances = re.findall(r"\d[\d.]*e-\d+", header["build tolerances"])
        assert [float(t) for t in tolerances] == [
            distribution._EVEN_TOL, distribution._ODD_INNER_TOL,
            distribution._ODD_OUTER_TOL]
        assert f"odd rows stop at {tables._ODD_ROWS[-1]} " in header["size grid"]
        assert (f"odd n > {distribution._ODD_EXACT_LIMIT} "
                in header["size grid"])

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,table\n")
        with pytest.raises(DataError):
            load_table(path)
        path.write_text("# parity: even\nknots,0.0,0.5,1.0\n4,0.0,zebra,1.0\n")
        with pytest.raises(DataError, match="unparseable"):
            load_table(path)
        head = "# parity: even\nknots,0.0,0.5,1.0\n"
        for body, message in (
                # float() reads "_" separators; a table may not
                ("4,0.0,0.9_5,1.0\n", r":3: unparseable number"),
                ("4_0,0.0,0.5,1.0\n", r":3: size '4_0' is not an integer"),
                ("four,0.0,0.5,1.0\n", r":3: size 'four' is not an integer"),
                ("4.5,0.0,0.5,1.0\n", r":3: size '4\.5' is not an integer"),
                ("2,0.0,0.5,1.0\n", r":3: size '2' is not an integer >= 3"),
                ("1" + "0" * 400 + ",0.0,0.5,1.0\n", r":3: size '10+'"),
                ("4,0.0,0.5,1.0\ninf,0.0,1.0\n",
                 r":4: 2 values where earlier lines have 3"),
                # a row fault names its own line, not only the file
                ("4,0.0,0.5,1.0\n6,0.0,nan,1.0\n",
                 r":4: probabilities must be finite"),
                ("4,0.0,0.5,1.0\n6,0.0,1.5,1.0\n",
                 r":4: probabilities must lie in \[0, 1\]"),
                ("4,0.0,0.5,1.0\n6,0.6,0.5,1.0\n",
                 r":4: each row must be non-decreasing along q"),
                ("4,0.0,0.5,1.0\n6,0.0,1.0,0.999\n",
                 r":4: each row must be non-decreasing along q"),
                ("4,0.0,0.5,1.0\n6,0.0,0.5,0.999\n",
                 r":4: final column must be exactly 1"),
                ("4,0.0,0.5,1.0\nknots,0.0,0.5,1.0\n",
                 r":4: a second knots line"),
                # so does a fault of the knots, the size order or the parity
                ("4,0.0,0.5,1.0\n# parity: odd\n",
                 r":4: a second parity line"),
                ("4,0.0,0.5,1.0\n4,0.0,0.6,1.0\ninf,0.0,0.7,1.0\n",
                 r":4: sizes must ascend and end with the asymptotic row"),
                ("4,0.0,0.5,1.0\n6,0.0,0.6,1.0\n",
                 r":4: sizes must ascend and end with the asymptotic row")):
            path.write_text(head + body)
            with pytest.raises(DataError, match=re.escape(str(path)) + message):
                load_table(path)
        for knots, message in (("0.0,0.6,0.5", "strictly increasing"),
                               ("0.0,nan,1.0", "finite")):
            path.write_text(f"# parity: even\nknots,{knots}\n"
                            "4,0.0,0.5,1.0\ninf,0.0,0.5,1.0\n")
            with pytest.raises(DataError, match=re.escape(
                    f"{path}:2: knots must be {message}")):
                load_table(path)
        path.write_bytes(head.encode() + "4,0.0,0.5,1.0 # \u00e9\n".encode())
        with pytest.raises(DataError,
                           match=re.escape(str(path)) + ":3: non-ASCII byte 0xc3"):
            load_table(path)

    def test_a_load_runs_the_table_rule_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return rule(*args)

        rule = tables._fault
        monkeypatch.setattr(tables, "_fault", counted)
        data = Path(tables.__file__).parent / "data"
        load_table(data / tables._table_file("even"))
        assert len(calls) == 1

    def test_file_errors_name_the_path(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = "knots,0.0,0.5,1.0\n4,0.0,0.5,1.0\ninf,0.0,0.5,1.0\n"
        for text, message in (
                (rows, ": not a quantile table file"),
                ("# parity: even\n" + rows.replace("4,0.0", "4,0.6"),
                 ":3: each row must be non-decreasing along q"),
                ("# parity: both\n" + rows, ":1: unknown parity 'both'")):
            path.write_text(text)
            with pytest.raises(DataError,
                               match=re.escape(str(path) + message)):
                load_table(path)


class TestInterpProbability:
    def test_exact_at_knots(self):
        tab = default_table("even")
        k = tab.sizes.index(10)
        for j in (5, 20, 37, 49):
            t = tab.knots_t[j]
            q = t / (1 - t)
            assert interp_probability(tab, 10, q) == pytest.approx(
                tab.probs[k, j], abs=1e-14)

    def test_tabulated_spot_value(self):
        tab = default_table("even")
        assert abs(interp_probability(tab, 10, 1.497) - 0.950) < 5e-4

    def test_untabulated_odd_size(self):
        tab = default_table("odd")
        q33 = quantile(0.95, 33)
        assert abs(interp_probability(tab, 33, q33) - 0.95) < 5e-4

    def test_asymptotic_lookup(self):
        tab = default_table("even")
        got = interp_probability(tab, math.inf, 1.386)
        assert abs(got - cdf_asymptotic(1.386)) < 5e-4

    def test_monotone_dense_sweep(self):
        props.check_table_spline_monotone()

    def test_validation_points_match_quadrature(self):
        props.check_table_validation_points()

    def test_untabulated_sizes_above_100000(self):
        for n in (150_000, 150_001, 600_000, 600_001, 10 ** 6):
            tab = tables._table_for(n, None)
            for q in np.linspace(0.6, 3.5, 30):
                assert abs(interp_probability(tab, n, q) - cdf(q, n)) \
                    < 2.5e-4, (n, q)
            for p in (0.95, 0.99):
                assert abs(interp_quantile(tab, n, p) - quantile(p, n)) \
                    < 2.5e-4, (n, p)

    def test_rows_beyond_the_grid_use_the_asymptotic_node(self):
        # every synthesized row takes the four rows around n on the
        # m = n/(n+1) axis, whose last node is the asymptotic row
        for n in (200_000, 600_000):
            tab = tables._table_for(n, None)
            assert np.array_equal(tables._lookup_row(tab, n)[0],
                                  tables._synth_row(tab, n, slice(-4, None)))

    def test_range_errors(self):
        tab = default_table("even")
        with pytest.raises(TableRangeError):
            interp_probability(tab, 3, 1.0)  # odd n in the even table
        with pytest.raises(DomainError):
            interp_probability(tab, 10, -0.2)
        with pytest.raises(DomainError):
            interp_probability(tab, 10.5, 1.0)

    def test_wrong_parity_rejected(self):
        even, odd = default_table("even"), default_table("odd")
        with pytest.raises(TableRangeError, match="n=5 is odd"):
            interp_probability(even, 5, quantile(0.95, 5))
        with pytest.raises(TableRangeError, match="n=7 is odd"):
            interp_quantile(even, 7, 0.95)
        with pytest.raises(TableRangeError, match="n=8 is even"):
            interp_quantile(odd, 8, 0.95)
        with pytest.raises(TableRangeError, match="n=600 is even"):
            interp_probability(odd, 600, 1.0)
        # rows a table lists resolve whatever their parity
        assert interp_probability(odd, 500, 1.0) == interp_probability(
            even, 500, 1.0)
        for tab in (even, odd):
            assert interp_quantile(tab, math.inf, 0.95) == pytest.approx(
                1.386, abs=1e-3)


class TestInterpQuantile:
    def test_published_spot_values(self):
        assert abs(interp_quantile(default_table("even"), 20, 0.999) - 2.419) < 2e-3
        assert abs(interp_quantile(default_table("odd"), 45, 0.95) - 1.410) < 2e-3

    def test_round_trip(self):
        tab = default_table("even")
        for n in (10, 48, math.inf):
            for p in (0.5, 0.9, 0.99):
                q = interp_quantile(tab, n, p)
                assert abs(interp_probability(tab, n, q) - p) < 1e-6

    def test_too_few_rows_to_synthesize(self):
        # a synthesized row needs three finite rows besides the asymptotic one
        full = default_table("even")
        keep = [full.sizes.index(4), full.sizes.index(10), -1]
        sparse = QuantileTable("even", (4.0, 10.0, math.inf), full.knots_t,
                               full.probs[keep])
        for tab, n, rows in ((sparse, 6, 2),
                             (build_table("even", max_n=4), 8, 1)):
            with pytest.raises(TableRangeError,
                               match=rf"even table \({rows}\).*n={n}"):
                interp_quantile(tab, n, 0.95)

    def test_below_smallest_size(self):
        full = default_table("even")
        keep = [i for i, n in enumerate(full.sizes) if n >= 10]
        tab = QuantileTable("even", full.sizes[keep[0]:], full.knots_t,
                            full.probs[keep])
        with pytest.raises(TableRangeError,
                           match="n=6 is below the smallest tabulated size 10"):
            interp_quantile(tab, 6, 0.95)

    def test_only_the_asymptotic_row(self):
        full = default_table("even")
        tab = QuantileTable("even", (math.inf,), full.knots_t,
                            full.probs[-1:])
        for lookup, x in ((interp_quantile, 0.95), (interp_probability, 1.0)):
            assert lookup(tab, math.inf, x) == lookup(full, math.inf, x)
            with pytest.raises(TableRangeError, match=r"^too few rows in the "
                               r"even table \(0\) to synthesize n=10$"):
                lookup(tab, 10, x)

    def test_beyond_table_range(self):
        with pytest.raises(TableRangeError):
            interp_quantile(default_table("even"), 4, 1 - 1e-7)
        with pytest.raises(DomainError):
            interp_quantile(default_table("even"), 10, 1.2)

    def test_full_published_table_via_interpolation(self):
        tab_e, tab_o = default_table("even"), default_table("odd")
        for n, row in ref.SINGLE_EVEN.items():
            for p, want in zip(ref.PS_SINGLE, row):
                assert abs(interp_quantile(tab_e, n, p) - want) < 2e-3, (n, p)
        for n, row in ref.SINGLE_ODD.items():
            for p, want in zip(ref.PS_SINGLE, row):
                assert abs(interp_quantile(tab_o, n, p) - want) < 2e-3, (n, p)
        for tab in (tab_e, tab_o):
            for p, want in zip(ref.PS_SINGLE, ref.SINGLE_ASYMPTOTIC):
                assert abs(interp_quantile(tab, math.inf, p) - want) < 2e-3


class TestMultiQuantileAdjusted:
    def test_adjusted_probability_arithmetic(self):
        got = multi_quantile_adjusted(10, 0.95)
        assert got == pytest.approx(quantile(0.95 ** 0.1, 10), abs=1e-12)
        assert 0.95 ** 0.1 == pytest.approx(0.994884, abs=5e-7)

    def test_published_spot_values(self):
        assert abs(multi_quantile_adjusted(10, 0.95) - 2.135) < 0.01
        assert abs(multi_quantile_adjusted(13, 0.99) - 2.513) < 0.015

    def test_strictly_increasing_in_p(self):
        vals = [multi_quantile_adjusted(10, p) for p in (0.9, 0.95, 0.99, 0.999)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_table_route_against_exact(self):
        # multiple mode reads the table near p = 1, where the cubic in P
        # misses by up to 2.29e-2 (n = 1000, p = 0.99); ROADMAP item 1
        # tightens this bound
        for n in (5, 10, 13, 30, 51, 99, 101, 149, 150, 1000, 5000):
            table = tables._table_for(n, None)
            for p in (0.95, 0.99):
                exact = tables._critical_value(n, p, "multiple")
                looked_up = tables._critical_value(n, p, "multiple", table)
                assert abs(looked_up - exact) < 2.5e-2, (n, p)

    def test_validation(self):
        with pytest.raises(DomainError):
            multi_quantile_adjusted(2, 0.95)
        with pytest.raises(DomainError):
            multi_quantile_adjusted(10, 1.0)
        with pytest.raises(DomainError):
            multi_quantile_adjusted(math.inf, 0.95)


def test_full_rebuild_matches_bundled_files(generated_tables):
    # `msd tables generate` from scratch must be byte-stable against the
    # shipped files
    from importlib import resources

    for parity in ("even", "odd"):
        path = generated_tables.out / f"msd_table_{parity}.csv"
        bundled = resources.files("msdstat").joinpath(
            f"data/msd_table_{parity}.csv")
        assert path.read_bytes() == bundled.read_bytes(), parity


def test_rebuild_independent_of_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel, and with it the summation order, per host
    # CPU; forcing another core type must not move a single bit of a build
    import os
    import subprocess
    import sys
    from importlib import resources
    from pathlib import Path

    import msdstat

    src = str(Path(msdstat.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge",
               OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    even, odd = tmp_path / "msd_table_even.csv", tmp_path / "odd_15.csv"
    subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from msdstat.tables import build_table, save_table\n"
         "save_table(build_table('even'), sys.argv[1])\n"
         "save_table(build_table('odd', max_n=15), sys.argv[2])\n",
         str(even), str(odd)],
        env=env, check=True)
    data = resources.files("msdstat").joinpath("data")
    assert even.read_bytes() == data.joinpath("msd_table_even.csv").read_bytes()
    # the odd build, truncated to n <= 15 for time, must reproduce the
    # bundled rows of those sizes and the asymptotic row bit for bit
    rows = [line for line in odd.read_text().splitlines()
            if not line.startswith("#")]
    bundled = {line.partition(",")[0]: line for line in
               data.joinpath("msd_table_odd.csv").read_text().splitlines()}
    assert [r.partition(",")[0] for r in rows] == [
        "knots", "3", "5", "7", "9", "11", "13", "15", "inf"]
    for row in rows:
        assert row == bundled[row.partition(",")[0]], row[:12]


@pytest.mark.slow
def test_interpolation_accuracy_exhaustive():
    """Every tabulated size, both parities, against direct quadrature.

    The fast suite spot-checks random points; this sweep pins the
    accuracy across the whole grid: 5e-4 in probability over the region
    critical values live in (q >= 0.7), relaxing to 1e-3 in the steep
    low tail where the sparse large-n extension rows lose resolution,
    and 5e-4 in the quantile at the working levels.
    """
    for parity, sizes in (("even", EVEN_SIZES), ("odd", ODD_SIZES)):
        tab = default_table(parity)
        for n in sizes:
            for q in (0.45, 0.7, 0.95, 1.2, 1.45, 1.7, 2.2, 2.7):
                direct = cdf(q, n)
                bound = 5e-4 if q >= 0.7 else 1e-3
                assert abs(interp_probability(tab, n, q) - direct) < bound, \
                    (parity, n, q)
            for p in (0.6, 0.75, 0.9, 0.95, 0.99):
                exact = quantile(p, n)
                assert abs(interp_quantile(tab, n, p) - exact) < 5e-4, \
                    (parity, n, p)
