import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from msdstat import (
    BootstrapConfig,
    DataError,
    Dataset,
    Observation,
    bootstrap_msd,
    msd,
    statistic,
)
from msdstat.datasets import conductivity_study
from msdstat.statistic import (
    BUDGET,
    _mean_square,
    _median_abs,
    _rescaled,
    _sliced,
    pwch_values,
    qe_values,
)

import property_checks as props

# Interlaboratory key comparison round used throughout the docs, in reporting
# order (sorted by value). Values in the measurand unit, uncertainties are the
# reported standard uncertainties on the same scale.
LABS = ("Lab13", "Lab08", "Lab03", "Lab11", "Lab07", "Lab06", "Lab10",
        "Lab02", "Lab12", "Lab04", "Lab05", "Lab09", "Lab01")
VALUES = (0.099365, 0.099710, 0.099951, 0.099963, 0.099974, 0.099982,
          0.099998, 0.100057, 0.100120, 0.100260, 0.100270, 0.100475,
          0.100600)
UNCERTS = (7.000e-04, 7.500e-05, 4.200e-05, 9.500e-06, 1.950e-05, 2.050e-05,
           4.500e-05, 1.750e-04, 2.000e-05, 5.300e-05, 8.000e-05, 5.500e-05,
           5.000e-04)

# Frozen against an independent reference computation of the same round.
EXPECTED_QE = {
    "Lab09": 6.389129973257884,
    "Lab08": 3.3766641377570847,
    "Lab04": 3.2915858072271074,
    "Lab12": 3.055191698620682,
    "Lab05": 2.537482128492127,
    "Lab01": 1.2170578371377039,
    "Lab03": 1.0645424023072316,
    "Lab11": 1.0639885788266652,
    "Lab07": 1.0603557831257033,
    "Lab06": 1.0580066421693006,
    "Lab10": 1.050788080383522,
    "Lab13": 0.9307390468431695,
    "Lab02": 0.7740220186716341,
}
EXPECTED_PWCH = {
    "Lab09": 37.948490031082514,
    "Lab08": 18.159116250971,
    "Lab04": 14.025686139145582,
    "Lab12": 16.37285591753953,
    "Lab05": 8.167414132637077,
    "Lab01": 1.3248387468455156,
    "Lab03": 9.650239040960821,
    "Lab11": 16.23617305662661,
    "Lab07": 12.880989787437604,
    "Lab06": 12.159170720595931,
    "Lab10": 7.40685964074952,
    "Lab13": 1.1610611284279735,
    "Lab02": 1.1845754231714325,
}


def study() -> Dataset:
    return Dataset.from_arrays(LABS, VALUES, UNCERTS)


class TestValidation:
    def test_observation_rejects_bad_fields(self):
        with pytest.raises(DataError):
            Observation("A", math.nan, 1.0)
        with pytest.raises(DataError):
            Observation("A", math.inf, 1.0)
        with pytest.raises(DataError):
            Observation("A", 1.0, 0.0)
        with pytest.raises(DataError):
            Observation("A", 1.0, -0.1)
        with pytest.raises(DataError):
            Observation("A", 1.0, math.nan)

    def test_dataset_needs_three(self):
        a, b = Observation("A", 0.0, 1.0), Observation("B", 1.0, 1.0)
        with pytest.raises(DataError):
            Dataset((a, b))

    def test_duplicate_labels_named(self):
        obs = tuple(Observation(l, float(i), 1.0)
                    for i, l in enumerate(("A", "B", "A", "C")))
        with pytest.raises(DataError, match="A"):
            Dataset(obs)

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(DataError):
            Dataset.from_arrays(("A", "B", "C"), (0.0, 1.0), (1.0, 1.0, 1.0))

    def test_accessors(self):
        ds = study()
        assert ds.n == 13
        assert ds.labels == LABS
        assert np.array_equal(ds.values(), np.array(VALUES))
        assert np.array_equal(ds.uncertainties(), np.array(UNCERTS))


class TestScaledDifferences:
    def test_reference_pair(self):
        ds = study()
        d = props.pair_matrix(ds.values(), ds.uncertainties())
        i, j = LABS.index("Lab13"), LABS.index("Lab08")
        assert abs(d[i, j] - (-0.49005236871761737)) < 1e-12
        assert abs(d[i, j] - (-0.490)) < 1e-3

    def test_hand_computed_row(self):
        # equal uncertainties 1: sqrt(2) in every denominator
        d = props.pair_matrix(np.array([0.0, 1.0, 3.0, 10.0]), np.ones(4))
        assert d[0, 0] == 0.0
        row = d[0, 1:]  # partners in order, the diagonal removed
        want = np.array([-1.0, -3.0, -10.0]) / math.sqrt(2.0)
        assert np.max(np.abs(row - want)) < 1e-15


class TestMedianConvention:
    def test_odd_partner_count(self):
        # n=4 leaves 3 partners: the plain middle order statistic
        ds = Dataset.from_arrays("ABCD", (0.0, 1.0, 3.0, 10.0), (1.0,) * 4)
        qe = msd(ds).by_label()["A"]
        assert abs(qe - 3.0 / math.sqrt(2.0)) < 1e-14

    def test_even_partner_count(self):
        # n=5 leaves 4 partners: mean of the two central order statistics
        ds = Dataset.from_arrays("ABCDE", (0.0, 1.0, 3.0, 6.0, 10.0), (1.0,) * 5)
        qe = msd(ds).by_label()["A"]
        assert abs(qe - 0.5 * (3.0 + 6.0) / math.sqrt(2.0)) < 1e-14

    def test_no_partner_scores_nan(self):
        assert np.isnan(qe_values(np.ones((2, 1)), np.ones(1))).all()

    def test_symmetric_three_points(self):
        ds = Dataset.from_arrays("ABC", (0.0, 1.0, 2.0), (1.0,) * 3)
        qe = msd(ds).by_label()["B"]
        assert abs(qe - 1.0 / math.sqrt(2.0)) < 1e-14
        assert abs(qe - 0.7071) < 5e-5


class TestStudyRound:
    def test_qe_values_frozen(self):
        got = msd(study()).by_label()
        for lab, want in EXPECTED_QE.items():
            assert abs(got[lab] - want) < 1e-9 * want, lab

    def test_flag_sets(self):
        got = msd(study()).by_label()
        above_25 = {l for l, q in got.items() if q > 2.5}
        above_20 = {l for l, q in got.items() if q > 2.0}
        assert above_25 == {"Lab04", "Lab05", "Lab08", "Lab09", "Lab12"}
        assert above_20 == above_25
        assert max(got, key=got.get) == "Lab09"
        below_20 = {l for l, q in got.items() if q < 2.0}
        assert below_20 == set(LABS) - above_20

    def test_pwch_values_frozen(self):
        ds = study()
        got = dict(zip(ds.labels,
                       pwch_values(ds.values(), ds.uncertainties())))
        for lab, want in EXPECTED_PWCH.items():
            assert abs(got[lab] - want) < 1e-9 * want, lab
        assert max(got, key=got.get) == "Lab09"


class TestComparator:
    def test_hand_computed(self):
        # x=(0,0,3), unit uncertainties: third point mean square is
        # ((3/sqrt2)^2 + (3/sqrt2)^2) / 2 = 4.5
        ds = Dataset.from_arrays("ABC", (0.0, 0.0, 3.0), (1.0,) * 3)
        got = pwch_values(ds.values(), ds.uncertainties())
        assert abs(got[2] - 4.5) < 1e-12
        assert abs(got[0] - 0.5 * (0.0 + 4.5)) < 1e-12

    def test_batch_kernel_agrees(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 7))
        u = rng.uniform(0.5, 2.0, size=(3, 7))
        batch = pwch_values(x, u)
        for k in range(3):
            single = pwch_values(x[k], u[k])
            assert np.array_equal(batch[k], single)


class TestBatchSlices:
    @pytest.mark.parametrize("n", [*range(3, 41), 75, 100])
    def test_slices_match_per_dataset_evaluation(self, n):
        # three full slices plus a one-dataset tail, for per-lab and
        # per-replicate uncertainties, at every small n of both parities;
        # the reference takes np.median of one dataset's partners at a time
        step = BUDGET // (n * n)
        batch = 3 * step + 1
        rng = np.random.default_rng(n)
        x = rng.normal(size=(batch, n))
        off = ~np.eye(n, dtype=bool)
        for u in (rng.uniform(0.5, 2.0, size=n),
                  rng.uniform(0.5, 2.0, size=(batch, n))):
            uk = np.broadcast_to(u, x.shape)
            d = props.pair_matrix(x, uk)
            want_pwch = (d * d).sum(axis=-1) / (n - 1)
            partners = np.abs(d[:, off].reshape(batch, n, n - 1))
            want_qe = np.array([np.median(a, axis=1) for a in partners])
            assert np.array_equal(qe_values(x, u), want_qe)
            assert np.array_equal(pwch_values(x, u), want_pwch)
            shaped = (3, step, n)
            assert np.array_equal(
                qe_values(x[:-1].reshape(shaped), uk[:-1].reshape(shaped)),
                want_qe[:-1].reshape(shaped))

    @pytest.mark.parametrize("n", [11, 12])
    def test_chosen_rows_match_full_kernel(self, n):
        # the subject-row path of the power and resistance runs, over two
        # slices, equals the matching columns of every observation's scores
        batch = BUDGET // n + 3
        rng = np.random.default_rng(n)
        x = rng.normal(size=(batch, n))
        for u in (rng.uniform(0.5, 2.0, size=n),
                  rng.uniform(0.5, 2.0, size=(batch, n))):
            for kernel, full in ((_median_abs, qe_values(x, u)),
                                 (_mean_square, pwch_values(x, u))):
                for rows in ((0,), (3, 0)):
                    got = _sliced(kernel, x, u, rows=rows)
                    assert np.array_equal(got, full[:, list(rows)])

    def test_working_set_independent_of_batch(self):
        # tracemalloc peak less the output: one 0.5 MiB pair buffer, plus
        # the n x n scale matrix for a shared u, or a second buffer for
        # the scales of a u per dataset
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4096, 100))
        for u, bound in ((np.ones(100), 1.0),
                         (rng.uniform(0.5, 2.0, size=x.shape), 1.5)):
            tracemalloc.start()
            try:
                got = qe_values(x, u)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2 ** 20
            assert peak - got.nbytes < bound * 2 ** 20

    def test_single_studies_match_per_row_median(self, monkeypatch):
        # one study at every n up to 600, on 1, 2 and 3 workers in turn:
        # past sqrt(BUDGET // workers) labs its rows are scored in chunks,
        # and every chunk must give the reference's bits
        monkeypatch.setattr(statistic, "_UNIT_FLOOR", BUDGET // 3)
        rng = np.random.default_rng(600)
        for n in range(3, 601):
            monkeypatch.setattr(statistic, "_cpus", lambda: 1 + n % 3)
            x = rng.normal(size=n)
            u = rng.uniform(0.5, 2.0, size=n)
            d = props.pair_matrix(x, u)
            partners = np.abs(d[~np.eye(n, dtype=bool)].reshape(n, n - 1))
            assert np.array_equal(qe_values(x, u),
                                  np.median(partners, axis=1)), n
            assert np.array_equal(pwch_values(x, u),
                                  (d * d).sum(axis=-1) / (n - 1)), n

    def test_one_large_study_in_bounded_memory(self, monkeypatch):
        # n = 4,000 on two workers scores in row chunks: two 0.5 MiB
        # buffers (differences and scales) plus O(n), where one n x n
        # matrix took 366 MiB
        monkeypatch.setattr(statistic, "_cpus", lambda: 2)
        rng = np.random.default_rng(4)
        x = rng.normal(size=4000)
        u = rng.uniform(0.5, 2.0, size=4000)
        for kernel in (qe_values, pwch_values):
            tracemalloc.start()
            try:
                kernel(x, u)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2 ** 20


def _report_in_child(conn, ds, cfg):
    conn.send(bootstrap_msd(ds, cfg))
    conn.close()


class TestWorkers:
    """A batch call's units, scored on threads started beside the caller,
    give the caller's answer, under the caller's error state, and no
    thread outlives the call."""

    @pytest.fixture()
    def workers(self, monkeypatch):
        def patch(k):
            monkeypatch.setattr(statistic, "_cpus", lambda: k)
        return patch

    @pytest.fixture()
    def started(self, monkeypatch):
        # the number of threads each batch call starts, call by call
        counts = []

        def counted(*args, **kwargs):
            counts[-1] += 1
            return threading.Thread(*args, **kwargs)

        def call(fn, *args, **kwargs):
            counts.append(0)
            fn(*args, **kwargs)
            return counts[-1]

        monkeypatch.setattr(statistic, "threading",
                            types.SimpleNamespace(Thread=counted))
        return call

    def test_any_worker_count_gives_the_same_bits(self, workers,
                                                  monkeypatch):
        # every batch, rows=(0,) too, is large enough for threads and spans
        # several units at 2 and 3 workers
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2 * BUDGET // 11 + 5, 11))
        u_lab = rng.uniform(0.5, 2.0, size=11)
        u_set = rng.uniform(0.5, 2.0, size=x.shape)
        tied = np.ones((2 * BUDGET // 16 + 5, 4))
        tied[::3, 3] = 2.0
        u_tied = np.array([1e-320] * 3 + [1e300])
        scaled = x.copy(), u_set.copy()
        scaled[0][1::2] *= 2.0 ** 700
        scaled[1][1::2] *= 2.0 ** 700
        scaled[0][::4] *= 2.0 ** -700
        scaled[1][::4] *= 2.0 ** -700
        cases = [(x, u_lab, None), (x, u_set, None), (x, u_lab, (0,)),
                 (x, u_set, (3, 0)), (tied, u_tied, None), (*scaled, None)]

        def scores():
            with np.errstate(all="ignore"):
                return [_sliced(kernel, xs, us, rows=rows)
                        for xs, us, rows in cases
                        for kernel in (_median_abs, _mean_square)]

        workers(1)
        want = scores()
        assert np.isnan(want[8]).any()
        # 8 workers on fewer CPUs, allowed by a smaller unit floor and
        # switching threads every microsecond, must still score every unit
        # once and nowhere else
        monkeypatch.setattr(statistic, "_UNIT_FLOOR", BUDGET // 8)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for k in (2, 3, 8):
                workers(k)
                for got, ref in zip(scores(), want):
                    assert np.array_equal(got, ref, equal_nan=True), k
        finally:
            sys.setswitchinterval(interval)

    def test_small_calls_run_inline_and_large_ones_on_few_threads(
            self, workers, started):
        # a call of up to 2 * BUDGET pair elements starts no thread: a single
        # study up to n = 362 and a power run's subject row at n = 20; a
        # larger one uses at most BUDGET // _UNIT_FLOOR = 2 workers, however
        # many CPUs there are, and one CPU runs every call inline
        rng = np.random.default_rng(18)
        workers(64)
        subject = rng.normal(size=(4096, 20))
        assert started(_sliced, _median_abs, subject, np.ones(20),
                       rows=(0,)) == 0
        assert started(qe_values, rng.normal(size=362), np.ones(362)) == 0
        assert started(qe_values, rng.normal(size=363), np.ones(363)) == 1
        assert started(qe_values, rng.normal(size=(4096, 100)),
                       np.ones(100)) == 1
        workers(1)
        assert started(qe_values, rng.normal(size=(4096, 100)),
                       np.ones(100)) == 0

    def test_no_thread_outlives_a_call(self, workers):
        before = threading.active_count()
        x = np.random.default_rng(7).normal(size=(4096, 30))
        for k in (3, 2, 8, 1):
            workers(k)
            qe_values(x, np.ones(30))
            assert threading.active_count() == before, k

    def test_workers_keep_the_callers_error_state(self, workers):
        # 0/0 partners in every unit: the other threads must ignore them as
        # the caller asked, not warn, and raise where the caller asks that
        workers(2)
        x = np.ones((BUDGET, 4))
        u = np.array([1e-320] * 3 + [1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                got = qe_values(x, u)
        assert np.isnan(got[:, :3]).all() and (got[:, 3] == 0.0).all()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            qe_values(x, u)

    def test_an_error_in_another_thread_reaches_the_caller(self, workers):
        # the caller dawdles over its units, so the other thread scores some
        main = threading.current_thread()

        def kernel(d, i, j):
            if threading.current_thread() is main:
                time.sleep(1e-3)
                return _mean_square(d, i, j)
            raise ZeroDivisionError("in a worker")

        workers(2)
        with pytest.raises(ZeroDivisionError, match="in a worker"):
            _sliced(kernel, np.ones((4096, 30)), np.ones(30))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_scores_after_the_parent(self, workers):
        # a pool of threads kept across calls would not survive fork, and
        # the child's first batch call would wait on it forever
        workers(2)
        ds, cfg = conductivity_study(), BootstrapConfig(replicates=1000)
        want = bootstrap_msd(ds, cfg)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_report_in_child, args=(writer, ds, cfg))
        child.start()
        writer.close()
        try:
            assert reader.poll(60), "the child hung on its first batch call"
            got = reader.recv()
            child.join(60)
            assert child.exitcode == 0
        finally:
            child.kill()
            child.join()
        assert got == want


class TestExtremeScales:
    @pytest.mark.parametrize("k", [700, -700])
    def test_power_of_two_scaling_is_exact(self, k):
        # scaled past 2**±500, the squared uncertainties would under- or
        # overflow; the scores must equal the unscaled ones bit for bit
        rng = np.random.default_rng(k % 7)
        x = rng.normal(size=(9, 6))
        for u in (rng.uniform(0.5, 2.0, size=6),
                  rng.uniform(0.5, 2.0, size=(9, 6))):
            s = 2.0 ** k
            assert np.array_equal(qe_values(x * s, u * s), qe_values(x, u))
            assert np.array_equal(pwch_values(x * s, u * s), pwch_values(x, u))

    def test_one_extreme_dataset_in_a_batch(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        u = rng.uniform(0.5, 2.0, size=(4, 6))
        xs, us = x.copy(), u.copy()
        xs[1] *= 2.0 ** -700
        us[1] *= 2.0 ** -700
        assert np.array_equal(qe_values(xs, us), qe_values(x, u))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_tiny_and_huge_uncertainties_score_finitely(self, scale):
        ds = Dataset.from_arrays("ABCD", np.array([1.0, 3.0, -2.0, 5.0]) * scale,
                                 (scale,) * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = msd(ds).q_e
            chisq = pwch_values(ds.values(), ds.uncertainties())
            report = bootstrap_msd(ds, BootstrapConfig(replicates=200))
        want = qe_values(np.array([1.0, 3.0, -2.0, 5.0]), np.ones(4))
        assert np.all(np.isfinite(got)) and np.all(np.isfinite(chisq))
        assert all(np.all(np.isfinite(row.quantiles)) for row in report.rows)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_tied_values_whose_u_square_to_zero_score_nan(self):
        # three labs' pairs are 0/0; the self-pair must not stand in for
        # their median
        with np.errstate(all="ignore"):
            got = qe_values(np.ones(4), np.array([1e-320] * 3 + [1e300]))
        assert np.isnan(got[:3]).all() and got[3] == 0.0

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_n_median_with_nan_partners(self, n):
        # k tied labs with u = 1e-320 make k - 1 partners 0/0 = nan for
        # each other; the kernel's median must equal np.sort's central
        # order statistics, nan last, for every k
        rng = np.random.default_rng(n)
        for k in range(n + 1):
            x = np.concatenate([np.ones(k), rng.normal(size=n - k) * 1e298])
            u = np.array([1e-320] * k + [1e300] * (n - k))
            with np.errstate(all="ignore"):
                got = qe_values(x, u)
                a = np.abs(props.pair_matrix(*_rescaled(x, u)))
            a = np.sort(a[~np.eye(n, dtype=bool)].reshape(n, n - 1), axis=-1)
            half = (n - 1) // 2
            want = 0.5 * (a[:, half - 1] + a[:, half])
            assert np.array_equal(got, want, equal_nan=True), k


class TestMonotoneResponse:
    def test_subject_statistic_grows_with_displacement(self):
        base = np.array([0.3, -0.2, 0.1, -0.4, 0.25, 0.0, -0.1, 0.15])
        prev = -1.0
        for delta in np.linspace(0.0, 6.0, 25):
            x = base.copy()
            x[0] = delta
            qe = qe_values(x, np.ones(8))[0]
            assert qe >= prev - 1e-12
            prev = qe


class TestInvariants:
    def test_location_scale_equivariance(self):
        props.check_location_scale_equivariance()

    def test_antisymmetry(self):
        props.check_antisymmetry()

    def test_permutation_invariance(self):
        props.check_permutation_invariance()

    def test_breakdown_resistance(self):
        props.check_breakdown_resistance()
