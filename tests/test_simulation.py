"""Monte Carlo engine: reference values, calibration, and reproducibility."""
import tracemalloc

import numpy as np
import pytest

import property_checks as props
from msdstat import DataError, DomainError, quantile, simulation
from msdstat.bootstrap import BootstrapConfig, bootstrap_msd, holm_adjust
from msdstat.simulation import (
    BLOCK,
    _blocks,
    _Quantiles,
    calibrate_pwch_quantile,
    simulate_hetero_guideline,
    simulate_multi_quantiles,
    simulate_power,
    simulate_resistance,
)
from msdstat.statistic import BUDGET, Dataset, pwch_values


def _runs(n=10, replicates=1000, seed=0):
    """Calls of every public simulation with the given run arguments;
    the last one, the guideline study, takes no n."""
    return (
        lambda: simulate_multi_quantiles(n, (0.95,), replicates, seed),
        lambda: calibrate_pwch_quantile(n, 0.95, replicates, seed),
        lambda: simulate_power("msd", n, (0.0,), replicates, seed, 1.5),
        lambda: simulate_resistance("msd", n, (0.0,), replicates, seed, 1.5),
        lambda: simulate_hetero_guideline((5,), replicates, seed),
    )


class TestConfig:
    def test_rejects_bad_n(self):
        for n in (2, 0, -4, 3.0, "10", True, np.bool_(True)):
            for run in _runs(n=n)[:-1]:
                with pytest.raises(DomainError, match="n must be an integer"):
                    run()

    def test_rejects_bad_replicates(self):
        for r in (0, -1, 10.5, None, True, np.bool_(True)):
            for run in _runs(replicates=r):
                with pytest.raises(DataError, match="replicates must be"):
                    run()

    def test_rejects_bad_seed(self):
        for s in (-1, 2 ** 64, 1.5, True, np.bool_(True)):
            for run in _runs(seed=s):
                with pytest.raises(DataError, match="seed must be"):
                    run()

    def test_numpy_integers_accepted(self):
        # numpy integers pass every integer check and give the int results
        plain = _runs(n=10, replicates=1000, seed=3)
        numpy = _runs(n=np.int64(10), replicates=np.int64(1000),
                      seed=np.uint64(3))
        for a, b in zip(plain, numpy):
            assert repr(b()) == repr(a())
        ds = Dataset.from_arrays("abcde", [0.1, -0.4, 0.0, 1.2, 0.3],
                                 [1.0, 0.5, 2.0, 1.5, 0.8])
        assert repr(bootstrap_msd(ds, BootstrapConfig(
            replicates=np.int64(500), seed=np.int64(3)))) == repr(
            bootstrap_msd(ds, BootstrapConfig(replicates=500, seed=3)))

    def test_unknown_statistic(self):
        with pytest.raises(DataError):
            simulate_power("mad", 10, (0.0,), 100, seed=0, critical=1.5)

    def test_quantile_floor(self):
        with pytest.raises(DataError):
            simulate_multi_quantiles(10, (0.95,), 999, seed=0)
        with pytest.raises(DataError):
            calibrate_pwch_quantile(10, 0.95, 999, seed=0)

    def test_quantile_levels_validated(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                simulate_multi_quantiles(10, (bad,), 2000, seed=0)
        with pytest.raises(DomainError):
            calibrate_pwch_quantile(10, 1.0, 2000, seed=0)

    def test_bare_probability_is_not_a_level_list(self):
        for bad in (0.95, np.float64(0.95), "0.95"):
            with pytest.raises(DataError, match="list of probabilities"):
                simulate_multi_quantiles(10, bad, 1000, seed=0)

    def test_empty_level_list_rejected_before_any_draw(self, monkeypatch):
        import msdstat.simulation as simulation

        def no_draws(*args):
            raise AssertionError("a replicate was scored")

        monkeypatch.setattr(simulation, "qe_values", no_draws)
        empty = "quantile levels must be a non-empty list of probabilities"
        with pytest.raises(DataError, match=empty):
            simulate_multi_quantiles(10, (), 2000, seed=0)
        with pytest.raises(DataError, match=empty):
            BootstrapConfig(levels=())

    def test_power_grid_and_critical_validated(self):
        with pytest.raises(DataError):
            simulate_power("msd", 10, (), 100, seed=0, critical=1.5)
        with pytest.raises(DataError):
            simulate_power("msd", 10, (0.0, np.inf), 100, seed=0, critical=1.5)
        for crit in (0.0, -2.0, np.nan):
            with pytest.raises(DataError):
                simulate_power("msd", 10, (0.0,), 100, seed=0, critical=crit)

    @pytest.mark.parametrize("call, message", [
        (lambda: simulate_hetero_guideline(5, 1000, 0),
         "sizes must be a non-empty list of integers, got 5"),
        (lambda: simulate_hetero_guideline("5", 1000, 0),
         "sizes must be a non-empty list of integers, got '5'"),
        (lambda: simulate_power("msd", 10, 1.0, 100, 0, 2.0),
         "grid must be a non-empty list of numbers, got 1.0"),
        (lambda: simulate_resistance("msd", 10, ["a"], 100, 0, 2.0),
         "grid must be a non-empty list of numbers, got ['a']"),
        (lambda: simulate_power("msd", 10, (0.0,), 100, 0, "2"),
         "critical value must be positive, got '2'"),
        (lambda: simulate_multi_quantiles(10, ["x"], 1000, 0),
         "quantile levels must be a non-empty list of probabilities, "
         "got ['x']"),
        # each list argument refuses an empty list with its own message
        (lambda: simulate_multi_quantiles(10, (), 1000, 0),
         "quantile levels must be a non-empty list of probabilities, got ()"),
        (lambda: simulate_power("msd", 10, [], 100, 0, 2.0),
         "grid must be a non-empty list of numbers, got []"),
        (lambda: simulate_hetero_guideline((), 1000, 0),
         "sizes must be a non-empty list of integers, got ()"),
        (lambda: holm_adjust(()),
         "p-values must be a non-empty list of numbers, got ()"),
    ], ids=["bare size", "size string", "bare grid value", "text grid",
            "text critical", "text level", "empty levels", "empty grid",
            "empty sizes", "empty p-values"])
    def test_list_and_number_arguments_raise_data_error(self, call, message):
        with pytest.raises(DataError) as err:
            call()
        assert str(err.value) == message

    def test_default_critical_waits_for_every_check(self, monkeypatch):
        # both default thresholds raise if computed, so each bad argument
        # must be rejected before either one starts
        def work(*args):
            raise RuntimeError("a default threshold was computed")

        monkeypatch.setattr("msdstat.simulation._null_pool", work)
        monkeypatch.setattr("msdstat.tables.quantile", work)
        bad = [((10, (0.0,), 0, 0), "replicates must be a positive integer"),
               ((10, (0.0,), 100, -1), "seed must be a 64-bit integer"),
               ((10, (), 100, 0), "grid must be a non-empty list of numbers"),
               ((2, (0.0,), 100, 0), "n must be an integer")]
        for runner in (simulate_power, simulate_resistance):
            for statistic in ("msd", "pwch"):
                for args, message in bad:
                    with pytest.raises((DataError, DomainError),
                                       match=message):
                        runner(statistic, *args)


class TestMultiQuantiles:
    def test_published_row_n10(self):
        # multiple-observation 95 % critical value for n = 10: printed 2.135
        (est,) = simulate_multi_quantiles(10, (0.95,), 100_000, seed=2)
        assert est.p == 0.95
        assert abs(est.value - 2.135) < 0.02
        assert 0.0 < est.std_error < 0.02

    def test_published_row_n9(self):
        # 99 % row for n = 9: printed 2.491
        (est,) = simulate_multi_quantiles(9, (0.99,), 100_000, seed=2)
        assert abs(est.value - 2.491) < 0.03

    def test_levels_keep_request_order(self):
        lo, hi = simulate_multi_quantiles(8, (0.5, 0.99), 5000, seed=4)
        assert (lo.p, hi.p) == (0.5, 0.99)
        assert lo.value < hi.value

    def test_maximum_dominates_single_observation(self):
        # the max of n statistics is stochastically above any single one
        (est,) = simulate_multi_quantiles(10, (0.95,), 20_000, seed=1)
        assert est.value > quantile(0.95, 10)


class TestPowerAndResistance:
    def test_null_rate_matches_nominal_level(self):
        crit = quantile(0.95, 10)
        curve = simulate_power("msd", 10, (0.0,), 20_000, seed=5, critical=crit)
        assert abs(curve.proportion[0] - 0.05) < 0.005

    def test_power_rises_with_displacement(self):
        crit = quantile(0.95, 10)
        curve = simulate_power("msd", 10, (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                               4000, seed=6, critical=crit)
        slack = curve.std_error[:-1] + curve.std_error[1:]
        assert np.all(np.diff(curve.proportion) >= -slack)
        assert curve.proportion[-1] >= 0.99

    def test_resistance_subject_stays_calm(self):
        # a wandering contaminant must not drag the null subject over the line
        crit = quantile(0.95, 10)
        curve = simulate_resistance("msd", 10, (-6.0, 0.0, 6.0), 4000,
                                    seed=6, critical=crit)
        assert np.all(curve.proportion <= 0.09)

    def test_comparator_less_resistant_than_msd(self):
        msd = simulate_resistance("msd", 10, (6.0,), 4000, seed=6,
                                  critical=quantile(0.95, 10))
        pwch = simulate_resistance("pwch", 10, (6.0,), 4000, seed=6,
                                   critical=2.611950149814246)
        assert pwch.proportion[0] >= msd.proportion[0] + 0.05

    def test_msd_default_critical_is_the_exact_quantile(self):
        explicit = simulate_resistance("msd", 5, (0.0, 2.0), 300, 4,
                                       quantile(0.95, 5))
        assert repr(simulate_resistance("msd", 5, (0.0, 2.0), 300, 4)) == \
            repr(explicit)

    def test_curve_metadata(self):
        curve = simulate_power("pwch", 7, (0.0, 2.0), 500, seed=3, critical=2.6)
        assert curve.statistic == "pwch"
        assert (curve.n, curve.replicates, curve.seed) == (7, 500, 3)
        assert curve.grid.shape == curve.proportion.shape == curve.std_error.shape


class TestHeteroGuideline:
    def test_size_range_enforced(self):
        # a size must be an integer: 5.7 is not truncated to 5
        for sizes in ((4,), (26,), (), (5.7,), (True,), ("5",)):
            with pytest.raises(DataError):
                simulate_hetero_guideline(sizes, 100, seed=0)
        with pytest.raises(DataError):
            simulate_hetero_guideline((5, 15), 0, seed=0)

    def test_frozen_reference_run(self):
        # counts are deterministic given the seed, so the rates are exact
        hs = simulate_hetero_guideline((5, 15, 25), 10_000, seed=9)
        assert hs.sizes == (5, 15, 25)
        np.testing.assert_allclose(
            hs.value_rate, [0.01364, 0.010826666666666667, 0.009596],
            rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            hs.dataset_rate, [0.0122, 0.0266, 0.0355], rtol=0, atol=1e-15)
        assert np.all(hs.value_se > 0) and np.all(hs.dataset_se > 0)


class TestComparatorCalibration:
    def test_reference_value(self):
        got = calibrate_pwch_quantile(10, 0.95, 200_000, seed=0)
        assert got == pytest.approx(2.611950149814246, abs=1e-12)
        # the published rounded critical value
        assert abs(got - 2.61) < 0.01

    def test_seed_stability(self):
        a = calibrate_pwch_quantile(10, 0.95, 200_000, seed=0)
        b = calibrate_pwch_quantile(10, 0.95, 200_000, seed=99)
        assert abs(a - b) < 0.01

    def test_level_ordering(self):
        lo = calibrate_pwch_quantile(10, 0.5, 20_000, seed=3)
        hi = calibrate_pwch_quantile(10, 0.95, 20_000, seed=3)
        assert lo < hi


class TestInvariants:
    def test_determinism_and_block_order(self):
        props.check_mc_determinism()


def _generator(seed, key):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=key)))


def _sorted_qe(x, u):
    """Reference statistic: sort |d_ij| over the partners j != i."""
    rows, n = x.shape
    d = (np.abs(x[:, :, None] - x[:, None, :])
         / np.sqrt(u[:, None] ** 2 + u[None, :] ** 2))
    a = np.sort(d[:, ~np.eye(n, dtype=bool)].reshape(rows, n, n - 1), axis=-1)
    half = (n - 1) // 2
    return a[..., half] if n % 2 == 0 else 0.5 * (a[..., half - 1] + a[..., half])


class TestStreamLayout:
    # Block b of a run draws from Philox(SeedSequence(seed, spawn_key=key +
    # (b,))), as msdstat.simulation documents and bench/worker.py assumes;
    # 4200 and 5000 replicates make one full block of 4096 and a partial one.
    def test_bootstrap_recomputed_from_streams(self):
        ds = Dataset.from_arrays("abcde", [0.1, -0.4, 0.0, 1.2, 0.3],
                                 [1.0, 0.5, 2.0, 1.5, 0.8])
        report = bootstrap_msd(ds, BootstrapConfig(replicates=4200, seed=17))
        u = ds.uncertainties()
        observed = _sorted_qe(ds.values()[None, :], u)[0]
        sims = np.concatenate([
            _sorted_qe(_generator(17, (b,)).standard_normal((c, 5)) * u, u)
            for b, c in ((0, 4096), (1, 104))])
        counts = (sims >= observed).sum(axis=0)
        quantiles = np.quantile(sims, (0.95, 0.99), axis=0, method="linear")
        for i, row in enumerate(report.rows):
            assert row.statistic == observed[i]
            assert row.p_raw.value == max(counts[i], 1) / 4200
            assert row.quantiles == tuple(quantiles[:, i])

    def test_power_count_recomputed_from_streams(self):
        curve = simulate_power("msd", 5, (0.0, 1.0), 5000, seed=7,
                               critical=1.0)
        for j, delta in enumerate((0.0, 1.0)):
            count = 0
            for b, c in ((0, 4096), (1, 904)):
                z = _generator(7, (j, b)).standard_normal((c, 5))
                z[:, 0] += delta
                count += int((_sorted_qe(z, np.ones(5))[:, 0] > 1.0).sum())
            assert curve.proportion[j] == count / 5000


def full_pool(kernel, u, seed, replicates):
    """The replicate pool held whole: each block drawn in one call and
    scored at once, as before the pool streamed."""
    full, rem = divmod(replicates, BLOCK)
    return np.concatenate([
        kernel(_generator(seed, (b,)).standard_normal((c, u.size)) * u, u)
        for b, c in enumerate([BLOCK] * full + [rem] * (rem > 0))])


def counting(stream):
    """``stream`` and a list that grows by one each time it is replayed."""
    passes = []

    def counted():
        passes.append(None)
        return stream()
    return counted, passes


class TestStreamedPool:
    """The pool is scored chunk by chunk and never held whole; each of its
    quantiles must be np.quantile's on the whole pool, bit for bit."""

    @pytest.mark.parametrize("key", [(), (3,)])
    def test_a_block_drawn_in_chunks_is_one_draw(self, key):
        # a full block is one chunk at n = 5, two at 23 and seven at 100
        for n in (5, 23, 100):
            rows = max(1, BUDGET // n)
            for (one, c), (chunked, _) in zip(_blocks(8, 9000, key),
                                              _blocks(8, 9000, key)):
                whole = one.standard_normal((c, n))
                parts = [chunked.standard_normal((min(rows, c - done), n))
                         for done in range(0, c, rows)]
                assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("n, replicates, p", [
        (10, 1000, 0.95), (5, 1001, 0.5), (4, 4095, 0.99), (4, 4096, 0.999),
        (4, 4097, 0.95), (3, 8193, 0.5), (30, 3000, 0.99)])
    def test_pooled_calibration_is_numpys_quantile(self, n, replicates, p):
        pool = full_pool(pwch_values, np.ones(n), 6, replicates)
        assert calibrate_pwch_quantile(n, p, replicates, 6) == float(
            np.quantile(pool.ravel(), p, method="linear"))

    @pytest.mark.parametrize("z", [simulation._Z, 0.0],
                             ids=["default margin", "no margin"])
    def test_ties_nans_and_replays(self, monkeypatch, z):
        # without a margin nearly every bracket misses on the continuous
        # columns, and the replays must still find numpy's bits
        monkeypatch.setattr(simulation, "_Z", z)
        rng = np.random.default_rng(9)
        values = rng.normal(size=(20_000, 6))
        values[:, :3] = np.round(values[:, :3], 1)  # heavy ties
        values[[5, 17_000], 2] = np.nan
        values[3, 4] = np.inf
        stream, passes = counting(
            lambda: (values[i:i + 3000] for i in range(0, 20_000, 3000)))
        ps = (0.5, 0.95, 0.99, 0.999)
        got = simulation._quantiles(stream, ps, 20_000, 6)
        want = np.quantile(values, ps, axis=0, method="linear")
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[:, 2]).all()
        assert (len(passes) > 1) == (z == 0.0)

    def test_a_bracket_that_misses_is_replayed(self):
        values = np.random.default_rng(10).normal(size=(5000, 1))
        ps = (0.01, 0.5, 0.99)
        for lo, hi in ((5.0, 6.0), (-6.0, -5.0), (0.0, 0.0)):
            found = _Quantiles(ps, 5000, 1, 1, simulation._Z, lo, hi)
            stream, passes = counting(
                lambda: (values[i:i + 700] for i in range(0, 5000, 700)))
            for chunk in stream():
                found.add(chunk)
            assert np.array_equal(found.result(stream), np.quantile(
                values, ps, axis=0, method="linear"))
            assert len(passes) == 2

    def test_pooled_working_set_does_not_grow_with_replicates(self):
        calibrate_pwch_quantile(30, 0.95, 1000, 0)
        tracemalloc.start()
        try:
            calibrate_pwch_quantile(30, 0.95, 200_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
