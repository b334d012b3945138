"""Parametric bootstrap: counting, adjustment arithmetic, and invariances."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

import property_checks as props
from msdstat import DataError, DomainError, bootstrap, quantile, simulation
from msdstat.bootstrap import (
    BootstrapConfig,
    BootstrapReport,
    PValue,
    bh_adjust,
    bootstrap_msd,
    holm_adjust,
)
from msdstat.statistic import Dataset, qe_values

from test_simulation import full_pool
from test_statistic import LABS, UNCERTS, VALUES


def study() -> Dataset:
    return Dataset.from_arrays(LABS, VALUES, UNCERTS)


@pytest.fixture(scope="module")
def report():
    return bootstrap_msd(study(), BootstrapConfig(replicates=5000, seed=21))


class TestConfig:
    def test_defaults(self):
        cfg = BootstrapConfig()
        assert cfg.replicates == 2000
        assert cfg.levels == (0.95, 0.99)

    def test_replicate_floor(self):
        assert BootstrapConfig(replicates=100).replicates == 100
        for bad in (99, 0, -5, 2000.0):
            with pytest.raises(DataError):
                BootstrapConfig(replicates=bad)

    def test_seed_validated(self):
        for bad in (-1, 2 ** 64, 0.5):
            with pytest.raises(DataError):
                BootstrapConfig(seed=bad)
        for top in (2 ** 64 - 1, np.uint64(2 ** 64 - 1)):
            seed = BootstrapConfig(seed=top).seed
            assert type(seed) is int and seed == 2 ** 64 - 1

    def test_levels_validated(self):
        # a level outside (0, 1) is a domain error, a bad list a data error
        for bad in ((0.0,), (1.0,)):
            with pytest.raises(DomainError):
                BootstrapConfig(levels=bad)
        for bad in ((), (0.99, 0.95), (0.95, 0.95), 0.95, "0.95"):
            with pytest.raises(DataError):
                BootstrapConfig(levels=bad)


class TestPValue:
    def test_range(self):
        assert PValue(1.0).value == 1.0
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(DataError):
                PValue(bad)

    def test_rendering(self):
        assert str(PValue(0.004)) == "0.004"
        assert str(PValue(0.0002, is_upper_bound=True)) == "< 0.0002"


class TestAdjusters:
    def test_single_comparison_unchanged(self):
        assert holm_adjust((0.2,)) == (0.2,)
        assert bh_adjust((0.2,)) == (0.2,)

    def test_step_down_hand_example(self):
        assert holm_adjust((0.01, 0.03, 0.04)) == pytest.approx((0.03, 0.06, 0.06))

    def test_step_up_hand_example(self):
        assert bh_adjust((0.01, 0.02, 0.1)) == pytest.approx((0.03, 0.03, 0.1))

    def test_equal_inputs_fixed_point_of_bh(self):
        assert bh_adjust((0.07, 0.07, 0.07, 0.07)) == pytest.approx((0.07,) * 4)

    def test_input_order_restored(self):
        shuffled = (0.04, 0.01, 0.03)
        assert holm_adjust(shuffled) == pytest.approx((0.06, 0.03, 0.06))
        assert bh_adjust((0.1, 0.01, 0.02)) == pytest.approx((0.1, 0.03, 0.03))

    def test_dominates_raw_and_capped(self):
        rng = np.random.default_rng(8)
        ps = tuple(rng.uniform(0.001, 0.999, size=17))
        for adjust in (holm_adjust, bh_adjust):
            out = adjust(ps)
            assert all(a >= p for a, p in zip(out, ps))
            assert all(a <= 1.0 for a in out)

    def test_upper_bound_flag_carried(self, report):
        # a bound on the raw value is still only a bound after adjustment
        zero_count = ("Lab04", "Lab08", "Lab09", "Lab12")
        for row in report.rows:
            bound = row.label in zero_count
            assert row.p_raw.is_upper_bound == bound
            assert row.p_holm.is_upper_bound == bound
            assert row.p_bh.is_upper_bound == bound

    def test_invalid_inputs(self):
        for adjust in (holm_adjust, bh_adjust):
            with pytest.raises(DataError):
                adjust(())
            with pytest.raises(DataError):
                adjust((0.5, 0.0))
            with pytest.raises(DataError):
                adjust((0.5, 1.5))

    @pytest.mark.parametrize("ps, message", [
        ([float("nan"), 0.5], "p-value must lie in (0, 1], got nan"),
        (0.5, "p-values must be a non-empty list of numbers, got 0.5"),
        ("0.5", "p-values must be a non-empty list of numbers, got '0.5'"),
        (["x", 0.5],
         "p-values must be a non-empty list of numbers, got ['x', 0.5]"),
    ])
    def test_p_values_follow_the_pvalue_rule(self, ps, message):
        # the rule of PValue, and the list shape rule of quantile levels
        for adjust in (holm_adjust, bh_adjust):
            with pytest.raises(DataError) as err:
                adjust(ps)
            assert str(err.value) == message


class TestWorkedExample:
    def test_zero_count_labs(self, report):
        for lab in ("Lab04", "Lab08", "Lab09", "Lab12"):
            row = report.by_label(lab)
            assert row.p_raw.is_upper_bound
            assert row.p_raw.value == pytest.approx(1 / 5000, rel=1e-12)
            assert row.p_holm.is_upper_bound
            assert row.p_holm.value == pytest.approx(13 / 5000, rel=1e-12)

    def test_next_strongest_lab(self, report):
        row = report.by_label("Lab05")
        assert not row.p_raw.is_upper_bound
        assert 0.002 <= row.p_raw.value <= 0.008
        assert row.p_raw.value == pytest.approx(0.004, abs=1e-15)

    def test_marginal_labs(self, report):
        frozen = {"Lab06": 0.085, "Lab07": 0.0802, "Lab11": 0.0586}
        for lab, want in frozen.items():
            got = report.by_label(lab).p_raw.value
            assert got == pytest.approx(want, abs=1e-15)
            assert 0.03 <= got <= 0.15

    def test_case_specific_quantiles_track_uncertainty(self, report):
        # the three largest reported uncertainties earn the widest null
        # spread; the IID multiple-observation 99 % value for 13 results
        # is 2.513 and the single-observation one is 1.925
        frozen_q99 = {"Lab01": 2.5919, "Lab02": 2.5611, "Lab13": 2.6630,
                      "Lab11": 1.2672, "Lab07": 1.3831}
        for lab, want in frozen_q99.items():
            assert report.by_label(lab).quantiles[1] == pytest.approx(want, abs=1e-3)
        for lab in ("Lab01", "Lab13"):
            assert report.by_label(lab).quantiles[1] > 2.513
        for lab in ("Lab01", "Lab02", "Lab13"):
            assert report.by_label(lab).quantiles[1] > 1.925
        for lab in ("Lab07", "Lab11"):
            assert report.by_label(lab).quantiles[1] < 2.513

    def test_quantile_method_is_not_a_knob(self, report):
        # the report names the convention bootstrap_msd uses; no caller
        # can set another one
        assert "quantile_method" not in {
            f.name for f in dataclasses.fields(BootstrapReport)}
        assert type(report).quantile_method == "linear"

    def test_quantile_columns_ordered(self, report):
        for row in report.rows:
            assert row.quantiles[0] < row.quantiles[1]

    def test_metadata(self, report):
        assert report.levels == (0.95, 0.99)
        assert (report.replicates, report.seed) == (5000, 21)
        assert report.quantile_method == "linear"
        assert report.by_label("Lab09").statistic > 6.0
        with pytest.raises(KeyError):
            report.by_label("Lab99")


class TestHomoscedasticReduction:
    def test_matches_iid_quantile(self):
        # with equal uncertainties the bootstrap null is the IID null
        rng = np.random.default_rng(12)
        ds = Dataset.from_arrays(
            [f"p{i}" for i in range(10)], rng.normal(size=10), np.ones(10))
        rep = bootstrap_msd(ds, BootstrapConfig(replicates=5000, seed=4))
        want = quantile(0.95, 10)
        for row in (rep.rows[0], rep.rows[5]):
            assert abs(row.quantiles[0] - want) < 0.05


class TestScaleInvariance:
    def test_power_of_two_bitwise(self):
        cfg = BootstrapConfig(replicates=2000, seed=5)
        base = bootstrap_msd(study(), cfg)
        for b in (4.0, 2.0 ** -9):
            scaled = Dataset.from_arrays(
                LABS, [v * b for v in VALUES], [u * b for u in UNCERTS])
            assert bootstrap_msd(scaled, cfg) == base

    def test_general_factor_to_rounding(self):
        cfg = BootstrapConfig(replicates=2000, seed=5)
        base = bootstrap_msd(study(), cfg)
        scaled = bootstrap_msd(
            Dataset.from_arrays(LABS, [v * 3 for v in VALUES],
                                [u * 3 for u in UNCERTS]), cfg)
        for got, want in zip(scaled.rows, base.rows):
            assert got.p_raw == want.p_raw
            assert got.statistic == pytest.approx(want.statistic, abs=1e-9)
            for a, b in zip(got.quantiles, want.quantiles):
                assert a == pytest.approx(b, rel=1e-12)


class TestNullCoverage:
    def test_raw_p_super_uniform(self):
        # a null observation's counted p-value must not be anti-conservative
        u = np.geomspace(0.5, 2.0, 8)
        outer = np.random.default_rng(31)
        ps = []
        for k in range(500):
            ds = Dataset.from_arrays(
                [f"p{i}" for i in range(8)], u * outer.standard_normal(8), u)
            rep = bootstrap_msd(ds, BootstrapConfig(replicates=200, seed=k))
            ps.append(rep.rows[0].p_raw.value)
        ps = np.array(ps)
        for alpha in (0.02, 0.05, 0.1, 0.25, 0.5):
            band = 3 * np.sqrt(alpha * (1 - alpha) / 500)
            assert (ps <= alpha).mean() <= alpha + band


class TestInvariants:
    def test_determinism(self):
        props.check_bootstrap_determinism()


def thirty_labs() -> Dataset:
    rng = np.random.default_rng(30)
    u = rng.uniform(0.5, 2.0, size=30)
    return Dataset.from_arrays([f"p{i}" for i in range(30)],
                               u * rng.normal(size=30), u)


LEVELS = (0.5, 0.95, 0.99, 0.999)


def assert_matches_whole_pool(ds, cfg, kernel=qe_values):
    """Every count and quantile of ``bootstrap_msd`` is the one that
    ``np.quantile`` and a comparison give on the whole pool."""
    report = bootstrap_msd(ds, cfg)
    u = ds.uncertainties()
    sims = full_pool(kernel, u, cfg.seed, cfg.replicates)
    observed = kernel(ds.values(), u)
    counts = (sims >= observed).sum(axis=0)
    quantiles = np.quantile(sims, cfg.levels, axis=0, method="linear")
    for i, row in enumerate(report.rows):
        assert row.statistic == observed[i]
        assert row.p_raw == PValue(max(counts[i], 1) / cfg.replicates,
                                   bool(counts[i] == 0))
        assert np.array_equal(row.quantiles, quantiles[:, i], equal_nan=True)
    return report


class TestStreamedPool:
    """The pool streams past in chunks; counts and quantiles stay numpy's
    on the whole pool, bit for bit."""

    # 1001 puts every level's index on an integer
    @pytest.mark.parametrize("replicates", [100, 1001, 4095, 4096, 4097, 8193])
    def test_counts_and_quantiles(self, replicates):
        for ds in (study(), thirty_labs()):
            assert_matches_whole_pool(ds, BootstrapConfig(
                replicates=replicates, seed=31, levels=LEVELS))

    def test_tie_heavy_scores(self, monkeypatch):
        def rounded(x, u):
            return np.round(qe_values(x, u), 1)

        monkeypatch.setattr(bootstrap, "qe_values", rounded)
        assert_matches_whole_pool(thirty_labs(), BootstrapConfig(
            replicates=9000, seed=32, levels=LEVELS), rounded)

    def test_a_nan_column(self, monkeypatch):
        def with_nans(x, u):
            q = qe_values(x, u)
            q[..., 2] = np.where(np.abs(x[..., 0]) > 3 * u[0], np.nan,
                                 q[..., 2])
            return q

        monkeypatch.setattr(bootstrap, "qe_values", with_nans)
        report = assert_matches_whole_pool(thirty_labs(), BootstrapConfig(
            replicates=9000, seed=33, levels=LEVELS), with_nans)
        assert all(np.isnan(report.rows[2].quantiles))
        assert not np.isnan(report.rows[3].quantiles).any()

    def test_a_bracket_that_misses_is_replayed(self, monkeypatch):
        # without a margin nearly every bracket misses at first
        monkeypatch.setattr(simulation, "_Z", 0.0)
        pool, passes = bootstrap._pool, []

        def counted(*args):
            passes.append(None)
            return pool(*args)

        monkeypatch.setattr(bootstrap, "_pool", counted)
        assert_matches_whole_pool(thirty_labs(), BootstrapConfig(
            replicates=9000, seed=34, levels=LEVELS))
        assert len(passes) > 1

    def test_working_set_does_not_grow_with_replicates(self):
        ds = thirty_labs()
        bootstrap_msd(ds, BootstrapConfig(replicates=100))
        peaks = []
        for replicates in (20_000, 200_000):
            tracemalloc.start()
            try:
                bootstrap_msd(ds, BootstrapConfig(replicates=replicates))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2 ** 20
        assert peaks[1] < 1.5 * peaks[0]
