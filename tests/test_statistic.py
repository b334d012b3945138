import math
import tracemalloc

import numpy as np
import pytest

from msdstat import (
    DataError,
    Dataset,
    Observation,
    msd,
    pairwise_chisq,
    scaled_differences,
)
from msdstat.statistic import BUDGET, pair_matrix, pwch_values, qe_values

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
        d = pair_matrix(ds.values(), ds.uncertainties())
        i, j = LABS.index("Lab13"), LABS.index("Lab08")
        assert abs(d[i, j] - (-0.49005236871761737)) < 1e-12
        assert abs(d[i, j] - (-0.490)) < 1e-3

    def test_rows_match_matrix(self):
        ds = study()
        d = pair_matrix(ds.values(), ds.uncertainties())
        rows = scaled_differences(ds)
        assert len(rows) == ds.n
        for i, row in enumerate(rows):
            assert row.subject == i
            assert row.differences.shape == (ds.n - 1,)
            manual = np.delete(d[i], i)
            assert np.array_equal(row.differences, manual)

    def test_hand_computed_row(self):
        # equal uncertainties 1: sqrt(2) in every denominator
        ds = Dataset.from_arrays("ABCD", (0.0, 1.0, 3.0, 10.0), (1.0,) * 4)
        row = scaled_differences(ds)[0].differences
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
        got = dict(pairwise_chisq(study()))
        for lab, want in EXPECTED_PWCH.items():
            assert abs(got[lab] - want) < 1e-9 * want, lab
        assert max(got, key=got.get) == "Lab09"


class TestComparator:
    def test_hand_computed(self):
        # x=(0,0,3), unit uncertainties: third point mean square is
        # ((3/sqrt2)^2 + (3/sqrt2)^2) / 2 = 4.5
        ds = Dataset.from_arrays("ABC", (0.0, 0.0, 3.0), (1.0,) * 3)
        got = dict(pairwise_chisq(ds))
        assert abs(got["C"] - 4.5) < 1e-12
        assert abs(got["A"] - 0.5 * (0.0 + 4.5)) < 1e-12

    def test_batch_kernel_agrees(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 7))
        u = rng.uniform(0.5, 2.0, size=(3, 7))
        batch = pwch_values(x, u)
        for k in range(3):
            single = pwch_values(x[k], u[k])
            assert np.array_equal(batch[k], single)


class TestBatchSlices:
    @pytest.mark.parametrize("n", [5, 12])
    def test_slices_match_per_dataset_evaluation(self, n):
        # three full slices plus a one-dataset tail, for per-lab and
        # per-replicate uncertainties; the reference scores one dataset at
        # a time from its own pair matrix
        step = BUDGET // (n * n)
        batch = 3 * step + 1
        rng = np.random.default_rng(n)
        x = rng.normal(size=(batch, n))
        off = ~np.eye(n, dtype=bool)
        for u in (rng.uniform(0.5, 2.0, size=n),
                  rng.uniform(0.5, 2.0, size=(batch, n))):
            uk = np.broadcast_to(u, x.shape)
            want_qe = np.empty_like(x)
            want_pwch = np.empty_like(x)
            for k in range(batch):
                d = pair_matrix(x[k], uk[k])
                want_pwch[k] = (d * d).sum(axis=-1) / (n - 1)
                want_qe[k] = np.median(np.abs(d[off].reshape(n, n - 1)),
                                       axis=1)
            assert np.array_equal(qe_values(x, u), want_qe)
            assert np.array_equal(pwch_values(x, u), want_pwch)
            shaped = (3, step, n)
            assert np.array_equal(
                qe_values(x[:-1].reshape(shaped), uk[:-1].reshape(shaped)),
                want_qe[:-1].reshape(shaped))

    def test_working_set_independent_of_batch(self):
        x = np.random.default_rng(3).normal(size=(4096, 100))
        u = np.ones(100)
        tracemalloc.start()
        try:
            qe_values(x, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


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
