"""Median scaled difference toolkit: statistic, distributions, inference."""

from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    MsdError,
    TableRangeError,
)
from .statistic import (
    Dataset,
    MsdResult,
    Observation,
    ScaledDifferenceRow,
    msd,
    pairwise_chisq,
    scaled_differences,
)
from .distribution import (
    ASYMPTOTIC_LOWER_BOUND,
    DistSpec,
    cdf,
    cdf_asymptotic,
    cdf_even,
    cdf_odd,
    conditional_cdf,
    conditional_pdf,
    conditional_sf,
    quantile,
)
from .tables import (
    QuantileTable,
    build_table,
    default_table,
    interp_probability,
    interp_quantile,
    load_table,
    multi_quantile_adjusted,
    save_table,
)
from .simulation import (
    HeteroStudy,
    PowerCurve,
    QuantileEstimate,
    SimConfig,
    calibrate_pwch_quantile,
    simulate_hetero_guideline,
    simulate_multi_quantiles,
    simulate_power,
    simulate_resistance,
)
from .bootstrap import (
    BootstrapConfig,
    BootstrapReport,
    BootstrapRow,
    PValue,
    bh_adjust,
    bootstrap_msd,
    holm_adjust,
)
from .datasets import conductivity_study, load_study, save_study

__version__ = "0.1.0"
