"""fiberphase: phase noise in long fiber interferometers.

Simulate calibrated stochastic phase processes, forward-model Sagnac and
Mach-Zehnder interferometers, recover phase statistics from intensity
records, and propagate the noise into quantum-repeater fidelity budgets.

The library logs through the ``fiberphase`` logger, which has only a
NullHandler: nothing is printed unless the application configures logging.
"""

import logging

from .analysis import (
    FringeFit,
    GaussianHistogram,
    PhaseStats,
    check_gaussian_relation,
    default_lag_grid,
    estimate_diffusion,
    extract_phase,
    fit_fringe,
    fit_gaussian,
    fit_scaling_exponent,
    gaussian_widths,
    increment_sets,
    increments_at,
    mean_phase_change,
    pool_stats,
    tau_threshold,
)
from .errors import (
    DomainError,
    EmptySegmentsError,
    FiberPhaseError,
    FitError,
    InsufficientDataError,
    ResourceLimitError,
    ThresholdNotReachedError,
    TraceParseError,
)
from .fileio import (
    read_dphi_curve,
    read_fringe_scan,
    read_trace,
    write_dphi_curve,
    write_fringe_scan,
    write_histogram,
    write_report,
    write_trace,
)
from .fileio import TOOL_VERSION as __version__
from .interferometer import (
    FringeScan,
    IntensityTrace,
    simulate_fringe_scan,
    simulate_mz_trace,
)
from .noise import (
    DEFAULT_GROUP_INDEX,
    SPEED_OF_LIGHT_KM_S,
    NoiseParams,
    PhaseProcess,
    PhaseTrace,
    build_process,
    from_sagnac_calibration,
    sagnac_effective_sigma,
    sigma_from_visibility,
    travel_time,
    visibility_from_sigma,
)
from .presets import preset_params
from .repeater import (
    BudgetReport,
    budget_per_segment,
    chain_sigma,
    fidelity_from_sigma,
    monte_carlo_fidelity,
    predict_visibility,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())
