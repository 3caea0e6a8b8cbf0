"""Simulation and verification lab for the diagonal-band Gibbs sampler.

The target density on [0, 1]^2 is proportional to exp(-a^2 (u - v)^2); a
random-scan Gibbs sampler rerandomizes one uniformly chosen coordinate per
step from its Gaussian conditional.  The package provides the scalar
distribution toolkit, exact and simulated chain dynamics, the couplings
that drive the mixing analysis, a discretized transfer operator for exact
distribution evolution, and the closed-form constants appearing in the
mixing bounds.
"""

from .version import __version__
from .density import (
    DegenerateTruncationError,
    FoldedGaussian,
    ModelParams,
    ModelParamsError,
    TruncatedGaussian,
    conditional_on_half_line,
    conditional_on_unit_interval,
    gaussian_tail_bound,
    marginal_density_pu,
    phi,
)
from .chains import (
    TrajectoryRecord,
    count_direction_changes,
    run_w,
    run_w_ensemble,
    run_x,
    run_x_ensemble,
    run_xstar,
    run_y,
    run_y_ensemble,
    run_y_prime,
    run_y_prime_ensemble,
    run_z,
    run_z_ensemble,
)
from .coupling import (
    CouplingReport,
    couple_y_w,
    couple_y_yprime,
    couple_z_yprime,
    monotone_couple_step,
    verify_dominance_inequality,
)
from .grid import (
    CORNER_BOXES,
    GibbsKernel1D,
    GridDistribution,
    GridError,
    MixingNotConverged,
    MixingResult,
    build_discretized_target,
    build_kernel_1d,
    evolve_2d,
    export_heatmap,
    find_mixing_time,
    point_mass,
    set_probability,
    tv_distance,
    worst_case_distance_d,
    worst_case_distance_dbar,
)
from .constants import (
    ConstantsConfig,
    beta4,
    constants_report,
    erdos_kac_cdf,
    gamma_const,
    tv_uniform_marginal,
)

__all__ = [
    "__version__",
    "DegenerateTruncationError",
    "FoldedGaussian",
    "ModelParams",
    "ModelParamsError",
    "TruncatedGaussian",
    "conditional_on_half_line",
    "conditional_on_unit_interval",
    "gaussian_tail_bound",
    "marginal_density_pu",
    "phi",
    "TrajectoryRecord",
    "count_direction_changes",
    "run_w",
    "run_w_ensemble",
    "run_x",
    "run_x_ensemble",
    "run_xstar",
    "run_y",
    "run_y_ensemble",
    "run_y_prime",
    "run_y_prime_ensemble",
    "run_z",
    "run_z_ensemble",
    "CouplingReport",
    "couple_y_w",
    "couple_y_yprime",
    "couple_z_yprime",
    "monotone_couple_step",
    "verify_dominance_inequality",
    "CORNER_BOXES",
    "GibbsKernel1D",
    "GridDistribution",
    "GridError",
    "MixingNotConverged",
    "MixingResult",
    "build_discretized_target",
    "build_kernel_1d",
    "evolve_2d",
    "export_heatmap",
    "find_mixing_time",
    "point_mass",
    "set_probability",
    "tv_distance",
    "worst_case_distance_d",
    "worst_case_distance_dbar",
    "ConstantsConfig",
    "beta4",
    "constants_report",
    "erdos_kac_cdf",
    "gamma_const",
    "tv_uniform_marginal",
]
