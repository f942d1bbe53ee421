"""K-norm noise mechanisms for differential privacy.

Exact samplers over lp balls and the paper's hull bodies (k2, k3 and the
regression hull kt<p>), formal mechanism-comparison criteria (containment,
volume, entropy, depth, conditional variance), objective perturbation for
empirical risk minimization, private linear regression via sanitized
sufficient statistics, and a seedable simulation CLI (`knorm`).
"""

from .geometry import (
    ContainmentVerdict,
    NormBall,
    ScaledBall,
    ball_containment,
    k2_ball,
    k3_ball,
    lp_norm,
    quadratic_pair_sensitivity,
    volume_lp,
    volume_monte_carlo,
)
from .ordering import (
    ComparisonReport,
    compare,
    concentration_radius,
    conditional_variance,
    depth,
    gamma_cdf,
    gamma_quantile,
)
from .sampling import (
    BudgetError,
    MechanismConfig,
    RngStream,
    SamplerError,
    sample_k_mech_rejection,
    sample_l1_mech,
    sample_l2_mech,
    sample_linf_mech,
    sample_lp_mech,
    sample_noise,
)
from .erm import (
    LossSpec,
    ObjPertConfig,
    OptimizerError,
    logistic_loss_spec,
    logistic_sensitivity,
    minimize_erm,
    objective_perturbation,
)
from .linreg import (
    RegressionDataset,
    StatisticVector,
    ball_from_name,
    build_statistic,
    dp_estimate,
    kt_ball,
    preprocess,
    sanitize_statistic,
    statistic_dimension,
)

__version__ = "0.1.0"
