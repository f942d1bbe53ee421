"""K-norm noise mechanisms for differential privacy.

Exact samplers over arbitrary norm balls, formal mechanism-comparison
criteria (containment, volume, entropy, depth, conditional variance),
objective perturbation for empirical risk minimization, private linear
regression via sanitized sufficient statistics, and a seedable simulation
CLI (`knorm`).
"""

from .geometry import (
    ContainmentVerdict,
    NormBall,
    ScaledBall,
    ball_containment,
    gauge,
    k2_ball,
    k2_member,
    k3_ball,
    k3_member,
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
    entropy,
    gamma_cdf,
    gamma_quantile,
    stochastic_tightness,
)
from .sampling import (
    MechanismConfig,
    RngStream,
    SamplerError,
    sample_gamma_int,
    sample_k_mech_rejection,
    sample_l1_mech,
    sample_l2_mech,
    sample_linf_mech,
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
    kT_member,
    kt_ball,
    preprocess,
    sanitize_statistic,
    statistic_dimension,
)

__version__ = "0.1.0"
