"""Sample-based single-choice prophet inequality lab.

Library layout:

- distributions: uniform-mixture value models and instances
- algorithms: threshold rules, the omega-constant rank recipe, exact walks
- stats: integer-support distributions, TV distances, tail checks
- evaluation: Monte Carlo and exact competitive-ratio machinery
- hardness: the six-box family, policy evaluation, and the adversary
- cli: config-driven experiment runner
"""

from .algorithms import (
    MaxSample,
    OrdinalRank,
    ThresholdDiagnostics,
    ThresholdRule,
    omega_rho,
    recommended_rank,
    threshold_diagnostics,
    threshold_value_with_rank_law,
)
from .distributions import (
    Instance,
    ValueDist,
    instance_from_json,
    instance_to_json,
    load_instance,
)
from .evaluation import (
    DominanceReport,
    RatioReport,
    SweepRow,
    case1_instance,
    case2_instance,
    default_case2_boxes,
    dominance_check,
    exact_ordinal_value,
    exact_single_sample_value,
    mc_ratio,
    ordinal_upper_bound_sweep,
    semi_exact_ordinal,
)
from .hardness import (
    HardParams,
    MixtureSpec,
    ProbVector,
    QPolicy,
    adversary,
    build_dd_mixture,
    certificate,
    certificate_terms,
    eval_q_policy,
    g_clamp,
    ones_count_dist,
)
from .stats import (
    ChernoffReport,
    CountDist,
    binom,
    chernoff_check,
    convolve,
    sum_of_binomials,
    tv_binom_vs_normal,
    tv_distance,
)

__version__ = "0.1.0"
