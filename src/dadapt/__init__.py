"""Learning-rate-free convex optimizers with numerical verification tools.

The core idea: maintain a provably non-decreasing lower bound d_k on the
initial distance to a minimizer and feed it back as the step-size scale,
so the methods match the rates of tuned subgradient descent without
knowing that distance up front.
"""

from .analysis import (
    BoundReport,
    check_d_lower_bound,
    check_dasym,
    check_ema_equivalence,
    check_mindk,
    check_option_dominance,
    check_rate_asymptotic,
    check_rate_theorem2,
    check_snorm_bound,
    check_streeter_mcmahan,
    check_telescoping,
    log2p,
    reports_to_csv,
    run_convex_sweep,
    verify_suite,
)
from .convex import (
    ConvexRunResult,
    adagrad_da_init,
    adagrad_da_step,
    da_init,
    da_step,
    gd_init,
    gd_step,
    run_convex,
    select_return_index,
)
from .core import (
    AtStart,
    ConfigError,
    Diverged,
    Problem,
    Rng,
    Schedule,
    Trajectory,
    drive,
    schedule_eval,
)
from .baselines import adagrad_norm_init, adagrad_norm_step
from .harness import (
    ExperimentConfig,
    apply_overrides,
    config_hash,
    d0_sweep,
    grid_search,
    load_config,
    parse_config_text,
    run_experiment,
    run_single,
)
from .ml import (
    EmaPair,
    adam_da_init,
    adam_da_step,
    ema_pair,
    ema_pair_step,
    sgd_da_init,
    sgd_da_step,
)
from .problems import (
    Dataset,
    LogisticProblem,
    ParseError,
    abs_value_problem,
    logistic_value_grad,
    parse_libsvm,
    piecewise_max_problem,
    piecewise_start,
    random_piecewise_max,
    synth_dataset,
)

__version__ = "0.1.0"
