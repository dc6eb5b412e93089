"""ammix: mixed constant-sum / constant-product market maker curves.

Three ways of blending a CSMM with a CPMM (arithmetic, geometric, and the
segment-exact homotopy), non-uniform blend schedules with convexity
certification, swap mechanics with slippage accounting, impermanent-loss
and portfolio-value analysis, the Stableswap reparametrization, and a
seeded arbitrage simulation.  The hot scalar kernels are pure Python
(``ammix.KERNEL_BACKEND`` names them for benchmark records).
"""

from ammix._kernels import BACKEND as KERNEL_BACKEND
from ammix.analysis import (
    ILReport,
    PriceVector,
    arbitrage_state,
    arbitrage_states,
    erli_discrepancy,
    impermanent_loss,
    portfolio_value,
    reduced_value,
    reduced_values,
)
from ammix.core import (
    CurveParams,
    Family,
    MarketState,
    MixSpec,
    calibrate_weights,
    eval_component,
    eval_mixed,
    grad_mixed,
    spot_rate,
)
from ammix.exchange import Currency, LiquidityBound, Quote, max_extractable, quote, swap
from ammix.parametrize import (
    ScalingPair,
    lambda_mix,
    point_at,
    s_of_state,
    scaling_factors,
    state_for_x,
    state_for_y,
)
from ammix.schedules import (
    ConvexityReport,
    Parabolic,
    PowerLaw,
    StableswapDynamic,
    TSchedule,
    Uniform,
    check_convexity,
    curve_derivatives,
    lambda_derivs,
    stableswap_dynamic_residual,
    stableswap_dynamic_y,
)
from ammix.simulate import (
    SimConfig,
    SimSummary,
    SimTrace,
    batch_summary,
    gen_external_rates,
    run_sim,
    sim_step,
)
from ammix.stableswap import (
    StableswapParams,
    chi_from_t,
    dynamic_chi,
    equivalence_check,
    invariant_residual,
    t_from_chi,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # core
    "CurveParams", "Family", "MarketState", "MixSpec",
    "calibrate_weights", "eval_component", "eval_mixed", "grad_mixed", "spot_rate",
    # parametrize
    "ScalingPair", "lambda_mix", "point_at", "s_of_state", "scaling_factors",
    "state_for_x", "state_for_y",
    # schedules
    "ConvexityReport", "Parabolic", "PowerLaw", "StableswapDynamic",
    "TSchedule", "Uniform", "check_convexity", "curve_derivatives",
    "lambda_derivs", "stableswap_dynamic_residual", "stableswap_dynamic_y",
    # exchange
    "Currency", "LiquidityBound", "Quote", "max_extractable", "quote", "swap",
    # analysis
    "ILReport", "PriceVector", "arbitrage_state", "arbitrage_states",
    "erli_discrepancy", "impermanent_loss", "portfolio_value", "reduced_value",
    "reduced_values",
    # stableswap
    "StableswapParams", "chi_from_t", "dynamic_chi", "equivalence_check",
    "invariant_residual", "t_from_chi",
    # simulate
    "SimConfig", "SimSummary", "SimTrace", "batch_summary",
    "gen_external_rates", "run_sim", "sim_step",
]
