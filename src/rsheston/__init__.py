"""Optimal dynamic investment in regime-switching Heston markets.

Closed-form value functions and portfolio weights for the solved model
variants, an independent full Monte Carlo verification layer, and a CLI
for reproducible CSV experiments.
"""

from .errors import (
    AssumptionViolated,
    ConfigError,
    DomainViolation,
    FellerViolated,
    NegativeRate,
    ParseError,
    RowSumNonZero,
    RsHestonError,
    StepFailure,
)
from .markov_chain import (
    MarkovChainSpec,
    RegimePath,
    Segments,
    occupation_integral,
    path_stream,
    sample_block,
    sample_path,
    validate_intensity,
)
from .models import (
    ExponentParams,
    HestonRegimeParams,
    ValidationReport,
    Variant,
    exponent_params,
    validate_feller,
    validate_solution_assumptions,
)
from .regime_expectation import RegimeIntegrand, XiTable, upsilon_heston, xi_mc, xi_mc_table, xi_ode
from .riccati import (
    D_leverage,
    D_leverage_integral,
    PiecewiseAB,
    char_fn_coeffs,
    compose_piecewise,
    compose_segments,
    d_leverage_fn,
)
from .simulate import (
    HistogramTable,
    PathBundle,
    SimConfig,
    constant_strategy,
    expected_utility_controlled,
    expected_utility_mc,
    martingale_diagnostic,
    optimal_weight_fn,
    simulate_paths,
    terminal_wealth_histogram,
)
from .value_strategy import (
    StrategyPoint,
    ValueQuery,
    optimal_strategy,
    optimal_weights,
    value_mmh_general,
    value_mmh_table,
    value_smmh_rho,
)

__version__ = "0.1.0"
