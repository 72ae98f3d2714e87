"""Linear-quadratic control of conditional McKean-Vlasov dynamics.

Solver for the backward quadratic-value ODE system, synthesis of the
optimal affine feedback, interacting-particle simulation under common
noise, and numerical certification of the dynamic-programming structure
(Bellman residual, DPP inequality, generator identity, flow property).
"""

from .errors import DomainError, NonPositiveGain, NumericalBlowup
from .lqmodel import (
    GainMatrices,
    LqCost,
    LqDynamics,
    LqModel,
    check_standing_condition,
    gains,
    load_model,
    save_model,
)
from .measure import EmpiricalMeasure, mean, tree_mean, tree_sum
from .policy import (
    FeedbackGains,
    FeedbackPolicy,
    QuadraticFunctional,
    QuadraticValue,
    optimal_feedback,
    recover_original,
    value,
)
from .riccati import (
    RiccatiSolution,
    SystemicRiskParams,
    closed_form_lambda,
    delta_pm,
    solve_riccati,
    systemic_risk_model,
)
from .simulator import (
    ConstantControl,
    FeedbackControl,
    ParticleTrajectory,
    ShiftedControl,
    lq_dynamics_spec,
    pathwise_cost,
    restart_continuation,
    sample_initial,
    simulate_path,
)
from .verify import (
    CostEstimate,
    bellman_residual,
    chaos_convergence,
    dpp_check,
    estimate_cost,
    grad_check,
    ito_generator_check,
)

__version__ = "0.1.0"


def backend():
    """Always "python" (numpy step loops); its one caller is the manifest of perfbench/run.py."""
    return "python"
