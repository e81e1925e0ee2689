"""stepsafe: concavifier estimation and safe fixed step sizes for gradient descent."""

from .descent import DescentConfig, DescentTrace, load_trace, run_descent, save_trace
from .eigenbounds import EigenResult, SymMatrix, power_iteration
from .errors import (
    DegeneratePairError,
    InvalidInputError,
    NumericalFailureError,
    UnsupportedOperationError,
)
from .objectives import (
    BoxDomain,
    ConcavifierEstimate,
    ObjectiveFunction,
    QuadraticCheck,
    central_difference_gradient,
    estimate_concavifier_hessian,
    estimate_concavifier_midpoint,
    midpoint_acceleration,
    quadratic_objective,
    upper_quadratic_check,
)
from .relu import (
    NetConfig,
    ReluDataset,
    Weights,
    allactive_gram_matrix,
    alpha_oracle,
    alpha_single_point,
    bound_alpha1,
    bound_alpha2,
    bound_alpha3,
    bound_alpha4,
    generate_dataset,
    gradient,
    initial_weights,
    load_dataset,
    loss,
    loss_hessian_matrix,
    loss_objective,
    near_kink,
    save_dataset,
    second_moment_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]
