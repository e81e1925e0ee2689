"""The package's public names, pinned: adding or dropping one edits this list."""

import stepsafe

PUBLIC = [
    "BoxDomain", "ConcavifierEstimate", "DegeneratePairError", "DescentConfig", "DescentTrace", "EigenResult",
    "InvalidInputError", "NetConfig", "NumericalFailureError", "ObjectiveFunction", "QuadraticCheck",
    "ReluDataset", "SymMatrix", "UnsupportedOperationError", "Weights", "allactive_gram_matrix", "alpha_oracle",
    "alpha_single_point", "bound_alpha1", "bound_alpha2", "bound_alpha3", "bound_alpha4", "brauer_cassini_upper",
    "central_difference_gradient", "descent", "eigenbounds", "errors", "estimate_concavifier_hessian",
    "estimate_concavifier_midpoint", "forward_all", "generate_dataset", "gershgorin_upper", "gradient",
    "initial_weights", "load_dataset", "load_trace", "loss", "loss_hessian_matrix", "loss_objective",
    "midpoint_acceleration", "near_kink", "objectives", "power_iteration", "quadratic_objective", "relu",
    "run_descent", "save_dataset", "save_trace", "second_moment_matrix", "tableio", "upper_quadratic_check",
]


def test_public_names_are_pinned():
    assert sorted(stepsafe.__all__) == PUBLIC
