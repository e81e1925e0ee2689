"""The package's public names, pinned: adding or dropping one edits this list."""

import numpy as np
import pytest

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


@pytest.mark.parametrize(
    "make",
    [
        lambda: stepsafe.Weights(np.ones(2), k=1, d=2),
        lambda: stepsafe.generate_dataset(stepsafe.NetConfig(2, 1, 3, 0)),
        lambda: stepsafe.SymMatrix(np.eye(2)),
        lambda: stepsafe.power_iteration(stepsafe.SymMatrix(np.eye(2))),
        lambda: stepsafe.BoxDomain(np.zeros(2), np.ones(2), 4),
        lambda: stepsafe.ConcavifierEstimate(1.0, "midpoint-sup", 1, (np.zeros(2), np.ones(2))),
        lambda: stepsafe.DescentConfig(eta=0.1, steps=1, x0=np.ones(2)),
        lambda: stepsafe.run_descent(
            stepsafe.quadratic_objective(np.eye(2)), stepsafe.DescentConfig(eta=0.1, steps=1, x0=np.ones(2))
        ),
    ],
    ids=[
        "Weights", "ReluDataset", "SymMatrix", "EigenResult", "BoxDomain", "ConcavifierEstimate",
        "DescentConfig", "DescentTrace",
    ],
)
def test_array_records_compare_by_identity(make):
    # records that hold arrays compare by identity and hash by id: field-wise
    # == would ask numpy for the truth value of an array, and arrays are unhashable
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
