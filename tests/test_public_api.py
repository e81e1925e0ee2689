"""The package's public names, pinned: adding or dropping one edits these lists."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import stepsafe

PUBLIC = [
    "BoxDomain", "ConcavifierEstimate", "DegeneratePairError", "DescentConfig", "DescentTrace", "EigenResult",
    "InvalidInputError", "NetConfig", "NumericalFailureError", "ObjectiveFunction", "QuadraticCheck",
    "ReluDataset", "SymMatrix", "UnsupportedOperationError", "Weights", "allactive_gram_matrix", "alpha_oracle",
    "alpha_single_point", "bound_alpha1", "bound_alpha2", "bound_alpha3", "bound_alpha4",
    "central_difference_gradient", "descent", "eigenbounds", "errors", "estimate_concavifier_hessian",
    "estimate_concavifier_midpoint", "generate_dataset", "gradient", "initial_weights", "load_dataset",
    "load_trace", "loss", "loss_hessian_matrix", "loss_objective", "midpoint_acceleration", "near_kink",
    "objectives", "power_iteration", "quadratic_objective", "relu", "run_descent", "save_dataset", "save_trace",
    "second_moment_matrix", "tableio", "upper_quadratic_check",
]


# The public functions each module defines: the benchmark's tracer wraps exactly these, so a
# helper that nothing calls cannot join them, nor a traced name vanish, without an edit here.
MODULE_FUNCTIONS = {
    "cli": ["build_spec", "cmd_bounds", "cmd_oracle", "cmd_scale_sweep", "cmd_train", "main", "read_spec_file"],
    "descent": ["load_trace", "run_descent", "save_trace"],
    "eigenbounds": ["power_iteration"],
    "errors": [],
    "objectives": [
        "central_difference_gradient", "estimate_concavifier_hessian", "estimate_concavifier_midpoint",
        "midpoint_acceleration", "quadratic_objective", "upper_quadratic_check",
    ],
    "relu": [
        "allactive_gram_matrix", "alpha_oracle", "alpha_single_point", "bound_alpha1", "bound_alpha2",
        "bound_alpha3", "bound_alpha4", "generate_dataset", "gradient", "initial_weights", "load_dataset", "loss",
        "loss_hessian_matrix", "loss_objective", "near_kink", "save_dataset", "second_moment_matrix",
    ],
    "tableio": ["read_floats", "read_lines", "read_table", "write_table"],
}


def test_public_names_are_pinned():
    assert sorted(stepsafe.__all__) == PUBLIC


def test_module_functions_are_pinned():
    found = {}
    for info in pkgutil.iter_modules(stepsafe.__path__):
        module = importlib.import_module(f"stepsafe.{info.name}")
        found[info.name] = sorted(
            name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
        )
    assert found == MODULE_FUNCTIONS


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
