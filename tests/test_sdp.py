import numpy as np
import pytest

from pentapack.sdp import Block, LinearTerm, SdpProblem


def problem(coeff_x, coeff_d=None, objective_y=None):
    """Blocks X (psd 2), Y (psd 2) and D (diag 2); one row on X and D, objective on Y."""
    blocks = [Block("X", 2), Block("Y", 2), Block("D", 2, "diag")]
    objective = {"Y": np.eye(2) if objective_y is None else objective_y}
    row = {"X": coeff_x, "D": np.ones(2) if coeff_d is None else coeff_d}
    return SdpProblem(blocks, objective, [LinearTerm({"X": np.eye(2)}, 1.0)], [LinearTerm(row, 1.0)])


def test_validate_accepts_a_well_formed_problem():
    problem(np.array([[1.0, 2.0], [2.0, 3.0]])).validate()


def test_validate_refuses_an_asymmetric_matrix_and_names_the_block():
    with pytest.raises(ValueError, match="block X is not symmetric"):
        problem(np.array([[0.0, 1.0], [0.0, 0.0]])).validate()
    with pytest.raises(ValueError, match="block Y is not symmetric"):
        problem(np.eye(2), objective_y=np.array([[1.0, 1e-9], [0.0, 1.0]])).validate()


def test_validate_accepts_asymmetry_within_atol():
    problem(np.array([[0.0, 5e-13], [0.0, 0.0]])).validate()


def test_validate_refuses_nan():
    with pytest.raises(ValueError, match="^coefficient for block X is not finite$"):
        problem(np.array([[np.nan, 0.0], [0.0, 1.0]])).validate()


@pytest.mark.parametrize("where, message", [
    ("eq rhs", r"^right-hand side nan of row eq\[0\] is not finite$"),
    ("ineq rhs", r"^right-hand side -inf of row cap is not finite$"),
    ("diag objective", "^coefficient for block D is not finite$"),
    ("psd coefficient", "^coefficient for block X is not finite$"),
])
def test_validate_refuses_a_non_finite_number_and_names_its_block_or_row(where, message):
    """Each once passed; a NaN right-hand side was exported as `nan`, which `parse_sdpa` refuses."""
    p = problem(np.array([[1.0, np.inf], [np.inf, 1.0]]) if where == "psd coefficient" else np.eye(2))
    if where == "eq rhs":
        p.eq_constraints[0].rhs = np.nan
    if where == "ineq rhs":
        p.ineq_constraints[0] = LinearTerm(p.ineq_constraints[0].coeffs, -np.inf, "cap")
    if where == "diag objective":
        p.objective["D"] = np.array([1.0, np.inf])
    with pytest.raises(ValueError, match=message):
        p.validate()


@pytest.mark.parametrize(
    "coeff_x, coeff_d, kind",
    [(np.eye(3), None, "psd block X"), (np.ones(2), None, "psd block X"), (np.eye(2), np.ones(3), "diag block D")],
)
def test_validate_refuses_a_wrong_shape(coeff_x, coeff_d, kind):
    with pytest.raises(ValueError, match=f"bad coefficient shape for {kind}"):
        problem(coeff_x, coeff_d).validate()


def test_validate_refuses_duplicate_labels_and_unknown_blocks():
    p = problem(np.eye(2))
    p.blocks.append(Block("X", 3))
    with pytest.raises(ValueError, match="duplicate block labels"):
        p.validate()
    p = problem(np.eye(2))
    p.objective["W"] = np.eye(2)
    with pytest.raises(KeyError):
        p.validate()
