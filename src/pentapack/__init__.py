"""Certified upper bounds for the packing density of regular pentagons."""

from .fourier import CoefficientTensor, ModelParams, evaluate_f, lambda_of
from .geometry import ConvexPolygon, constraint_sample, minkowski_difference, pentagon
from .motion import MotionPoint
from .pipeline import RunConfig, run_all
from .sdp import Block, LinearTerm, SdpProblem, SdpSolution
from .solver import solve
from .sos import assemble_feasibility_variant, assemble_problem_A, recover_tensor
from .certify import final_bound, project_affine, verify_nonpositivity

__all__ = [
    "Block",
    "CoefficientTensor",
    "ConvexPolygon",
    "LinearTerm",
    "ModelParams",
    "MotionPoint",
    "RunConfig",
    "SdpProblem",
    "SdpSolution",
    "assemble_feasibility_variant",
    "assemble_problem_A",
    "constraint_sample",
    "evaluate_f",
    "final_bound",
    "lambda_of",
    "minkowski_difference",
    "pentagon",
    "project_affine",
    "recover_tensor",
    "run_all",
    "solve",
    "verify_nonpositivity",
]

__version__ = "0.1.0"
