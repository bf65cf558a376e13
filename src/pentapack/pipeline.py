"""Batch pipeline: sample -> SDP -> solve -> refine -> project -> verify -> bound.

Every step writes plain-text artifacts stamped with a format version and the
configuration hash, so any step can be re-run in isolation and mismatched
inputs are rejected rather than silently combined.  Artifacts carry no
timestamps; identical configurations produce byte-identical files.

The constraint sample is built once per `run_all`, by `step_sample`, and
handed to `step_generate`; Problem A is assembled once, by `step_generate`,
and handed to every later step that needs it.  `run_all` hands each later
result on in memory as well: the refine solution and its feasibility
variant to `step_project`, the tensor to `step_verify`, and the projection,
the tensor and the `SignVerification` to `step_bound`.  Each solution is
handed on as the solver or the projection returns it, and gives the
artifacts that its file would: every psd block is exactly symmetric (each
solver iterate goes through `_sym`, and `project_affine` sets each block to
0.5 (v + v^T)), so its upper triangle holds it all; the writer drops only
zeros, and a signed zero changes no nonzero sum; and the objective and
status that import rewrites reach no artifact (`project_affine` reads only
blocks and y, `feasibility_margin` only blocks).  A step run on its own
(`pentapack generate`, `pentapack solve`, ...) builds the sample and the
problem again and reads its other inputs from the artifacts.  Each step
logs its wall time on the `pentapack.pipeline` logger (`pentapack -v`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .certify import (
    SignVerification,
    VerificationReport,
    VerifySpec,
    build_report,
    project_affine,
    verify_nonpositivity,
)
from .fourier import CoefficientTensor, ModelParams
from .geometry import constraint_sample, minkowski_difference
from .motion import MotionPoint
from .sdp import SdpProblem, SdpSolution
from .sdpa import export_sdpa, export_solution, import_solution
from .sos import assemble_feasibility_variant, assemble_problem_A, recover_tensor
from .solver import solve

FORMAT_VERSION = "pentapack-artifact v1"

log = logging.getLogger("pentapack.pipeline")

# Python type of each RunConfig annotation (a string under postponed evaluation);
# the CLI parses its flags with them and `RunConfig.from_json` checks values against them
FIELD_TYPES = {"bool": bool, "int": int, "float": float, "float | None": float}


def _json_type_matches(annotation: str, value) -> bool:
    """Whether a JSON value fits a field: only a bool field takes a bool; a float field takes any number."""
    if value is None:
        return annotation.endswith("| None")
    kind = FIELD_TYPES[annotation]
    return isinstance(value, bool) == (kind is bool) and isinstance(value, (int, float) if kind is float else kind)


@dataclass(frozen=True)
class RunConfig:
    """Knobs of the full computation; defaults reproduce the published run."""

    N: int = 5
    d: int = 11
    alpha_count: int = 5
    grid_n: int = 50
    enlargement: float = 1.02
    precision_bits: int = 256
    refine_margin: float = 1e-4
    facet_lines: bool = False
    verify_alpha_count: int = 33
    verify_grid_n: int = 128
    verify_max_depth: int = 6
    verify_enlargement: float | None = None

    def __post_init__(self):
        # refuse a bad model or verification setting before any step writes an artifact
        self.params
        self.verify_spec()
        for name, ok, need in (
            ("precision_bits", self.precision_bits >= 53, ">= 53"),  # at 0 bits mp.pi is 4.0
            ("enlargement", 1 <= self.enlargement < math.inf, "finite and >= 1"),  # constraint_sample needs >= 1
            ("verify_enlargement", self.verify_enlargement is None or self.verify_enlargement >= 1, ">= 1"),
            ("verify_enlargement", self.verify_enlargement is None or self.verify_enlargement < math.inf, "finite"),
            ("refine_margin", self.refine_margin >= 0, ">= 0"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {need}, got {getattr(self, name)}")

    def verify_spec(self) -> VerifySpec:
        return VerifySpec(self.verify_alpha_count, self.verify_grid_n, self.verify_max_depth)

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.N, self.d)

    @property
    def effective_verify_enlargement(self) -> float:
        return self.enlargement if self.verify_enlargement is None else self.verify_enlargement

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"RunConfig JSON must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown RunConfig field(s): {', '.join(unknown)}")
        for f in fields(cls):
            if f.name in data and not _json_type_matches(f.type, data[f.name]):
                raise ValueError(f"RunConfig field {f.name} must be {f.type}, got {data[f.name]!r}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def build_sample(cfg: RunConfig) -> list[MotionPoint]:
    """The constraint sample of `cfg`, facet-line points included if it asks for them."""
    return constraint_sample(cfg.alpha_count, cfg.grid_n, cfg.enlargement, cfg.facet_lines)


def build_problem(cfg: RunConfig, sample: list[MotionPoint] | None = None) -> SdpProblem:
    """Problem A on the given constraint sample of `cfg`, or on a new one."""
    problem = assemble_problem_A(cfg.params, build_sample(cfg) if sample is None else sample)
    problem.meta["config"] = cfg.config_hash()
    return problem


def _problem_for(cfg: RunConfig, problem: SdpProblem | None) -> SdpProblem:
    """The given Problem A, refused if built under another configuration, or a new one."""
    if problem is None:
        return build_problem(cfg)
    if problem.meta.get("config") != cfg.config_hash():
        raise ValueError("the given problem was built under a different configuration")
    return problem


# ---------------------------------------------------------------------------
# artifact plumbing


def _header(cfg: RunConfig, kind: str) -> str:
    return f"# {FORMAT_VERSION} {kind}\n# config {cfg.config_hash()}\n"


def _check_header(text: str, cfg: RunConfig, kind: str, path: Path) -> str:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith(f"# {FORMAT_VERSION} {kind}"):
        raise ValueError(f"{path} is not a {kind} artifact")
    if lines[1] != f"# config {cfg.config_hash()}":
        raise ValueError(f"{path} was produced under a different configuration")
    return "\n".join(lines[2:]) + ("\n" if text.endswith("\n") else "")


def _write(path: Path, cfg: RunConfig, kind: str, body: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_header(cfg, kind) + body)


def _read(path: Path, cfg: RunConfig, kind: str) -> str:
    return _check_header(path.read_text(), cfg, kind, path)


def _feasibility_variant(cfg: RunConfig, outdir: Path, problem: SdpProblem) -> SdpProblem:
    """The refine problem: Problem A capped at the objective solve.meta.json records."""
    meta = json.loads(_read(outdir / "solve.meta.json", cfg, "solve-meta"))
    return assemble_feasibility_variant(problem, meta["objective"], margin=cfg.refine_margin)


def _read_verification(cfg: RunConfig, path: Path) -> SignVerification:
    """The `SignVerification` of a verify.json; one with other keys than this version writes is refused."""
    data = json.loads(_read(path, cfg, "verify"))
    names = {f.name for f in fields(SignVerification)}
    unknown, missing = sorted(set(data) - names), sorted(names - set(data))
    if unknown or missing:
        raise ValueError(
            f"{path} is not what this version's verify writes (unknown keys: {', '.join(unknown) or 'none'}; "
            f"missing keys: {', '.join(missing) or 'none'}); re-run `pentapack verify`"
        )
    return SignVerification(**data)


def _timed(step):
    """Log the wall time of each call of a pipeline step."""
    name = step.__name__.removeprefix("step_")

    @functools.wraps(step)
    def run(*args, **kwargs):
        started = time.perf_counter()
        out = step(*args, **kwargs)
        log.info("%s: %.2f s", name, time.perf_counter() - started)
        return out

    return run


@_timed
def step_sample(cfg: RunConfig, outdir: Path, plot_data: bool = False) -> list[MotionPoint]:
    pts = build_sample(cfg)
    body = "\n".join(f"{p.rho!r} {p.theta!r} {p.alpha!r}" for p in pts) + "\n"
    _write(outdir / "sample.txt", cfg, "constraint-sample", body)
    if plot_data:
        verts = [
            (alpha, repr(float(vx)), repr(float(vy)))
            for alpha in map(float, np.linspace(-2.0 * math.pi / 10.0, 2.0 * math.pi / 10.0, 33))
            for vx, vy in minkowski_difference(alpha, 1.0).vertices
        ]
        rows = ["alpha,vx,vy"] + [f"{alpha!r},{vx},{vy}" for alpha, vx, vy in verts]
        _write(outdir / "minkowski_vertices.csv", cfg, "plot-minkowski", "\n".join(rows) + "\n")
        rows = ["x1,x2,alpha"] + [f"{vx},{vy},{alpha!r}" for alpha, vx, vy in verts]
        _write(outdir / "fig1_set.csv", cfg, "plot-3dset", "\n".join(rows) + "\n")
    return pts


@_timed
def step_generate(cfg: RunConfig, outdir: Path, *, sample: list[MotionPoint] | None = None) -> SdpProblem:
    problem = build_problem(cfg, sample)
    _write(outdir / "problem.dat-s", cfg, "sdpa-problem", export_sdpa(problem))
    manifest = "\n".join(problem.meta["manifest"]) + "\n"
    _write(outdir / "problem.manifest.txt", cfg, "problem-manifest", manifest)
    return problem


@_timed
def step_solve(
    cfg: RunConfig, outdir: Path, import_path: str | None = None, *, problem: SdpProblem | None = None
):
    problem = _problem_for(cfg, problem)
    if import_path is not None:
        sol = import_solution(Path(import_path).read_text(), problem)
    else:
        sol = solve(problem)
        if not sol.is_usable():
            raise RuntimeError(f"solve failed with status {sol.status}")
    _write(outdir / "solve.sol", cfg, "solution", export_solution(sol, problem))
    meta = {
        "objective": sol.objective,
        "status": sol.status,
        "gap": sol.gap,
        "iterations": sol.iterations,
        "stop_reason": sol.stop_reason,
    }
    _write(outdir / "solve.meta.json", cfg, "solve-meta", json.dumps(meta, indent=2) + "\n")
    return sol


@_timed
def step_refine(
    cfg: RunConfig, outdir: Path, *, problem: SdpProblem | None = None
) -> tuple[SdpSolution, SdpProblem]:
    """The feasibility re-solve's solution and the variant of Problem A it solved."""
    problem = _problem_for(cfg, problem)
    variant = _feasibility_variant(cfg, outdir, problem)
    sol = solve(variant, gap_tol=1e-7, feas_tol=1e-9, mehrotra=False)
    if not sol.is_usable():
        raise RuntimeError(f"feasibility re-solve failed with status {sol.status}")
    _write(outdir / "refine.sol", cfg, "solution", export_solution(sol, variant))
    rmeta = {
        "status": sol.status,
        "iterations": sol.iterations,
        "stop_reason": sol.stop_reason,
        "cap": variant.meta["cap"],
    }
    _write(outdir / "refine.meta.json", cfg, "refine-meta", json.dumps(rmeta, indent=2) + "\n")
    return sol, variant


@_timed
def step_project(
    cfg: RunConfig, outdir: Path, *, problem: SdpProblem | None = None,
    refined: tuple[SdpSolution, SdpProblem] | None = None,
):
    """(projection as projected.sol holds it, tensor, info) from `refined`, `step_refine`'s
    (solution, variant), or else from refine.sol."""
    source = outdir / "refine.sol"
    if refined is None and not source.exists():
        raise FileNotFoundError(f"{source} is missing; run refine first")
    problem = _problem_for(cfg, problem)
    if refined is None:
        variant = _feasibility_variant(cfg, outdir, problem)
        sol = import_solution(_read(source, cfg, "solution"), variant)
    else:
        sol, variant = refined
    projected, info = project_affine(sol, problem)
    _write(outdir / "projected.sol", cfg, "solution", export_solution(projected, variant))
    _write(outdir / "projected.meta.json", cfg, "project-meta", json.dumps(info, indent=2) + "\n")
    tensor = recover_tensor(projected, cfg.params)
    _write(outdir / "tensor.txt", cfg, "tensor", tensor.dumps())
    return projected, tensor, info


@_timed
def step_verify(cfg: RunConfig, outdir: Path, *, tensor: CoefficientTensor | None = None) -> SignVerification:
    """The sign verification of `tensor`, or else of tensor.txt."""
    tensor = CoefficientTensor.loads(_read(outdir / "tensor.txt", cfg, "tensor")) if tensor is None else tensor
    verification = verify_nonpositivity(tensor, cfg.effective_verify_enlargement, cfg.verify_spec(), cfg.precision_bits)
    body = json.dumps(asdict(verification), indent=2) + "\n"
    _write(outdir / "verify.json", cfg, "verify", body)
    return verification


@_timed
def step_bound(
    cfg: RunConfig, outdir: Path, *, problem: SdpProblem | None = None, projected: SdpSolution | None = None,
    tensor: CoefficientTensor | None = None, verification: SignVerification | None = None,
) -> VerificationReport:
    """The report on `projected`, `tensor` and `verification` as `step_project` and `step_verify`
    return them; each one not given is read from its artifact."""
    problem = _problem_for(cfg, problem)
    if projected is None:
        variant = _feasibility_variant(cfg, outdir, problem)
        projected = import_solution(_read(outdir / "projected.sol", cfg, "solution"), variant)
    if tensor is None:
        tensor = CoefficientTensor.loads(_read(outdir / "tensor.txt", cfg, "tensor"))
    if verification is None:
        verification = _read_verification(cfg, outdir / "verify.json")
    report = build_report(tensor, projected, problem, verification)
    _write(outdir / "report.txt", cfg, "report", report.to_text())
    _write(outdir / "report.json", cfg, "report-json", report.to_json())
    return report


def run_all(cfg: RunConfig, outdir: Path | str, plot_data: bool = False) -> VerificationReport:
    outdir = Path(outdir)
    sample = step_sample(cfg, outdir, plot_data=plot_data)
    problem = step_generate(cfg, outdir, sample=sample)
    step_solve(cfg, outdir, problem=problem)
    refined = step_refine(cfg, outdir, problem=problem)
    projected, tensor, _ = step_project(cfg, outdir, problem=problem, refined=refined)
    verification = step_verify(cfg, outdir, tensor=tensor)
    return step_bound(cfg, outdir, problem=problem, projected=projected, tensor=tensor, verification=verification)


def default_outdir() -> Path:
    return Path(os.environ.get("PENTAPACK_SCRATCH", "out"))
