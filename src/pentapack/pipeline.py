"""Batch pipeline: sample -> SDP -> solve -> refine -> project -> verify -> bound.

Every step writes plain-text artifacts stamped with a format version and the
configuration hash, so any step can be re-run in isolation and mismatched
inputs are rejected rather than silently combined.  Artifacts carry no
timestamps; identical configurations produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
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
from .geometry import (
    SamplePoint,
    constraint_sample,
    minkowski_difference,
    _closest_facet_pair,
)
from .sdpa import export_sdpa, export_solution, import_solution
from .sos import assemble_feasibility_variant, assemble_problem_A, recover_tensor
from .solver import solve

FORMAT_VERSION = "pentapack-artifact v1"


@dataclass(frozen=True)
class RunConfig:
    """Knobs of the full computation; defaults reproduce the published run."""

    N: int = 5
    d: int = 11
    alpha_count: int = 5
    grid_n: int = 50
    enlargement: float = 1.02
    precision_bits: int = 256
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    refine_margin: float = 1e-4
    facet_lines: bool = False
    verify_alpha_count: int = 33
    verify_grid_n: int = 128
    verify_max_depth: int = 6
    verify_enlargement: float | None = None
    safety_factor: float = 1e3

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
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown RunConfig field(s): {', '.join(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"


def build_sample(cfg: RunConfig) -> list[SamplePoint]:
    """The constraint sample, optionally enriched with facet-line points.

    The facet-line points pin the function along the supporting lines of the
    two chosen facets (where the grid-only sample leaves positive slivers);
    they raise the optimal value, trading bound quality for a verifiable
    sign condition.
    """
    pts = constraint_sample(cfg.alpha_count, cfg.grid_n, cfg.enlargement)
    if not cfg.facet_lines:
        return pts
    alphas = np.linspace(-2.0 * math.pi / 10.0, 0.0, cfg.alpha_count)
    step = 2.0 / cfg.grid_n
    extra: list[SamplePoint] = []
    for alpha in alphas:
        alpha = float(alpha)
        facets = _closest_facet_pair(minkowski_difference(alpha, cfg.enlargement))
        for n, c in facets:
            reach = math.sqrt(max(0.0, 1.0 - c * c))
            for tv in np.arange(-reach, reach + 1e-12, step):
                x = c * n[0] - tv * n[1]
                y = c * n[1] + tv * n[0]
                rho = math.hypot(x, y)
                if rho > 1.0 + 1e-12:
                    continue
                theta = math.atan2(y, x) if rho > 0 else 0.0
                extra.append(
                    SamplePoint(rho, theta % (2 * math.pi), alpha % (2 * math.pi), "constraint")
                )
    return pts + extra


def build_problem(cfg: RunConfig):
    return assemble_problem_A(cfg.params, build_sample(cfg))


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


def step_sample(cfg: RunConfig, outdir: Path, plot_data: bool = False) -> int:
    pts = build_sample(cfg)
    body = "\n".join(f"{p.rho!r} {p.theta!r} {p.alpha!r}" for p in pts) + "\n"
    _write(outdir / "sample.txt", cfg, "constraint-sample", body)
    if plot_data:
        alphas = [float(a) for a in np.linspace(-2.0 * math.pi / 10.0, 2.0 * math.pi / 10.0, 33)]
        rows = ["alpha,vx,vy"]
        for alpha in alphas:
            for vx, vy in minkowski_difference(alpha, 1.0).vertices:
                rows.append(f"{alpha!r},{float(vx)!r},{float(vy)!r}")
        _write(outdir / "minkowski_vertices.csv", cfg, "plot-minkowski", "\n".join(rows) + "\n")
        rows = ["x1,x2,alpha"]
        for alpha in alphas:
            for vx, vy in minkowski_difference(alpha, 1.0).vertices:
                rows.append(f"{float(vx)!r},{float(vy)!r},{alpha!r}")
        _write(outdir / "fig1_set.csv", cfg, "plot-3dset", "\n".join(rows) + "\n")
    return len(pts)


def step_generate(cfg: RunConfig, outdir: Path):
    problem = build_problem(cfg)
    _write(outdir / "problem.dat-s", cfg, "sdpa-problem", export_sdpa(problem))
    manifest = "\n".join(problem.meta["manifest"]) + "\n"
    _write(outdir / "problem.manifest.txt", cfg, "problem-manifest", manifest)
    return problem


def step_solve(cfg: RunConfig, outdir: Path, import_path: str | None = None):
    problem = build_problem(cfg)
    if import_path is not None:
        sol = import_solution(Path(import_path).read_text(), problem)
        sol.objective = problem.value(problem.objective, sol.blocks)
    else:
        sol = solve(problem, gap_tol=cfg.gap_tol, feas_tol=cfg.feas_tol)
        if not sol.is_usable():
            raise RuntimeError(f"solve failed with status {sol.status}")
    _write(outdir / "solve.sol", cfg, "solution", export_solution(sol, problem))
    meta = {
        "objective": sol.objective,
        "status": sol.status,
        "gap": sol.gap,
        "iterations": sol.iterations,
    }
    _write(outdir / "solve.meta.json", cfg, "solve-meta", json.dumps(meta, indent=2) + "\n")
    return sol


def step_refine(cfg: RunConfig, outdir: Path):
    problem = build_problem(cfg)
    meta = json.loads(_read(outdir / "solve.meta.json", cfg, "solve-meta"))
    variant = assemble_feasibility_variant(problem, meta["objective"], margin=cfg.refine_margin)
    sol = solve(
        variant,
        gap_tol=1e-7,
        feas_tol=1e-9,
        mehrotra=False,
        sigma_fixed=0.3,
    )
    if not sol.is_usable():
        raise RuntimeError(f"feasibility re-solve failed with status {sol.status}")
    _write(outdir / "refine.sol", cfg, "solution", export_solution(sol, variant))
    rmeta = {"status": sol.status, "iterations": sol.iterations, "cap": variant.meta["cap"]}
    _write(outdir / "refine.meta.json", cfg, "refine-meta", json.dumps(rmeta, indent=2) + "\n")
    return sol


def step_project(cfg: RunConfig, outdir: Path):
    problem = build_problem(cfg)
    variant = assemble_feasibility_variant(
        problem,
        json.loads(_read(outdir / "solve.meta.json", cfg, "solve-meta"))["objective"],
        margin=cfg.refine_margin,
    )
    source = outdir / "refine.sol"
    if not source.exists():
        source = outdir / "solve.sol"
        sol = import_solution(_read(source, cfg, "solution"), problem)
    else:
        sol = import_solution(_read(source, cfg, "solution"), variant)
    projected, info = project_affine(sol, problem)
    _write(outdir / "projected.sol", cfg, "solution", export_solution(projected, variant))
    _write(outdir / "projected.meta.json", cfg, "project-meta", json.dumps(info, indent=2) + "\n")
    tensor = recover_tensor(projected, cfg.params)
    _write(outdir / "tensor.txt", cfg, "tensor", tensor.dumps())
    return projected, tensor, info


def step_verify(cfg: RunConfig, outdir: Path) -> SignVerification:
    t = CoefficientTensor.loads(_read(outdir / "tensor.txt", cfg, "tensor"))
    spec = VerifySpec(
        alpha_count=cfg.verify_alpha_count,
        grid_n=cfg.verify_grid_n,
        max_depth=cfg.verify_max_depth,
    )
    verification = verify_nonpositivity(t, cfg.effective_verify_enlargement, spec, cfg.precision_bits)
    body = json.dumps(asdict(verification), indent=2) + "\n"
    _write(outdir / "verify.json", cfg, "verify", body)
    return verification


def step_bound(cfg: RunConfig, outdir: Path) -> VerificationReport:
    problem = build_problem(cfg)
    variant = assemble_feasibility_variant(
        problem,
        json.loads(_read(outdir / "solve.meta.json", cfg, "solve-meta"))["objective"],
        margin=cfg.refine_margin,
    )
    projected = import_solution(_read(outdir / "projected.sol", cfg, "solution"), variant)
    tensor = CoefficientTensor.loads(_read(outdir / "tensor.txt", cfg, "tensor"))
    verification = SignVerification(**json.loads(_read(outdir / "verify.json", cfg, "verify")))
    report = build_report(
        tensor, projected, problem, verification, safety_factor=cfg.safety_factor
    )
    _write(outdir / "report.txt", cfg, "report", report.to_text())
    _write(outdir / "report.json", cfg, "report-json", report.to_json())
    return report


def run_all(cfg: RunConfig, outdir: Path, plot_data: bool = False) -> VerificationReport:
    step_sample(cfg, outdir, plot_data=plot_data)
    step_generate(cfg, outdir)
    step_solve(cfg, outdir)
    step_refine(cfg, outdir)
    step_project(cfg, outdir)
    step_verify(cfg, outdir)
    return step_bound(cfg, outdir)


def default_outdir() -> Path:
    return Path(os.environ.get("PENTAPACK_SCRATCH", "out"))
