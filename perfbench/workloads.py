"""Workloads of the pentapack benchmark: inputs, timed body, output checks.

paper-default   `pentapack all` at the published configuration (RunConfig()).
                Every layer runs; verify's stream pass dominates, and
                refinement stops at the failure budget.  The seed is
                ignored: the input is fixed.
verify-refine   `certify.verify_nonpositivity` on a stored paper-default
                tensor at two enlargements E in [1.04, 1.06] drawn from the
                seed (the README's --verify-enlargement exploration).  The stream
                pass finds no positive witness there, so the time goes into
                8-way refinement down to the depth cap.  No sos, sdpa or
                solver code runs, so a change there predicts no change here.

Every function here looks pentapack's functions up through their modules
at call time, so the wrappers the tracer installs are the ones called.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from pentapack import certify, fourier, pipeline
from pentapack.motion import MotionPoint

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "paper_default_tensor.txt"
# certify.tensor_hash of the fixture; a changed file is refused, not measured
FIXTURE_HASH = "bdb4094247d47d58"

BOUND_TOL = 1e-6  # the headline bound may not move by more than this
ORACLE_TOL = 1e-9  # closed-form f at the witness against the reported margin


@dataclass(frozen=True)
class PipelineCase:
    """A full `run_all` at `config`, with the bound it must reproduce."""

    config: pipeline.RunConfig
    bound: float
    certified: bool


@dataclass(frozen=True)
class VerifyCase:
    spec: certify.VerifySpec
    precision_bits: int = 256


# The reference bound was produced by this benchmark at the commit that added
# it (two cores; the same to 1e-6 with one or two OpenBLAS threads).
CASES = {
    "paper-default": PipelineCase(pipeline.RunConfig(), 0.9802881584082651, False),
    "verify-refine": VerifyCase(certify.VerifySpec(alpha_count=9, grid_n=32, max_depth=4)),
}

# Toy sizes with the same code paths, for the smoke test.
_TOY = dict(d=5, alpha_count=3, grid_n=16, verify_alpha_count=3, verify_grid_n=12, verify_max_depth=2)
TOY_CASES = {
    "paper-default": PipelineCase(pipeline.RunConfig(**_TOY), 0.9627340417846155, False),
    "verify-refine": VerifyCase(certify.VerifySpec(alpha_count=3, grid_n=8, max_depth=2)),
}

NAMES = tuple(CASES)


def load_fixture() -> fourier.CoefficientTensor:
    t = fourier.CoefficientTensor.loads(FIXTURE.read_text())
    got = certify.tensor_hash(t)
    if got != FIXTURE_HASH:
        raise ValueError(f"{FIXTURE} has tensor_hash {got}, expected {FIXTURE_HASH}")
    return t


def enlargements(seed: int) -> list[float]:
    """A pair E = 1.05 -/+ 0.01 u, with u in [0, 1) drawn from the seed.

    The verifier's work falls almost linearly in E over [1.04, 1.06], so a
    pair placed symmetrically about the middle does nearly the same total
    work for every seed, while each seed still verifies other bodies.
    """
    u = random.Random(seed).random()
    return [1.05 - 0.01 * u, 1.05 + 0.01 * u]


def prepare(name: str, seed: int, toy: bool = False) -> dict:
    """The inputs of one run; everything here counts as set-up."""
    case = (TOY_CASES if toy else CASES)[name]
    if isinstance(case, PipelineCase):
        return {"case": case}
    return {"case": case, "tensor": load_fixture(), "enlargements": enlargements(seed)}


def level0_boxes(inputs: dict) -> int:
    """Level-0 verification boxes a run visits (alpha slices x grid^2)."""
    case = inputs["case"]
    if isinstance(case, PipelineCase):
        c = case.config
        return c.verify_alpha_count * c.verify_grid_n**2
    return len(inputs["enlargements"]) * case.spec.alpha_count * case.spec.grid_n**2


def run(inputs: dict, outdir: Path):
    """The timed body: the pipeline from sample through bound, or the verify calls."""
    case = inputs["case"]
    if isinstance(case, PipelineCase):
        return pipeline.run_all(case.config, outdir)
    return [
        certify.verify_nonpositivity(inputs["tensor"], e, case.spec, case.precision_bits)
        for e in inputs["enlargements"]
    ]


def _oracle_error(t: fourier.CoefficientTensor, witness, sign_margin: float) -> str | None:
    """Closed-form f at the witness must equal the reported sign margin."""
    if not math.isfinite(sign_margin):
        return f"sign_margin is {sign_margin}"
    f = fourier.evaluate_f(t, MotionPoint(*witness))
    if abs(f - sign_margin) > ORACLE_TOL:
        return f"evaluate_f at witness {tuple(witness)} is {f!r}, sign_margin {sign_margin!r}"
    return None


def _artifact_tensor(outdir: Path) -> fourier.CoefficientTensor:
    text = (outdir / "tensor.txt").read_text()
    return fourier.CoefficientTensor.loads("\n".join(ln for ln in text.splitlines() if not ln.startswith("#")))


def check(inputs: dict, result, outdir: Path) -> list[str]:
    """Output checks of one run; returns the failures (empty when correct)."""
    case = inputs["case"]
    errors: list[str] = []
    if isinstance(case, PipelineCase):
        report = result
        if abs(report.bound - case.bound) > BOUND_TOL:
            errors.append(f"bound {report.bound!r} differs from reference {case.bound!r}")
        if report.certified != case.certified:
            errors.append(f"certified is {report.certified}, expected {case.certified}")
        err = _oracle_error(_artifact_tensor(outdir), report.witness, report.sign_margin)
        if err:
            errors.append(err)
        return errors
    for e, sv in zip(inputs["enlargements"], result):
        if sv.certified_sign and (sv.cert_margin > 0.0 or sv.failures):
            errors.append(f"E={e!r}: certified_sign with cert_margin {sv.cert_margin!r}, {len(sv.failures)} failures")
        err = _oracle_error(inputs["tensor"], sv.witness, sv.sign_margin)
        if err:
            errors.append(f"E={e!r}: {err}")
    return errors
