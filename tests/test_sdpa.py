import re
from dataclasses import replace

import numpy as np
import pytest

from oracles import entry_lines_per_line
from pentapack.pipeline import RunConfig, build_problem
from pentapack.sdp import Block, LinearTerm, SdpProblem, standard_form
from pentapack.sdpa import (
    DimensionMismatchError,
    MalformedFileError,
    _entry_lines,
    export_sdpa,
    export_solution,
    import_solution,
    parse_sdpa,
)
from pentapack.solver import solve
from pentapack.sos import assemble_feasibility_variant


def mixed_problem():
    rng = np.random.default_rng(60)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    return SdpProblem(
        [Block("X", 4, "psd"), Block("u", 2, "diag")],
        {"X": A, "u": np.array([0.3, -0.1])},
        [LinearTerm({"X": np.eye(4), "u": np.array([1.0, 0.0])}, 5.0)],
        [LinearTerm({"X": np.diag([1.0, 0, 0, 0]), "u": np.array([0.0, 1.0])}, 2.0)],
    )


def test_empty_problem_header_only():
    p = SdpProblem([Block("X", 2, "psd")], {}, [LinearTerm({"X": np.eye(2)}, 1.0)], [])
    text = export_sdpa(p)
    lines = [ln for ln in text.splitlines() if not ln.startswith('"')]
    assert lines[0] == "1"
    assert lines[1] == "1"


def test_roundtrip_byte_identical():
    p = mixed_problem()
    once = export_sdpa(p)
    twice = export_sdpa(parse_sdpa(once))
    assert once == twice


def test_parse_preserves_semantics():
    p = mixed_problem()
    q = parse_sdpa(export_sdpa(p))
    s1, s2 = solve(p), solve(q)
    assert s1.objective == pytest.approx(s2.objective, abs=1e-9)


def test_parse_rejects_malformed():
    with pytest.raises(MalformedFileError):
        parse_sdpa("2\n")
    with pytest.raises(MalformedFileError):
        parse_sdpa("1\n1\n2\n0.0\n1 1 5 5 1.0\n")  # index out of range


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf"])
def test_parse_rejects_bad_numbers(bad):
    """A non-numeric or non-finite field is refused, naming its line."""
    text = export_sdpa(mixed_problem())
    lines = text.splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.startswith("1 "))
    lines[n] = " ".join(lines[n].split()[:4] + [bad])
    with pytest.raises(MalformedFileError, match=re.escape(repr(lines[n]))):
        parse_sdpa("\n".join(lines) + "\n")
    lines = text.splitlines()
    lines[4] = " ".join([bad] + lines[4].split()[1:])  # the right-hand side
    with pytest.raises(MalformedFileError):
        parse_sdpa("\n".join(lines) + "\n")


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf"])
def test_import_solution_rejects_bad_numbers(bad):
    """A non-numeric or non-finite field is refused, naming its line."""
    p = mixed_problem()
    lines = export_solution(solve(p), p).splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.startswith("2 "))
    lines[n] = " ".join(lines[n].split()[:4] + [bad])
    with pytest.raises(MalformedFileError, match=re.escape(repr(lines[n]))):
        import_solution("\n".join(lines) + "\n", p)
    lines = export_solution(solve(p), p).splitlines()
    lines[1] = " ".join([bad] + lines[1].split()[1:])  # the dual vector
    with pytest.raises(MalformedFileError):
        import_solution("\n".join(lines) + "\n", p)


def _move_off_diagonal(text: str, matnos: tuple) -> str:
    """`text` with its first entry of diagonal block 2 in a matrix of `matnos` moved to (1, 2)."""
    lines = text.splitlines()
    n = next(i for i, ln in enumerate(lines) if ln.split()[:2] in ([m, "2"] for m in matnos))
    lines[n] = " ".join(lines[n].split()[:2] + ["1", "2"] + lines[n].split()[4:])
    return "\n".join(lines) + "\n"


def test_off_diagonal_entry_in_diagonal_block_is_refused():
    p = mixed_problem()
    with pytest.raises(MalformedFileError, match="off-diagonal entry in diagonal block"):
        parse_sdpa(_move_off_diagonal(export_sdpa(p), ("0", "1")))
    with pytest.raises(MalformedFileError, match="off-diagonal entry in diagonal block"):
        import_solution(_move_off_diagonal(export_solution(solve(p), p), ("1", "2")), p)


def test_solution_roundtrip():
    p = mixed_problem()
    sol = solve(p)
    text = export_solution(sol, p)
    back = import_solution(text, p)
    for lab in sol.blocks:
        assert np.abs(back.blocks[lab] - sol.blocks[lab]).max() < 1e-12
    assert back.objective == pytest.approx(sol.objective, abs=1e-12)
    assert np.array_equal(back.y, sol.y)


def test_import_solution_keeps_each_entry_exactly():
    """1e308 once read back as inf, through a symmetrizing (M + M^T)/2; a later line for a pair wins."""
    p = SdpProblem([Block("X", 2, "psd")], {}, [LinearTerm({"X": np.eye(2)}, 1.0)], [])
    text = '"pentapack solution v1\n0.0\n2 1 1 1 1e308\n2 1 1 2 1.0\n2 1 2 1 3.0\n"end\n'
    assert np.array_equal(import_solution(text, p).blocks["X"], [[1e308, 3.0], [3.0, 0.0]])


def test_imported_objective_matches_reported():
    p = mixed_problem()
    sol = solve(p)
    back = import_solution(export_solution(sol, p), p)
    assert back.objective == pytest.approx(sol.objective, abs=1e-7)


def test_truncated_solution_rejected():
    p = mixed_problem()
    sol = solve(p)
    text = export_solution(sol, p)
    for cut in (10, len(text) // 2, len(text) - 3):
        with pytest.raises(MalformedFileError):
            import_solution(text[:cut], p)


def test_dimension_mismatch_detected():
    p = mixed_problem()
    sol = solve(p)
    text = export_solution(sol, p)
    other = SdpProblem(
        [Block("X", 3, "psd")], {"X": np.eye(3)}, [LinearTerm({"X": np.eye(3)}, 1.0)], []
    )
    with pytest.raises((DimensionMismatchError, MalformedFileError)):
        import_solution(text, other)


def test_golden_pair_pins_the_format():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent / "docs" / "examples"
    problem = parse_sdpa(root.joinpath("golden.dat-s").read_text())
    sol = import_solution(root.joinpath("golden.sol").read_text(), problem)
    assert sol.objective == pytest.approx(0.5138593383699885, abs=1e-9)
    fresh = solve(problem, gap_tol=1e-10, feas_tol=1e-10)
    assert fresh.objective == pytest.approx(sol.objective, abs=1e-8)
    # and the exported text is reproduced byte for byte
    assert export_sdpa(problem) == root.joinpath("golden.dat-s").read_text()


def test_problem_A_export_parses_cleanly():
    from pentapack.fourier import ModelParams
    from pentapack.geometry import constraint_sample
    from pentapack.sos import assemble_problem_A

    problem = assemble_problem_A(ModelParams(5, 5), constraint_sample(3, 16, 1.02))
    text = export_sdpa(problem)
    q = parse_sdpa(text)
    assert export_sdpa(q) == text
    # block structure survives: PSD dims then the slack diagonal block
    dims = [b.dim if b.kind == "psd" else -b.dim for b in q.blocks]
    assert dims[:8] == [3, 6, 3, 6, 18, 6, 18, 6]
    assert dims[-1] == -len(problem.ineq_constraints)


def test_entry_lines_match_one_repr_per_line():
    """Repeated values, +/- pairs and the extremes 5e-324 and 1e308, over psd and diag blocks."""
    values = [0.1, -0.1, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, 0.1, 2.0**-1074 * 3, -1.0 / 3.0]
    rng = np.random.default_rng(29)
    blocks = [Block("X", 4, "psd"), Block("u", 3, "diag"), Block("Y", 2, "psd")]
    mats = []
    for n in range(6):
        X = rng.choice(values + [0.0] * 4, size=(4, 4))
        mats.append({"X": np.triu(X) + np.triu(X, 1).T, "u": rng.choice(values + [0.0], size=3)})
    mats[2] = None
    del mats[3]["X"]
    mats[4]["Y"] = np.array([[1e308, -5e-324], [-5e-324, 0.1]])
    for first in (0, 1):
        lines = _entry_lines(blocks, mats, first)
        assert lines == entry_lines_per_line(blocks, mats, first)
        assert len(set(ln.split()[-1] for ln in lines)) < len(lines)  # values repeat


def test_exported_solution_matches_one_repr_per_line():
    p = mixed_problem()
    sol = solve(p)
    blocks, _, _ = standard_form(p)
    # repeated values, and -/+ pairs against the primal blocks
    sol = replace(sol, blocks={**sol.blocks, "X": sol.blocks["X"].round(3)},
                  dual_blocks={k: -v for k, v in sol.blocks.items()})
    lines = export_solution(sol, p).splitlines()
    assert lines[2:-1] == entry_lines_per_line(blocks, [sol.dual_blocks, sol.blocks], first=1)


@pytest.mark.parametrize("facet_lines", [False, True])
def test_exported_problem_A_matches_one_repr_per_line(facet_lines):
    """Problem A at the published size and its feasibility variant, with and without the facet lines."""
    problem = build_problem(RunConfig(facet_lines=facet_lines))
    for p in (problem, assemble_feasibility_variant(problem, -0.25, 1e-4)):
        blocks, objective, eqs = standard_form(p)
        negated = {lab: -np.asarray(c, dtype=float) for lab, c in objective.items()}
        want = entry_lines_per_line(blocks, [negated] + [t.coeffs for t in eqs])
        assert len(want) > 80_000 and export_sdpa(p).splitlines()[5:] == want
