"""Command-line driver for the pentagon packing bound pipeline."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import theta as theta_mod
from .pipeline import (
    FIELD_TYPES,
    RunConfig,
    default_outdir,
    run_all,
    step_bound,
    step_generate,
    step_project,
    step_refine,
    step_sample,
    step_solve,
    step_verify,
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config, --out, and one flag per RunConfig field: -N, -d, --kebab-case."""
    p.add_argument("--config", help="JSON file with RunConfig fields")
    p.add_argument("--out", help="output directory (default $PENTAPACK_SCRATCH or ./out)")
    for f in fields(RunConfig):
        flag = f"-{f.name}" if len(f.name) == 1 else "--" + f.name.replace("_", "-")
        if f.type == "bool":
            p.add_argument(flag, action="store_const", const=True, dest=f.name)
        else:
            p.add_argument(flag, type=FIELD_TYPES[f.type], dest=f.name)


def _config_from_args(args) -> tuple[RunConfig, Path]:
    if args.config:
        cfg = RunConfig.from_json(Path(args.config).read_text())
    else:
        cfg = RunConfig()
    overrides = {}
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    cfg = replace(cfg, **overrides)
    outdir = Path(args.out) if args.out else default_outdir()
    return cfg, outdir


def _print_report(report) -> None:
    print(f"bound: {report.bound:.6f}  (enlargement {report.enlargement})")
    print(f"sign margin: {report.sign_margin:.3e}   min eigenvalue: {report.min_block_eigenvalue:.3e}")
    print(f"max residual: {report.max_constraint_residual:.3e}")
    if report.certified:
        print("certified: yes")
    else:
        print("certified: NO — the report invariants do not hold; see report.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pentapack",
        description="Upper bounds for the packing density of regular pentagons",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="emit the constraint sample")
    p_sample.add_argument("--plot-data", action="store_true", help="also emit Minkowski plot CSVs")
    p_generate = sub.add_parser("generate", help="emit the SDPA problem and manifest")
    p_solve = sub.add_parser("solve", help="solve the program (embedded or imported)")
    p_solve.add_argument("--import-solution", help="import an external solver's solution file")
    p_refine = sub.add_parser("refine", help="feasibility re-solve with capped objective")
    p_project = sub.add_parser("project", help="project the solution onto the equality constraints")
    p_verify = sub.add_parser("verify", help="high-precision sign verification")
    p_bound = sub.add_parser("bound", help="assemble the verification report and bound")
    p_all = sub.add_parser("all", help="run the full pipeline")
    p_all.add_argument("--plot-data", action="store_true")
    p_theta = sub.add_parser("theta", help="finite-graph independence bounds")
    p_theta.add_argument("--graph", help="named graph: c5, petersen, k<N>, empty<N>, cycle<N>")
    p_theta.add_argument("--graph-file", help="adjacency-list or DIMACS-like edge file")

    for p in (p_sample, p_generate, p_solve, p_refine, p_project, p_verify, p_bound, p_all):
        _add_config_flags(p)

    args = parser.parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(name)s: %(message)s")
    try:
        if args.command == "theta":
            g = _resolve_graph(args)
            bound = theta_mod.theta_prime_bound(g)
            line = f"theta-prime bound: {bound:.6f}"
            if g.n <= 30:
                line = f"alpha = {theta_mod.brute_force_alpha(g)}   " + line
            print(line)
            return 0
        cfg, outdir = _config_from_args(args)
        if args.command == "sample":
            n = len(step_sample(cfg, outdir, plot_data=args.plot_data))
            print(f"sample: {n} points -> {outdir / 'sample.txt'}")
        elif args.command == "generate":
            problem = step_generate(cfg, outdir)
            print(
                f"problem: {len(problem.eq_constraints)} equalities, "
                f"{len(problem.ineq_constraints)} inequalities -> {outdir / 'problem.dat-s'}"
            )
        elif args.command == "solve":
            sol = step_solve(cfg, outdir, import_path=args.import_solution)
            print(f"solve: status={sol.status} objective={sol.objective:.9f}")
        elif args.command == "refine":
            sol, _ = step_refine(cfg, outdir)
            print(f"refine: status={sol.status} iterations={sol.iterations}")
        elif args.command == "project":
            _, _, info = step_project(cfg, outdir)
            print(
                f"project: displacement={info['displacement']:.3e} "
                f"residual {info['pre_residual']:.2e} -> {info['post_residual']:.2e}"
            )
        elif args.command == "verify":
            v = step_verify(cfg, outdir)
            print(
                f"verify: sign_margin={v.sign_margin:.3e} certified_sign={v.certified_sign} "
                f"stream={v.stream_points} evaluations={v.evaluations}"
            )
        elif args.command == "bound":
            report = step_bound(cfg, outdir)
            _print_report(report)
        elif args.command == "all":
            report = run_all(cfg, outdir, plot_data=args.plot_data)
            _print_report(report)
    except Exception as e:  # noqa: BLE001 - the CLI surfaces module errors
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def _resolve_graph(args) -> theta_mod.FiniteGraph:
    if args.graph_file:
        return theta_mod.parse_graph(Path(args.graph_file).read_text())
    name = (args.graph or "").lower()
    if not name:
        raise ValueError("theta needs --graph or --graph-file")
    if name == "c5":
        return theta_mod.cycle_graph(5)
    if name == "petersen":
        return theta_mod.petersen_graph()
    if name.startswith("cycle"):
        return theta_mod.cycle_graph(int(name[5:]))
    if name.startswith("k") and name[1:].isdigit():
        return theta_mod.complete_graph(int(name[1:]))
    if name.startswith("empty"):
        return theta_mod.empty_graph(int(name[5:]))
    raise ValueError(f"unknown graph name {name!r}")


if __name__ == "__main__":
    sys.exit(main())
