import json
from dataclasses import fields

import pytest

from pentapack.cli import main
from pentapack.pipeline import (
    RunConfig,
    run_all,
    step_bound,
    step_generate,
    step_project,
    step_refine,
    step_sample,
    step_solve,
    step_verify,
)

# Small configuration exercising every stage quickly.
TINY = dict(
    d=5,
    alpha_count=3,
    grid_n=16,
    verify_alpha_count=5,
    verify_grid_n=24,
    verify_max_depth=3,
    precision_bits=192,
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    cfg = RunConfig(**TINY)
    outdir = tmp_path_factory.mktemp("all")
    report = run_all(cfg, outdir)
    return cfg, outdir, report


def test_pipeline_produces_report(tiny_run):
    cfg, outdir, report = tiny_run
    assert (outdir / "report.json").exists()
    data = json.loads((outdir / "report.json").read_text().split("\n", 2)[2])
    assert data["bound"] == pytest.approx(report.bound)
    assert 0 < report.bound < 1.2
    assert report.lambda_value == pytest.approx(1.0, abs=1e-6)


def test_stepwise_equals_all_byte_for_byte(tiny_run, tmp_path):
    cfg, outdir, _report = tiny_run
    step_sample(cfg, tmp_path)
    step_generate(cfg, tmp_path)
    step_solve(cfg, tmp_path)
    step_refine(cfg, tmp_path)
    step_project(cfg, tmp_path)
    step_verify(cfg, tmp_path)
    step_bound(cfg, tmp_path)
    for name in ("sample.txt", "problem.dat-s", "tensor.txt", "report.txt", "report.json"):
        assert (tmp_path / name).read_bytes() == (outdir / name).read_bytes(), name


def test_artifacts_reject_config_mismatch(tiny_run, tmp_path):
    cfg, outdir, _report = tiny_run
    other = RunConfig(**{**TINY, "grid_n": 18})
    step_sample(cfg, tmp_path)
    step_generate(cfg, tmp_path)
    step_solve(cfg, tmp_path)
    with pytest.raises(ValueError):
        step_refine(other, tmp_path)


def test_report_refuses_to_certify_unsoundly(tiny_run):
    _cfg, _outdir, report = tiny_run
    if report.certified:
        assert report.invariant_holds()
    else:
        # the invariant clause or the sign pass must genuinely fail
        assert (
            not report.invariant_holds()
            or report.sign_margin + report.lipschitz_bound * report.covering_radius > 0
            or report.min_block_eigenvalue <= report.safety_factor * report.max_constraint_residual
            or report.cert_margin > 0
        )


def test_cli_theta_c5(capsys):
    assert main(["theta", "--graph", "c5"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 2" in out
    assert "2.236" in out


def test_cli_sample_plot_data(tmp_path, capsys):
    rc = main(["sample", "--out", str(tmp_path), "--plot-data"])
    assert rc == 0
    assert (tmp_path / "sample.txt").exists()
    header = (tmp_path / "minkowski_vertices.csv").read_text().splitlines()[2]
    assert header == "alpha,vx,vy"
    assert (tmp_path / "fig1_set.csv").read_text().splitlines()[2] == "x1,x2,alpha"
    assert "452 points" in capsys.readouterr().out


def test_cli_unknown_graph_errors(capsys):
    assert main(["theta", "--graph", "nonsense"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(RunConfig(**TINY).to_json())
    rc = main(["sample", "--config", str(cfgfile), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "sample.txt").exists()


def test_scratch_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PENTAPACK_SCRATCH", str(tmp_path / "scratch"))
    from pentapack.pipeline import default_outdir

    assert default_outdir() == tmp_path / "scratch"


def test_external_file_solver_roundtrip(tiny_run, tmp_path):
    """The external-solver path: export, solve elsewhere, import the file."""
    cfg, outdir, _report = tiny_run
    # reuse the embedded solution file as the "external" solution
    sol_file = outdir / "solve.sol"
    body = sol_file.read_text().split("\n", 2)[2]
    ext = tmp_path / "external.sol"
    ext.write_text(body)
    step_sample(cfg, tmp_path)
    sol = step_solve(cfg, tmp_path, import_path=str(ext))
    meta = json.loads((outdir / "solve.meta.json").read_text().split("\n", 2)[2])
    assert sol.objective == pytest.approx(meta["objective"], abs=1e-9)
    # the same import through the command line
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(cfg.to_json())
    cli_out = tmp_path / "cli"
    rc = main(["solve", "--config", str(cfgfile), "--out", str(cli_out), "--import-solution", str(ext)])
    assert rc == 0
    for name in ("solve.sol", "solve.meta.json"):
        assert (cli_out / name).read_bytes() == (tmp_path / name).read_bytes(), name


# Every RunConfig field at a value other than its default, under its flag.
FLAG_VALUES = {
    "-N": ("N", 4),
    "-d": ("d", 7),
    "--alpha-count": ("alpha_count", 2),
    "--grid-n": ("grid_n", 8),
    "--enlargement": ("enlargement", 1.03),
    "--precision-bits": ("precision_bits", 128),
    "--gap-tol": ("gap_tol", 1e-7),
    "--feas-tol": ("feas_tol", 1e-7),
    "--refine-margin": ("refine_margin", 1e-3),
    "--facet-lines": ("facet_lines", True),
    "--verify-alpha-count": ("verify_alpha_count", 3),
    "--verify-grid-n": ("verify_grid_n", 10),
    "--verify-max-depth": ("verify_max_depth", 2),
    "--verify-enlargement": ("verify_enlargement", 1.05),
    "--safety-factor": ("safety_factor", 10.0),
}


def test_every_config_field_has_its_flag(tmp_path):
    values = dict(FLAG_VALUES.values())
    defaults = {f.name: f.default for f in fields(RunConfig)}
    assert set(values) == set(defaults)
    assert all(values[k] != defaults[k] for k in values)
    argv = ["sample", "--out", str(tmp_path)]
    for flag, (_name, value) in FLAG_VALUES.items():
        argv += [flag] if value is True else [flag, repr(value)]
    assert main(argv) == 0
    config_line = (tmp_path / "sample.txt").read_text().splitlines()[1]
    assert config_line == f"# config {RunConfig(**values).config_hash()}"


def test_config_file_with_unknown_fields_is_refused(tmp_path, capsys):
    """A configuration written before threads, solver and retained_blocks_only were removed."""
    stale = {**json.loads(RunConfig().to_json()), "threads": 1, "solver": "embedded",
             "retained_blocks_only": True}
    text = json.dumps(stale)
    with pytest.raises(ValueError, match=r"unknown RunConfig field\(s\): retained_blocks_only, solver, threads"):
        RunConfig.from_json(text)
    cfgfile = tmp_path / "stale.json"
    cfgfile.write_text(text)
    assert main(["sample", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    assert "unknown RunConfig field(s)" in capsys.readouterr().err
