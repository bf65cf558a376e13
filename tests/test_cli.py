import hashlib
import json
import logging
import shutil
from dataclasses import fields

import pytest

from pentapack import pipeline
from pentapack.cli import main
from pentapack.pipeline import (
    RunConfig,
    build_problem,
    run_all,
    step_bound,
    step_generate,
    step_project,
    step_refine,
    step_sample,
    step_solve,
    step_verify,
)
from pentapack.sdpa import import_solution

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


# Every artifact `run_all` writes without --plot-data.
ARTIFACTS = (
    "sample.txt",
    "problem.dat-s",
    "problem.manifest.txt",
    "solve.sol",
    "solve.meta.json",
    "refine.sol",
    "refine.meta.json",
    "projected.sol",
    "projected.meta.json",
    "tensor.txt",
    "verify.json",
    "report.txt",
    "report.json",
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


def test_margins_golden_bits(tiny_run):
    """Both feasibility margins at TINY, as float.hex, recorded from the all-mp computation."""
    _cfg, _outdir, report = tiny_run
    assert float.hex(report.min_block_eigenvalue) == "0x1.37d1feebfab4ap-17"
    assert float.hex(report.max_constraint_residual) == "0x1.3ef36926ca6d3p-53"


# sha256 of every TINY artifact, recorded with 2 OpenBLAS threads like the margins above.
GOLDEN_SHA256 = {
    "sample.txt": "2e434cd30066e813a901461d0df061ea2f474164a3310cd32f5c655c0fd407ef",
    "problem.dat-s": "96e712b1845f90db72d09ddf1d72de84c174b4de374ad49545bcf2ec6e6b4af1",
    "problem.manifest.txt": "cbd8140300246f630855b58c667cfc9ebe5ce9d8444fc651ae165652673c064e",
    "solve.sol": "ef03607d29da8f2ed2305d87a1abd043c4611e64332b4bb6375e2431b29c5980",
    "solve.meta.json": "0f37323f999292b4d12812e5c51ee10ffb6497d0c76fc90b934abc9016f3bb82",
    "refine.sol": "44fc81115c658e823a90ea31fb02beffcd75140f02d4756809e63f1ab325072d",
    "refine.meta.json": "ceeafedb16453577ead2880b48471807c52a940eb4562409008bff9f85e99f34",
    "projected.sol": "daec206176c22fa2ebd15a3317c3595544e216ea30573eb9ca4bad98030b4e56",
    "projected.meta.json": "12fdc558651bb67d526ee23be5693f14328b64eca22396a3c141b401e5f2fcb6",
    "tensor.txt": "36495537f046588df5fa3446f52ea9a9c76c5b1b776ea1116252d32ec34c48b9",
    "verify.json": "4068ad9bff5f11e8b49dcb0fda98a23573aaecfee006de25e974678d964a4d59",
    "report.txt": "f91ecbfdd8a16c810151dbeda7d36fe3362894df05466ebfd8fc30eba4461cc9",
    "report.json": "bf95aeb2fbc7177934ba2b65de267754a805caa3b4ac3e88df6aae43f9246132",
}


def test_artifacts_golden_sha256(tiny_run):
    _cfg, outdir, _report = tiny_run
    assert set(GOLDEN_SHA256) == set(ARTIFACTS)
    for name in ARTIFACTS:
        assert hashlib.sha256((outdir / name).read_bytes()).hexdigest() == GOLDEN_SHA256[name], name


def test_solver_meta_records_stop_reason(tiny_run):
    cfg, outdir, _report = tiny_run
    reasons = {"converged", "stalled", "step-stall", "y-divergence", "cholesky-failure", "max-iter"}
    for name, kind in (("solve.meta.json", "solve-meta"), ("refine.meta.json", "refine-meta")):
        meta = json.loads(pipeline._read(outdir / name, cfg, kind))
        assert meta["stop_reason"] in reasons, name


@pytest.mark.kernel_independent
def test_stepwise_equals_all_byte_for_byte(tiny_run, tmp_path):
    """Each step below assembles Problem A itself; `run_all` assembled it once."""
    cfg, outdir, _report = tiny_run
    step_sample(cfg, tmp_path)
    step_generate(cfg, tmp_path)
    step_solve(cfg, tmp_path)
    step_refine(cfg, tmp_path)
    step_project(cfg, tmp_path)
    step_verify(cfg, tmp_path)
    step_bound(cfg, tmp_path)
    assert sorted(p.name for p in outdir.iterdir()) == sorted(ARTIFACTS)
    for name in ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (outdir / name).read_bytes(), name


@pytest.mark.kernel_independent
@pytest.mark.parametrize("facet_lines", [False, True])
def test_handed_on_solutions_equal_their_files(tmp_path, facet_lines):
    """The solutions `step_refine` and `step_project` return, which `run_all` hands on, are what refine.sol
    and projected.sol read back as, bit for bit: every block, dual block and y."""
    cfg = RunConfig(**TINY, facet_lines=facet_lines)
    problem = step_generate(cfg, tmp_path)
    step_solve(cfg, tmp_path, problem=problem)
    refined = step_refine(cfg, tmp_path, problem=problem)
    projected, _tensor, _info = step_project(cfg, tmp_path, problem=problem, refined=refined)
    sol, variant = refined
    for got, name in ((sol, "refine.sol"), (projected, "projected.sol")):
        read = import_solution(pipeline._read(tmp_path / name, cfg, "solution"), variant)
        assert got.y.tobytes() == read.y.tobytes(), name
        for mats, back in ((got.blocks, read.blocks), (got.dual_blocks, read.dual_blocks)):
            assert list(mats) == list(back), name
            for lab, v in back.items():
                assert (mats[lab].shape, mats[lab].tobytes()) == (v.shape, v.tobytes()), (name, lab)


def test_each_run_assembles_once(tmp_path, monkeypatch):
    calls = []
    assemble = pipeline.assemble_problem_A

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    samples = []
    sample = pipeline.constraint_sample

    def counted_sample(*args, **kwargs):
        samples.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(pipeline, "assemble_problem_A", counted)
    monkeypatch.setattr(pipeline, "constraint_sample", counted_sample)
    cfg = RunConfig(**TINY)
    for run in range(2):
        run_all(cfg, str(tmp_path / str(run)))  # a str outdir works too
        assert len(calls) == run + 1
        assert len(samples) == run + 1  # step_generate assembles on step_sample's points


def test_run_all_reads_back_only_the_solve_objective(tmp_path, monkeypatch):
    """run_all hands each step's results on in memory: of its artifacts it reads back solve.meta.json alone."""
    imports, reads = [], []
    read, import_solution = pipeline._read, pipeline.import_solution

    def recorded_read(path, *args):
        reads.append(path.name)
        return read(path, *args)

    def counted_import(*args):
        imports.append(1)
        return import_solution(*args)

    monkeypatch.setattr(pipeline, "_read", recorded_read)
    monkeypatch.setattr(pipeline, "import_solution", counted_import)
    run_all(RunConfig(**TINY), tmp_path)
    assert imports == [] and reads == ["solve.meta.json"]


@pytest.mark.parametrize("step", [step_solve, step_refine, step_project, step_bound])
def test_steps_refuse_a_problem_from_another_config(tiny_run, tmp_path, step):
    cfg, outdir, _report = tiny_run
    for name in ARTIFACTS:
        shutil.copy(outdir / name, tmp_path / name)
    other = RunConfig(**{**TINY, "refine_margin": 1e-3})
    with pytest.raises(ValueError, match="problem was built under a different configuration"):
        step(cfg, tmp_path, problem=build_problem(other))


def test_project_without_refine_names_the_missing_file(tiny_run, tmp_path, capsys):
    cfg, outdir, _report = tiny_run
    for name in ("sample.txt", "problem.dat-s", "solve.sol", "solve.meta.json"):
        shutil.copy(outdir / name, tmp_path / name)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(cfg.to_json())
    assert main(["project", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "refine.sol" in err and "run refine first" in err
    assert not (tmp_path / "projected.sol").exists()


@pytest.mark.parametrize("flag, value, name", [
    ("--verify-alpha-count", "-1", "alpha_count"), ("--verify-alpha-count", "0", "alpha_count"),
    ("--verify-grid-n", "-4", "grid_n"), ("--verify-grid-n", "0", "grid_n"), ("--verify-max-depth", "-1", "max_depth"),
])
def test_verify_refuses_an_empty_sweep(tmp_path, capsys, flag, value, name):
    """Such a sweep once verified a negative tensor with no stream point and certified_sign=True."""
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(RunConfig(**TINY).to_json())
    assert main(["verify", "--config", str(cfgfile), "--out", str(tmp_path), flag, value]) == 1
    out, err = capsys.readouterr()
    assert f"error: VerifySpec {name} must be >=" in err
    assert "certified" not in out and not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize("flag, value, message, field", [
    ("--verify-grid-n", "-4", "VerifySpec grid_n must be >= 1, got -4", "verify_grid_n"),
    ("-N", "0", "N must be >= 1, got 0", "N"),
    ("-d", "4", "d must be odd and >= 1, got 4", "d"),
    ("--precision-bits", "0", "precision_bits must be >= 53, got 0", "precision_bits"),
    ("--verify-enlargement", "0.5", "verify_enlargement must be >= 1, got 0.5", "verify_enlargement"),
    ("--verify-enlargement", "NaN", "verify_enlargement must be >= 1, got nan", "verify_enlargement"),
    ("--verify-enlargement", "Infinity", "verify_enlargement must be finite, got inf", "verify_enlargement"),
    ("--enlargement", "0.5", "enlargement must be finite and >= 1, got 0.5", "enlargement"),
    ("--enlargement", "NaN", "enlargement must be finite and >= 1, got nan", "enlargement"),
    ("--enlargement", "Infinity", "enlargement must be finite and >= 1, got inf", "enlargement"),
    ("--refine-margin", "-1", "refine_margin must be >= 0, got -1.0", "refine_margin"),
])
def test_all_refuses_a_bad_verification_setting_up_front(tmp_path, capsys, flag, value, message, field):
    """`pentapack all --verify-grid-n -4` once printed `certified: yes` from zero stream points.

    The setting is refused where the config is built, before any step writes an artifact;
    a bad N or d was once refused only after `sample` had written its file,
    `--verify-enlargement 0.5` only after ten artifacts, and `--precision-bits 0`
    not at all (all 13 artifacts, with mp.pi = 4.0 in the sign margin).
    """
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(RunConfig(**TINY).to_json())
    out_dir = tmp_path / "out"
    assert main(["all", "--config", str(cfgfile), "--out", str(out_dir), flag, value]) == 1
    out, err = capsys.readouterr()
    assert f"error: {message}" in err
    assert "certified: yes" not in out and not out_dir.exists()
    with pytest.raises(ValueError, match=message.split(",")[0]):
        RunConfig.from_json(json.dumps({**TINY, field: json.loads(value)}))


def test_steps_log_their_time(tmp_path, caplog):
    cfg = RunConfig(**TINY)
    with caplog.at_level(logging.INFO, logger="pentapack.pipeline"):
        step_sample(cfg, tmp_path)
        step_generate(cfg, tmp_path)
    lines = [r.getMessage() for r in caplog.records if r.name == "pentapack.pipeline"]
    assert [line.split(":")[0] for line in lines] == ["sample", "generate"]
    assert all(line.endswith(" s") for line in lines)


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
        # the eigenvalue clause or the sign pass must genuinely fail
        assert not report.invariant_holds() or report.cert_margin > 0


def test_bound_refuses_a_verify_json_with_a_covering_radius(tiny_run, tmp_path, capsys):
    """verify.json once held covering_radius and base_cell_radius; such a file is refused, not misread,
    with the file, the keys and the remedy named."""
    cfg, outdir, _report = tiny_run
    shutil.copytree(outdir, tmp_path, dirs_exist_ok=True)
    data = json.loads(pipeline._read(tmp_path / "verify.json", cfg, "verify"))
    old = {**data, "covering_radius": 0.0, "base_cell_radius": 0.1}
    pipeline._write(tmp_path / "verify.json", cfg, "verify", json.dumps(old, indent=2) + "\n")
    with pytest.raises(ValueError, match="verify.json .*unknown keys: base_cell_radius, covering_radius; "
                                         "missing keys: none.*re-run `pentapack verify`"):
        step_bound(cfg, tmp_path)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(cfg.to_json())
    assert main(["bound", "--config", str(cfgfile), "--out", str(tmp_path)]) == 1
    assert "re-run `pentapack verify`" in capsys.readouterr().err


def test_bound_refuses_a_verify_json_without_a_key(tiny_run, tmp_path):
    cfg, outdir, _report = tiny_run
    shutil.copytree(outdir, tmp_path, dirs_exist_ok=True)
    data = json.loads(pipeline._read(tmp_path / "verify.json", cfg, "verify"))
    del data["notes"]
    pipeline._write(tmp_path / "verify.json", cfg, "verify", json.dumps(data, indent=2) + "\n")
    with pytest.raises(ValueError, match="unknown keys: none; missing keys: notes"):
        step_bound(cfg, tmp_path)

def test_cli_theta_c5(capsys):
    assert main(["theta", "--graph", "c5"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 2" in out
    assert "2.236" in out


def test_cli_theta_takes_no_config_flags():
    """theta once took, and refused a bad value of, the pipeline flags it never used."""
    with pytest.raises(SystemExit):
        main(["theta", "--graph", "c5", "--verify-grid-n", "-4"])


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
    assert json.loads(pipeline._read(cli_out / "solve.meta.json", cfg, "solve-meta"))["stop_reason"] == "imported"


# Every RunConfig field at a value other than its default, under its flag.
FLAG_VALUES = {
    "-N": ("N", 4),
    "-d": ("d", 7),
    "--alpha-count": ("alpha_count", 2),
    "--grid-n": ("grid_n", 8),
    "--enlargement": ("enlargement", 1.03),
    "--precision-bits": ("precision_bits", 128),
    "--refine-margin": ("refine_margin", 1e-3),
    "--facet-lines": ("facet_lines", True),
    "--verify-alpha-count": ("verify_alpha_count", 3),
    "--verify-grid-n": ("verify_grid_n", 10),
    "--verify-max-depth": ("verify_max_depth", 2),
    "--verify-enlargement": ("verify_enlargement", 1.05),
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
    """A configuration written before threads, solver, retained_blocks_only, gap_tol, feas_tol and
    safety_factor were removed."""
    stale = {**json.loads(RunConfig().to_json()), "threads": 1, "solver": "embedded",
             "retained_blocks_only": True, "gap_tol": 1e-8, "feas_tol": 1e-8, "safety_factor": 1e3}
    text = json.dumps(stale)
    with pytest.raises(ValueError, match=r"unknown RunConfig field\(s\): feas_tol, gap_tol, retained_blocks_only, "
                                         r"safety_factor, solver, threads$"):
        RunConfig.from_json(text)
    cfgfile = tmp_path / "stale.json"
    cfgfile.write_text(text)
    assert main(["sample", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 1
    assert "unknown RunConfig field(s)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, name",
    [({"facet_lines": "no"}, "facet_lines"), ({"grid_n": 50.5}, "grid_n"), ({"N": "5"}, "N"),
     ({"enlargement": True}, "enlargement"), ({"grid_n": None}, "grid_n"),
     ([1], "list"), (3, "int"), (None, "NoneType"), ("x", "str")],
)
def test_config_file_with_wrong_json_types_is_refused(data, name):
    """`name` is the offending field, or the Python type of a document that is not an object."""
    if isinstance(data, dict):
        message = rf"RunConfig field {name} must be"
    else:
        message = rf"^RunConfig JSON must be an object, got {name}$"
    with pytest.raises(ValueError, match=message):
        RunConfig.from_json(json.dumps(data))


def test_config_json_round_trip():
    cfg = RunConfig()
    assert RunConfig.from_json(cfg.to_json()) == cfg
    loaded = RunConfig.from_json(json.dumps({"enlargement": 1, "verify_enlargement": None, "facet_lines": True}))
    assert loaded == RunConfig(enlargement=1, facet_lines=True)
    assert loaded.config_hash() == RunConfig(enlargement=1, facet_lines=True).config_hash()
