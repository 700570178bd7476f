"""Command-line behavior: exit codes, files, defaults, reproducibility."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from slrnmf.cli import build_parser, run
from slrnmf.io import load_matrix, read_report, write_report
from slrnmf.solver import SolverConfig

SYNTH_FLAGS = ["--L", "40", "--K", "60", "--N", "2", "--density", "0.5",
               "--sigma", "1e-3", "--source", "synthetic-smooth"]
SOLVER_FLAGS = ["--r", "4", "--delta", "0.3", "--lambda1", "0.01",
                "--eta", "0.05", "--max-iter", "80"]


def read_lines_without_timing(path):
    with open(path) as fh:
        return [line for line in fh if not line.startswith("timing.")]


def make_synth(tmp_path, name="synth", seed="5"):
    out = tmp_path / name
    assert run(["synth", *SYNTH_FLAGS, "--seed", seed, "--out-dir", str(out)]) == 0
    return out


def test_synth_writes_instance(tmp_path):
    out = make_synth(tmp_path)
    y = load_matrix(out / "observations.csv")
    phi = load_matrix(out / "endmembers_true.csv")
    w = load_matrix(out / "abundances_true.csv")
    assert y.shape == (40, 60)
    assert phi.shape == (40, 2)
    assert w.shape == (60, 2)
    truth = read_report(out / "truth.txt")
    assert truth["synth.bands"] == 40
    assert truth["synth.pixels"] == 60
    assert truth["synth.endmembers"] == 2
    assert truth["synth.source"] == "synthetic-smooth"
    assert truth["synth.clamped"] is True


def test_synth_rejects_bad_flags(tmp_path):
    base = ["synth", "--out-dir", str(tmp_path / "x")]
    assert run(base + ["--density", "1.5"]) == 2
    assert run(base + ["--L", "0"]) == 2
    assert run(base + ["--sigma", "-1"]) == 2
    assert run(base + ["--library", str(tmp_path / "missing.csv")]) == 2
    assert run(base + ["--N", "13"]) == 2  # the packaged library has 12 spectra


def test_synth_is_deterministic(tmp_path):
    a = make_synth(tmp_path, "a")
    b = make_synth(tmp_path, "b")
    for name in ("observations.csv", "endmembers_true.csv",
                 "abundances_true.csv", "truth.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_unmix_runs_and_reports(tmp_path):
    synth_dir = make_synth(tmp_path)
    out = tmp_path / "fit"
    rc = run(["unmix", "--input", str(synth_dir / "observations.csv"),
              *SOLVER_FLAGS, "--seed", "3", "--out-dir", str(out)])
    assert rc == 0
    phi = load_matrix(out / "endmembers.csv")
    w = load_matrix(out / "abundances.csv")
    assert phi.shape[0] == 40
    assert w.shape[0] == 60
    assert phi.shape[1] == w.shape[1]
    report = read_report(out / "report.txt")
    assert report["config.r"] == 4
    assert report["config.delta"] == 0.3
    assert report["config.init"] == "uniform"
    assert report["config.clamp_negatives"] is False
    assert report["result.final_effective_rank"] == phi.shape[1]
    assert len(report["trace.cost"]) == report["result.iterations"]


def test_unmix_is_deterministic(tmp_path):
    synth_dir = make_synth(tmp_path)
    args = ["unmix", "--input", str(synth_dir / "observations.csv"),
            *SOLVER_FLAGS, "--seed", "3"]
    out_a = tmp_path / "fit_a"
    out_b = tmp_path / "fit_b"
    assert run(args + ["--out-dir", str(out_a)]) == 0
    assert run(args + ["--out-dir", str(out_b)]) == 0
    for name in ("endmembers.csv", "abundances.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert (read_lines_without_timing(out_a / "report.txt")
            == read_lines_without_timing(out_b / "report.txt"))


def test_unmix_from_report_reproduces_run(tmp_path):
    synth_dir = make_synth(tmp_path)
    obs = str(synth_dir / "observations.csv")
    out_a = tmp_path / "fit_a"
    assert run(["unmix", "--input", obs, *SOLVER_FLAGS, "--seed", "3",
                "--out-dir", str(out_a)]) == 0
    out_b = tmp_path / "fit_b"
    assert run(["unmix", "--input", obs,
                "--from-report", str(out_a / "report.txt"),
                "--out-dir", str(out_b)]) == 0
    for name in ("endmembers.csv", "abundances.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # explicit flags still win over the report
    out_c = tmp_path / "fit_c"
    assert run(["unmix", "--input", obs,
                "--from-report", str(out_a / "report.txt"),
                "--delta", "0.7", "--out-dir", str(out_c)]) == 0
    assert read_report(out_c / "report.txt")["config.delta"] == 0.7


def test_unmix_from_report_carries_every_config_field(tmp_path):
    chosen = {"r": 3, "delta": 0.25, "lambda1": 0.02, "eta": 0.04,
              "max_iter": 7, "tol_rel_cost": 1e-5, "prune_tol": 1e-3,
              "beta_init": 0.75, "shrink": 0.25, "max_backtracks": 6,
              "seed": 11}
    fields = dataclasses.fields(SolverConfig)
    # a new SolverConfig field needs a non-default value here
    assert [f.name for f in fields] == list(chosen)
    assert all(chosen[f.name] != f.default for f in fields)
    source = tmp_path / "source.txt"
    write_report(source, {"config." + k: v for k, v in chosen.items()})
    synth_dir = make_synth(tmp_path)
    out = tmp_path / "fit"
    assert run(["unmix", "--input", str(synth_dir / "observations.csv"),
                "--from-report", str(source), "--out-dir", str(out)]) == 0
    values = read_report(out / "report.txt")
    assert {k: values["config." + k] for k in chosen} == chosen


@pytest.mark.parametrize("command", ["unmix", "repro-sim"])
def test_solver_flags_come_from_solver_config(command):
    # Each SolverConfig field but the seed (whose meaning each command
    # words itself) is one flag, with the field's type, help and default;
    # flags default to None, so a report's values are not overridden.
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    for f in dataclasses.fields(SolverConfig):
        if f.name == "seed":
            continue
        flags = [a for a in sub._actions
                 if "--" + f.name.replace("_", "-") in a.option_strings]
        assert len(flags) == 1, f.name
        flag = flags[0]
        assert flag.dest == f.name
        assert flag.type is (int if f.type is int else float)
        assert flag.default is None
        assert flag.help.startswith(f.metadata["help"])
        if f.default not in (None, dataclasses.MISSING):
            assert flag.help.endswith("(default %s)" % f.default)


def test_unmix_requires_rank(tmp_path):
    synth_dir = make_synth(tmp_path)
    rc = run(["unmix", "--input", str(synth_dir / "observations.csv"),
              "--out-dir", str(tmp_path / "fit")])
    assert rc == 2


def test_unmix_rejects_prune_tol_of_one(tmp_path, capsys):
    # prune_tol >= 1 would prune every column before the first iteration
    synth_dir = make_synth(tmp_path)
    rc = run(["unmix", "--input", str(synth_dir / "observations.csv"),
              *SOLVER_FLAGS, "--prune-tol", "1", "--out-dir", str(tmp_path / "fit")])
    assert rc == 2
    assert "prune_tol must be in [0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_unmix_negative_entries_need_clamp_flag(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("1.0,2.0\n-0.5,1.0\n")
    out = tmp_path / "fit"
    base = ["unmix", "--input", str(path), "--r", "2", "--delta", "0.1",
            "--lambda1", "0.0", "--eta", "0.1", "--max-iter", "5"]
    assert run(base + ["--out-dir", str(out)]) == 2
    assert run(base + ["--clamp-negatives", "--out-dir", str(out)]) == 0
    assert read_report(out / "report.txt")["config.clamp_negatives"] is True


def test_unmix_bad_input_file(tmp_path):
    assert run(["unmix", "--input", str(tmp_path / "nope.csv"), "--r", "2",
                "--out-dir", str(tmp_path / "fit")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    assert run(["unmix", "--input", str(bad), "--r", "2",
                "--out-dir", str(tmp_path / "fit")]) == 2


def test_unmix_map_geometry(tmp_path):
    synth_dir = make_synth(tmp_path)
    obs = str(synth_dir / "observations.csv")
    assert run(["unmix", "--input", obs, *SOLVER_FLAGS,
                "--height", "10", "--out-dir", str(tmp_path / "f1")]) == 2
    assert run(["unmix", "--input", obs, *SOLVER_FLAGS, "--height", "10",
                "--width", "7", "--out-dir", str(tmp_path / "f2")]) == 2
    out = tmp_path / "f3"
    assert run(["unmix", "--input", obs, *SOLVER_FLAGS, "--height", "10",
                "--width", "6", "--out-dir", str(out)]) == 0
    report = read_report(out / "report.txt")
    assert report["maps.height"] == 10
    assert report["maps.width"] == 6
    assert os.path.exists(out / "map_0.pgm")


def test_unmix_vca_rank_guard(tmp_path):
    synth_dir = make_synth(tmp_path)
    rc = run(["unmix", "--input", str(synth_dir / "observations.csv"),
              "--init", "vca", "--r", "41", "--out-dir", str(tmp_path / "fit")])
    assert rc == 2


def test_unmix_vca_init_runs(tmp_path):
    synth_dir = make_synth(tmp_path)
    out = tmp_path / "fit"
    rc = run(["unmix", "--input", str(synth_dir / "observations.csv"),
              "--init", "vca", *SOLVER_FLAGS, "--out-dir", str(out)])
    assert rc == 0
    assert read_report(out / "report.txt")["config.init"] == "vca"


def test_unmix_pixels_by_bands_layout(tmp_path):
    synth_dir = make_synth(tmp_path)
    y = load_matrix(synth_dir / "observations.csv")
    transposed = tmp_path / "t.csv"
    with open(transposed, "w") as fh:
        for row in y.T:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    out_a = tmp_path / "fit_a"
    out_b = tmp_path / "fit_b"
    assert run(["unmix", "--input", str(synth_dir / "observations.csv"),
                *SOLVER_FLAGS, "--out-dir", str(out_a)]) == 0
    assert run(["unmix", "--input", str(transposed), "--layout",
                "pixels-by-bands", *SOLVER_FLAGS, "--out-dir", str(out_b)]) == 0
    assert ((out_a / "endmembers.csv").read_bytes()
            == (out_b / "endmembers.csv").read_bytes())


def test_eval_scores_and_writes_report(tmp_path):
    synth_dir = make_synth(tmp_path)
    out = tmp_path / "fit"
    assert run(["unmix", "--input", str(synth_dir / "observations.csv"),
                *SOLVER_FLAGS, "--out-dir", str(out)]) == 0
    report_path = tmp_path / "metrics.txt"
    rc = run(["eval", "--estimated", str(out / "endmembers.csv"),
              "--reference", str(synth_dir / "endmembers_true.csv"),
              "--est-abundances", str(out / "abundances.csv"),
              "--ref-abundances", str(synth_dir / "abundances_true.csv"),
              "--out", str(report_path)])
    assert rc == 0
    values = read_report(report_path)
    assert values["metrics.matched_pairs"] >= 1
    assert values["metrics.mean_sam_degrees"] >= 0.0
    assert values["metrics.abundance_rmse"] >= 0.0


def test_eval_scores_a_rank_zero_run(tmp_path, capsys):
    # delta = 1e6 prunes every column; the empty factors are written, read
    # back and scored as a wrong rank with nothing matched.
    scene = tmp_path / "scene"
    assert run(["synth", "--L", "30", "--K", "40", "--N", "2", "--seed", "0",
                "--source", "synthetic-smooth", "--out-dir", str(scene)]) == 0
    fit = tmp_path / "fit"
    assert run(["unmix", "--input", str(scene / "observations.csv"), "--r", "3",
                "--delta", "1e6", "--out-dir", str(fit)]) == 0
    assert read_report(fit / "report.txt")["result.final_effective_rank"] == 0
    capsys.readouterr()
    assert run(["eval", "--estimated", str(fit / "endmembers.csv"),
                "--reference", str(scene / "endmembers_true.csv"),
                "--est-abundances", str(fit / "abundances.csv"),
                "--ref-abundances", str(scene / "abundances_true.csv"),
                "--out", str(tmp_path / "metrics.txt")]) == 0
    assert "matched pairs: 0" in capsys.readouterr().out
    values = read_report(tmp_path / "metrics.txt")
    assert values["metrics.matched_pairs"] == 0
    assert values["metrics.unmatched_reference"] == [0, 1]
    assert values["metrics.rank_correct"] is False
    assert np.isnan(values["metrics.mean_sam_degrees"])
    assert values["metrics.abundance_rmse"] is None


def test_repro_sim_scores_a_rank_zero_seed(tmp_path, capsys):
    # The rank-0 recipe above, as one repro-sim seed: it is scored as eval
    # scores it, with an eval report and a NaN SAM.
    out = tmp_path / "sweep"
    assert run(["repro-sim", "--L", "30", "--K", "40", "--N", "2",
                "--source", "synthetic-smooth", "--r", "3", "--delta", "1e6",
                "--n-seeds", "1", "--out-dir", str(out)]) == 0
    assert "   0     0           nan               -" in capsys.readouterr().out
    agg = read_report(out / "aggregate.txt")
    assert agg["repro.ranks"] == [0]
    assert np.isnan(agg["repro.mean_sam_degrees"][0])
    assert agg["repro.abundance_rmse"] == [None]
    values = read_report(out / "seed_0" / "eval_report.txt")
    assert values["metrics.matched_pairs"] == 0
    assert values["metrics.unmatched_reference"] == [0, 1]
    assert np.isnan(values["metrics.mean_sam_degrees"])


def test_eval_validates_inputs(tmp_path):
    synth_a = make_synth(tmp_path, "a")
    mismatched = tmp_path / "mis.csv"
    mismatched.write_text("1,2\n3,4\n")  # 2 bands, not 40
    ref = str(synth_a / "endmembers_true.csv")
    assert run(["eval", "--estimated", str(mismatched), "--reference", ref]) == 2
    assert run(["eval", "--estimated", ref, "--reference", ref,
                "--est-abundances", str(synth_a / "abundances_true.csv")]) == 2
    bad_w = tmp_path / "w.csv"
    bad_w.write_text("1,2,3\n4,5,6\n")  # 3 columns vs 2 endmembers
    assert run(["eval", "--estimated", ref, "--reference", ref,
                "--est-abundances", str(bad_w),
                "--ref-abundances", str(synth_a / "abundances_true.csv")]) == 2
    assert run(["eval", "--estimated", str(tmp_path / "nope.csv"),
                "--reference", ref]) == 2


def test_repro_sim_pipeline_matches_standalone_commands(tmp_path):
    out = tmp_path / "sweep"
    rc = run(["repro-sim", *SYNTH_FLAGS, *SOLVER_FLAGS, "--n-seeds", "2",
              "--seed", "5", "--out-dir", str(out)])
    assert rc == 0
    agg = read_report(out / "aggregate.txt")
    assert agg["repro.seeds"] == [5, 6]
    assert len(agg["repro.ranks"]) == 2
    assert agg["repro.target_rank"] == 2
    assert 0.0 <= agg["repro.rank_recovery_rate"] <= 1.0

    # seed 5 synth output equals the standalone synth command's
    standalone = make_synth(tmp_path, "alone", seed="5")
    assert ((out / "seed_5" / "synth" / "observations.csv").read_bytes()
            == (standalone / "observations.csv").read_bytes())

    # seed 5 unmix output equals a standalone unmix on the same matrix
    fit = tmp_path / "alone_fit"
    assert run(["unmix", "--input", str(standalone / "observations.csv"),
                *SOLVER_FLAGS, "--seed", "5", "--out-dir", str(fit)]) == 0
    assert ((out / "seed_5" / "unmix" / "endmembers.csv").read_bytes()
            == (fit / "endmembers.csv").read_bytes())
    assert ((out / "seed_5" / "unmix" / "abundances.csv").read_bytes()
            == (fit / "abundances.csv").read_bytes())
    for s in (5, 6):
        assert os.path.exists(out / ("seed_%d" % s) / "eval_report.txt")


def test_repro_sim_validates(tmp_path):
    assert run(["repro-sim", "--n-seeds", "0",
                "--out-dir", str(tmp_path / "x")]) == 2
    assert run(["repro-sim", "--density", "1.5",
                "--out-dir", str(tmp_path / "x")]) == 2
    # an input error found by the library, inside the seed loop
    assert run(["repro-sim", "--n-seeds", "1", "--K", "100", "--init", "vca",
                "--r", "150", "--out-dir", str(tmp_path / "x")]) == 2


def test_runtime_failure_exits_one(tmp_path):
    synth_dir = make_synth(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    rc = run(["unmix", "--input", str(synth_dir / "observations.csv"),
              *SOLVER_FLAGS, "--out-dir", str(blocker)])
    assert rc == 1


def test_numerical_failure_exits_one(tmp_path, capsys):
    # delta = 0 leaves nothing to keep W^T W positive definite once the
    # l1 step zeroes an abundance column
    scene = tmp_path / "scene"
    assert run(["synth", "--K", "200", "--seed", "0", "--out-dir", str(scene)]) == 0
    rc = run(["unmix", "--input", str(scene / "observations.csv"), "--r", "10",
              "--delta", "0", "--out-dir", str(tmp_path / "fit")])
    assert rc == 1
    assert "not positive definite" in capsys.readouterr().err


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "slrnmf.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "synth" in proc.stdout
    assert "repro-sim" in proc.stdout


def test_unmix_names_why_it_stopped(tmp_path, capsys):
    # Scene 31 of the uniform protocol stalls at iteration 2: both line
    # searches reject every trial.
    synth_dir = tmp_path / "synth"
    assert run(["synth", "--K", "500", "--seed", "31",
                "--out-dir", str(synth_dir)]) == 0
    unmix = ["unmix", "--input", str(synth_dir / "observations.csv"), "--r", "10",
             "--seed", "31"]
    capsys.readouterr()
    assert run(unmix + ["--out-dir", str(tmp_path / "fit")]) == 0
    assert "iterations: 2 (stalled)" in capsys.readouterr().out
    assert read_report(tmp_path / "fit" / "report.txt")["result.converged"] is False
    assert run(unmix + ["--max-iter", "1", "--out-dir", str(tmp_path / "cap")]) == 0
    assert "iterations: 1 (iteration cap reached)" in capsys.readouterr().out


def test_commands_load_neither_scipy_nor_numpy_ma(tmp_path):
    # The package runs on numpy alone: no command may load any scipy module,
    # nor ``numpy.ma``, which ``np.unique`` and the set routines import on
    # first use (10-15 ms of a fresh process).
    code = "\n".join([
        "import sys",
        "import slrnmf.cli",
        "run, out = slrnmf.cli.run, sys.argv[1]",
        "assert run(['synth', '--K', '100', '--out-dir', out]) == 0",
        "assert run(['unmix', '--input', out + '/observations.csv',",
        "            '--r', '6', '--out-dir', out + '/fit']) == 0",
        "assert run(['unmix', '--input', out + '/observations.csv', '--r', '4',",
        "            '--init', 'vca', '--out-dir', out + '/vca']) == 0",
        "assert run(['eval', '--estimated', out + '/fit/endmembers.csv',",
        "            '--reference', out + '/endmembers_true.csv',",
        "            '--est-abundances', out + '/fit/abundances.csv',",
        "            '--ref-abundances', out + '/abundances_true.csv',",
        "            '--out', out + '/eval.txt']) == 0",
        "assert run(['repro-sim', '--K', '100', '--n-seeds', '1',",
        "            '--out-dir', out + '/repro']) == 0",
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy'",
        "          or m.split('.')[:2] == ['numpy', 'ma']]",
        "assert not loaded, loaded",
    ])
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
