import os
import struct
import threading

import numpy as np
import pytest

from calsbi import covreg, diagnostics
from calsbi.cli import main
from calsbi.problems import Dataset, get_problem, load_dataset, simulate_dataset


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.sbid"
    code = run(["simulate", "--problem", "gaussian-linear", "--n", "256",
                "--seed", "7", "--out", str(path)])
    assert code == 0
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_file):
    out = tmp_path_factory.mktemp("runs") / "run1"
    code = run(["train", "--method", "npe", "--reg", "conservative",
                "--data", data_file, "--out-dir", str(out),
                "--epochs", "2", "--batch", "64", "--L", "4"])
    assert code == 0
    return str(out)


def test_simulate_writes_expected_rows(tmp_path):
    out = tmp_path / "d.sbid"
    assert run(["simulate", "--problem", "gaussian-linear", "--n", "1024",
                "--seed", "7", "--out", str(out)]) == 0
    ds = load_dataset(out)
    assert ds.count == 1024
    assert os.path.exists(str(out) + ".manifest")


def test_simulate_repeat_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.sbid", tmp_path / "b.sbid"
    run(["simulate", "--n", "64", "--seed", "3", "--out", str(a)])
    run(["simulate", "--n", "64", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_zero_rows(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["simulate", "--n", "0", "--out", str(tmp_path / "x.sbid")])
    assert err.value.code == 2


def test_unknown_problem_exits_with_usage_error(tmp_path, capsys):
    code = run(["simulate", "--problem", "weinberg", "--n", "4",
                "--out", str(tmp_path / "x.sbid")])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


def test_train_writes_checkpoint_report_manifest(run_dir):
    assert os.path.exists(os.path.join(run_dir, "model.calc"))
    assert os.path.exists(os.path.join(run_dir, "model_best.calc"))
    assert os.path.exists(os.path.join(run_dir, "train.csv"))
    manifest = open(os.path.join(run_dir, "manifest.txt")).read()
    assert "command=train" in manifest
    assert "lambda=5.0" in manifest


def test_train_warns_when_lambda_ignored(data_file, tmp_path, capsys):
    code = run(["train", "--method", "npe", "--reg", "none", "--lambda", "5",
                "--data", data_file, "--out-dir", str(tmp_path / "r"),
                "--epochs", "1", "--batch", "64"])
    assert code == 0
    assert "ignored" in capsys.readouterr().err


def test_train_direct_form_with_interior_levels(data_file, tmp_path):
    code = run(["train", "--method", "npe", "--reg", "calibration",
                "--loss-form", "direct", "--levels", "19",
                "--data", data_file, "--out-dir", str(tmp_path / "r"),
                "--epochs", "1", "--batch", "64", "--L", "4"])
    assert code == 0


def test_missing_dataset_is_usage_error(tmp_path, capsys):
    code = run(["train", "--method", "npe", "--data", str(tmp_path / "no.sbid"),
                "--out-dir", str(tmp_path / "r"), "--epochs", "1"])
    assert code == 2


@pytest.mark.parametrize("case", ["eval-data-dir", "simulate-out-dir",
                                  "eval-out-dir-file"])
def test_a_directory_or_file_in_the_wrong_place_exits_two(data_file, tmp_path,
                                                          capsys, case):
    directory, file = tmp_path / "adir", tmp_path / "afile"
    directory.mkdir()
    file.write_text("")
    argv, path = {
        "eval-data-dir": (["eval", "--oracle", "--data", str(directory),
                           "--out-dir", str(tmp_path / "e")], directory),
        "simulate-out-dir": (["simulate", "--n", "4", "--out", str(directory)],
                             directory),
        "eval-out-dir-file": (["eval", "--oracle", "--data", data_file,
                               "--L", "8", "--out-dir", str(file)], file),
    }[case]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_eval_oracle_curve_sits_on_diagonal(data_file, tmp_path, capsys):
    out = tmp_path / "eval"
    code = run(["eval", "--oracle", "--data", data_file, "--ecp", "rank",
                "--L", "256", "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "coverage.csv").read_text().strip().splitlines()
    assert lines[0] == "level,ecp,method,n,L"
    rows = [line.split(",") for line in lines[1:]]
    gaps = [abs(float(lev) - float(e)) for lev, e, *_ in rows]
    assert max(gaps) <= 0.06  # 256 test pairs, broad tolerance
    assert (out / "metrics.csv").exists()
    assert (out / "sbc.csv").exists()
    assert (out / "coverage.svg").exists()
    assert (out / "manifest.txt").exists()


def test_eval_both_estimators_share_one_csv(data_file, tmp_path):
    out = tmp_path / "eval"
    code = run(["eval", "--oracle", "--data", data_file, "--ecp", "both",
                "--L", "128", "--grid-res", "64", "--levels", "5",
                "--out-dir", str(out)])
    assert code == 0
    text = (out / "coverage.csv").read_text()
    assert "rank-based" in text and "grid-hpdr" in text


def test_eval_trained_checkpoint(run_dir, data_file, tmp_path):
    out = tmp_path / "eval"
    code = run(["eval", "--checkpoint", os.path.join(run_dir, "model.calc"),
                "--data", data_file, "--L", "64", "--levels", "5",
                "--out-dir", str(out)])
    assert code == 0
    metrics = (out / "metrics.csv").read_text()
    assert "expected_log_posterior" in metrics


def test_eval_numeric_failure_in_a_rank_worker_thread_exits_three(
        data_file, tmp_path, capsys, monkeypatch):
    caller, real = threading.get_ident(), covreg.rank_statistics
    failed = threading.Event()

    def rank_statistics(*args, **kwargs):
        if threading.get_ident() == caller:
            failed.wait(10)         # the caller's chunk waits for the helper's
            return real(*args, **kwargs)
        failed.set()
        raise FloatingPointError("overflow in a helper")

    # 256 pairs at L=64 are 3 chunks of 126 pairs or fewer
    monkeypatch.setattr(diagnostics, "_rank_workers", lambda chunks: 2)
    monkeypatch.setattr(covreg, "rank_statistics", rank_statistics)
    out = tmp_path / "eval"
    code = run(["eval", "--oracle", "--data", data_file, "--ecp", "rank",
                "--L", "64", "--out-dir", str(out)])
    assert code == 3
    assert "numeric failure: overflow in a helper" in capsys.readouterr().err
    assert not (out / "coverage.csv").exists()


def test_eval_missing_checkpoint_exits_two(data_file, tmp_path):
    code = run(["eval", "--checkpoint", str(tmp_path / "no.calc"),
                "--data", data_file, "--out-dir", str(tmp_path / "e")])
    assert code == 2
    code = run(["eval", "--data", data_file, "--out-dir", str(tmp_path / "e")])
    assert code == 2


def test_eval_truncated_inputs_exit_two(data_file, run_dir, tmp_path, capsys):
    raw = open(data_file, "rb").read()
    cut_data = tmp_path / "cut.sbid"
    cut_data.write_bytes(raw[:20])
    code = run(["eval", "--oracle", "--data", str(cut_data),
                "--out-dir", str(tmp_path / "e")])
    assert code == 2
    assert "truncated" in capsys.readouterr().err
    raw = open(os.path.join(run_dir, "model.calc"), "rb").read()
    cut_model = tmp_path / "cut.calc"
    cut_model.write_bytes(raw[:len(raw) // 2])
    code = run(["eval", "--checkpoint", str(cut_model), "--data", data_file,
                "--out-dir", str(tmp_path / "e")])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def test_non_finite_dataset_row_exits_two(data_file, tmp_path, capsys):
    ds = load_dataset(data_file)
    ds.thetas[3, 0] = np.nan
    bad = tmp_path / "nan.sbid"
    ds.save(bad)
    code = run(["eval", "--oracle", "--data", str(bad), "--ecp", "both",
                "--out-dir", str(tmp_path / "e")])
    assert code == 2
    assert "non-finite value in row 3" in capsys.readouterr().err
    code = run(["train", "--method", "npe", "--data", str(bad),
                "--out-dir", str(tmp_path / "t"), "--epochs", "1"])
    assert code == 2
    assert "non-finite value in row 3" in capsys.readouterr().err


def test_eval_oracle_on_nonlinear_problem_writes_both_curves(tmp_path, capsys):
    data = tmp_path / "nl.sbid"
    run(["simulate", "--problem", "nonlinear-2d", "--n", "32", "--out", str(data)])
    out = tmp_path / "e"
    code = run(["eval", "--oracle", "--data", str(data), "--ecp", "both",
                "--L", "64", "--grid-res", "32", "--out-dir", str(out)])
    assert code == 0
    text = (out / "coverage.csv").read_text()
    assert "rank-based" in text and "grid-hpdr" in text
    metrics = (out / "metrics.csv").read_text()
    assert "expected_log_posterior_normalized,0\n" in metrics


@pytest.mark.parametrize("flags,message", [
    (["--oracle", "--sbc-bins", "1"], "--sbc-bins"),
    (["--oracle", "--level-min", "-0.5"], "levels"),
    (["--oracle", "--level-max", "1.5"], "levels"),
    (["--oracle", "--level-min", "0.6", "--level-max", "0.4"], "levels"),
    (["--oracle", "--checkpoint", "model.calc"], "exactly one"),
    ([], "exactly one"),
    (["--oracle", "--seed", "-1"], "expected non-negative integer"),
], ids=["sbc-bins-1", "level-min-negative", "level-max-above-one",
        "levels-decreasing", "oracle-and-checkpoint", "neither", "seed-negative"])
def test_eval_bad_flags_exit_two_before_any_output(data_file, tmp_path, capsys,
                                                   flags, message):
    out = tmp_path / "e"
    code = run(["eval", "--data", data_file, "--out-dir", str(out), *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (["--lambda", "nan"], "got nan, 1.0, 0.0"),
    (["--lambda", "inf"], "got inf, 1.0, 0.0"),
    (["--lambda", "-1"], "got -1.0, 1.0, 0.0"),
    (["--ste-temperature", "nan"], "got 5.0, nan, 0.0"),
    (["--sort-relaxation", "nan"], "got 5.0, 1.0, nan"),
    (["--lr", "nan"], "lr=nan"),
    (["--lr", "inf"], "lr=inf"),
    (["--weight-decay", "nan"], "weight_decay=nan"),
    (["--weight-decay", "inf"], "weight_decay=inf"),
    (["--clip", "nan"], "clip_norm must be positive, got nan"),
    (["--clip", "0"], "clip_norm must be positive, got 0.0"),
], ids=["lambda-nan", "lambda-inf", "lambda-negative", "ste-temperature-nan",
        "sort-relaxation-nan", "lr-nan", "lr-inf", "weight-decay-nan",
        "weight-decay-inf", "clip-nan", "clip-0"])
def test_train_bad_flags_exit_two_before_any_output(data_file, tmp_path, capsys,
                                                    flags, message):
    out = tmp_path / "t"
    code = run(["train", "--method", "npe", "--epochs", "1", "--batch", "64",
                "--L", "2", "--data", data_file, "--out-dir", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_train_clip_inf_trains_without_clipping(data_file, tmp_path):
    out = tmp_path / "t"
    code = run(["train", "--method", "nre", "--reg", "none", "--epochs", "1",
                "--batch", "64", "--clip", "inf", "--data", data_file,
                "--out-dir", str(out)])
    assert code == 0
    assert "clip=inf" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("ecp", ["grid", "both"])
def test_eval_grid_on_three_parameters_exits_two_before_any_output(tmp_path,
                                                                   capsys, ecp):
    data = tmp_path / "g3.sbid"
    simulate_dataset(get_problem("gaussian-linear", dim=3), 16, seed=3).save(data)
    out = tmp_path / "e"
    code = run(["eval", "--oracle", "--data", str(data), "--ecp", ecp,
                "--L", "16", "--out-dir", str(out)])
    assert code == 2
    assert "grid-hpdr coverage supports dim_theta <= 2 only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("problem_id,dim_theta,dim_x", [
    ("nonlinear-2d", 1, 4), ("gaussian-linear", 2, 3),
])
def test_set_with_dimensions_its_problem_lacks_exits_two(tmp_path, capsys,
                                                         problem_id, dim_theta,
                                                         dim_x):
    rng = np.random.default_rng(0)
    data = tmp_path / "bad.sbid"
    Dataset(problem_id, 0, dim_theta, dim_x, rng.uniform(-1, 1, (16, dim_theta)),
            rng.standard_normal((16, dim_x))).save(data)
    out = tmp_path / "out"
    runs = [["eval", "--oracle", "--ecp", "grid", "--grid-res", "16"],
            ["train", "--method", "nre", "--epochs", "1", "--batch", "8"],
            ["train", "--method", "npe", "--epochs", "1", "--batch", "8"]]
    for argv in runs:
        code = run([*argv, "--data", str(data), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert f"problem {problem_id!r} has dim_theta" in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.fixture(scope="module")
def nre_checkpoint(tmp_path_factory, data_file):
    out = tmp_path_factory.mktemp("runs") / "nre"
    assert run(["train", "--method", "nre", "--reg", "none", "--data", data_file,
                "--out-dir", str(out), "--epochs", "1", "--batch", "64"]) == 0
    return str(out / "model.calc")


@pytest.mark.parametrize("problem_id,kwargs", [
    ("nonlinear-2d", {}), ("gaussian-linear", {"dim": 1}),
])
def test_eval_checkpoint_on_a_set_of_another_problem_exits_two(
        nre_checkpoint, tmp_path, capsys, problem_id, kwargs):
    data = tmp_path / "other.sbid"
    simulate_dataset(get_problem(problem_id, **kwargs), 16, seed=2).save(data)
    out = tmp_path / "e"
    code = run(["eval", "--checkpoint", nre_checkpoint, "--data", str(data),
                "--L", "16", "--out-dir", str(out)])
    assert code == 2
    assert "was trained on (problem, dim_theta, dim_x)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count,dim", [(0, 2), (5, 0)])
@pytest.mark.parametrize("command", ["eval", "train"])
def test_a_set_without_rows_or_dimensions_exits_two_before_any_output(
        tmp_path, capsys, command, count, dim):
    data = tmp_path / "empty.sbid"
    Dataset("gaussian-linear", 0, dim, dim, np.zeros((count, dim)),
            np.zeros((count, dim))).save(data)
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--oracle", "--ecp", "rank", "--L", "16"]
    else:
        argv = ["train", "--method", "nre", "--reg", "none", "--epochs", "1"]
    code = run(argv + ["--data", str(data), "--out-dir", str(out)])
    assert code == 2
    assert "empty dataset" in capsys.readouterr().err
    assert not out.exists()


def test_eval_version_one_checkpoint_exits_two(run_dir, data_file, tmp_path,
                                               capsys):
    raw = open(os.path.join(run_dir, "model.calc"), "rb").read()
    old = tmp_path / "v1.calc"
    old.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    out = tmp_path / "e"
    code = run(["eval", "--checkpoint", str(old), "--data", data_file,
                "--out-dir", str(out)])
    assert code == 2
    assert "unsupported checkpoint version 1" in capsys.readouterr().err
    assert not out.exists()


def test_demo_detects_overconfidence(tmp_path, capsys):
    out = tmp_path / "demo"
    code = run(["demo-mixture", "--out-dir", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    ecp = float(printed.split(":")[1].split("(")[0])
    assert ecp < 0.9
    assert (out / "demo.svg").exists()
    seg_lines = (out / "segments.csv").read_text().strip().splitlines()
    assert len(seg_lines) >= 3  # header + at least two disjoint segments


def test_demo_self_test_recovers_level(tmp_path, capsys):
    code = run(["demo-mixture", "--self", "--out-dir", str(tmp_path / "demo")])
    assert code == 0
    ecp = float(capsys.readouterr().out.split(":")[1].split("(")[0])
    assert ecp == pytest.approx(0.9, abs=0.03)


def test_demo_regions_shrink_with_level(tmp_path):
    out_hi = tmp_path / "hi"
    out_lo = tmp_path / "lo"
    run(["demo-mixture", "--out-dir", str(out_hi)])
    run(["demo-mixture", "--level", "0.5", "--out-dir", str(out_lo)])

    def total_length(path):
        rows = path.read_text().strip().splitlines()[1:]
        return sum(float(r.split(",")[1]) - float(r.split(",")[0]) for r in rows)

    assert total_length(out_lo / "segments.csv") < total_length(out_hi / "segments.csv")


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-1"], "expected non-negative integer"),
    (["--level", "1.5"], "level must lie strictly inside (0, 1)"),
], ids=["seed-negative", "level-above-one"])
def test_demo_bad_flags_exit_two_before_any_output(tmp_path, capsys, flags, message):
    out = tmp_path / "demo"
    assert run(["demo-mixture", "--out-dir", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert not out.exists()


def test_config_file_provides_defaults_flags_win(data_file, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=1\nbatch=64\nmethod=npe\nreg=none\n")
    out = tmp_path / "r"
    code = run(["--config", str(cfg), "train", "--data", data_file,
                "--out-dir", str(out), "--reg", "conservative", "--L", "4"])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "reg=conservative" in manifest   # flag wins over config
    assert "epochs=1" in manifest           # config supplies the default


def test_config_flag_without_a_path_exits_two(capsys):
    assert run(["--config"]) == 2
    assert "--config needs a file path" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["epochs=abc", "epoch=1"])
@pytest.mark.parametrize("form", ["separate", "joined"])
def test_config_file_with_a_bad_line_exits_two_in_either_flag_form(
        tmp_path, capsys, line, form):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    flag = ["--config", str(cfg)] if form == "separate" else [f"--config={cfg}"]
    out = tmp_path / "x.sbid"
    assert run(flag + ["simulate", "--n", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and line.split("=")[0] in err
    assert not out.exists()


def test_config_keys_may_be_flag_names(data_file, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("method=npe\nepochs=1\nbatch=64\nlambda=2\nL=4\n")
    out = tmp_path / "r"
    assert run([f"--config={cfg}", "train", "--data", data_file,
                "--out-dir", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text()
    assert "lambda=2.0" in manifest and "L=4" in manifest


@pytest.mark.parametrize("line", ["epochs=abc", "epochs=0"])
def test_config_value_of_the_wrong_type_exits_two(data_file, tmp_path, capsys, line):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(line + "\n")
    code = run(["--config", str(cfg), "train", "--method", "npe",
                "--data", data_file, "--out-dir", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and "epochs=" in err
