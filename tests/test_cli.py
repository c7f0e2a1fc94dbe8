"""End-to-end CLI coverage through main(argv)."""

import csv
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import causalseg
from causalseg.cli import _config_from_args, build_parser, main
from causalseg.config import TrainConfig, load_train_config
from causalseg.data import read_pgm, write_pgm
from causalseg.train import METRICS_COLUMNS

TINY = ["--n-samples", "6", "--size", "16", "--batch", "2", "--epochs", "2",
        "--k", "4", "--no-augment", "--lr", "0.01", "--weight-decay", "0"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One trained checkpoint shared by the commands that consume one."""
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--seed", "0", "--out", str(out), *TINY])
    assert code == 0
    return out


def test_generate_and_ingest_check(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--seed", "1", "--n-samples", "4",
                 "--size", "16", "--out", str(data)]) == 0
    assert "wrote 4 image/mask pairs" in capsys.readouterr().out
    assert len(list(data.glob("*.img.pgm"))) == 4

    assert main(["ingest-check", "--data", str(data)]) == 0
    assert "4 valid pairs, 0 bad files" in capsys.readouterr().out

    (data / "orphan.img.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x01\x02\x03")
    assert main(["ingest-check", "--data", str(data)]) == 1
    assert "missing mask pair" in capsys.readouterr().out


def test_generate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--out", "/tmp/x"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_train_writes_artifacts(run_dir, capsys):
    assert (run_dir / "model.ckpt").exists()
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == METRICS_COLUMNS
    assert len(rows) == 3  # header + 2 epochs


def test_train_resume_extends_csv(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--seed", "0", "--out", str(out), *TINY]) == 0
    args = ["train", "--seed", "0", "--out", str(out), *TINY,
            "--resume", str(out / "model.ckpt")]
    assert main([*args, "--epochs", "4"]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]


def test_evaluate_emits_csv(run_dir, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    code = main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--out", str(out), *TINY])
    assert code == 0
    assert "mean: dice" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[-1]["stem"] == "mean"
    assert len(rows) == 7  # 6 per-image rows + mean


def test_evaluate_rejects_wrong_architecture(run_dir, capsys):
    code = main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"),
                 *TINY, "--k", "8"])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, flag, first_bad", [
    ((16, 24), "16", "b0 is 24x24"),
    ((16, 16), "32", "a0 is 16x16"),
], ids=["mixed-sizes", "not-the-configured-size"])
def test_train_rejects_records_of_another_size(tmp_path, capsys, sizes, flag, first_bad):
    data = tmp_path / "data"
    data.mkdir()
    for prefix, size in zip("ab", sizes):
        for i in range(3):
            write_pgm(data / f"{prefix}{i}.img.pgm", np.full((size, size), 0.5))
            write_pgm(data / f"{prefix}{i}.mask.pgm", np.eye(size))
    code = main(["train", "--seed", "0", "--data", str(data), "--out", str(tmp_path / "run"),
                 *TINY, "--size", flag])
    assert code == 2
    assert f"{first_bad}, but the configured size is {flag}" in capsys.readouterr().err


def test_ablate_k_csv(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code = main(["ablate-k", "--seed", "0", "--k-list", "4,8",
                 "--out", str(out), *TINY])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["4", "8"]


def test_ablate_modules_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["ablate-modules", "--seed", "0", "--seeds", "0",
                 "--out", str(out), *TINY])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and rows[0]["variant"] == "backbone"


def test_entropy_maps(run_dir, tmp_path, capsys):
    out = tmp_path / "ent"
    code = main(["entropy", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--out", str(out), *TINY])
    assert code == 0
    maps = sorted(out.glob("*.entropy.pgm"))
    assert len(maps) == 6
    img = read_pgm(maps[0])
    assert img.shape == (16, 16)


def test_gradcheck_pass_and_fail_exit_codes(capsys):
    argv = ["gradcheck", "--k", "4", "--size", "16", "--max-probes", "2"]
    assert main(argv) == 0
    assert "PASS" in capsys.readouterr().out
    assert main([*argv, "--tolerance", "1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_oracle_table(capsys, tmp_path):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "P(Y|do(x))" in out and "|C|=2" in out

    bad = tmp_path / "scm.cfg"
    bad.write_text("c = 0.5 0.6\nx_given_c0 = 1.0\nx_given_c1 = 1.0\n"
                   "y_given_x0_c0 = 1.0\ny_given_x0_c1 = 1.0\n")
    assert main(["oracle", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_inspect_band(run_dir, tmp_path, capsys):
    out = tmp_path / "band"
    code = main(["inspect-band", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--index", "0", "--out", str(out), *TINY])
    assert code == 0
    assert "band, sobel, uncertainty" in capsys.readouterr().out
    assert len(list(out.glob("*.pgm"))) == 3

    assert main(["inspect-band", "--index", "99", "--out", str(out), *TINY]) == 1


def test_inspect_omega(run_dir, tmp_path, capsys):
    out = tmp_path / "omega"
    code = main(["inspect-omega", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--out", str(out), *TINY])
    assert code == 0
    stage_files = sorted(out.glob("omega_stage*.csv"))
    assert len(stage_files) == 3
    with open(stage_files[0], newline="") as fh:
        rows = list(csv.reader(fh))
    weights = np.array([[float(w) for w in row[1:]] for row in rows[1:]])
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    code = main(["inspect-omega", "--checkpoint", str(run_dir / "model.ckpt"),
                 "--no-use-cibm", "--out", str(out), *TINY])
    assert code == 1


def test_config_file_plus_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nn_samples = 4\nsize = 16\nbatch = 2\nk = 4\n"
                   "augment = no\n")
    out = tmp_path / "run"
    assert main(["train", "--seed", "0", "--config", str(cfg),
                 "--out", str(out), "--epochs", "2"]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 3  # flag override beat the file

    cfg.write_text("bogus_key = 1\n")
    assert main(["train", "--seed", "0", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_train_divergence_exits_2(tmp_path, capsys):
    argv = ["train", "--seed", "0", "--n-samples", "16", "--size", "16", "--batch", "4",
            "--epochs", "2", "--k", "4", "--no-augment", "--lr", "1000",
            "--weight-decay", "0", "--out", str(tmp_path / "run")]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
    assert "non-finite" in capsys.readouterr().err


def test_divergent_train_prints_only_the_error(tmp_path, capfd):
    # a fresh process, so that numpy's warnings reach stderr as they would
    # from the command line rather than pytest's warning capture
    src = Path(causalseg.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = ["train", "--seed", "0", "--n-samples", "16", "--size", "16", "--batch", "4",
            "--epochs", "2", "--k", "4", "--no-augment", "--lr", "1000",
            "--weight-decay", "0", "--out", str(tmp_path / "run")]
    proc = subprocess.run([sys.executable, "-m", "causalseg.cli", *argv], env=env, timeout=300)
    err = capfd.readouterr().err
    assert proc.returncode == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "non-finite" in err


# -- one schema: every TrainConfig field is a config key and a flag ----------

_STR_SAMPLES = {"schedule": "constant", "data": "elsewhere"}


def _sample(field):
    """A valid non-default value of the field's declared type."""
    if field.type is bool:
        return not field.default
    if field.type is int:
        return field.default + 8  # keeps size a multiple of 8
    if field.type is float:
        return field.default / 2
    return _STR_SAMPLES[field.name]


def _flags(field, value):
    flag = "--" + field.name.replace("_", "-")
    if field.type is bool:
        return [flag if value else "--no-" + flag[2:]]
    return [flag, str(value)]


def test_every_field_is_a_config_key_of_its_type(tmp_path):
    samples = {f.name: _sample(f) for f in fields(TrainConfig)}
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{name} = {value}\n" for name, value in samples.items()))
    cfg = load_train_config(path)
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        assert type(value) is f.type and value == samples[f.name], f.name


def test_every_field_is_a_train_flag_of_its_type():
    parser = build_parser()
    samples = {f.name: _sample(f) for f in fields(TrainConfig)}
    argv = ["train", "--out", "x"]
    for f in fields(TrainConfig):
        argv += _flags(f, samples[f.name])
    cfg = _config_from_args(parser.parse_args(argv))
    for f in fields(TrainConfig):
        value = getattr(cfg, f.name)
        assert type(value) is f.type and value == samples[f.name], f.name

    # bools take both polarities
    for f in fields(TrainConfig):
        if f.type is bool:
            for value in (True, False):
                args = parser.parse_args(["train", "--seed", "0", "--out", "x",
                                          *_flags(f, value)])
                assert getattr(args, f.name) is value


def test_train_flag_set_is_exactly_the_schema():
    train = build_parser()._subparsers._group_actions[0].choices["train"]
    options = {opt for action in train._actions for opt in action.option_strings}
    expected = {"-h", "--help", "--config", "--seed", "--out", "--resume"}
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        expected |= {flag, "--no-" + flag[2:]} if f.type is bool else {flag}
    assert options == expected
