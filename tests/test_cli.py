"""End-to-end CLI coverage through main(argv)."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import causalseg
from causalseg import train
from causalseg.boundary import boundary_band
from causalseg.checkpoint import load_checkpoint, save_checkpoint
from causalseg.cli import _config_from_args, _load_model, build_parser, main
from causalseg.config import TrainConfig, load_train_config
from causalseg.data import generate_synthetic, ingest, split_dataset, write_pgm
from causalseg.losses import entropy_map
from causalseg.model import SegModel
from causalseg.train import METRICS_COLUMNS, load_dataset

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


def test_generate_then_ingest_keeps_every_tag(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["generate", "--seed", "3", "--n-samples", "70",
                 "--size", "16", "--out", str(data)]) == 0
    records, errors = ingest(data)
    assert errors == []
    assert [(r.stem, r.confounder_tag) for r in records] == [
        (r.stem, r.confounder_tag) for r in generate_synthetic(70, 16, 3)]

    capsys.readouterr()
    assert main(["ingest-check", "--data", str(data)]) == 0
    assert "70 valid pairs, 0 bad files (70 with a confounder tag)" in capsys.readouterr().out
    (data / "tags.csv").unlink()
    assert main(["ingest-check", "--data", str(data)]) == 0
    assert "70 valid pairs, 0 bad files (0 with a confounder tag)" in capsys.readouterr().out
    (data / "tags.csv").write_text("stem,c\nsample0000,7\n")
    assert main(["ingest-check", "--data", str(data)]) == 1
    assert "tags.csv line 2: expected stem,c" in capsys.readouterr().out


def test_generate_into_a_dataset_directory_is_refused(tmp_path, capsys):
    data = tmp_path / "data"
    argv = ["generate", "--n-samples", "3", "--size", "16", "--out", str(data)]
    assert main([*argv, "--seed", "0"]) == 0
    before = {p.name: p.read_bytes() for p in data.iterdir()}
    capsys.readouterr()
    assert main([*argv, "--seed", "1"]) == 2
    assert f"error: {data} already holds a dataset" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in data.iterdir()} == before


def test_generate_zero_is_not_unset(tmp_path, capsys):
    argv = ["generate", "--seed", "0", "--out", str(tmp_path / "data")]
    assert main([*argv, "--n-samples", "0", "--size", "16"]) == 0
    assert "wrote 0 image/mask pairs" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n-samples", "-3", "--size", "16"])
    assert exc.value.code == 2
    assert "argument --n-samples: expected a count of at least 0, got '-3'" in capsys.readouterr().err
    assert not (tmp_path / "data" / "sample0000.img.pgm").exists()
    assert main([*argv, "--n-samples", "2", "--size", "0"]) == 2
    assert "size must be a positive multiple of 8, got 0" in capsys.readouterr().err


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
    # at a constant rate, 2 epochs resumed to 4 are the 4-epoch run, checkpoint and CSV
    out, straight = tmp_path / "run", tmp_path / "straight"
    argv = ["train", "--seed", "0", *TINY, "--schedule", "constant"]
    assert main([*argv, "--out", str(straight), "--epochs", "4"]) == 0
    assert main([*argv, "--out", str(out)]) == 0
    assert main([*argv, "--out", str(out), "--resume", str(out / "model.ckpt"),
                 "--epochs", "4"]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["0", "1", "2", "3"]
    for name in ("metrics.csv", "model.ckpt"):
        assert (out / name).read_bytes() == (straight / name).read_bytes(), name


@pytest.mark.parametrize("flag, value, stored", [
    ("--lr", "0.5", "lr 0.01 (now 0.5)"), ("--seed", "7", "seed 0 (now 7)"),
    ("--k", "8", "k 4 (now 8)"), ("--no-use-gsm", None, "use_gsm True (now False)"),
    ("--n-samples", "8", "n_samples 6 (now 8)")])
def test_train_resume_under_another_config_exits_2(run_dir, tmp_path, capsys, flag, value,
                                                   stored):
    ckpt = run_dir / "model.ckpt"
    saved = ckpt.read_bytes()
    resumed = tmp_path / "run"
    argv = ["train", "--seed", "0", *TINY, "--epochs", "3", flag, *([value] if value else []),
            "--out", str(resumed), "--resume", str(ckpt)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {ckpt} was trained with {stored}\n"
    assert ckpt.read_bytes() == saved and not resumed.exists()


def test_train_resume_under_another_csv_header_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--seed", "0", "--out", str(out), *TINY]) == 0
    (out / "metrics.csv").write_text("stem,dice,iou,fdr,auc\n")
    saved = (out / "model.ckpt").read_bytes()
    capsys.readouterr()
    assert main(["train", "--seed", "0", "--out", str(out), *TINY, "--epochs", "3",
                 "--resume", str(out / "model.ckpt")]) == 2
    assert capsys.readouterr().err == (f"error: {out / 'metrics.csv'} is not a metrics CSV: "
                                       "its header is 'stem,dice,iou,fdr,auc'\n")
    assert (out / "metrics.csv").read_text() == "stem,dice,iou,fdr,auc\n"
    assert (out / "model.ckpt").read_bytes() == saved


def test_train_resume_into_a_new_out_dir_exits_2(tmp_path, capsys):
    first, second = tmp_path / "runA", tmp_path / "runB"
    assert main(["train", "--seed", "0", "--out", str(first), *TINY]) == 0
    capsys.readouterr()
    assert main(["train", "--seed", "0", "--out", str(second), *TINY, "--epochs", "3",
                 "--resume", str(first / "model.ckpt")]) == 2
    assert capsys.readouterr().err == (f"error: {second / 'metrics.csv'} has 0 complete rows, "
                                       "but the checkpoint is at epoch 2\n")
    assert not second.exists()


def test_evaluate_emits_csv(run_dir, tmp_path, capsys):
    out = tmp_path / "sub" / "eval.csv"  # the directory is made for it
    code = main(["evaluate", "--checkpoint", str(run_dir / "model.ckpt"), "--out", str(out)])
    assert code == 0
    assert "mean: dice" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the held-out split of the 6 samples only, as fit reported it, then the mean
    cfg = _config_from_args(build_parser().parse_args(["train", "--seed", "0", "--out", "x", *TINY]))
    _, test = split_dataset(load_dataset(cfg), cfg.split_fraction, cfg.seed)
    assert len(test) == 2
    assert [row["stem"] for row in rows] == [rec.stem for rec in test] + ["mean"]


def test_evaluate_scores_the_test_split_of_the_checkpoints_run(tmp_path, capsys):
    # none of the run's settings is the default, and evaluate is given none of them
    run, out = tmp_path / "run", tmp_path / "eval.csv"
    argv = ["train", "--seed", "3", "--out", str(run), *TINY, "--split-fraction", "0.5",
            "--n-samples", "8", "--no-use-cibm"]
    assert main(argv) == 0
    final = capsys.readouterr().out.splitlines()[-1]
    assert main(["evaluate", "--checkpoint", str(run / "model.ckpt"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == final.replace("final test metrics: ", "mean: ") + "\n"
    records = generate_synthetic(8, 16, 3)
    _, test = split_dataset(records, 0.5, 3)
    assert len(test) == 4
    with open(out, newline="") as fh:
        assert [row["stem"] for row in csv.DictReader(fh)] == [rec.stem for rec in test] + ["mean"]


def test_evaluate_rejects_a_mambo1_checkpoint(tmp_path, capsys):
    old = tmp_path / "model.ckpt"
    old.write_bytes(b"MAMBO1" + bytes(40))
    code = main(["evaluate", "--checkpoint", str(old)])
    assert code == 2
    assert f"error: cannot read checkpoint {old}: File is not a zip file" in capsys.readouterr().err


def test_evaluate_refuses_a_checkpoint_without_its_config(run_dir, tmp_path, capsys):
    # a checkpoint of the format before the config was stored: meta.k and a hash instead
    old = tmp_path / "model.ckpt"
    with np.load(run_dir / "model.ckpt") as npz:
        arrays = {name: npz[name] for name in npz.files if name != "meta.config"}
    with open(old, "wb") as fh:
        np.savez(fh, **arrays, **{"meta.k": np.int64(4), "meta.config_hash": np.zeros(32, np.uint8)})
    for argv in (["evaluate", "--checkpoint", str(old)],
                 ["inspect", "--checkpoint", str(old), "--out", str(tmp_path / "inspect")]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: cannot read checkpoint {old}: "
                                           "missing or malformed meta.config; train again\n")
    assert not (tmp_path / "inspect").exists()


@pytest.mark.parametrize("key, command", [
    ("backbone.head.bias", "evaluate"), ("opt.backbone.head.bias", "train")])
def test_misshapen_checkpoint_array_exits_2(run_dir, tmp_path, capsys, key, command):
    stored = load_checkpoint(run_dir / "model.ckpt")
    stored.arrays[key] = np.zeros(2, dtype=np.float32)
    ckpt = tmp_path / "bad.ckpt"
    save_checkpoint(ckpt, stored.arrays, stored.config)
    argv = (["train", "--seed", "0", "--resume", str(ckpt), "--out", str(tmp_path / "run"),
             *TINY, "--epochs", "3"] if command == "train" else [command, "--checkpoint", str(ckpt)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: checkpoint array {key} has shape (2,)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["data", "resume"])
def test_train_that_fails_to_load_leaves_no_out_dir(tmp_path, capsys, bad):
    missing = tmp_path / "missing"
    out = tmp_path / "run"
    assert main(["train", "--seed", "0", *TINY, f"--{bad}", str(missing),
                 "--out", str(out)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv, flag", [
    (["ablate-k", "--k-list", "4,x"], "--k-list"),
    (["ablate-k", "--k-list", ""], "--k-list"),
    (["ablate-modules", "--seeds", "0,1,"], "--seeds"),
], ids=["not-an-int", "empty", "trailing-comma"])
def test_malformed_int_list_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "0", *TINY])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: expected comma-separated integers" in err
    assert "Traceback" not in err


def test_ablate_k_csv(tmp_path, capsys):
    out = tmp_path / "sub" / "k.csv"  # the directory is made for it
    code = main(["ablate-k", "--seed", "0", "--k-list", "4,8",
                 "--out", str(out), *TINY])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["4", "8"]
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"k=4: dice \S+ iou \S+ fdr \S+ auc \S+ over 1 seed\(s\)", lines[0])


def test_ablate_modules_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = main(["ablate-modules", "--seed", "0", "--seeds", "0",
                 "--out", str(out), *TINY])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and rows[0]["variant"] == "backbone"
    assert capsys.readouterr().out.startswith(
        "variant=backbone use_gsm=0 use_cibm=0: dice ")


def test_ablate_validates_every_run_before_the_first_fit(tmp_path, monkeypatch, capsys):
    fits = []
    monkeypatch.setattr(train, "fit", lambda *args, **kwargs: fits.append(args))
    out = tmp_path / "k.csv"
    assert main(["ablate-k", "--seed", "0", "--k-list", "4,1000", "--out", str(out), *TINY]) == 2
    assert "error: k must be in [4, 512], got 1000" in capsys.readouterr().err
    assert fits == [] and not out.exists()


def test_gradcheck_pass_and_fail_exit_codes(capsys):
    argv = ["gradcheck", "--k", "4", "--size", "16", "--max-probes", "2"]
    assert main(argv) == 0
    assert "PASS" in capsys.readouterr().out
    assert main([*argv, "--tolerance", "1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_gradcheck_max_probes_below_one_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--k", "4", "--size", "16", "--max-probes", value])
    assert exc.value.code == 2
    assert "argument --max-probes: expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--k", "k must be in [4, 512], got 0"),
    ("--size", "size must be a positive multiple of 8, got 0"),
])
def test_gradcheck_zero_is_not_unset(capsys, flag, message):
    assert main(["gradcheck", flag, "0", "--max-probes", "2"]) == 2
    assert message in capsys.readouterr().err


def test_oracle_sweep(capsys):
    assert main(["oracle", "--sweep", "50"]) == 0
    out = capsys.readouterr().out
    assert main(["oracle", "--sweep", "50"]) == 0
    assert capsys.readouterr().out == out
    rows = out.splitlines()[1:]
    assert [row.split(":")[0].strip() for row in rows] == [
        "observational vs do(x) TV", "rounded-stratum gap TV"]
    for row in rows:
        values = re.search(r"median (\S+)  p90 (\S+)  p99 (\S+)  max (\S+)  \(n=(\d+)\)", row)
        assert values, row
        assert all(0.0 <= float(v) <= 1.0 for v in values.groups()[:4])
        assert int(values.group(5)) >= 100  # every random model has |X| >= 2

    assert main(["oracle", "--sweep", "0"]) == 2
    assert "at least one model" in capsys.readouterr().err


def test_oracle_table(capsys, tmp_path):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert "P(Y|do(x))" in out and "|C|=2" in out

    bad = tmp_path / "scm.cfg"
    bad.write_text("c = 0.5 0.6\nx_given_c0 = 1.0\nx_given_c1 = 1.0\n"
                   "y_given_x0_c0 = 1.0\ny_given_x0_c1 = 1.0\n")
    assert main(["oracle", "--config", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def inspected(run_dir, tmp_path_factory):
    """One ``inspect`` run on the shared checkpoint, with the records and
    predictions it was made from."""
    out = tmp_path_factory.mktemp("inspect")
    assert main(["inspect", "--checkpoint", str(run_dir / "model.ckpt"), "--out", str(out)]) == 0
    cfg, model = _load_model(run_dir / "model.ckpt")
    records = load_dataset(cfg)
    preds = train.predict(model, [rec.image for rec in records], cfg.batch)
    return out, cfg, records, preds


def test_entropy_maps(inspected, tmp_path):
    out, _, records, preds = inspected
    assert len(list(out.glob("*.entropy.pgm"))) == len(records) == 6
    for rec, pred in zip(records, preds):
        write_pgm(tmp_path / "want.pgm", entropy_map(pred))
        assert (out / f"{rec.stem}.entropy.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()


def test_inspect_band(inspected, tmp_path):
    out, cfg, records, _ = inspected
    assert len(list(out.glob("*.pgm"))) == 4 * len(records)
    for rec in records:
        assert sorted(path.name for path in out.glob(f"{rec.stem}.*.pgm")) == [
            f"{rec.stem}.{name}.pgm" for name in ("band", "entropy", "sobel", "uncertainty")]
        write_pgm(tmp_path / "want.pgm", boundary_band(rec.mask, cfg.band_width))
        assert (out / f"{rec.stem}.band.pgm").read_bytes() == (tmp_path / "want.pgm").read_bytes()


def test_inspect_omega(inspected, tmp_path):
    out = inspected[0]
    stage_files = sorted(out.glob("omega_stage*.csv"))
    assert len(stage_files) == 3
    for path in stage_files:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        weights = np.array([[float(w) for w in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-6)

    # without CIBM there are no mixing weights, so no omega CSV
    gsm_run, gsm_out = tmp_path / "gsm-run", tmp_path / "gsm-inspect"
    assert main(["train", "--seed", "0", "--no-use-cibm", "--out", str(gsm_run), *TINY]) == 0
    assert main(["inspect", "--checkpoint", str(gsm_run / "model.ckpt"),
                 "--out", str(gsm_out)]) == 0
    assert list(gsm_out.glob("omega_stage*.csv")) == []
    assert "omega_entropy" not in json.loads((gsm_out / "diagnostics.json").read_text())


def test_inspect(inspected):
    diagnostics = json.loads((inspected[0] / "diagnostics.json").read_text())
    assert set(diagnostics) == {"prior_mu_std", "prior_sigma_mean", "kl", "probe_accuracy",
                                "probe_majority_share", "omega_entropy"}
    assert len(diagnostics["omega_entropy"]) == 3


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


@pytest.mark.parametrize("command", ["train", "oracle"])
def test_missing_config_file_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "nope.cfg"
    extra = ["--seed", "0", "--out", str(tmp_path / "run")] if command == "train" else []
    assert main([command, *extra, "--config", str(missing)]) == 2
    assert f"error: cannot read config {missing}: " in capsys.readouterr().err


# each command writes under --out; ``plain`` is a regular file in the way
@pytest.mark.parametrize("argv, out, checkpoint", [
    (["generate", "--seed", "0", "--n-samples", "2", "--size", "16"], "plain", False),
    (["generate", "--seed", "0", "--n-samples", "2", "--size", "16"], "plain/x", False),
    (["train", "--seed", "0", *TINY], "plain/x", False),
    (["inspect"], "plain", True),
    (["ablate-k", "--k-list", "4", *TINY], "plain/x.csv", False),
    (["inspect"], "plain/x", True),
    (["inspect"], "plain/x/y", True),
], ids=["generate", "generate-under", "train-under", "inspect-band", "ablate-k-under",
        "entropy-under", "inspect-omega"])
def test_out_through_a_regular_file_exits_2(run_dir, tmp_path, capsys, argv, out, checkpoint):
    plain = tmp_path / "plain"
    plain.write_text("a file, not a directory\n")
    if checkpoint:
        argv = [*argv, "--checkpoint", str(run_dir / "model.ckpt")]
    assert main([*argv, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(plain) in err


@pytest.mark.parametrize("flag", ["--lr", "--weight-decay"])
def test_non_finite_rate_exits_2_before_loading_data(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.setattr(train, "load_dataset", lambda cfg: pytest.fail("the data was loaded"))
    assert main(["train", "--seed", "0", flag, "nan", "--out", str(tmp_path / "run")]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_divergence_exits_2(tmp_path, capsys):
    argv = ["train", "--seed", "0", "--n-samples", "16", "--size", "16", "--batch", "4",
            "--epochs", "2", "--k", "4", "--no-augment", "--lr", "1000",
            "--weight-decay", "0", "--out", str(tmp_path / "run")]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
    assert "non-finite" in capsys.readouterr().err


def test_divergence_found_by_evaluation_names_step_and_parameter(tmp_path, capsys):
    # at lr 1000 every step leaves the weights finite but huge, and the first
    # non-finite value appears in the epoch's evaluation
    argv = ["train", "--seed", "0", "--n-samples", "16", "--size", "16", "--batch", "4",
            "--epochs", "2", "--k", "4", "--no-augment", "--lr", "1000",
            "--weight-decay", "0", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    match = re.search(r"evaluation after step \d+: .*; largest parameter (\S+), max \|value\| \S+$",
                      err.strip())
    assert match, err
    cfg = _config_from_args(build_parser().parse_args(argv))
    assert match.group(1) in SegModel(cfg.model_config(), cfg.seed).registry.tensors


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


@pytest.mark.parametrize("command", ["evaluate", "inspect"])
def test_checkpoint_commands_take_no_config_flag(command):
    # the run's config comes from the checkpoint, so no flag can disagree with it
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    options = {opt for action in parser._actions for opt in action.option_strings}
    assert options == {"-h", "--help", "--checkpoint", "--out"}


# -- README recipes parse against the CLI ------------------------------------

def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("causalseg ")]
    assert {argv[0] for argv in commands} >= {
        "ablate-modules", "ablate-k", "generate", "train", "evaluate", "inspect",
        "oracle", "gradcheck"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
