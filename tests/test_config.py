"""Config parsing, validation, and SCM file loading."""

import math

import numpy as np
import pytest

from causalseg.config import (
    ConfigError,
    ModelConfig,
    TrainConfig,
    load_scm_config,
    load_train_config,
    parse_config_lines,
)
from causalseg.scm import worked_example


# -- key=value parsing -------------------------------------------------------

def test_parse_lines_basic():
    pairs = parse_config_lines([
        "lr = 0.05",
        "",
        "# a comment",
        "schedule = cosine  # trailing comment",
        "lr = 0.07",
    ])
    assert pairs == {"lr": "0.07", "schedule": "cosine"}


def test_parse_lines_keeps_a_hash_inside_a_value(tmp_path):
    # a comment starts a line or follows whitespace; elsewhere `#` is text
    pairs = parse_config_lines(["data = d#1", "lr = 0.1  # note", "seed = 3\t# tab"])
    assert pairs == {"data": "d#1", "lr": "0.1", "seed": "3"}
    path = tmp_path / "t.cfg"
    path.write_text("data = d#1\nlr = 0.1  # note\n")
    cfg = load_train_config(path)
    assert (cfg.data, cfg.lr) == ("d#1", 0.1)


def test_parse_lines_rejects_bare_token():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_lines(["lr = 1", "oops"])


# -- train config ------------------------------------------------------------

def test_load_train_config_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("lr = 0.05\nepochs = 3\naugment = no\nschedule = constant\n")
    cfg = load_train_config(path)
    assert cfg.lr == 0.05 and cfg.epochs == 3
    assert cfg.augment is False and cfg.schedule == "constant"
    assert cfg.momentum == 0.9  # untouched fields keep defaults


def test_load_train_config_overrides_win(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("lr = 0.05\n")
    cfg = load_train_config(path, overrides={"lr": 0.2, "seed": None})
    assert cfg.lr == 0.2
    assert cfg.seed == 0  # None overrides are ignored


def test_load_train_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("lr = 0.05\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config keys: learning_rate"):
        load_train_config(path)


def test_load_train_config_rejects_bad_bool(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("augment = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        load_train_config(path)


@pytest.mark.parametrize("field, value, match", [
    ("lr", 0.0, "lr"),
    ("momentum", 1.0, "momentum"),
    ("weight_decay", -1.0, "weight_decay"),
    ("batch", 0, "batch"),
    ("epochs", 0, "batch and epochs"),
    ("k", 3, "k must be"),
    ("k", 513, "k must be"),
    ("band_width", 0, "band_width"),
    ("split_fraction", 1.0, "split_fraction"),
    ("schedule", "linear", "schedule"),
    ("size", 20, "multiple of 8"),
    ("n_samples", 1, "n_samples"),
    ("lr", math.nan, "lr must be finite"),
    ("lr", math.inf, "lr must be finite"),
    ("weight_decay", math.nan, "weight_decay must be finite"),
    ("weight_decay", math.inf, "weight_decay must be finite"),
])
def test_validate_rejects(field, value, match):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=match):
        cfg.validate()


def test_validate_returns_self():
    cfg = TrainConfig()
    assert cfg.validate() is cfg


# -- model config ------------------------------------------------------------

def test_train_config_projects_to_model_config():
    cfg = TrainConfig(k=16, size=32, use_gsm=False, use_cibm=True)
    model_cfg = cfg.model_config()
    assert model_cfg == ModelConfig(k=16, size=32, use_gsm=False, use_cibm=True)


# -- scm config --------------------------------------------------------------

SCM_TEXT = """\
# two-level confounder, binary treatment and outcome
c = 0.7 0.3
x_given_c0 = 0.8 0.2
x_given_c1 = 0.1 0.9
y_given_x0_c0 = 0.9 0.1
y_given_x0_c1 = 0.5 0.5
y_given_x1_c0 = 0.4 0.6
y_given_x1_c1 = 0.05 0.95
"""


def test_load_scm_round_trips_worked_example(tmp_path):
    path = tmp_path / "scm.cfg"
    path.write_text(SCM_TEXT)
    scm = load_scm_config(path)
    ref = worked_example()
    np.testing.assert_allclose(scm.p_c, ref.p_c)
    np.testing.assert_allclose(scm.p_x_given_c, ref.p_x_given_c)
    np.testing.assert_allclose(scm.p_y_given_xc, ref.p_y_given_xc)


def test_load_scm_requires_c_row(tmp_path):
    path = tmp_path / "scm.cfg"
    path.write_text("x_given_c0 = 1.0\n")
    with pytest.raises(ConfigError, match="`c` row"):
        load_scm_config(path)


def test_load_scm_counts_rows(tmp_path):
    path = tmp_path / "scm.cfg"
    path.write_text("c = 0.5 0.5\nx_given_c0 = 1.0\n")
    with pytest.raises(ConfigError, match="x_given_c"):
        load_scm_config(path)


@pytest.mark.parametrize("text, match", [
    ("c =\n", "^c: no values$"),
    ("c = 0.5 0.5\nx_given_c0 = 1.0\nx_given_c1 = 0.5 0.5\n",
     "^x_given_c1: 2 values, but x_given_c0 has 1$"),
    ("c = 1\nx_given_c5 = 1\ny_given_x0_c0 = 1\n", "needs a `x_given_c0` row"),
    ("c = 1\nx_given_c0 = 1\ny_given_x3_c0 = 1\n", "needs a `y_given_x0_c0` row"),
    ("c = 1\nx_given_c0 = 0.5 0.5\ny_given_x0_c0 = 1\ny_given_x1_c0 = 0.5 0.5\n",
     "^y_given_x1_c0: 2 values, but y_given_x0_c0 has 1$"),
], ids=["empty c", "ragged x rows", "x row of another c", "y row of another x", "ragged y rows"])
def test_load_scm_names_a_malformed_row(tmp_path, text, match):
    path = tmp_path / "scm.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_scm_config(path)


def test_load_scm_rejects_unknown_keys(tmp_path):
    path = tmp_path / "scm.cfg"
    path.write_text(SCM_TEXT + "z_mystery = 1.0\n")
    with pytest.raises(ConfigError, match="z_mystery"):
        load_scm_config(path)


@pytest.mark.parametrize("load", [load_train_config, load_scm_config])
@pytest.mark.parametrize("name", ["missing.cfg", "a_directory"])
def test_unreadable_config_file_named(tmp_path, load, name):
    (tmp_path / "a_directory").mkdir()
    path = tmp_path / name
    with pytest.raises(ConfigError, match=rf"^cannot read config {path}: "):
        load(path)


def test_load_scm_rejects_non_numeric(tmp_path):
    path = tmp_path / "scm.cfg"
    path.write_text("c = 0.5 oops\n")
    with pytest.raises(ConfigError, match="c:"):
        load_scm_config(path)
