"""Run configuration: dataclasses and `key = value` file parsing.

Config files are UTF-8 lines of `key = value` with `#` comments; unknown
keys are rejected so typos fail loudly.  Every checkpoint stores the whole
TrainConfig it was trained with (see ``checkpoint``).
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .scm import DiscreteSCM

BACKBONE_CHANNELS = (8, 16, 32)

K_MIN = 4
K_MAX = 512


class ConfigError(ValueError):
    """Malformed config file or out-of-range field value."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture-determining fields: what ``SegModel`` is built from."""

    k: int = 128
    size: int = 64
    use_gsm: bool = True
    use_cibm: bool = True


@dataclass
class TrainConfig:
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 0.01
    batch: int = 8
    epochs: int = 100
    k: int = 128
    band_width: int = 2
    seed: int = 0
    split_fraction: float = 0.7
    schedule: str = "cosine"
    size: int = 64
    data: str = "synthetic"
    n_samples: int = 256
    augment: bool = True
    use_gsm: bool = True
    use_cibm: bool = True

    def validate(self):
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch < 1 or self.epochs < 1:
            raise ConfigError("batch and epochs must be >= 1")
        if not K_MIN <= self.k <= K_MAX:
            raise ConfigError(f"k must be in [{K_MIN}, {K_MAX}], got {self.k}")
        if self.band_width < 1:
            raise ConfigError(f"band_width must be >= 1, got {self.band_width}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.schedule not in ("cosine", "constant"):
            raise ConfigError(f"schedule must be cosine or constant, got {self.schedule!r}")
        if self.size % 8 or self.size < 8:
            raise ConfigError(f"size must be a positive multiple of 8, got {self.size}")
        if self.n_samples < 2:
            raise ConfigError(f"n_samples must be >= 2, got {self.n_samples}")
        return self

    def model_config(self) -> ModelConfig:
        return ModelConfig(k=self.k, size=self.size, use_gsm=self.use_gsm,
                           use_cibm=self.use_cibm)


def _coerce_field(name: str, kind, raw: str):
    raw = raw.strip()
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_config_lines(lines) -> dict:
    """`key = value` pairs with `#` comments; duplicate keys keep the last."""
    pairs = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line.rstrip()!r}")
        key, _, value = stripped.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _read_config(path) -> dict:
    """The `key = value` pairs of a config file; ConfigError if unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_lines(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def load_train_config(path, overrides=None) -> TrainConfig:
    types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    values = {}
    if path is not None:
        pairs = _read_config(path)
        unknown = sorted(set(pairs) - set(types))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values = {k: _coerce_field(k, types[k], v) for k, v in pairs.items()}
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    return TrainConfig(**values).validate()


def load_scm_config(path) -> DiscreteSCM:
    """Discrete causal model from `key = value` rows of probabilities.

    Keys: `c` for P(C); `x_given_c<j>` rows; `y_given_x<i>_c<j>` rows.  Every
    row holds at least one value, and every row of a table as many as its first.
    """
    pairs = _read_config(path)

    def table(keys):
        rows = []
        for key in keys:
            if key not in pairs:
                raise ConfigError(f"scm config needs a `{key}` row")
            try:
                rows.append([float(tok) for tok in pairs.pop(key).split()])
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
            if not rows[-1]:
                raise ConfigError(f"{key}: no values")
            if len(rows[-1]) != len(rows[0]):
                raise ConfigError(f"{key}: {len(rows[-1])} values, but {keys[0]} has {len(rows[0])}")
        return rows

    (p_c,) = table(["c"])
    p_x = table([f"x_given_c{j}" for j in range(len(p_c))])
    n_x = len(p_x[0])
    p_y = table([f"y_given_x{i}_c{j}" for i in range(n_x) for j in range(len(p_c))])
    if pairs:
        raise ConfigError(f"unknown scm config keys: {', '.join(sorted(pairs))}")
    return DiscreteSCM(np.array(p_c), np.array(p_x), np.array(p_y).reshape(n_x, len(p_c), -1))
