"""The experiment configuration: the settings of a training run, their
types, and their text form in a config file.

``SETTINGS`` maps each setting's name to its type, read from
``ExperimentConfig``'s annotations; the CLI's flags and a checkpoint's
stored config both name exactly these settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Union, get_args, get_type_hints

from . import cells, optim
from .embedding import embedding_dim_heuristic
from .errors import ConfigError


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def _value_types(key: str) -> tuple:
    """The types a setting's value may have, from its annotation in
    ``ExperimentConfig``: the first one is the setting's own type, and
    ``NoneType`` is among them only where the setting may be None."""
    if key not in SETTINGS:
        raise ConfigError(f"unknown configuration key {key!r}")
    hint = SETTINGS[key]
    return get_args(hint) or (hint,)


def _check_value_type(key: str, value) -> None:
    """An int is also a float, but a bool is no number, and None only fits
    a nullable setting."""
    types = _value_types(key)
    allowed = types + (int,) if float in types else types
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in types):
        names = " or ".join("None" if t is type(None) else t.__name__ for t in types)
        raise ConfigError(f"{key} must be of type {names}, got {value!r}")


def parse_config_value(key: str, raw: str):
    """One typed config value from its text form."""
    types = _value_types(key)
    raw = raw.strip()
    if type(None) in types and raw.lower() in ("", "none"):
        return None
    if key == "embedding_dim" and raw.lower() == "auto":
        return "auto"
    kind = types[0]
    if kind is bool:
        return _parse_bool(key, raw)
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        auto = " or 'auto'" if key == "embedding_dim" else ""
        raise ConfigError(f"{key} must be {what}{auto}, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat ``key = value`` lines to a typed option dict.

    Blank lines and '#' comment lines are ignored (a later '#' is part of
    the value); unknown keys, repeated keys and bad values name the line.
    """
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            out[key] = parse_config_value(key, raw)
        except ConfigError as e:
            raise ConfigError(f"{source}:{lineno}: {e}") from None
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a training run besides the encoded
    corpus, whose ``PipelineConfig`` holds the vocabulary cap and length.

    ``learning_rate`` defaults to None and resolves by class count (0.001
    for 2, 0.005 for more), and ``embedding_dim`` may be the literal
    string "auto" for the fourth-root heuristic; ``resolved`` fills both
    in. The class count picks the head and the head fixes the loss, so
    neither is a setting. The constructor refuses a bad setting with a
    ConfigError, and a config is frozen, so ``dataclasses.replace`` makes
    a checked copy.
    """

    cell: str = "lstm"
    embedding_dim: Union[int, str] = 16
    hidden_size: int = 16
    dense_size: int = 8
    learning_rate: Optional[float] = None
    optimizer: str = "adam"
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    gradient_clip: Optional[float] = None
    pretrained_vectors: Optional[str] = None
    literal_recurrence: bool = False
    peepholes: bool = True

    def __post_init__(self):
        for f in fields(self):
            _check_value_type(f.name, getattr(self, f.name))
        if self.cell not in cells.GATES:
            raise ConfigError(f"cell must be one of {tuple(cells.GATES)}, got {self.cell!r}")
        if self.optimizer not in optim.OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {tuple(optim.OPTIMIZERS)}, got {self.optimizer!r}")
        for name, low in (("hidden_size", 1), ("dense_size", 1),
                          ("epochs", 0), ("batch_size", 1), ("seed", 0)):
            v = getattr(self, name)
            if v < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {v!r}")
        if self.embedding_dim != "auto" and (
                isinstance(self.embedding_dim, str) or self.embedding_dim < 1):
            raise ConfigError(f"embedding_dim must be a positive integer or 'auto', got {self.embedding_dim!r}")
        for name in ("learning_rate", "gradient_clip"):
            v = getattr(self, name)
            if v is not None and not (v > 0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive and finite, got {v}")
        if self.literal_recurrence and self.cell != "rnn":
            raise ConfigError("literal_recurrence only applies to the rnn cell")

    def resolved(self, vocab_size: int, n_classes: int) -> ExperimentConfig:
        """This config as a run over ``vocab_size`` vocabulary entries and
        ``n_classes`` classes uses it, with no unset ``learning_rate`` and no
        "auto" ``embedding_dim``. A resolved config resolves to itself."""
        rate, dim = self.learning_rate, self.embedding_dim
        return replace(
            self, learning_rate=(0.001 if n_classes == 2 else 0.005) if rate is None else rate,
            embedding_dim=embedding_dim_heuristic(vocab_size) if dim == "auto" else dim)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        """'key = value' lines, one per field. The output is itself a valid
        configuration file, so the log of a resolved config is enough to
        rerun an experiment."""
        lines = []
        for key, v in self.to_dict().items():
            if v is None:
                v = "none"
            elif isinstance(v, bool):
                v = "true" if v else "false"
            lines.append(f"{key} = {v}")
        return "\n".join(lines)


# The settings' names and types, from the fields' annotations, in field order.
SETTINGS = get_type_hints(ExperimentConfig)
