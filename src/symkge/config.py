"""Training configuration: defaults, key=value files, CLI overrides."""

from __future__ import annotations

import enum
import math
import numbers
import os
from dataclasses import dataclass, field, fields

from .errors import BadValueError, UnknownKeyError
from .mining import MAX_HOP_BOUND
from .model import ScorerKind

MARGIN_RANKING = "margin_ranking"
BINARY_CROSS_ENTROPY = "binary_cross_entropy"
TASK_LOSSES = (MARGIN_RANKING, BINARY_CROSS_ENTROPY)
_ACCEPTS = {int: numbers.Integral, float: numbers.Real}


@dataclass(frozen=True)
class TrainConfig:
    """Every training option: each field is a config-file key, parsed by the type
    of its default, and a CLI flag --<name> ('_' as '-', or metadata "flag")."""

    k: int = 2
    m: int = 50
    alpha: float = 0.001
    dim: int = 200
    lr: float = 1e-3
    epochs: int = 500
    batch_size: int = 512
    n_negatives: int = field(default=10, metadata={"flag": "negatives"})
    margin: float = 1.0
    seed: int = 0
    scorer: ScorerKind = ScorerKind.TRANSE
    task_loss: str = field(default="", metadata={"choices": TASK_LOSSES})  # "": from scorer
    renormalize: bool = False

    def __post_init__(self):
        _validate(self)
        if not self.task_loss:
            object.__setattr__(self, "task_loss", default_task_loss(self.scorer))


def default_task_loss(scorer: ScorerKind) -> str:
    """TransE trains with margin ranking, DistMult with binary cross-entropy."""
    return MARGIN_RANKING if scorer is ScorerKind.TRANSE else BINARY_CROSS_ENTROPY


def _validate(cfg: TrainConfig) -> None:
    for f in fields(cfg):
        value, kind = getattr(cfg, f.name), type(f.default)
        # an int fits a float field; bool is an int subclass, yet only bool fields take one
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, _ACCEPTS.get(kind, kind))):
            raise BadValueError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
    if not 1 <= cfg.k <= MAX_HOP_BOUND:
        raise BadValueError(f"k must be in 1..{MAX_HOP_BOUND}, got {cfg.k}")
    if cfg.m < 1:
        raise BadValueError(f"m must be >= 1, got {cfg.m}")
    # A NaN fails every comparison, so each bounded range below refuses it too.
    if not 0 <= cfg.alpha < math.inf:
        raise BadValueError(f"alpha must be finite and >= 0, got {cfg.alpha}")
    if cfg.dim < 1 or cfg.epochs < 1 or cfg.batch_size < 1 or cfg.n_negatives < 1:
        raise BadValueError("dim, epochs, batch_size, and negatives must be >= 1")
    if not 0 <= cfg.lr < math.inf:
        raise BadValueError(f"lr must be finite and >= 0, got {cfg.lr}")
    if not 0 < cfg.margin < math.inf:
        raise BadValueError(f"margin must be finite and > 0, got {cfg.margin}")
    if cfg.task_loss and cfg.task_loss not in TASK_LOSSES:
        raise BadValueError(f"unknown task loss {cfg.task_loss!r}")


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_value(kind: type, raw: str) -> object:
    """A config-file value for a field whose default is of type kind."""
    if kind is bool:
        return _parse_bool(raw)
    if issubclass(kind, enum.Enum):
        return kind(raw.lower())
    return kind(raw)


_KINDS = {f.name: type(f.default) for f in fields(TrainConfig)}


def read_config_file(path: str | os.PathLike[str] | None) -> dict[str, object]:
    """The values a key=value config file sets, by key; {} for no file.

    Blank lines and '#' comments are skipped. Unknown keys and unparseable
    values are errors with the line number attached.
    """
    values: dict[str, object] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise BadValueError(f"{path}:{lineno}: expected key=value")
                key, _, raw = stripped.partition("=")
                key = key.strip()
                if key not in _KINDS:
                    raise UnknownKeyError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _parse_value(_KINDS[key], raw.strip())
                except ValueError:
                    raise BadValueError(
                        f"{path}:{lineno}: bad value {raw.strip()!r} for {key}"
                    ) from None
    return values


def parse_config(
    path: str | os.PathLike[str] | None,
    cli_overrides: dict[str, object] | None = None,
) -> TrainConfig:
    """Resolve a TrainConfig: CLI flags > file values > built-in defaults."""
    values = read_config_file(path)
    for key, value in (cli_overrides or {}).items():
        if key not in _KINDS:
            raise UnknownKeyError(f"unknown config key {key!r}")
        if value is not None:
            values[key] = value

    return TrainConfig(**values)  # type: ignore[arg-type]


def config_as_dict(cfg: TrainConfig) -> dict[str, object]:
    """JSON-friendly view of a config (enums become their string values)."""
    out: dict[str, object] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = value.value if isinstance(value, ScorerKind) else value
    return out
