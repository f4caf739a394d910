"""Training configuration: defaults, key=value files, CLI overrides."""

from __future__ import annotations

import enum
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

from .errors import BadValueError, UnknownKeyError
from .graph import text_lines
from .mining import MAX_HOP_BOUND
from .model import ScorerKind

MARGIN_RANKING = "margin_ranking"
BINARY_CROSS_ENTROPY = "binary_cross_entropy"
TASK_LOSSES = (MARGIN_RANKING, BINARY_CROSS_ENTROPY)
_ACCEPTS = {int: numbers.Integral, float: numbers.Real}


@dataclass(frozen=True)
class TrainConfig:
    """Every training option: each field is a config-file key and a CLI flag
    --<name> ('_' as '-', or metadata "flag"), parsed alike by the type of its default."""

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
    task_loss: str = ""  # "": from scorer
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
    if cfg.seed < 0:
        raise BadValueError(f"seed must be >= 0, got {cfg.seed}")
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


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_KINDS = {f.name: type(f.default) for f in fields(TrainConfig)}
OPTION_FLAGS = {f.name: "--" + f.metadata.get("flag", f.name).replace("_", "-")
                for f in fields(TrainConfig)}


def _parse_option(key: str, raw: str, where: str) -> object:
    """Option key's value from its text in a file line or a flag, parsed by the
    type of its default and checked alone by TrainConfig; errors name where."""
    kind, raw = _KINDS[key], raw.strip()
    try:
        if kind is bool:
            value = _BOOLS[raw.lower()]
        else:
            value = kind(raw.lower()) if issubclass(kind, enum.Enum) else kind(raw)
        TrainConfig(**{key: value})
    except (KeyError, ValueError):
        raise BadValueError(f"{where}: bad value {raw!r} for {key}") from None
    except BadValueError as exc:
        raise BadValueError(f"{where}: {exc}") from None
    return value


def read_config_file(path: str | os.PathLike[str] | None) -> dict[str, object]:
    """The values a key=value config file sets, by key; {} for no file.

    Blank lines and '#' comments are skipped. Unknown keys, keys set twice and
    unparseable values are errors with the line number attached.
    """
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    if path is not None:
        for lineno, line in enumerate(text_lines(path, BadValueError).split("\n"), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise BadValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _KINDS:
                raise UnknownKeyError(f"{path}:{lineno}: unknown key {key!r}")
            if key in set_on:
                raise BadValueError(
                    f"{path}:{lineno}: key {key!r} set again, first set on line {set_on[key]}"
                )
            set_on[key] = lineno
            values[key] = _parse_option(key, raw, f"{path}:{lineno}")
    return values


def parse_config(
    path: str | os.PathLike[str] | None,
    cli_overrides: dict[str, object] | None = None,
) -> TrainConfig:
    """Resolve a TrainConfig: CLI flags > file values > built-in defaults.
    A string override is parsed as a file value is, and an error names its flag."""
    values = read_config_file(path)
    for key, value in (cli_overrides or {}).items():
        if key not in _KINDS:
            raise UnknownKeyError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = _parse_option(key, value, OPTION_FLAGS[key])
        if value is not None:
            values[key] = value

    return TrainConfig(**values)  # type: ignore[arg-type]


def config_as_dict(cfg: TrainConfig) -> dict[str, object]:
    """JSON-friendly view of a config (the scorer becomes its string value)."""
    return {**asdict(cfg), "scorer": cfg.scorer.value}
