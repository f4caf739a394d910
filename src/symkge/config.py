"""Training configuration: defaults, key=value files, CLI overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import BadValueError, UnknownKeyError
from .model import ScorerKind

MARGIN_RANKING = "margin_ranking"
BINARY_CROSS_ENTROPY = "binary_cross_entropy"


@dataclass(frozen=True)
class TrainConfig:
    k: int = 2
    m: int = 50
    alpha: float = 0.001
    dim: int = 200
    lr: float = 1e-3
    epochs: int = 500
    batch_size: int = 512
    n_negatives: int = 10
    margin: float = 1.0
    seed: int = 0
    scorer: ScorerKind = ScorerKind.TRANSE
    task_loss: str = ""  # resolved from scorer when left empty
    renormalize: bool = False

    def __post_init__(self):
        if not self.task_loss:
            object.__setattr__(self, "task_loss", default_task_loss(self.scorer))
        _validate(self)


def default_task_loss(scorer: ScorerKind) -> str:
    """TransE trains with margin ranking, DistMult with binary cross-entropy."""
    return MARGIN_RANKING if scorer is ScorerKind.TRANSE else BINARY_CROSS_ENTROPY


def _validate(cfg: TrainConfig) -> None:
    if cfg.k not in (1, 2, 3):
        raise BadValueError(f"k must be 1, 2, or 3, got {cfg.k}")
    if cfg.m < 1:
        raise BadValueError(f"m must be >= 1, got {cfg.m}")
    if cfg.alpha < 0:
        raise BadValueError(f"alpha must be >= 0, got {cfg.alpha}")
    if cfg.dim < 1 or cfg.epochs < 1 or cfg.batch_size < 1 or cfg.n_negatives < 1:
        raise BadValueError("dim, epochs, batch_size, and negatives must be >= 1")
    if cfg.lr < 0:
        raise BadValueError(f"lr must be >= 0, got {cfg.lr}")
    if cfg.margin <= 0:
        raise BadValueError(f"margin must be > 0, got {cfg.margin}")
    if cfg.task_loss not in (MARGIN_RANKING, BINARY_CROSS_ENTROPY):
        raise BadValueError(f"unknown task loss {cfg.task_loss!r}")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_scorer(raw: str) -> ScorerKind:
    try:
        return ScorerKind(raw.strip().lower())
    except ValueError:
        raise ValueError(raw) from None


_PARSERS = {
    "k": int,
    "m": int,
    "alpha": float,
    "dim": int,
    "lr": float,
    "epochs": int,
    "batch_size": int,
    "n_negatives": int,
    "margin": float,
    "seed": int,
    "scorer": _parse_scorer,
    "task_loss": str.strip,
    "renormalize": _parse_bool,
}


def parse_config(
    path: str | os.PathLike[str] | None,
    cli_overrides: dict[str, object] | None = None,
) -> TrainConfig:
    """Resolve a TrainConfig: CLI flags > file values > built-in defaults.

    The file is plain key=value lines; blank lines and '#' comments are
    skipped. Unknown keys and unparseable values are errors with the line
    number attached.
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
                if key not in _PARSERS:
                    raise UnknownKeyError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _PARSERS[key](raw.strip())
                except ValueError:
                    raise BadValueError(
                        f"{path}:{lineno}: bad value {raw.strip()!r} for {key}"
                    ) from None

    for key, value in (cli_overrides or {}).items():
        if key not in _PARSERS:
            raise UnknownKeyError(f"unknown config key {key!r}")
        if value is not None:
            values[key] = value

    try:
        return TrainConfig(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise BadValueError(str(exc)) from None


def config_as_dict(cfg: TrainConfig) -> dict[str, object]:
    """JSON-friendly view of a config (enums become their string values)."""
    out: dict[str, object] = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        out[f.name] = value.value if isinstance(value, ScorerKind) else value
    return out
