"""Config defaults, file parsing, and override precedence."""

import math

import pytest

from symkge.config import (
    BINARY_CROSS_ENTROPY,
    MARGIN_RANKING,
    TrainConfig,
    config_as_dict,
    parse_config,
)
from symkge.errors import BadValueError, UnknownKeyError
from symkge.model import ScorerKind


def test_defaults_without_file():
    cfg = parse_config(None, {})
    assert cfg.alpha == 0.001
    assert cfg.k == 2
    assert cfg.m == 50
    assert cfg.dim == 200
    assert cfg.lr == 1e-3
    assert cfg.epochs == 500
    assert cfg.batch_size == 512
    assert cfg.n_negatives == 10
    assert cfg.margin == 1.0
    assert cfg.scorer is ScorerKind.TRANSE
    assert cfg.task_loss == MARGIN_RANKING


def test_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n\n", encoding="utf-8")
    assert parse_config(path, {}) == parse_config(None, {})


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=0.01\nk=1\nscorer=distmult\n", encoding="utf-8")
    cfg = parse_config(path, {})
    assert cfg.alpha == 0.01
    assert cfg.k == 1
    assert cfg.scorer is ScorerKind.DISTMULT
    assert cfg.task_loss == BINARY_CROSS_ENTROPY  # follows the scorer


def test_cli_overrides_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=0.01\n", encoding="utf-8")
    cfg = parse_config(path, {"alpha": 0.1})
    assert cfg.alpha == 0.1


def test_none_overrides_are_ignored(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=0.01\n", encoding="utf-8")
    cfg = parse_config(path, {"alpha": None})
    assert cfg.alpha == 0.01


def test_byte_order_mark_is_not_part_of_the_first_key(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfdim = 7\nepochs = 3\n")
    cfg = parse_config(path, {})
    assert (cfg.dim, cfg.epochs) == (7, 3)


def test_unknown_key_has_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=0.01\nbogus=3\n", encoding="utf-8")
    with pytest.raises(UnknownKeyError, match=":2:"):
        parse_config(path, {})


def test_bad_value_has_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha=banana\n", encoding="utf-8")
    with pytest.raises(BadValueError, match=":1:"):
        parse_config(path, {})


def test_key_set_twice_names_both_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("dim=4\n# a later override\nalpha=0.01\ndim = 5\n", encoding="utf-8")
    with pytest.raises(BadValueError, match=r":4: key 'dim' set again, first set on line 1$"):
        parse_config(path, {})


def test_missing_equals_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha 0.01\n", encoding="utf-8")
    with pytest.raises(BadValueError):
        parse_config(path, {})


def test_invalid_ranges_rejected():
    with pytest.raises(BadValueError):
        TrainConfig(k=4)
    with pytest.raises(BadValueError):
        TrainConfig(m=0)
    with pytest.raises(BadValueError):
        TrainConfig(alpha=-0.5)
    with pytest.raises(BadValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(BadValueError):
        TrainConfig(task_loss="nonsense")
    for name in ("lr", "alpha", "margin"):  # NaN passes every range comparison
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(BadValueError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})
    # fields are checked against their declared types
    with pytest.raises(BadValueError):
        TrainConfig(scorer="transe")
    with pytest.raises(BadValueError):
        TrainConfig(dim=4.0)
    with pytest.raises(BadValueError):
        TrainConfig(batch_size=8.5)
    assert TrainConfig(alpha=0).alpha == 0  # an int is a valid float


def test_zero_lr_allowed():
    assert TrainConfig(lr=0.0).lr == 0.0


def test_config_as_dict_is_json_friendly():
    import json

    cfg = TrainConfig(scorer=ScorerKind.DISTMULT)
    encoded = json.dumps(config_as_dict(cfg), sort_keys=True)
    assert '"scorer": "distmult"' in encoded
