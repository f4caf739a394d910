"""The one writer every artifact goes through: atomic replacement and file mode."""

import os
import stat

import pytest

from symkge import artifact, cli
from symkge.cli import main
from symkge.mining import save_dict
from symkge.model import ScorerKind, init_embeddings, save_checkpoint

from conftest import positive_dict


def test_failed_write_leaves_existing_files(tmp_path, monkeypatch, capsys):
    symd, syme, report = tmp_path / "pos.symd", tmp_path / "model.syme", tmp_path / "report.json"
    save_dict(positive_dict(({1}, {0})), symd)
    save_checkpoint(init_embeddings(2, 1, 3, seed=0), ScorerKind.TRANSE, syme)
    report.write_text("{}\n", encoding="utf-8")
    before = {path: path.read_bytes() for path in (symd, syme, report)}

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(artifact.os, "replace", no_space)
    with pytest.raises(OSError):
        save_dict(positive_dict(({1, 2}, {0}, {0}), 2), symd)
    with pytest.raises(OSError):
        save_checkpoint(init_embeddings(4, 2, 3, seed=1), ScorerKind.DISTMULT, syme)
    monkeypatch.setattr(cli, "run_experiment", lambda spec, **kwargs: {"runs": 1})
    assert main(["experiment", "--train", "x", "--test", "y", "--out", str(report),
                 "--json", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "No space left on device" in err
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(os.listdir(tmp_path)) == ["model.syme", "pos.symd", "report.json"]


def test_failed_write_names_the_requested_path(tmp_path):
    path = tmp_path / "missing" / "m.syme"
    with pytest.raises(FileNotFoundError) as caught:
        artifact.write_atomic(path, b"frame")
    assert caught.value.filename == str(path)


def test_written_file_mode_matches_plain_open(tmp_path):
    with open(tmp_path / "plain", "wb"):
        pass
    save_checkpoint(init_embeddings(2, 1, 3, seed=0), ScorerKind.TRANSE, tmp_path / "m.syme")
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "m.syme")}
    assert len(modes) == 1
