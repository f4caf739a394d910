"""Exercises every subcommand through main() plus the exit-code contract."""

import json
import subprocess
import sys

import numpy as np
import pytest

from symkge.cli import main
from symkge.mining import PositiveDict, load_dict, save_dict
from symkge.model import load_checkpoint, save_checkpoint

from conftest import planted_kg_triples, write_split_files


@pytest.fixture(scope="module")
def kg_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_kg")
    triples = planted_kg_triples(seed=3, n_pivots=4, members_per_pivot=5, n_noise=50)
    return tmp, write_split_files(tmp, triples)


def test_mine_writes_dict(kg_files, capsys):
    tmp, paths = kg_files
    out = tmp / "pos.symd"
    rc = main(["mine", "--train", str(paths["train"]), "--k", "1", "--out", str(out)])
    assert rc == 0
    pos = load_dict(out)
    assert pos.hop_bound == 1
    assert any(pos.targets)
    assert "wrote" in capsys.readouterr().out


def test_eval_rejects_entities_missing_from_checkpoint(kg_files, tmp_path, capsys):
    tmp, paths = kg_files
    ckpt = tmp / "small_vocab.syme"
    assert main(["train", "--train", str(paths["train"]), "--out", str(ckpt),
                 "--dim", "4", "--epochs", "1", "--batch-size", "64",
                 "--negatives", "1", "--quiet"]) == 0
    stranger = tmp_path / "stranger.tsv"
    stranger.write_text("never_seen_entity\trel0\thub0\n", encoding="utf-8")
    rc = main(["eval", "--ckpt", str(ckpt), "--train", str(paths["train"]),
               "--test", str(stranger)])
    assert rc == 2  # UnknownEntity surfaces as a data error
    capsys.readouterr()


def test_eval_rejects_nonfinite_checkpoint(kg_files, tmp_path, capsys):
    tmp, paths = kg_files
    ckpt = tmp_path / "finite.syme"
    assert main(["train", "--train", str(paths["train"]), "--out", str(ckpt),
                 "--dim", "4", "--epochs", "1", "--batch-size", "64",
                 "--negatives", "1", "--quiet"]) == 0
    table, kind = load_checkpoint(ckpt)
    table.entity_vecs[0, 1] = np.nan
    broken = tmp_path / "nan.syme"
    save_checkpoint(table, kind, broken)
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(broken), "--train", str(paths["train"]),
               "--test", str(paths["test"])])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.count("\n") == 1 and "numeric failure" in err


def test_stats_prints_table(kg_files, capsys):
    _, paths = kg_files
    rc = main(["stats", "--train", str(paths["train"]), "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "proportion" in out
    assert "elapsed" in out


def test_stats_json(kg_files, capsys):
    _, paths = kg_files
    rc = main(["stats", "--train", str(paths["train"]), "--k", "1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    hop = payload["per_hop"][0]
    assert hop["rs_count"] <= hop["total_count"]


def test_train_eval_round_trip(kg_files, capsys):
    tmp, paths = kg_files
    dict_path = tmp / "train_pos.symd"
    assert main(["mine", "--train", str(paths["train"]), "--k", "1",
                 "--out", str(dict_path), "--quiet"]) == 0
    capsys.readouterr()

    ckpt = tmp / "model.syme"
    rc = main([
        "train", "--train", str(paths["train"]), "--valid", str(paths["valid"]),
        "--dict", str(dict_path), "--out", str(ckpt),
        "--k", "1", "--dim", "8", "--epochs", "3", "--batch-size", "32",
        "--negatives", "2", "--lr", "0.01", "--quiet",
    ])
    assert rc == 0
    table, kind = load_checkpoint(ckpt)
    assert table.dim == 8
    capsys.readouterr()

    rc = main([
        "eval", "--ckpt", str(ckpt), "--train", str(paths["train"]),
        "--valid", str(paths["valid"]), "--test", str(paths["test"]),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("MRR")
    for label in ("Hit@1", "Hit@3", "Hit@10"):
        assert label in out

    rc = main([
        "eval", "--ckpt", str(ckpt), "--train", str(paths["train"]),
        "--valid", str(paths["valid"]), "--test", str(paths["test"]), "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["mrr"] <= 1.0
    assert payload["n_queries"] > 0


def _train_with_dict(paths, dict_path, out):
    return main([
        "train", "--train", str(paths["train"]), "--dict", str(dict_path),
        "--out", str(out), "--k", "1", "--dim", "4", "--epochs", "1",
        "--batch-size", "64", "--negatives", "1", "--quiet",
    ])


def test_train_refuses_dict_from_smaller_split(kg_files, tmp_path, capsys):
    _, paths = kg_files
    prefix = tmp_path / "prefix.tsv"
    lines = paths["train"].read_text(encoding="utf-8").splitlines(keepends=True)
    prefix.write_text("".join(lines[:10]), encoding="utf-8")  # 12 of 24 entities
    small = tmp_path / "small.symd"
    assert main(["mine", "--train", str(prefix), "--k", "1", "--out", str(small),
                 "--quiet"]) == 0
    capsys.readouterr()
    assert _train_with_dict(paths, small, tmp_path / "m.syme") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # one line, no traceback
    assert "another train split" in err


def test_train_refuses_corrupt_dict_content(kg_files, tmp_path, capsys):
    _, paths = kg_files
    bad = tmp_path / "bad.symd"
    rows = ({1, 99}, {0}, {2})  # valid checksum, impossible pairs
    save_dict(PositiveDict(targets=tuple(map(frozenset, rows)), hop_bound=1), bad)
    assert _train_with_dict(paths, bad, tmp_path / "m.syme") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "bad.symd" in err


def test_train_epoch_log_lines(kg_files, capsys):
    tmp, paths = kg_files
    ckpt = tmp / "log_model.syme"
    rc = main([
        "train", "--train", str(paths["train"]), "--out", str(ckpt),
        "--dim", "4", "--epochs", "2", "--batch-size", "64", "--negatives", "1",
    ])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("epoch ")]
    assert len(lines) == 2
    assert "task" in lines[0] and "contrastive" in lines[0] and "total" in lines[0]


def test_probe_with_integer_ids(kg_files, capsys):
    tmp, paths = kg_files
    ckpt = tmp / "probe_model.syme"
    assert main(["train", "--train", str(paths["train"]), "--out", str(ckpt),
                 "--dim", "8", "--epochs", "5", "--batch-size", "64",
                 "--negatives", "2", "--lr", "0.05", "--quiet"]) == 0
    labels = tmp / "labels.tsv"
    labels.write_text("0\tA\n1\tA\n2\tB\n3\tB\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(labels), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert set(payload["per_class"]) == {"A", "B"}


def test_probe_with_label_mapping(kg_files, capsys):
    tmp, paths = kg_files
    ckpt = tmp / "probe_model2.syme"
    assert main(["train", "--train", str(paths["train"]), "--out", str(ckpt),
                 "--dim", "8", "--epochs", "3", "--batch-size", "64",
                 "--negatives", "1", "--quiet"]) == 0
    labels = tmp / "named_labels.tsv"
    labels.write_text("m0\tA\nm1\tA\nhub0\tB\nhub1\tB\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(labels),
               "--train", str(paths["train"])])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out


def test_probe_with_held_out_labels(kg_files, capsys):
    tmp, paths = kg_files
    ckpt = tmp / "probe_model3.syme"
    assert main(["train", "--train", str(paths["train"]), "--out", str(ckpt),
                 "--dim", "8", "--epochs", "3", "--batch-size", "64",
                 "--negatives", "1", "--quiet"]) == 0
    train_labels = tmp / "train_labels.tsv"
    train_labels.write_text("0\tA\n1\tA\n2\tB\n3\tB\n", encoding="utf-8")
    test_labels = tmp / "test_labels.tsv"
    test_labels.write_text("4\tA\n5\tB\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(train_labels),
               "--test-labels", str(test_labels), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(v["total"] for v in payload["per_class"].values()) == 2


def test_experiment_out_file(kg_files, tmp_path, capsys):
    _, paths = kg_files
    out = tmp_path / "report.json"
    rc = main([
        "experiment", "--train", str(paths["train"]), "--test", str(paths["test"]),
        "--runs", "1", "--ablation", "baseline", "--dim", "4", "--epochs", "1",
        "--batch-size", "64", "--negatives", "1", "--out", str(out), "--quiet",
    ])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["ablation"] == "baseline"


def test_ttest_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("0.469, 0.467, 0.468\n", encoding="utf-8")
    b.write_text("0.471\n0.471\n0.472\n", encoding="utf-8")
    rc = main(["ttest", "--a", str(a), "--b", str(b), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] < 0.05
    assert payload["df"] == 4


def test_experiment_json_deterministic(kg_files, capsys):
    _, paths = kg_files
    argv = [
        "experiment", "--train", str(paths["train"]), "--valid", str(paths["valid"]),
        "--test", str(paths["test"]), "--runs", "2", "--ablation", "both",
        "--dim", "6", "--epochs", "2", "--batch-size", "64", "--negatives", "1",
        "--k", "1", "--json", "--quiet",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(argv + ["--threads", "2"]) == 0  # both runs of an arm in a pool
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["ttest_mrr"] is not None


def test_usage_error_exit_code(capsys):
    assert main(["train"]) == 1  # missing required flags
    assert main(["mine", "--train", "x", "--k", "not_an_int", "--out", "y"]) == 1
    # --threads belongs to experiment alone, and --parallel-runs is gone
    assert main(["experiment", "--train", "x", "--test", "y", "--parallel-runs"]) == 1
    for argv in (
        ["mine", "--train", "x", "--k", "1", "--out", "y"],
        ["stats", "--train", "x", "--k", "1"],
        ["train", "--train", "x", "--out", "y"],
        ["eval", "--ckpt", "x", "--train", "x", "--test", "y"],
        ["probe", "--ckpt", "x", "--labels", "y"],
        ["ttest", "--a", "x", "--b", "y"],
    ):
        assert main(argv + ["--threads", "2"]) == 1, argv
    capsys.readouterr()


def test_data_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.tsv"
    rc = main(["stats", "--train", str(missing), "--k", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "symkge stats" in err  # errors name the subcommand
    assert "missing.tsv" in err
    rc = main(["mine", "--train", str(missing), "--k", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    # k outside the supported bound is a data error too
    real = tmp_path / "real.tsv"
    real.write_text("a\tr\tb\n", encoding="utf-8")
    rc = main(["stats", "--train", str(real), "--k", "7"])
    assert rc == 2
    capsys.readouterr()


def test_numeric_error_exit_code(kg_files, capsys):
    tmp, paths = kg_files
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([
            "train", "--train", str(paths["train"]), "--out", str(tmp / "x.syme"),
            "--dim", "4", "--epochs", "2", "--batch-size", "16", "--negatives", "1",
            "--lr", "1e200", "--quiet",
        ])
    assert rc == 3
    capsys.readouterr()


def test_console_entry_point(kg_files):
    _, paths = kg_files
    proc = subprocess.run(
        [sys.executable, "-m", "symkge.cli", "stats", "--train", str(paths["train"]),
         "--k", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "proportion" in proc.stdout
