"""Exercises every subcommand through main() plus the exit-code contract."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from symkge import experiment, mining, training
from symkge.cli import main
from symkge.graph import load_dataset
from symkge.mining import load_dict, save_dict
from symkge.model import (
    EmbeddingTable,
    ScorerKind,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
)

from conftest import planted_kg_triples, positive_dict, symd_bytes, write_split_files


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


def test_mine_out_in_missing_directory(kg_files, tmp_path, capsys):
    _, paths = kg_files
    out = tmp_path / "missing" / "x.symd"
    assert main(["mine", "--train", str(paths["train"]), "--k", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "data error" in err and "x.symd" in err
    assert not out.parent.exists()


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
    save_dict(positive_dict(rows, 1), bad)
    assert _train_with_dict(paths, bad, tmp_path / "m.syme") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "bad.symd" in err


def test_train_refuses_version_1_dict(kg_files, tmp_path, capsys):
    _, paths = kg_files
    old = tmp_path / "old.symd"
    old.write_bytes(symd_bytes(1, 2, [1, 1, 1, 0]))
    assert _train_with_dict(paths, old, tmp_path / "m.syme") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "old.symd" in err and "version 1" in err


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


def _three_entity_checkpoint(tmp_path):
    ckpt = tmp_path / "three.syme"
    save_checkpoint(init_embeddings(3, 1, 4, seed=0), ScorerKind.TRANSE, ckpt)
    return ckpt


@pytest.mark.parametrize("bad_id", ["7", "-1"])
@pytest.mark.parametrize("held_out", [False, True])
def test_probe_refuses_ids_outside_the_table(tmp_path, capsys, bad_id, held_out):
    """Without --train, ids index the table: 7 would crash, -1 would probe entity 2."""
    ckpt = _three_entity_checkpoint(tmp_path)
    labels = tmp_path / "labels.tsv"
    labels.write_text("0\tA\n1\tB\n", encoding="utf-8")
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"0\tA\n{bad_id}\tB\n", encoding="utf-8")
    argv = ["probe", "--ckpt", str(ckpt), "--labels", str(labels if held_out else bad)]
    rc = main(argv + ["--test-labels", str(bad)] if held_out else argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "data error" in err and bad_id in err


@pytest.mark.parametrize("flags, message", [
    (["--steps", "0"], "steps must be >= 1"),
    (["--lr", "-5"], "lr must be finite and >= 0"),
    (["--lr", "nan"], "lr must be finite and >= 0"),
    (["--lr", "inf"], "lr must be finite and >= 0"),
])
def test_probe_refuses_bad_settings(tmp_path, capsys, flags, message):
    """NaN weights would report an accuracy, and lr < 0 would run gradient ascent."""
    ckpt = _three_entity_checkpoint(tmp_path)
    labels = tmp_path / "labels.tsv"
    labels.write_text("0\tA\n1\tB\n", encoding="utf-8")
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(labels)] + flags)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_probe_diverging_weights_exit_numeric(tmp_path, capsys):
    """lr=1e308 is finite, so it passes the settings check, then overflows the weights."""
    ckpt = _three_entity_checkpoint(tmp_path)
    labels = tmp_path / "labels.tsv"
    labels.write_text("0\tA\n1\tB\n", encoding="utf-8")
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(labels),
               "--lr", "1e308", "--steps", "500"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert "numeric failure: probe weights diverged to NaN or inf" in captured.err


def test_probe_overflowing_logits_exit_numeric(tmp_path, capsys):
    """lr=5e307 for one step leaves finite weights whose logits overflow."""
    rng = np.random.default_rng(0)
    table = EmbeddingTable(rng.normal(scale=3.0, size=(20, 32)), np.zeros((1, 32)))
    ckpt = tmp_path / "wide.syme"
    save_checkpoint(table, ScorerKind.TRANSE, ckpt)
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"{i}\t{'AB'[i % 2]}\n" for i in range(20)), encoding="utf-8")
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(labels),
               "--lr", "5e307", "--steps", "1"])
    captured = capsys.readouterr()
    assert rc == 3 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert "numeric failure: probe logits overflow" in captured.err


def test_probe_refuses_empty_held_out_labels(tmp_path, capsys):
    """No held-out label would divide the accuracy by zero."""
    ckpt = _three_entity_checkpoint(tmp_path)
    labels = tmp_path / "labels.tsv"
    labels.write_text("0\tA\n1\tB\n", encoding="utf-8")
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no labels\n\n", encoding="utf-8")
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(labels),
               "--test-labels", str(empty)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "data error" in captured.err


@pytest.mark.parametrize("line", ["1\t", "\tB"])
def test_probe_refuses_empty_label_fields(tmp_path, capsys, line):
    """An empty class field would name a class ""."""
    ckpt = _three_entity_checkpoint(tmp_path)
    labels = tmp_path / "labels.tsv"
    labels.write_text(f"0\tA\n{line}\n", encoding="utf-8")
    rc = main(["probe", "--ckpt", str(ckpt), "--labels", str(labels)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and f"{labels}:2: empty entity or class field" in err


def test_probe_reads_crlf_labels(tmp_path, capsys):
    """A CRLF labels file names the same classes as an LF held-out file: text-mode
    reading turns CRLF into LF, so no class name keeps a trailing CR."""
    ckpt = _three_entity_checkpoint(tmp_path)
    lf = tmp_path / "lf.tsv"
    lf.write_text("0\tA\n1\tB\n2\tB\n", encoding="utf-8")
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    payloads = []
    for labels in (lf, crlf):
        assert main(["probe", "--ckpt", str(ckpt), "--labels", str(labels),
                     "--test-labels", str(lf), "--json"]) == 0
        payloads.append(json.loads(capsys.readouterr().out))
    assert payloads[1] == payloads[0]
    assert payloads[0]["accuracy"] > 0.0


def test_eval_refuses_empty_test_split(kg_files, tmp_path, capsys):
    _, paths = kg_files
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no triples\n", encoding="utf-8")
    rc = main(["eval", "--ckpt", str(_three_entity_checkpoint(tmp_path)),
               "--train", str(paths["train"]), "--test", str(empty)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "data error" in err


def test_experiment_refuses_empty_test_split_before_mining(kg_files, tmp_path, capsys,
                                                          monkeypatch):
    _, paths = kg_files
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no triples\n", encoding="utf-8")

    def unreachable(*args, **kwargs):
        raise AssertionError("mined or trained before checking the test split")

    monkeypatch.setattr(experiment, "mine_positive_dict", unreachable)
    monkeypatch.setattr(experiment, "train", unreachable)
    rc = main(["experiment", "--train", str(paths["train"]), "--test", str(empty),
               "--runs", "1", "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "data error" in err and "empty.tsv" in err


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


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_ttest_refuses_non_finite_values(tmp_path, capsys, bad):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(f"1, 2, {bad}\n", encoding="utf-8")
    b.write_text("1 2 3\n", encoding="utf-8")
    assert main(["ttest", "--a", str(a), "--b", str(b), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err and len(captured.err.strip().splitlines()) == 1


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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_experiment_threads_below_one_exits_2(kg_files, capsys, monkeypatch, threads):
    _, paths = kg_files

    def unreachable(*args, **kwargs):
        raise AssertionError("trained with fewer than one worker")

    monkeypatch.setattr(experiment, "train", unreachable)
    rc = main(["experiment", "--train", str(paths["train"]), "--test", str(paths["test"]),
               "--runs", "2", "--threads", threads, "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and f"workers must be >= 1, got {threads}" in err


def test_one_run_per_arm_runs_in_the_pool(kg_files, tmp_path, capsys, monkeypatch):
    """--runs 1 --ablation both has two tasks, so --threads 2 pools them, same bytes."""
    _, paths = kg_files
    pools = []

    class CountedPool(experiment.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            pools.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountedPool)
    argv = ["experiment", "--train", str(paths["train"]), "--test", str(paths["test"]),
            "--runs", "1", "--ablation", "both", "--dim", "4", "--epochs", "1",
            "--batch-size", "64", "--negatives", "1", "--k", "1", "--quiet"]
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert pools == [2]
    assert reports[0] == reports[1]


# Runs `symkge experiment` with one run's worker killed as the OOM killer
# would, then prints main's exit code and how many child processes are left.
_DYING_WORKER_SCRIPT = """
import json, multiprocessing, os, sys
from symkge import experiment
from symkge.cli import main

run = experiment._single_run

def dying_run(arm, run_index, inputs=None):
    if run_index == 1 and multiprocessing.parent_process() is not None:
        os._exit(137)
    return run(arm, run_index, inputs)

experiment._single_run = dying_run
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "children": len(multiprocessing.active_children())}))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the dying run is patched in before the workers fork")
def test_dead_worker_ends_experiment_with_one_line(kg_files):
    _, paths = kg_files
    argv = ["experiment", "--train", str(paths["train"]), "--test", str(paths["test"]),
            "--runs", "2", "--threads", "2", "--ablation", "baseline", "--dim", "4",
            "--epochs", "1", "--batch-size", "64", "--negatives", "1", "--quiet"]
    # A new session, so that a hung pool is killed whole rather than stalling the suite.
    proc = subprocess.Popen([sys.executable, "-c", _DYING_WORKER_SCRIPT] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("experiment still ran 60 s after a worker died")
    assert proc.returncode == 0 and json.loads(out) == {"rc": 2, "children": 0}
    assert err.count("\n") == 1 and "worker process died" in err and "--threads" in err


@pytest.mark.parametrize("seed", [0, 7])
def test_experiment_refuses_seed_in_config(tmp_path, capsys, seed):
    """A config file's seed would be reported but not used, like --seed."""
    config = tmp_path / "exp.cfg"
    config.write_text(f"k=1\nseed={seed}\n", encoding="utf-8")
    argv = ["experiment", "--train", "x", "--test", "y", "--config", str(config)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "--base-seed" in err


def test_usage_error_exit_code(capsys):
    assert main(["train"]) == 1  # missing required flags
    assert main(["mine", "--train", "x", "--k", "not_an_int", "--out", "y"]) == 1
    # --threads belongs to experiment alone, and --parallel-runs is gone
    assert main(["experiment", "--train", "x", "--test", "y", "--parallel-runs"]) == 1
    # experiment seeds its runs from --base-seed alone
    assert main(["experiment", "--train", "x", "--test", "y", "--seed", "1"]) == 1
    assert "--base-seed" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["mine", "stats"])
def test_max_degree_below_one_exits_2(kg_files, tmp_path, capsys, command):
    _, paths = kg_files
    out = tmp_path / "pos.symd"
    argv = [command, "--train", str(paths["train"]), "--k", "1", "--max-degree", "-3"]
    assert main(argv + (["--out", str(out)] if command == "mine" else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "max_degree must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [("mine", ["--k", "1"]), ("stats", ["--k", "2"])])
def test_join_over_budget_exits_2(kg_files, tmp_path, capsys, monkeypatch, command, flags):
    _, paths = kg_files
    out = tmp_path / "pos.symd"
    monkeypatch.setattr(mining, "_MAX_JOIN_PAIRS", 1)
    argv = [command, "--train", str(paths["train"])] + flags
    assert main(argv + (["--out", str(out)] if command == "mine" else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "over its budget of 1" in err and "--max-degree" in err
    assert not out.exists()
    # With a cap set, the advice names a smaller one.
    argv += ["--max-degree", "300"]
    assert main(argv + (["--out", str(out)] if command == "mine" else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith("lower --max-degree below 300")
    assert not out.exists()


@pytest.mark.parametrize("command", ["mine", "stats"])
def test_oversized_hop_refused_before_expanding(kg_files, tmp_path, capsys, monkeypatch,
                                                command):
    _, paths = kg_files
    budget = len(load_dataset(paths["train"]).graph.nbr)  # hop 1 expands every signed edge
    monkeypatch.setattr(mining, "_MAX_HOP_ROWS", budget)
    expanded, repeat = [], np.repeat

    def traced_repeat(*args, **kwargs):
        rows = repeat(*args, **kwargs)
        if sys._getframe(1).f_code is mining._half_paths.__code__:
            expanded.append(rows.size)
        return rows

    monkeypatch.setattr(np, "repeat", traced_repeat)
    out = tmp_path / "pos.symd"
    argv = [command, "--train", str(paths["train"]), "--k", "2"]
    argv += ["--out", str(out)] if command == "mine" else []
    for cap, advice in ((None, "cap hub pivots with --max-degree"),
                        ("300", "lower --max-degree below 300")):
        assert main(argv + (["--max-degree", cap] if cap else [])) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "hop 2 would expand" in err
        assert err.rstrip().endswith(f"half-path rows, over its budget of {budget}; {advice}")
        assert not out.exists()
    assert expanded == [budget, budget]  # hop 1 of each run; hop 2 never expands


def test_train_refuses_ids_outside_the_table(kg_files, tmp_path, capsys, monkeypatch):
    _, paths = kg_files
    draw = training.sample_negatives

    def negative_head(*args):
        negatives = draw(*args)
        negatives[0, 0, 0] = -1
        return negatives

    monkeypatch.setattr(training, "sample_negatives", negative_head)
    ckpt = tmp_path / "never.syme"
    assert main(["train", "--train", str(paths["train"]), "--out", str(ckpt), "--dim", "4",
                 "--epochs", "1", "--negatives", "1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is outside the table's" in err
    assert not ckpt.exists()


@pytest.mark.parametrize("flags, config", [
    (["--lr", "inf"], None),
    (["--lr", "nan"], None),
    (["--alpha", "nan"], None),
    (["--margin", "inf"], None),
    ([], "lr=nan\n"),
])
def test_train_refuses_non_finite_settings(kg_files, tmp_path, capsys, flags, config):
    """Each would start training and fail mid-run with a numeric error."""
    _, paths = kg_files
    out = tmp_path / "x.syme"
    argv = ["train", "--train", str(paths["train"]), "--out", str(out), "--quiet"] + flags
    if config is not None:
        (tmp_path / "bad.cfg").write_text(config, encoding="utf-8")
        argv += ["--config", str(tmp_path / "bad.cfg")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "must be finite" in captured.err
    assert not out.exists()


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
