"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The slow training criteria (5 and 6) dominate the runtime; the whole module
finishes in a few minutes on a laptop-class CPU.
"""

import json
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from symkge.cli import main
from symkge.config import BINARY_CROSS_ENTROPY, MARGIN_RANKING, TrainConfig
from symkge.evaluation import (
    TAIL,
    evaluate_split,
    filtered_rank,
    students_t_test,
)
from symkge.experiment import ExperimentSpec, run_experiment
from symkge.graph import intern_graph, load_dataset
from symkge.mining import mine_positive_dict
from symkge.model import EmbeddingTable, ScorerKind
from symkge.training import train

from conftest import planted_kg_triples, random_graph, write_split_files
from oracles import (brute_force_oracle, contrastive_loss, contrastive_loss_cosine_form,
                     score)
from test_losses import _finite_difference_check, _small_setup


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def planted_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("accept_kg")
    triples = planted_kg_triples(seed=42, n_pivots=10, members_per_pivot=10, n_noise=500)
    return write_split_files(tmp, triples)


# ---------------------------------------------------------------------------
# 1. miner equals the brute-force oracle on a random battery
# ---------------------------------------------------------------------------


def test_acceptance_01_miner_oracle_equivalence():
    with criterion(1, "miner-oracle-equivalence"):
        rng = random.Random(20260810)
        specs = []
        for i in range(51):
            k = 1 + i % 3
            if k == 1:
                sizes = rng.randint(8, 30), rng.randint(10, 120), rng.randint(1, 8)
            elif k == 2:
                sizes = rng.randint(8, 25), rng.randint(10, 90), rng.randint(1, 8)
            else:
                sizes = rng.randint(6, 16), rng.randint(8, 40), rng.randint(1, 6)
            specs.append((rng.randint(0, 10**6), *sizes, k))

        started = time.perf_counter()
        for seed, n_e, n_t, n_r, k in specs:
            graph, _ = random_graph(seed, n_e, n_t, n_r)
            pos, _ = mine_positive_dict(graph, k)
            for anchor in range(graph.entity_count):
                assert pos[anchor] == brute_force_oracle(graph, anchor, k), (
                    f"graph seed={seed} k={k} anchor={anchor}"
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"battery took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. toy fixture and its mixed-direction counterpart
# ---------------------------------------------------------------------------


def test_acceptance_02_toy_fixture():
    with criterion(2, "toy-fixture"):
        graph, labels = intern_graph(
            [
                ("Bob", "play", "Basketball"),
                ("Jones", "play", "Basketball"),
                ("Bob", "student_of", "Mike"),
                ("Andy", "student_of", "Mike"),
                ("Mike", "teach", "Math"),
            ]
        )
        ids = labels.entity_ids
        pos, structures = mine_positive_dict(graph, 1)
        assert ids["Jones"] in pos[ids["Bob"]]
        via_basketball = [
            s for s in structures
            if s.anchor == ids["Bob"] and s.target == ids["Jones"] and s.k == 1
        ]
        assert [s.pivot for s in via_basketball] == [ids["Basketball"]]

        counter_graph, counter_labels = intern_graph(
            [("Bob", "r1", "P"), ("P", "r1", "Jones")]
        )
        counter_pos, _ = mine_positive_dict(counter_graph, 1)
        for entity in range(counter_graph.entity_count):
            assert counter_pos[entity] == set()
            assert brute_force_oracle(counter_graph, entity, 1) == set()


# ---------------------------------------------------------------------------
# 3. alignment-loss identity and bounds
# ---------------------------------------------------------------------------


def test_acceptance_03_alignment_identity_and_bounds():
    with criterion(3, "alignment-identity-and-bounds"):
        started = time.perf_counter()
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            dim = int(rng.integers(2, 16))
            n_pos = int(rng.integers(1, 7))
            anchor = rng.normal(size=dim)
            positives = rng.normal(size=(n_pos, dim))
            if np.linalg.norm(anchor) < 1e-9 or np.any(
                np.linalg.norm(positives, axis=1) < 1e-9
            ):
                continue
            mse_form = contrastive_loss(anchor, positives)
            cos_form = contrastive_loss_cosine_form(anchor, positives)
            assert abs(mse_form - cos_form) < 1e-6
            assert 0.0 <= mse_form <= 4.0

        vec = np.array([0.7, -2.0, 0.4])
        assert contrastive_loss(vec, [vec]) == pytest.approx(0.0, abs=1e-12)
        assert contrastive_loss(
            np.array([1.0, 0.0]), [np.array([0.0, 1.0])]
        ) == pytest.approx(2.0, abs=1e-12)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"identity sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. analytic gradients match central finite differences
# ---------------------------------------------------------------------------


def test_acceptance_04_gradient_check():
    with criterion(4, "gradient-check"):
        started = time.perf_counter()
        for kind in (ScorerKind.TRANSE, ScorerKind.DISTMULT):
            for task in (MARGIN_RANKING, BINARY_CROSS_ENTROPY):
                for alpha in (0.0, 0.001, 1.0):
                    table, cfg, batch, negatives, pos_dict = _small_setup(
                        seed=11, alpha=alpha, task=task, kind=kind
                    )
                    _finite_difference_check(
                        table, cfg, batch, negatives, pos_dict, epoch=1,
                        step=1e-5, tol=1e-4,
                    )
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. training pulls mined positives together
# ---------------------------------------------------------------------------


def test_acceptance_05_training_effect(planted_paths):
    with criterion(5, "training-effect"):
        started = time.perf_counter()
        dataset = load_dataset(
            planted_paths["train"], planted_paths["valid"], planted_paths["test"]
        )
        pos, _ = mine_positive_dict(dataset.graph, 1)
        pairs = [(a, t) for a, targets in enumerate(pos.targets) for t in targets]
        assert len(pairs) >= 100

        for seed in (0, 1, 2):
            cfg = TrainConfig(
                k=1, m=10, alpha=0.001, dim=32, lr=0.01, epochs=250,
                batch_size=128, n_negatives=5, seed=seed,
            )
            result = train(dataset.graph, pos, cfg)
            assert result.epoch_log[-1].total < result.epoch_log[0].total

            vecs = result.table.entity_vecs
            unit = vecs / np.sqrt((vecs * vecs).sum(axis=1, keepdims=True))
            rng = np.random.default_rng(7)
            chosen = rng.choice(len(pairs), size=min(300, len(pairs)), replace=False)
            positive_cos = float(
                np.mean([(unit[pairs[i][0]] * unit[pairs[i][1]]).sum() for i in chosen])
            )
            random_pairs = rng.integers(0, dataset.graph.entity_count, size=(300, 2))
            random_pairs = random_pairs[random_pairs[:, 0] != random_pairs[:, 1]]
            assert len(random_pairs) >= 100
            random_cos = float(
                np.mean([(unit[a] * unit[b]).sum() for a, b in random_pairs])
            )
            assert positive_cos - random_cos >= 0.05, (
                f"seed {seed}: positive {positive_cos:.4f} vs random {random_cos:.4f}"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"training effect took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 6. alignment term does not hurt link prediction
# ---------------------------------------------------------------------------


def test_acceptance_06_direction_check(planted_paths):
    with criterion(6, "direction-check"):
        started = time.perf_counter()
        cfg = TrainConfig(
            k=1, m=10, alpha=0.001, dim=32, lr=0.01, epochs=150,
            batch_size=128, n_negatives=5,
        )
        spec = ExperimentSpec(
            train_path=planted_paths["train"],
            valid_path=planted_paths["valid"],
            test_path=planted_paths["test"],
            config=cfg,
            ablation="both",
            runs=3,
            base_seed=0,
        )
        report = run_experiment(spec)
        baseline = report["arms"]["baseline"]["mean"]["mrr"]
        contrastive = report["arms"]["contrastive"]["mean"]["mrr"]
        assert contrastive >= baseline - 0.005, (
            f"contrastive mean {contrastive:.4f} vs baseline mean {baseline:.4f}"
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"direction check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 7. evaluator matches exhaustive enumeration on a hand-built fixture
# ---------------------------------------------------------------------------


def test_acceptance_07_evaluator_exactness():
    with criterion(7, "evaluator-exactness"):
        # d=1 DistMult: score(h, 0, t) = value(h) * value(t)
        table = EmbeddingTable(
            entity_vecs=np.array([[3.0], [2.0], [-1.0]]),
            relation_vecs=np.array([[1.0]]),
        )
        triples = [(0, 0, 1), (1, 0, 2), (2, 0, 0)]
        known = set(triples)

        # exhaustive enumeration, one candidate at a time
        expected_ranks = []
        for h, r, t in triples:
            for side in ("head", "tail"):
                truth = h if side == "head" else t
                scored = []
                for e in range(3):
                    cand = (e, r, t) if side == "head" else (h, r, e)
                    if e != truth and cand in known:
                        continue
                    scored.append((e, score(table, ScorerKind.DISTMULT, cand)))
                s_star = dict(scored)[truth]
                higher = sum(1 for _, s in scored if s > s_star)
                ties = sum(1 for e, s in scored if s == s_star and e != truth)
                expected_ranks.append(1.0 + higher + ties / 2.0)

        got_ranks = []
        for h, r, t in triples:
            got_ranks.append(filtered_rank(table, ScorerKind.DISTMULT, (h, r, t), "head", known))
            got_ranks.append(filtered_rank(table, ScorerKind.DISTMULT, (h, r, t), "tail", known))
        assert got_ranks == expected_ranks

        report = evaluate_split(table, ScorerKind.DISTMULT, triples, known)
        assert report.mrr == np.mean([1.0 / r for r in expected_ranks])
        for n in (1, 3, 10):
            assert report.hits[n] == np.mean([r <= n for r in expected_ranks])

        # constant scorer: every candidate ties
        flat = EmbeddingTable(
            entity_vecs=np.ones((5, 1)), relation_vecs=np.zeros((1, 1))
        )
        rank = filtered_rank(flat, ScorerKind.DISTMULT, (0, 0, 1), TAIL, {(0, 0, 1)})
        assert rank == 1.0 + (5 - 1) / 2.0


# ---------------------------------------------------------------------------
# 8. t-test flags a small consistent three-run gap as significant
# ---------------------------------------------------------------------------


def test_acceptance_08_ttest_reproduction():
    with criterion(8, "ttest-reproduction"):
        report = students_t_test([0.469, 0.467, 0.468], [0.471, 0.471, 0.472])
        assert report.t_statistic == pytest.approx(-5.0, rel=1e-9)
        assert report.p_value < 0.05
        assert report.p_value <= 0.01
        # exact arithmetic elsewhere per the formula
        same = students_t_test([0.4, 0.5], [0.4, 0.5])
        assert (same.t_statistic, same.p_value) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# 9. loader handles full-scale split sizes with exact counts
# ---------------------------------------------------------------------------


def test_acceptance_09_loader_scale(tmp_path):
    with criterion(9, "loader-scale"):
        # synthetic splits sized like a full-scale lexical KG:
        # 40,943 entities, 11 relations, 86,835/3,034/3,134 edges
        def row(i):
            return f"e{i % 40943}\tr{i % 11}\te{(7 * i + 1) % 40943}\n"

        train = tmp_path / "train.tsv"
        valid = tmp_path / "valid.tsv"
        test = tmp_path / "test.tsv"
        train.write_text("".join(row(i) for i in range(86835)), encoding="utf-8")
        valid.write_text(
            "".join(row(i) for i in range(86835, 86835 + 3034)), encoding="utf-8"
        )
        test.write_text(
            "".join(row(i) for i in range(89869, 89869 + 3134)), encoding="utf-8"
        )

        dataset = load_dataset(train, valid, test)
        assert dataset.graph.entity_count == 40943
        assert dataset.graph.relation_count == 11
        assert len(dataset.train) == 86835
        assert len(dataset.valid) == 3034
        assert len(dataset.test) == 3134


# ---------------------------------------------------------------------------
# 10. the experiment command is byte-deterministic
# ---------------------------------------------------------------------------


def test_acceptance_10_experiment_determinism(planted_paths, capsys):
    with criterion(10, "experiment-determinism"):
        argv = [
            "experiment",
            "--train", str(planted_paths["train"]),
            "--valid", str(planted_paths["valid"]),
            "--test", str(planted_paths["test"]),
            "--runs", "2", "--ablation", "both", "--base-seed", "3",
            "--k", "1", "--m", "5", "--dim", "12", "--epochs", "10",
            "--batch-size", "128", "--negatives", "2", "--lr", "0.01",
            "--json", "--quiet",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["runs"] == 2
        assert set(payload["arms"]) == {"baseline", "contrastive"}
