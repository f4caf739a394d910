"""Experiment orchestration: the counting contract and end-to-end determinism."""

import pytest

from symkge.config import TrainConfig
from symkge.errors import DataError
from symkge.experiment import ExperimentSpec, report_to_json, run_experiment

from conftest import planted_kg_triples, write_split_files


def _tiny_spec(paths, **overrides) -> ExperimentSpec:
    cfg = TrainConfig(
        k=1, m=5, alpha=0.001, dim=8, lr=1e-2, epochs=3, batch_size=64,
        n_negatives=2,
    )
    fields = dict(
        train_path=paths["train"],
        valid_path=paths["valid"],
        test_path=paths["test"],
        config=cfg,
        ablation="both",
        runs=2,
        base_seed=5,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


@pytest.fixture(scope="module")
def split_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("kg")
    triples = planted_kg_triples(seed=1, n_pivots=4, members_per_pivot=5, n_noise=60)
    return write_split_files(tmp, triples)


def test_counting_contract(split_paths):
    report = run_experiment(_tiny_spec(split_paths, runs=3))
    arms = report["arms"]
    assert set(arms) == {"baseline", "contrastive"}
    mrrs = [e["mrr"] for arm in arms.values() for e in arm["metrics"]]
    assert len(mrrs) == 6
    assert all(0.0 < m <= 1.0 for m in mrrs)
    assert set(arms["baseline"]["mean"]) == {"mrr", "hits1", "hits3", "hits10"}
    assert report["ttest_mrr"] is not None
    assert 0.0 <= report["ttest_mrr"]["p"] <= 1.0
    seeds = [e["seed"] for e in arms["baseline"]["metrics"]]
    assert seeds == [5, 6, 7]  # base_seed + run index


def test_baseline_only_skips_mining(split_paths, monkeypatch):
    import symkge.experiment as experiment_module

    def boom(*args, **kwargs):
        raise AssertionError("mining must not run for the baseline-only ablation")

    monkeypatch.setattr(experiment_module, "mine_positive_dict", boom)
    report = run_experiment(_tiny_spec(split_paths, ablation="baseline", runs=1))
    assert set(report["arms"]) == {"baseline"}
    assert report["ttest_mrr"] is None


def test_contrastive_only(split_paths):
    report = run_experiment(_tiny_spec(split_paths, ablation="contrastive", runs=1))
    assert set(report["arms"]) == {"contrastive"}
    assert report["ttest_mrr"] is None


def test_end_to_end_determinism(split_paths):
    spec = _tiny_spec(split_paths)
    first = report_to_json(run_experiment(spec))
    second = report_to_json(run_experiment(spec))
    assert first == second


def test_worker_count_does_not_change_report(split_paths):
    spec = _tiny_spec(split_paths)
    serial = report_to_json(run_experiment(spec, workers=1))
    parallel = report_to_json(run_experiment(spec, workers=2))
    assert serial == parallel


def test_parallel_runs_match_sequential(split_paths):
    # Two workers run three runs per arm in a pool of two processes.
    spec = _tiny_spec(split_paths, runs=3)
    sequential = report_to_json(run_experiment(spec))
    parallel = report_to_json(run_experiment(spec, workers=2))
    assert sequential == parallel


def test_failed_run_names_arm_and_run(split_paths):
    import numpy as np

    from symkge.errors import NonFiniteLossError

    diverging = TrainConfig(k=1, dim=4, lr=1e200, epochs=2, batch_size=16,
                            n_negatives=1)
    spec = _tiny_spec(split_paths, config=diverging, ablation="baseline", runs=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError, match=r"baseline arm, run 1/1"):
            run_experiment(spec)


def test_bad_spec_rejected(split_paths):
    with pytest.raises(DataError):
        _tiny_spec(split_paths, ablation="nonsense")
    with pytest.raises(DataError):
        _tiny_spec(split_paths, runs=0)
