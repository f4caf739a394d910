"""Multi-run experiments comparing training with and without the alignment term."""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, replace

from .config import TrainConfig, config_as_dict
from .errors import BadValueError, DataError, EmptyDatasetError, SymkgeError
from .evaluation import evaluate_split, students_t_test
from .graph import Dataset, Triple, load_dataset
from .mining import PositiveDict, mine_positive_dict
from .training import train

BASELINE_ARM = "baseline"
CONTRASTIVE_ARM = "contrastive"
ABLATIONS = (BASELINE_ARM, CONTRASTIVE_ARM, "both")


@dataclass(frozen=True)
class ExperimentSpec:
    train_path: str | os.PathLike[str]
    valid_path: str | os.PathLike[str] | None
    test_path: str | os.PathLike[str]
    config: TrainConfig
    ablation: str = "both"
    runs: int = 3
    base_seed: int = 0

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise DataError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.runs < 1:
            raise DataError(f"runs must be >= 1, got {self.runs}")


def _metrics_entry(seed: int, report) -> dict[str, object]:
    return {
        "seed": seed,
        "mrr": report.mrr,
        "hits1": report.hits[1],
        "hits3": report.hits[3],
        "hits10": report.hits[10],
    }


def _mean_metrics(entries: list[dict[str, object]]) -> dict[str, float]:
    keys = ("mrr", "hits1", "hits3", "hits10")
    return {k: sum(float(e[k]) for e in entries) / len(entries) for k in keys}


# (dataset, spec, pos_dict, known) in each pool worker, set once by the pool's
# initializer, so that run tasks carry only (arm, run_index, with_positives).
_RUN_INPUTS: tuple[Dataset, ExperimentSpec, PositiveDict | None, tuple[Triple, ...]] | None = None


def _init_run_worker(*inputs) -> None:
    global _RUN_INPUTS
    _RUN_INPUTS = inputs


def _single_run(arm: str, run_index: int, with_positives: bool, inputs=None) -> dict[str, object]:
    """One seeded run of an arm; inputs defaults to a pool worker's _RUN_INPUTS."""
    dataset, spec, pos_dict, known = inputs or _RUN_INPUTS
    seed = spec.base_seed + run_index
    cfg = replace(spec.config, seed=seed)
    try:
        result = train(dataset.graph, pos_dict if with_positives else None, cfg)
        report = evaluate_split(result.table, cfg.scorer, dataset.test, known)
    except SymkgeError as exc:
        exc.args = (f"{arm} arm, run {run_index + 1}/{spec.runs} (seed {seed}): {exc}",)
        raise
    return _metrics_entry(seed, report)


def _run_arm(inputs, with_positives: bool, progress=None, run_pool=None) -> dict[str, object]:
    spec = inputs[1]
    arm = CONTRASTIVE_ARM if with_positives else BASELINE_ARM
    tasks = [(arm, i, with_positives) for i in range(spec.runs)]
    if run_pool is not None:
        entries = run_pool.starmap(_single_run, tasks)
    else:
        entries = [_single_run(*task, inputs) for task in tasks]
    if progress is not None:
        for i, entry in enumerate(entries):
            progress(f"{arm} run {i + 1}/{spec.runs}: mrr={entry['mrr']:.4f}")
    return {"metrics": entries, "mean": _mean_metrics(entries)}


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    progress=None,
) -> dict[str, object]:
    """Train and evaluate every arm of the spec; returns the JSON-able report.

    The report is fully deterministic for a fixed spec: run seeds are
    base_seed + run index, and no timing or host information is included.
    With workers > 1 and more than one run, the runs of each arm execute in
    a pool of min(runs, workers) processes; mining stays in this process.
    Each run is fully isolated (own seed-derived rng streams), so the report
    is identical whatever the worker count.
    """
    if workers < 1:
        raise BadValueError(f"workers must be >= 1, got {workers}")
    dataset = load_dataset(spec.train_path, spec.valid_path, spec.test_path)
    if not dataset.test:
        raise EmptyDatasetError(f"{spec.test_path}: no test triples to evaluate on")

    arms: dict[str, object] = {}
    pos_dict = None
    if spec.ablation in (CONTRASTIVE_ARM, "both"):
        pos_dict, _ = mine_positive_dict(dataset.graph, spec.config.k)
        if progress is not None:
            mined = len(pos_dict.indices)
            progress(f"mined positive dictionary: {mined} directed pairs")

    known = dataset.train + dataset.valid + dataset.test
    inputs = (dataset, spec, pos_dict, known)
    run_pool = None
    if workers > 1 and spec.runs > 1:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        run_pool = multiprocessing.get_context(method).Pool(
            min(spec.runs, workers), initializer=_init_run_worker, initargs=inputs
        )
    try:
        if spec.ablation in (BASELINE_ARM, "both"):
            arms[BASELINE_ARM] = _run_arm(inputs, False, progress, run_pool)
        if spec.ablation in (CONTRASTIVE_ARM, "both"):
            arms[CONTRASTIVE_ARM] = _run_arm(inputs, True, progress, run_pool)
    finally:
        if run_pool is not None:
            run_pool.close()
            run_pool.join()

    report: dict[str, object] = {
        "ablation": spec.ablation,
        "runs": spec.runs,
        "base_seed": spec.base_seed,
        "config": config_as_dict(spec.config),
        "arms": arms,
    }
    if spec.ablation == "both" and spec.runs >= 2:
        mrr_a = [float(e["mrr"]) for e in arms[BASELINE_ARM]["metrics"]]
        mrr_b = [float(e["mrr"]) for e in arms[CONTRASTIVE_ARM]["metrics"]]
        ttest = students_t_test(mrr_a, mrr_b)
        report["ttest_mrr"] = {"t": ttest.t_statistic, "p": ttest.p_value}
    else:
        report["ttest_mrr"] = None
    return report


def report_to_json(report: dict[str, object]) -> str:
    """Canonical JSON encoding; byte-identical for identical reports."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
