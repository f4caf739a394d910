"""Multi-run experiments comparing training with and without the alignment term."""

from __future__ import annotations

import json
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
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
        if self.base_seed < 0:
            raise DataError(f"base_seed must be >= 0, got {self.base_seed}")


def _mean_metrics(entries: list[dict[str, object]]) -> dict[str, float]:
    return {k: sum(e[k] for e in entries) / len(entries) for k in entries[0] if k != "seed"}


# (dataset, spec, pos_dict, known) in a pool worker, set once by the pool's
# initializer _set_run_inputs, so that a task carries only (arm, run_index).
_RUN_INPUTS: tuple[Dataset, ExperimentSpec, PositiveDict | None, tuple[Triple, ...]] | None = None


def _set_run_inputs(inputs) -> None:
    global _RUN_INPUTS
    _RUN_INPUTS = inputs


def _single_run(arm: str, run_index: int, inputs=None) -> dict[str, object]:
    """One seeded run of an arm, on the given inputs or else this worker's _RUN_INPUTS."""
    dataset, spec, pos_dict, known = inputs or _RUN_INPUTS
    seed = spec.base_seed + run_index
    cfg = replace(spec.config, seed=seed)
    try:
        result = train(dataset.graph, pos_dict if arm == CONTRASTIVE_ARM else None, cfg)
        report = evaluate_split(result.table, cfg.scorer, dataset.test, known)
    except SymkgeError as exc:
        exc.args = (f"{arm} arm, run {run_index + 1}/{spec.runs} (seed {seed}): {exc}",)
        raise
    return {"seed": seed, **report.metrics()}


def run_experiment(
    spec: ExperimentSpec,
    workers: int = 1,
    progress=lambda message: None,
) -> dict[str, object]:
    """Train and evaluate every arm of the spec; returns the JSON-able report.

    The report is fully deterministic for a fixed spec: run seeds are
    base_seed + run index, and no timing or host information is included.
    With workers > 1 and more than one run in all, every run executes in one
    pool of up to workers processes; mining stays in this process. Each run is
    isolated (own seed-derived rng streams), so the report is identical
    whatever the worker count. A worker that dies raises a SymkgeError.
    """
    if workers < 1:
        raise BadValueError(f"workers must be >= 1, got {workers}")
    dataset = load_dataset(spec.train_path, spec.valid_path, spec.test_path)
    if not dataset.test:
        raise EmptyDatasetError(f"{spec.test_path}: no test triples to evaluate on")

    arm_names = [a for a in (BASELINE_ARM, CONTRASTIVE_ARM) if spec.ablation in (a, "both")]
    pos_dict = None
    if CONTRASTIVE_ARM in arm_names:
        pos_dict, _ = mine_positive_dict(dataset.graph, spec.config.k)
        progress(f"mined positive dictionary: {len(pos_dict.indices)} directed pairs")

    known = dataset.train + dataset.valid + dataset.test
    inputs = (dataset, spec, pos_dict, known)
    tasks = [(arm, i) for arm in arm_names for i in range(spec.runs)]
    if workers > 1 and len(tasks) > 1:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        with ProcessPoolExecutor(min(len(tasks), workers), multiprocessing.get_context(method),
                                 initializer=_set_run_inputs, initargs=(inputs,)) as pool:
            try:
                entries = list(pool.map(_single_run, *zip(*tasks)))
            except BrokenProcessPool:
                raise SymkgeError("a run's worker process died, most likely killed for lack of "
                                  "memory; retry with fewer --threads") from None
    else:
        entries = [_single_run(arm, i, inputs) for arm, i in tasks]

    arms: dict[str, object] = {}
    for k, arm in enumerate(arm_names):
        metrics = entries[k * spec.runs : (k + 1) * spec.runs]
        for i, entry in enumerate(metrics):
            progress(f"{arm} run {i + 1}/{spec.runs}: mrr={entry['mrr']:.4f}")
        arms[arm] = {"metrics": metrics, "mean": _mean_metrics(metrics)}

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
