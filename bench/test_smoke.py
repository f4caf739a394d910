"""Smoke test for the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Every workload runs in a fresh process, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_cli(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_wrong_recorded_digest_is_a_failed_operation():
    key = "tiny/planted/0"
    expected = harness.load_expected()
    assert key in expected, "the default seed's values must be recorded"
    wrong = {key: dict(expected[key], pairs_digest="0" * 16)}
    result, report = harness.run_workload("planted", 0, 0.0, False, "tiny", expected=wrong)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert any("pairs_digest" in p for p in report["problems"])


def test_training_without_the_alignment_term_is_a_failed_operation(monkeypatch):
    import symkge.training

    original = symkge.training.train

    def train_without_positives(graph, pos_dict, cfg, log_fn=None):
        return original(graph, None, cfg, log_fn)

    monkeypatch.setattr(symkge.training, "train", train_without_positives)
    result, report = harness.run_workload("planted", 0, 0.0, False, "tiny")
    assert result["correct"] is False
    assert any("cosine gap" in p for p in report["problems"])


def test_a_traced_name_missing_from_the_program_is_a_failed_operation(monkeypatch):
    import spans
    import symkge.training

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        (symkge.training, "renamed_step", "training.adam_step"),
    ))
    result, report = harness.run_workload("planted", 0, 0.0, True, "tiny")
    assert result["correct"] is False
    assert any("symkge.training.renamed_step" in p for p in report["problems"])


def test_recorded_values_pass():
    result, _ = harness.run_workload("fb237shape", 0, 0.0, False, "tiny")
    assert result["correct"] is True and result["failed"] == 0


def test_planted_generator_matches_the_acceptance_suite():
    from conftest import planted_kg_triples

    assert workloads.planted_triples(42, 10, 10, 500) == planted_kg_triples(
        seed=42, n_pivots=10, members_per_pivot=10, n_noise=500
    )


def test_fb237shape_interns_every_entity_and_relation():
    inputs = workloads.FULL["fb237shape"].generate(3)
    assert workloads.FULL["fb237shape"].generate(3) == inputs
    facts = harness.input_facts(inputs)
    assert (facts["entities"], facts["relations"]) == (14_541, 237)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
