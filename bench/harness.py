"""Runs one workload through the public API, stage by stage, and scores it.

A pass runs every stage, in pipeline order: load the splits, mine the
positive dictionary, count structures, round-trip the dictionary, train
without and with the alignment term, round-trip a checkpoint, rank the test
split for both arms, and fit the probe. Each stage is timed from outside,
and short stages are called repeatedly within the pass. Passes repeat while
another one still fits in ``--seconds``; a timing metric is the median over
every call (for training, every epoch) in the run, scaled to reference
seconds by ``Calibration``. The first pass's outputs are checked; a stage
call that raises or whose output fails a check is a failed operation.

With ``--trace 1`` each round runs one plain pass (which also mines with two
workers and ranks with DistMult) and one pass with the span wrappers of
``spans.py`` installed. Per-layer figures come from those; tracing overhead
is the traced pass total over the plain pass total of the same round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from symkge import evaluation, graph, losses, mining, model, training
from symkge.config import TrainConfig
from symkge.evaluation import ProbeConfig
from symkge.model import ScorerKind

import checks
import workloads
from run import BLAS_THREAD_VARS
from spans import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench-work"

# Training-step phases, by span name. Together with the train() call that
# holds them they account for the step; their self times are reported.
PHASES = {
    "training.sample_negatives": "training.sample_negatives",
    "losses.task_fwd_bwd": "losses.task_fwd_bwd",
    "losses.align_fwd_bwd": "losses.align_fwd_bwd",
    "mining.sample_positives": "mining.sample_positives",
    "losses.combined_gradients": "losses.grad_bookkeeping",
    "training.adam_step": "training.adam_step",
}

# Spans each traced stage must enter at least once; a span that never fires
# means the program no longer calls that name, so its time went elsewhere.
EXPECTED_SPANS = {
    "load": ("graph.read", "graph.intern"),
    "train": tuple(PHASES),
}

# Stages whose median times add up to one pipeline run (total_s).
PIPELINE = (
    "load", "mine", "stats", "save_dict", "load_dict", "train_baseline", "train",
    "save_checkpoint", "load_checkpoint", "eval", "eval_baseline", "probe",
)

# The calibration kernel's time on an uncontended core of the 2-CPU x86-64
# host the workloads were sized on (Python 3.11, NumPy 2.4).
CALIBRATION_REF_S = 0.009

RANK_SAMPLE = 10  # test triples whose ranks are recomputed, both sides each
FIT_SAMPLE = 20  # train triples ranked to show training fitted them
FIT_FLOOR = 2.0  # their MRR must reach this multiple of a random ranking's
COSINE_PAIRS = 2_000  # random entity pairs the positives' cosine is compared with
ORACLE_ANCHORS = 200
LOSS_SAMPLE = 256


@dataclass(frozen=True)
class Reps:
    """Call a stage at least min_calls times and until min_s, at most max_calls."""

    min_calls: int = 1
    min_s: float = 0.0
    max_calls: int = 1


ONCE = Reps()
SHORT = Reps(min_s=1.0, max_calls=100)
SETUP = Reps(min_calls=5, min_s=0.5, max_calls=25)


class StageFailed(Exception):
    """A stage raised; the rest of the workload cannot run."""


class Calibration:
    """How fast this host runs a fixed kernel right now, against the reference.

    On hosts that share cores with other tenants, the same code runs 1.4 to 2
    times slower for seconds to minutes at a time. Every stage is bracketed by
    this kernel, which mixes what the program spends its time on (an
    arithmetic loop, building dicts of sets of frozensets, a 2 MB NumPy
    pass), and its times are scaled by CALIBRATION_REF_S over the kernel's
    time around it: seconds at the reference host's uncontended speed.
    """

    def __init__(self) -> None:
        self.array = np.linspace(0.0, 1.0, 262_144)

    def kernel(self) -> float:
        total = 0
        for i in range(20_000):
            total += i * i % 7
        groups: dict = {}
        for i in range(6_000):
            groups.setdefault((i % 97, i * 7 % 13), set()).add(frozenset((i, i + 1)))
        return total + len(groups) + float(np.sqrt(self.array * self.array + 1.0).sum())

    def seconds(self) -> float:
        """Median of five kernel runs."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


@dataclass
class Ops:
    """Attempted and failed operations; an operation is one stage call."""

    attempted: int = 0
    raised: int = 0
    failed_checks: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    calibration: Calibration = field(default_factory=Calibration)

    @property
    def failed(self) -> int:
        return self.raised + len(self.failed_checks)

    def timed(self, stage: str, fn, reps: Reps):
        """Wall seconds of every call, the first call's result, and the scale
        that turns wall seconds into reference seconds."""
        times = []
        first = None
        gc.collect()
        before = self.calibration.seconds()
        while True:
            self.attempted += 1
            start = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # stage boundary: record it and stop the workload
                self.raised += 1
                self.problems.append(f"{stage}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
                raise StageFailed(stage) from exc
            times.append(time.perf_counter() - start)
            if len(times) == 1:
                first = result
            if len(times) >= reps.max_calls:
                break
            if len(times) >= reps.min_calls and sum(times) >= reps.min_s:
                break
        after = self.calibration.seconds()
        return times, first, 2.0 * CALIBRATION_REF_S / (before + after)

    def check(self, stage: str, ok: bool, message: str) -> None:
        if not ok:
            self.failed_checks.add(stage)
            self.problems.append(f"{stage}: {message}")


@dataclass
class Context:
    workload: workloads.Workload
    seed: int
    paths: dict
    labels: list
    facts: dict
    recorded: dict | None
    workdir: Path

    @property
    def config(self) -> TrainConfig:
        return TrainConfig(seed=self.seed, **self.workload.train_config)


@dataclass
class PassResult:
    """Per stage: reference seconds of each call (and epoch), wall seconds, scale."""

    times: dict = field(default_factory=dict)
    epochs: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    scale: dict = field(default_factory=dict)
    out: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(sum(self.times[s]) / len(self.times[s]) for s in PIPELINE)


class EpochClock:
    """train()'s log_fn: records how long each epoch took, from outside."""

    def __init__(self) -> None:
        self.last = 0.0
        self.seconds: list[float] = []

    def start(self) -> None:
        self.last = time.perf_counter()

    def __call__(self, epoch, breakdown) -> None:
        now = time.perf_counter()
        self.seconds.append(now - self.last)
        self.last = now


def input_facts(inputs: workloads.Inputs) -> dict:
    """What load_dataset must report for these files, counted independently."""
    rows = inputs.train + inputs.valid + inputs.test
    return {
        "entities": len({h for h, _, _ in rows} | {t for _, _, t in rows}),
        "relations": len({r for _, r, _ in rows}),
        "train": len(set(inputs.train)),
        "test": len(set(inputs.test)),
    }


def run_pass(ctx: Context, ops: Ops, *, repeat: bool, traced: bool, extras: bool,
             check: bool) -> PassResult:
    """One pass over every stage; with repeat=False each stage is called once."""
    result = PassResult()
    cfg = ctx.config
    k = cfg.k

    def stage(name, fn, reps=ONCE):
        stage_reps = reps if repeat else ONCE
        if traced:
            with tracing() as tracer:
                wall, out, scale = ops.timed(name, fn, stage_reps)
            result.spans[name] = tracer
            check_spans(ops, name, tracer)
        else:
            wall, out, scale = ops.timed(name, fn, stage_reps)
        result.wall[name] = wall
        result.scale[name] = scale
        result.times[name] = [t * scale for t in wall]
        return out

    p = ctx.paths
    dataset = stage(
        "load", lambda: graph.load_dataset(p["train"], p["valid"], p["test"]), SETUP
    )
    g = dataset.graph
    known = set(dataset.train) | set(dataset.valid) | set(dataset.test)
    if check:
        check_dataset(ops, ctx, dataset)

    pos, structures = stage("mine", lambda: mining.mine_positive_dict(g, k, workers=1), SHORT)
    result.out["pairs"], result.out["pairs_digest"] = checks.pairs_digest(pos.targets)
    result.out["structures"] = len(structures)
    if check:
        check_mining(ops, ctx, dataset, pos, structures, result.out)

    stats = stage("stats", lambda: mining.structure_stats(g, k), SHORT)
    if check:
        check_stats(ops, ctx, stats, structures)
    result.out["stats"] = [[h.rs_count, h.total_count] for h in stats.per_hop]

    dict_path = ctx.workdir / "positives.symd"
    stage("save_dict", lambda: mining.save_dict(pos, dict_path))
    result.out["dict_bytes"] = dict_path.stat().st_size
    loaded_dict = stage("load_dict", lambda: mining.load_dict(dict_path))
    if check:
        ops.check("load_dict", loaded_dict == pos, "dictionary round trip changed the dictionary")

    def train(name, positives):
        clock = EpochClock()

        def call():
            clock.start()
            return training.train(g, positives, cfg, log_fn=clock)

        out = stage(name, call)
        result.epochs[name] = [t * result.scale[name] for t in clock.seconds]
        return out

    baseline = train("train_baseline", None)
    trained = train("train", pos)
    result.out["loss_log_digest"] = checks.loss_log_digest(baseline.epoch_log, trained.epoch_log)
    if check:
        check_training(ops, "train_baseline", dataset, cfg, baseline, known)
        check_training(ops, "train", dataset, cfg, trained, known)
        check_alignment(ops, dataset, pos, baseline.table, trained.table)

    ckpt_path = ctx.workdir / "table.syme"
    stage("save_checkpoint", lambda: model.save_checkpoint(trained.table, cfg.scorer, ckpt_path))
    result.out["checkpoint_bytes"] = ckpt_path.stat().st_size
    table, kind = stage("load_checkpoint", lambda: model.load_checkpoint(ckpt_path))
    if check:
        ops.check(
            "load_checkpoint",
            kind is cfg.scorer
            and np.array_equal(table.entity_vecs, trained.table.entity_vecs.astype(np.float32))
            and np.array_equal(table.relation_vecs, trained.table.relation_vecs.astype(np.float32)),
            "checkpoint round trip differs from the table cast to float32",
        )

    test = dataset.test
    report = stage(
        "eval",
        lambda: evaluation.evaluate_split(trained.table, ScorerKind.TRANSE, test, known),
        SHORT,
    )
    baseline_report = stage(
        "eval_baseline",
        lambda: evaluation.evaluate_split(baseline.table, ScorerKind.TRANSE, test, known),
        SHORT,
    )
    result.out["n_queries"] = report.n_queries
    result.out["mrr"] = report.mrr
    result.out["baseline_mrr"] = baseline_report.mrr
    if check:
        for name, rep, tab in (("eval", report, trained.table),
                               ("eval_baseline", baseline_report, baseline.table)):
            check_ranking(ops, name, ScorerKind.TRANSE, tab, test, known, rep)

    ids = dataset.labels.entity_ids
    labeled = [(ids[e], c) for e, c in ctx.labels if e in ids]
    fit_on, score_on = labeled[0::2], labeled[1::2]
    probe_cfg = ProbeConfig(steps=ctx.workload.probe_steps)
    probe = stage(
        "probe",
        lambda: evaluation.probe_report(
            evaluation.train_probe(trained.table, fit_on, probe_cfg), trained.table, score_on
        ),
    )
    result.out["probe_accuracy"] = probe.accuracy
    if check:
        ops.check(
            "probe",
            0.0 <= probe.accuracy <= 1.0
            and sum(total for _, total in probe.per_class.values()) == len(score_on),
            "probe report does not cover the held-out entities",
        )

    if extras:
        parallel, _ = stage("parallel_mine", lambda: mining.mine_positive_dict(g, k, workers=2))
        if check:
            ops.check("parallel_mine", parallel == pos, "two workers mined another dictionary")
        distmult = stage(
            "eval_distmult",
            lambda: evaluation.evaluate_split(trained.table, ScorerKind.DISTMULT, test, known),
        )
        result.out["distmult_queries"] = distmult.n_queries
        if check:
            check_ranking(ops, "eval_distmult", ScorerKind.DISTMULT, trained.table, test, known,
                          distmult)
    return result


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_dataset(ops: Ops, ctx: Context, dataset) -> None:
    facts = ctx.facts
    got = {
        "entities": dataset.graph.entity_count,
        "relations": dataset.graph.relation_count,
        "train": len(dataset.train),
        "test": len(dataset.test),
    }
    ops.check("load", got == facts, f"loaded {got}, files hold {facts}")


def check_mining(ops: Ops, ctx: Context, dataset, pos, structures, out: dict) -> None:
    k = ctx.config.k
    targets = pos.targets
    ops.check("mine", pos.hop_bound == k, f"hop bound {pos.hop_bound} != {k}")
    ops.check(
        "mine",
        all(a not in linked and all(a in targets[t] for t in linked)
            for a, linked in enumerate(targets)),
        "dictionary is not symmetric and irreflexive",
    )
    # Every workload mines at k=1, the half length the reference covers.
    adjacency = checks.SignedAdjacency(dataset.train)
    for anchor in checks.sample_ids(dataset.graph.entity_count, ORACLE_ANCHORS):
        want = checks.oracle_targets(adjacency, anchor)
        if set(targets[anchor]) != want:
            ops.check("mine", False, f"anchor {anchor}: mined {sorted(targets[anchor])[:8]}..., "
                                     f"reference {sorted(want)[:8]}...")
            break
    recorded = ctx.recorded
    if recorded is not None:
        for key in ("pairs", "pairs_digest", "structures"):
            ops.check("mine", out[key] == recorded[key],
                      f"{key} {out[key]!r} != recorded {recorded[key]!r}")


def check_stats(ops: Ops, ctx: Context, stats, structures) -> None:
    counts = [[h.rs_count, h.total_count] for h in stats.per_hop]
    for k, (rs, total) in enumerate(counts, start=1):
        mined = sum(1 for s in structures if s.k == k)
        ops.check("stats", rs == mined, f"k={k}: {rs} symmetric structures, miner found {mined}")
        ops.check("stats", 0 <= rs <= total, f"k={k}: symmetric {rs} > total {total}")
    if ctx.recorded is not None:
        ops.check("stats", counts == ctx.recorded["stats"],
                  f"counts {counts} != recorded {ctx.recorded['stats']}")


def check_spans(ops: Ops, stage: str, tracer) -> None:
    ops.check("trace", not tracer.missing,
              f"{stage}: names to trace are missing from the program: {tracer.missing}")
    silent = [span for span in EXPECTED_SPANS.get(stage, ()) if tracer.calls(span) == 0]
    ops.check("trace", not silent, f"{stage}: traced spans never entered: {silent}")


def check_training(ops: Ops, stage: str, dataset, cfg: TrainConfig, result, known) -> None:
    table = result.table
    ops.check(stage, table.all_finite(), "final table is not finite")
    log = result.epoch_log
    ops.check(stage, len(log) == cfg.epochs, f"{len(log)} epoch entries for {cfg.epochs} epochs")
    if len(log) >= 2:
        ops.check(stage, log[-1].total < log[0].total,
                  f"loss rose from {log[0].total} to {log[-1].total}")
    # Also on a fixed batch, so single-epoch workloads are checked too.
    train = np.asarray(dataset.train, dtype=np.int64)
    batch = train[checks.sample_ids(len(train), LOSS_SAMPLE)]
    rng = np.random.default_rng(cfg.seed)
    negatives = np.repeat(batch[:, None, :], 2, axis=1)
    negatives[:, 0, 0] = rng.integers(0, table.entity_count, size=len(batch))
    negatives[:, 1, 2] = rng.integers(0, table.entity_count, size=len(batch))
    start = model.init_embeddings(table.entity_count, table.relation_count, cfg.dim, cfg.seed)
    before = losses.task_loss(start, cfg.scorer, batch, negatives, cfg)
    after = losses.task_loss(table, cfg.scorer, batch, negatives, cfg)
    ops.check(stage, after < before, f"task loss on a fixed batch rose from {before} to {after}")
    # Training must fit its own triples well beyond chance, whatever the arm.
    fitted = [tuple(dataset.train[i]) for i in checks.sample_ids(len(dataset.train), FIT_SAMPLE)]
    fit_mrr = evaluation.evaluate_split(table, cfg.scorer, fitted, known).mrr
    chance = checks.random_ranking_mrr(table.entity_count, fitted, known)
    ops.check(stage, fit_mrr >= FIT_FLOOR * chance,
              f"filtered MRR {fit_mrr:.4f} on train triples is below {FIT_FLOOR} x chance "
              f"({chance:.4f})")


def check_alignment(ops: Ops, dataset, pos, baseline_table, table) -> None:
    """The alignment arm must pull mined positives closer than the plain arm.

    Both arms start from the same table and draw the same shuffles and
    negatives, so only the alignment term separates them: by how much the
    mean cosine over mined pairs exceeds that over random pairs must grow.
    Without the term the two gaps are equal, and the check fails.
    """
    pairs = np.array([(a, t) for a, linked in enumerate(pos.targets) for t in linked if t > a],
                     dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        ops.check("train", False, "the miner found no positive pairs to compare")
        return
    rng = np.random.default_rng(0)
    others = rng.integers(0, dataset.graph.entity_count, size=(COSINE_PAIRS, 2))
    others = others[others[:, 0] != others[:, 1]]
    base_gap = checks.cosine_gap(baseline_table.entity_vecs, pairs, others)
    gap = checks.cosine_gap(table.entity_vecs, pairs, others)
    ops.check("train", gap > base_gap,
              f"alignment arm's positive-pair cosine gap {gap:.6f} does not exceed the "
              f"plain arm's {base_gap:.6f}")


def check_ranking(ops: Ops, stage: str, kind: ScorerKind, table, test, known, report) -> None:
    ops.check(
        stage,
        report.n_queries == 2 * len(test)
        and 0.0 < report.mrr <= 1.0
        and report.hits[1] <= report.hits[3] <= report.hits[10],
        f"implausible report {report}",
    )
    for i in checks.sample_ids(len(test), RANK_SAMPLE):
        triple = tuple(test[i])
        for side in ("head", "tail"):
            got = evaluation.filtered_rank(table, kind, triple, side, known)
            lo, hi = checks.rank_bounds(
                table.entity_vecs, table.relation_vecs, kind.value, triple, side, known
            )
            if not lo <= got <= hi:
                ops.check(stage, False, f"{side} rank of {triple} is {got}, reference [{lo}, {hi}]")
                return


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def median_of(passes: list[PassResult], fn) -> float:
    return statistics.median(fn(p) for p in passes)


def stage_s(passes: list[PassResult], stage: str) -> float:
    """Median over every call of the stage in the run, in reference seconds."""
    return statistics.median(t for p in passes for t in p.times[stage])


def epoch_s(passes: list[PassResult], stage: str) -> float:
    """Median over every epoch of a train stage in the run, in reference seconds."""
    return statistics.median(t for p in passes for t in p.epochs[stage])


def end_to_end(ctx: Context, plain: list[PassResult]) -> dict:
    cfg = ctx.config
    first = plain[0].out
    n_train = ctx.facts["train"]
    return {
        "setup_s": stage_s(plain, "load"),
        "mine_s": stage_s(plain, "mine"),
        "stats_s": stage_s(plain, "stats"),
        "train_triples_per_s": n_train / epoch_s(plain, "train"),
        "eval_queries_per_s": first["n_queries"] / stage_s(plain, "eval"),
        "total_s": sum(stage_s(plain, s) for s in PIPELINE),
        "peak_rss_mb": peak_rss_mb(),
        "mrr_ratio": first["mrr"] / first["baseline_mrr"],
    }


def per_layer(ctx: Context, plain: list[PassResult], traced: list[PassResult]) -> dict:
    cfg = ctx.config
    first = plain[0].out
    n_train = ctx.facts["train"]
    table_bytes = 8 * cfg.dim * (ctx.facts["entities"] + ctx.facts["relations"])
    metrics = {
        "graph.read_s": median_of(traced, lambda p: span_s(p, "load", "graph.read")),
        "graph.intern_s": median_of(traced, lambda p: span_s(p, "load", "graph.intern")),
        "mining.pairs": first["pairs"],
        "mining.structures": first["structures"],
        "mining.parallel_mine_s": stage_s(plain, "parallel_mine"),
        "mining.save_dict_s": stage_s(plain, "save_dict"),
        "mining.load_dict_s": stage_s(plain, "load_dict"),
        "mining.dict_bytes": first["dict_bytes"],
        "training.baseline_triples_per_s":
            n_train / epoch_s(plain, "train_baseline"),
        "training.batches": traced[0].spans["train"].calls("training.adam_step"),
        # Two full-size gradient tables allocated in combined_gradients, the
        # merge into the first, and Adam's writes to params, m and v.
        "training.dense_bytes_per_batch": 6 * table_bytes,
        "training.phase_coverage": median_of(traced, phase_coverage),
        "model.save_checkpoint_s": stage_s(plain, "save_checkpoint"),
        "model.load_checkpoint_s": stage_s(plain, "load_checkpoint"),
        "model.checkpoint_bytes": first["checkpoint_bytes"],
        "evaluation.mrr": first["mrr"],
        "evaluation.baseline_mrr": first["baseline_mrr"],
        "evaluation.distmult_queries_per_s":
            first["distmult_queries"] / stage_s(plain, "eval_distmult"),
        "evaluation.probe_s": stage_s(plain, "probe"),
        "evaluation.probe_accuracy": first["probe_accuracy"],
        "trace.overhead_ratio": statistics.median(
            t.total_s / p.total_s for p, t in zip(plain, traced)
        ),
    }
    for span, name in PHASES.items():
        metrics[f"{name}_s"] = median_of(traced, lambda p: span_s(p, "train", span))
        metrics[f"{name}_calls"] = traced[0].spans["train"].calls(span)
    return metrics


def phase_coverage(p: PassResult) -> float:
    tracer = p.spans["train"]
    return sum(tracer.self_s(span) for span in PHASES) / p.wall["train"][0]


def span_s(p: PassResult, stage: str, span: str) -> float:
    """A span's self time within one stage call, in reference seconds."""
    return p.spans[stage].self_s(span) * p.scale[stage]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# Environment and entry point
# ---------------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 expected: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result, report) with metrics by name."""
    workload = workloads.SCALES[scale][name]
    if expected is None:
        expected = load_expected()
    ops = Ops()
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_DIR))
    try:
        inputs = workload.generate(seed)
        ctx = Context(
            workload=workload,
            seed=seed,
            paths=workloads.write_inputs(inputs, workdir),
            labels=inputs.labels,
            facts=input_facts(inputs),
            recorded=expected.get(f"{scale}/{name}/{seed}"),
            workdir=workdir,
        )
        del inputs
        started = time.perf_counter()
        try:
            while True:
                round_start = time.perf_counter()
                # Traced runs call every stage once so both passes of a round match.
                plain.append(run_pass(ctx, ops, repeat=not trace, traced=False,
                                      extras=trace, check=not plain))
                if trace:
                    traced.append(run_pass(ctx, ops, repeat=False, traced=True,
                                           extras=False, check=False))
                now = time.perf_counter()
                if now - started + (now - round_start) > seconds:
                    break
        except StageFailed:
            pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it

    complete = ops.raised == 0
    metrics = {}
    if complete:
        metrics = per_layer(ctx, plain, traced) if trace else end_to_end(ctx, plain)
    result = {
        "correct": complete and ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "passes": len(plain),
        "environment": environment(),
        "outputs": plain[0].out if plain else {},
        "wall_samples_s": {s: [t for p in plain for t in p.wall[s]]
                           for s in (plain[0].times if complete else ())},
        "samples_s": {s: [t for p in plain for t in p.times[s]]
                      for s in (plain[0].times if complete else ())},
        "epoch_samples_s": {s: [t for p in plain for t in p.epochs[s]]
                            for s in (plain[0].epochs if complete else ())},
        "problems": ops.problems,
    }
    return result, report


def with_units(metrics: dict, spec: list[dict]) -> dict:
    """Attach BENCHMARK.json's unit to each value; every listed metric must be there."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run one symkge benchmark workload.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)

    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.scale)
    if result["metrics"]:
        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        result["metrics"] = with_units(result["metrics"], listed)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
