"""Filtered link-prediction ranking, linear probing, and the two-sample t-test."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    InsufficientSamplesError,
    SingleClassError,
    UnknownEntityError,
)
from .graph import Triple
from .model import SCORERS, EmbeddingTable, ScorerKind

HEAD = "head"
TAIL = "tail"


@dataclass(frozen=True)
class RankingReport:
    mrr: float
    hits: dict[int, float]  # N in {1, 3, 10}
    n_queries: int


class _FilterIndex:
    """Known-triple lookups for filtered ranking."""

    def __init__(self, known: Iterable[tuple[int, int, int]]):
        self.heads_by_rt: dict[tuple[int, int], set[int]] = {}
        self.tails_by_hr: dict[tuple[int, int], set[int]] = {}
        for h, r, t in known:
            self.heads_by_rt.setdefault((r, t), set()).add(h)
            self.tails_by_hr.setdefault((h, r), set()).add(t)


def _rank_one(
    table: EmbeddingTable,
    kind: ScorerKind,
    triple: tuple[int, int, int],
    corrupt_side: str,
    index: _FilterIndex,
) -> float:
    h, r, t = triple
    if not (0 <= h < table.entity_count and 0 <= t < table.entity_count):
        raise UnknownEntityError(f"query entity outside table: {triple}")
    if not 0 <= r < table.relation_count:
        raise UnknownEntityError(f"query relation outside table: {triple}")

    # One pass over the entity table, no BLAS reductions. A head query is the
    # tail query of the inverse relation, anchored at the known tail.
    scorer = SCORERS[kind]
    entities = table.entity_vecs
    r_vec = table.relation_vecs[r]
    if corrupt_side == HEAD:
        scores = scorer.score(entities[t], scorer.inverse(r_vec), entities)
        true_entity = h
        known_here = index.heads_by_rt.get((r, t), ())
    else:
        scores = scorer.score(entities[h], r_vec, entities)
        true_entity = t
        known_here = index.tails_by_hr.get((h, r), ())

    keep = np.ones(table.entity_count, dtype=bool)
    for other in known_here:
        keep[other] = False
    keep[true_entity] = True  # the query itself always competes

    kept_scores = scores[keep]
    s_star = scores[true_entity]
    higher = int((kept_scores > s_star).sum())
    equal_others = int((kept_scores == s_star).sum()) - 1
    # Mean rank over ties: half the tied candidates land above the query.
    return 1.0 + higher + equal_others / 2.0


def filtered_rank(
    table: EmbeddingTable,
    kind: ScorerKind,
    query_triple: Triple | tuple[int, int, int],
    corrupt_side: str,
    known_triples: Iterable[tuple[int, int, int]],
) -> float:
    """Filtered rank of the query among all substitutions on one side.

    Candidates forming a known true triple other than the query are excluded.
    Ties split evenly, so the rank can be a half-integer.
    """
    if corrupt_side not in (HEAD, TAIL):
        raise ValueError(f"corrupt_side must be {HEAD!r} or {TAIL!r}")
    return _rank_one(table, kind, tuple(query_triple), corrupt_side, _FilterIndex(known_triples))


def evaluate_split(
    table: EmbeddingTable,
    kind: ScorerKind,
    split: Sequence[Triple | tuple[int, int, int]],
    known_triples: Iterable[tuple[int, int, int]],
) -> RankingReport:
    """Filtered MRR and Hits@{1,3,10}; every triple queries both sides."""
    if len(split) == 0:
        raise ValueError("split is empty")
    index = _FilterIndex(known_triples)
    ranks = np.empty(2 * len(split), dtype=np.float64)
    for i, triple in enumerate(split):
        triple = tuple(triple)
        ranks[2 * i] = _rank_one(table, kind, triple, HEAD, index)
        ranks[2 * i + 1] = _rank_one(table, kind, triple, TAIL, index)
    return RankingReport(
        mrr=float((1.0 / ranks).mean()),
        hits={n: float((ranks <= n).mean()) for n in (1, 3, 10)},
        n_queries=len(ranks),
    )


# ---------------------------------------------------------------------------
# Linear probe over frozen embeddings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    lr: float = 0.5
    steps: int = 500


@dataclass
class ProbeWeights:
    weight: np.ndarray  # (classes, dim)
    bias: np.ndarray  # (classes,)

    @property
    def n_classes(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True)
class ProbeReport:
    accuracy: float
    per_class: dict[int, tuple[int, int]]  # class -> (correct, total)


def _probe_logits(weights: ProbeWeights, features: np.ndarray) -> np.ndarray:
    # (N, C, d) broadcast keeps the reduction out of BLAS; probe sets are small.
    return (features[:, None, :] * weights.weight[None, :, :]).sum(axis=2) + weights.bias


def train_probe(
    table: EmbeddingTable,
    labeled: Sequence[tuple[int, int]],
    cfg: ProbeConfig = ProbeConfig(),
) -> ProbeWeights:
    """Fit an affine softmax classifier on frozen embeddings.

    Full-batch gradient descent from zero-initialized weights, so the result
    is deterministic with no rng involved.
    """
    if not labeled:
        raise SingleClassError("no labeled entities")
    ids = np.asarray([e for e, _ in labeled], dtype=np.int64)
    y = np.asarray([c for _, c in labeled], dtype=np.int64)
    if y.min() < 0:
        raise ValueError("class ids must be non-negative")
    n_classes = int(y.max()) + 1
    if len(np.unique(y)) < 2:
        raise SingleClassError("probe needs at least two distinct classes")

    features = table.entity_vecs[ids]
    n = len(ids)
    weights = ProbeWeights(
        weight=np.zeros((n_classes, table.dim)), bias=np.zeros(n_classes)
    )
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y] = 1.0

    for _ in range(cfg.steps):
        logits = _probe_logits(weights, features)
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=1, keepdims=True)
        grad_logits = (probs - onehot) / n
        grad_w = (grad_logits[:, :, None] * features[:, None, :]).sum(axis=0)
        weights.weight -= cfg.lr * grad_w
        weights.bias -= cfg.lr * grad_logits.sum(axis=0)
    return weights


def classify(weights: ProbeWeights, table: EmbeddingTable, entity_ids: Sequence[int]) -> np.ndarray:
    """Argmax class per entity; ties resolve to the lowest class id."""
    if weights.weight.shape[1] != table.dim:
        raise DimMismatchError(
            f"probe dim {weights.weight.shape[1]} != table dim {table.dim}"
        )
    features = table.entity_vecs[np.asarray(entity_ids, dtype=np.int64)]
    return np.argmax(_probe_logits(weights, features), axis=1)


def probe_report(
    weights: ProbeWeights,
    table: EmbeddingTable,
    test_labeled: Sequence[tuple[int, int]],
) -> ProbeReport:
    ids = [e for e, _ in test_labeled]
    truth = np.asarray([c for _, c in test_labeled], dtype=np.int64)
    preds = classify(weights, table, ids)
    per_class: dict[int, tuple[int, int]] = {}
    for cls in sorted(set(truth.tolist())):
        mask = truth == cls
        per_class[cls] = (int((preds[mask] == cls).sum()), int(mask.sum()))
    correct = int((preds == truth).sum())
    return ProbeReport(accuracy=correct / len(truth), per_class=per_class)


# ---------------------------------------------------------------------------
# Two-sample Student's t-test
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TTestReport:
    sample_a: tuple[float, ...]
    sample_b: tuple[float, ...]
    t_statistic: float
    p_value: float
    degrees_of_freedom: int


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        num = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        num = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + num * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + num / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-12:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def students_t_test(a: Sequence[float], b: Sequence[float]) -> TTestReport:
    """Two-sample pooled-variance t-test with a two-sided p-value.

    Both samples constant and equal is defined as t=0, p=1; constant but
    different means gives p=0.
    """
    sample_a = tuple(float(v) for v in a)
    sample_b = tuple(float(v) for v in b)
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise InsufficientSamplesError("each sample needs at least two values")
    na, nb = len(sample_a), len(sample_b)
    mean_a = sum(sample_a) / na
    mean_b = sum(sample_b) / nb
    var_a = sum((v - mean_a) ** 2 for v in sample_a) / (na - 1)
    var_b = sum((v - mean_b) ** 2 for v in sample_b) / (nb - 1)
    df = na + nb - 2
    pooled = ((na - 1) * var_a + (nb - 1) * var_b) / df

    if pooled == 0.0:
        if mean_a == mean_b:
            return TTestReport(sample_a, sample_b, 0.0, 1.0, df)
        t = math.inf if mean_a > mean_b else -math.inf
        return TTestReport(sample_a, sample_b, t, 0.0, df)

    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    # P(|T_df| >= |t|) via the tail identity of the t distribution.
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestReport(sample_a, sample_b, t, min(1.0, max(0.0, p)), df)
