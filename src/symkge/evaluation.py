"""Filtered link-prediction ranking, linear probing, and the two-sample t-test."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadValueError,
    DimMismatchError,
    EmptyDatasetError,
    InsufficientSamplesError,
    NonFiniteLossError,
    NonFiniteTableError,
    SingleClassError,
    UnknownEntityError,
)
from .graph import Triple, _ranges, candidate_runs, known_keys, triple_array
from .model import SCORERS, EmbeddingTable, ScorerKind, squared_norms

HEAD = "head"
TAIL = "tail"


@dataclass(frozen=True)
class RankingReport:
    mrr: float
    hits: dict[int, float]  # N in {1, 3, 10}
    n_queries: int


# Floats per dense (queries x entities) array while ranking: bounds the
# query chunk, so peak memory does not grow with the split.
_RANK_BLOCK_FLOATS = 1 << 20


def _filtered_ranks(
    table: EmbeddingTable,
    kind: ScorerKind,
    triples: np.ndarray,
    corrupt_head: np.ndarray,
    known: Iterable[Triple],
) -> np.ndarray:
    """Filtered rank of each query (triples[i], side corrupt_head[i]).

    Equal, bit for bit, to scoring every candidate of the table's float64
    widening with the scorer's score() and counting: ties split evenly, known
    candidates other than the query are excluded. A BLAS product only bounds
    the candidates; those whose bounds do not settle their order against the
    query are re-scored with score(), so ranks do not depend on the BLAS
    thread count.
    """
    n_e, n_r = table.entity_count, table.relation_count
    table.check_triples(triples)
    h, r, t = triples.T
    # The bounds pad float64 rounding error, so a narrower table is ranked as
    # its exact float64 widening. A float64 table is not copied.
    table = table.astype(np.float64)
    entity_sq = squared_norms(table.entity_vecs)
    # A NaN or inf entry makes its row's norm non-finite: only then is the table scanned.
    finite = np.isfinite(entity_sq).all() and np.isfinite(table.relation_vecs).all()
    if not (finite or table.all_finite()):
        raise NonFiniteTableError("embedding table holds NaN or infinite values")
    # A head query is the tail query of the inverse relation, anchored at
    # the known tail.
    scorer = SCORERS[kind]
    entities = table.entity_vecs
    anchor_ids = np.where(corrupt_head, t, h)
    true_ids = np.where(corrupt_head, h, t)
    keys = known_keys(triple_array(known), n_e, n_r)
    _, run_lo, run_hi = candidate_runs(keys, triples, corrupt_head, n_e, n_r)

    ranks = np.empty(len(triples), dtype=np.float64)
    chunk = max(1, _RANK_BLOCK_FLOATS // n_e)
    for start in range(0, len(triples), chunk):
        part = slice(start, start + chunk)
        anchors, truth = entities[anchor_ids[part]], true_ids[part]
        rels = table.relation_vecs[r[part]]
        rels[corrupt_head[part]] = scorer.inverse(rels[corrupt_head[part]])
        rows = np.arange(len(truth))
        own = scorer.score(anchors, rels, entities[truth])
        if not np.isfinite(own).all():
            raise NonFiniteTableError("query scores overflow the float range")
        lo_bound, hi_bound = scorer.bounds(anchors, rels, entities, entity_sq)
        higher = lo_bound > own[:, None]
        band = ~(higher | (hi_bound < own[:, None]))  # NaN bounds land in the band

        # Known candidates and the query itself do not compete.
        first = run_lo[part]
        counts = run_hi[part] - first
        excluded = (
            np.concatenate([rows, np.repeat(rows, counts)]),
            np.concatenate([truth, keys[_ranges(first, counts)] % n_e]),
        )
        higher[excluded] = False
        band[excluded] = False

        n_higher = np.count_nonzero(higher, axis=1)
        n_tied = np.zeros(len(truth), dtype=np.int64)
        # A degenerate table (all scores equal) puts every candidate in the
        # band, so re-score it in blocks of the same float budget.
        band_at = np.flatnonzero(band)
        step = max(1, _RANK_BLOCK_FLOATS // table.dim)
        for band_start in range(0, len(band_at), step):
            band_rows, band_ids = np.divmod(band_at[band_start : band_start + step], n_e)
            rescored = scorer.score(anchors[band_rows], rels[band_rows], entities[band_ids])
            n_higher += np.bincount(band_rows[rescored > own[band_rows]], minlength=len(truth))
            n_tied += np.bincount(band_rows[rescored == own[band_rows]], minlength=len(truth))
        # Mean rank over ties: half the tied candidates land above the query.
        ranks[part] = 1.0 + n_higher + n_tied / 2.0
    return ranks


def filtered_rank(
    table: EmbeddingTable,
    kind: ScorerKind,
    query_triple: Triple,
    corrupt_side: str,
    known_triples: Iterable[Triple],
) -> float:
    """Filtered rank of the query among all substitutions on one side.

    Candidates forming a known true triple other than the query are excluded.
    Ties split evenly, so the rank can be a half-integer.
    """
    if corrupt_side not in (HEAD, TAIL):
        raise ValueError(f"corrupt_side must be {HEAD!r} or {TAIL!r}")
    triples = np.asarray([query_triple], dtype=np.int64)
    # Only known triples on the query's relation can filter it.
    relation = query_triple[1]
    same_relation = [known for known in known_triples if known[1] == relation]
    corrupt_head = np.array([corrupt_side == HEAD])
    return float(_filtered_ranks(table, kind, triples, corrupt_head, same_relation)[0])


def evaluate_split(
    table: EmbeddingTable,
    kind: ScorerKind,
    split: Sequence[Triple],
    known_triples: Iterable[Triple],
) -> RankingReport:
    """Filtered MRR and Hits@{1,3,10}; every triple queries both sides."""
    if len(split) == 0:
        raise EmptyDatasetError("split is empty")
    # Query 2i corrupts the head of split[i], query 2i + 1 its tail.
    triples = np.repeat(triple_array(split), 2, axis=0)
    corrupt_head = np.tile([True, False], len(split))
    ranks = _filtered_ranks(table, kind, triples, corrupt_head, known_triples)
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

    def __post_init__(self):
        if self.steps < 1:
            raise BadValueError(f"probe steps must be >= 1, got {self.steps}")
        if not 0 <= self.lr < math.inf:
            raise BadValueError(f"probe lr must be finite and >= 0, got {self.lr}")


@dataclass
class ProbeWeights:
    weight: np.ndarray  # (classes, dim)
    bias: np.ndarray  # (classes,)


@dataclass(frozen=True)
class ProbeReport:
    accuracy: float
    per_class: dict[int, tuple[int, int]]  # class -> (correct, total)


def _entity_rows(table: EmbeddingTable, entity_ids) -> np.ndarray:
    """The entity ids' rows, refusing ids outside the table."""
    ids = np.asarray(entity_ids, dtype=np.int64)
    outside = ids.view(np.uint64) >= table.entity_count
    if outside.any():
        raise UnknownEntityError(f"entity id {ids[outside][0]} outside [0, {table.entity_count})")
    return table.entity_vecs[ids]


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
    y = np.asarray([c for _, c in labeled], dtype=np.int64)
    if y.min() < 0:
        raise ValueError("class ids must be non-negative")
    n_classes = int(y.max()) + 1
    if len(np.unique(y)) < 2:
        raise SingleClassError("probe needs at least two distinct classes")

    features = _entity_rows(table, [e for e, _ in labeled])
    n = len(y)
    weights = ProbeWeights(weight=np.zeros((n_classes, table.dim)), bias=np.zeros(n_classes))
    onehot = np.eye(n_classes)[y]

    # A NaN or inf weight stays one, so one check after the loop catches a divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.steps):
            logits = _probe_logits(weights, features)
            logits -= logits.max(axis=1, keepdims=True)
            exp = np.exp(logits)
            probs = exp / exp.sum(axis=1, keepdims=True)
            grad_logits = (probs - onehot) / n
            grad_w = (grad_logits[:, :, None] * features[:, None, :]).sum(axis=0)
            weights.weight -= cfg.lr * grad_w
            weights.bias -= cfg.lr * grad_logits.sum(axis=0)
    if not (np.isfinite(weights.weight).all() and np.isfinite(weights.bias).all()):
        raise NonFiniteLossError("probe weights diverged to NaN or inf; lower the learning rate")
    return weights


def classify(weights: ProbeWeights, table: EmbeddingTable, entity_ids: Sequence[int]) -> np.ndarray:
    """Argmax class per entity, ties to the lowest class id; refuses overflowing logits."""
    if weights.weight.shape[1] != table.dim:
        raise DimMismatchError(
            f"probe dim {weights.weight.shape[1]} != table dim {table.dim}"
        )
    features = _entity_rows(table, entity_ids)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _probe_logits(weights, features)
    if not np.isfinite(logits).all():
        raise NonFiniteLossError("probe logits overflow the float range; lower the learning rate")
    return np.argmax(logits, axis=1)


def probe_report(
    weights: ProbeWeights,
    table: EmbeddingTable,
    test_labeled: Sequence[tuple[int, int]],
) -> ProbeReport:
    if not test_labeled:
        raise EmptyDatasetError("no held-out labeled entities to score")
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
        # One even then one odd step of the fraction, each a Lentz update.
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + num / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) < 3e-12:
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
    different means gives p=0. NaN and infinite values are refused.
    """
    sample_a = tuple(float(v) for v in a)
    sample_b = tuple(float(v) for v in b)
    if not all(map(math.isfinite, sample_a + sample_b)):
        raise BadValueError("t-test samples must hold finite numbers, not NaN or infinity")
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
            return TTestReport(0.0, 1.0, df)
        t = math.inf if mean_a > mean_b else -math.inf
        return TTestReport(t, 0.0, df)

    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    # P(|T_df| >= |t|) via the tail identity of the t distribution.
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return TTestReport(t, min(1.0, max(0.0, p)), df)
