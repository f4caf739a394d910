"""Task loss, alignment (contrastive) loss, and their analytic gradients.

The alignment loss over an anchor a and sampled positives p_i is the mean
squared distance between L2-normalized vectors,

    (1/m) sum_i || a/|a| - p_i/|p_i| ||^2  =  2 - (2/m) sum_i cos(a, p_i),

which is bounded in [0, 4] and invariant to positive rescaling of any vector.
The combined objective is task + alpha * alignment.

Gradients are computed in closed form and are checked against central finite
differences in the test suite; keep both in sync when touching formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import BINARY_CROSS_ENTROPY, MARGIN_RANKING, TrainConfig
from .errors import DegenerateVectorError, KMismatchError
from .mining import PositiveDict, sample_positives
from .model import SCORERS, EmbeddingTable, ScorerKind, score_batch

NORM_EPS = 1e-12
# Floats per dense array in the alignment step; bounds its temporary memory.
_ALIGN_BLOCK_FLOATS = 1 << 19


@dataclass(frozen=True)
class LossBreakdown:
    task: float
    contrastive: float
    total: float


@dataclass
class Gradients:
    """Dense gradient tables matching the embedding table shapes."""

    entity: np.ndarray
    relation: np.ndarray


def positive_sample_seed(seed: int, epoch: int, anchor: int) -> int:
    """Stable per-(run, epoch, anchor) stream id for positive resampling."""
    return (seed * 1_000_003 + epoch) * 1_000_003 + anchor


# ---------------------------------------------------------------------------
# Alignment loss
# ---------------------------------------------------------------------------


def _checked_norms(vecs: np.ndarray, what: str) -> np.ndarray:
    norms = np.sqrt((vecs * vecs).sum(axis=-1))
    if np.any(norms <= NORM_EPS):
        raise DegenerateVectorError(f"{what} vector with norm <= {NORM_EPS}")
    return norms


def contrastive_loss(anchor_vec: np.ndarray, positive_vecs: np.ndarray | list) -> float:
    """Mean squared distance between the normalized anchor and positives.

    Empty positive sets contribute nothing and return 0.
    """
    positives = np.atleast_2d(np.asarray(positive_vecs, dtype=np.float64))
    if positives.size == 0:
        return 0.0
    anchor = np.asarray(anchor_vec, dtype=np.float64)
    a_norm = _checked_norms(anchor[None, :], "anchor")[0]
    p_norms = _checked_norms(positives, "positive")
    diff = anchor / a_norm - positives / p_norms[:, None]
    return float((diff * diff).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# Task loss
# ---------------------------------------------------------------------------


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def task_loss(
    table: EmbeddingTable,
    kind: ScorerKind,
    batch: np.ndarray,
    negatives: np.ndarray,
    cfg: TrainConfig,
) -> float:
    """Ranking loss over (positive, corrupted) pairs.

    margin_ranking: mean over pairs of max(0, margin - s_pos + s_neg).
    binary_cross_entropy: mean over pairs of -log s(s_pos) - log s(-s_neg).
    """
    batch = np.asarray(batch, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    return _task_forward_backward(table, kind, batch, negatives, cfg, None)


# ---------------------------------------------------------------------------
# Combined objective and gradients
# ---------------------------------------------------------------------------


def _add_score_grads(
    table: EmbeddingTable,
    kind: ScorerKind,
    h_idx: np.ndarray,
    r_idx: np.ndarray,
    t_idx: np.ndarray,
    coeff: np.ndarray,
    grads: Gradients,
) -> None:
    """Scatter-add coeff[i] * d score_i / d vec into the gradient tables."""
    d_h, d_r, d_t = SCORERS[kind].partials(
        table.entity_vecs[h_idx], table.relation_vecs[r_idx], table.entity_vecs[t_idx]
    )
    c = coeff[:, None]
    np.add.at(grads.entity, h_idx, d_h * c)
    np.add.at(grads.relation, r_idx, d_r * c)
    np.add.at(grads.entity, t_idx, d_t * c)


def _task_forward_backward(
    table: EmbeddingTable,
    kind: ScorerKind,
    batch: np.ndarray,
    negatives: np.ndarray,
    cfg: TrainConfig,
    grads: Gradients | None,
) -> float:
    pos_scores = score_batch(table, kind, batch[:, 0], batch[:, 1], batch[:, 2])
    flat = negatives.reshape(-1, 3)
    neg_scores = score_batch(table, kind, flat[:, 0], flat[:, 1], flat[:, 2]).reshape(
        negatives.shape[0], negatives.shape[1]
    )
    n_pairs = neg_scores.size

    if cfg.task_loss == MARGIN_RANKING:
        hinge = cfg.margin - pos_scores[:, None] + neg_scores
        active = hinge > 0.0
        value = float(np.maximum(0.0, hinge).mean())
        if grads is not None:
            d_pos = -active.sum(axis=1).astype(np.float64) / n_pairs
            d_neg = active.astype(np.float64) / n_pairs
            _add_score_grads(table, kind, batch[:, 0], batch[:, 1], batch[:, 2], d_pos, grads)
            _add_score_grads(
                table, kind, flat[:, 0], flat[:, 1], flat[:, 2], d_neg.reshape(-1), grads
            )
        return value

    if cfg.task_loss == BINARY_CROSS_ENTROPY:
        per_pair = -_log_sigmoid(pos_scores)[:, None] - _log_sigmoid(-neg_scores)
        value = float(per_pair.mean())
        if grads is not None:
            # d/ds_pos of -log s(s_pos) = s(s_pos) - 1, repeated over its negatives.
            d_pos = (_sigmoid(pos_scores) - 1.0) * (negatives.shape[1] / n_pairs)
            d_neg = _sigmoid(neg_scores) / n_pairs
            _add_score_grads(table, kind, batch[:, 0], batch[:, 1], batch[:, 2], d_pos, grads)
            _add_score_grads(
                table, kind, flat[:, 0], flat[:, 1], flat[:, 2], d_neg.reshape(-1), grads
            )
        return value

    raise ValueError(f"unknown task loss {cfg.task_loss!r}")


def _contrastive_forward_backward(
    table: EmbeddingTable,
    anchors: np.ndarray,
    pos_dict: PositiveDict | None,
    cfg: TrainConfig,
    epoch: int,
    grad_entity: np.ndarray | None,
) -> float:
    """Mean alignment loss over anchor occurrences with nonempty positives.

    With grad_entity given, cfg.alpha times the loss gradient is added into
    it; the term never touches relations. Every sum runs in the order of a
    loop over occurrences, so results are bit-identical to that loop.
    """
    if pos_dict is None:
        return 0.0
    # The positive stream depends on the anchor, not the occurrence.
    uniq, occ = np.unique(anchors, return_inverse=True)
    sampled = [
        sample_positives(pos_dict, a, cfg.m, positive_sample_seed(cfg.seed, epoch, a))
        for a in uniq.tolist()
    ]
    counts = np.array([len(p) for p in sampled], dtype=np.int64)
    occ = occ[counts[occ] > 0]
    if occ.size == 0:
        return 0.0
    # Distinct anchor u's positives are flat[first[u] : first[u] + counts[u]].
    flat = np.fromiter(itertools.chain.from_iterable(sampled), np.int64, int(counts.sum()))
    first = np.cumsum(counts) - counts

    n_occ, dim = occ.size, table.entity_vecs.shape[1]
    if grad_entity is not None:
        rows = np.unique(np.concatenate([uniq[counts > 0], flat]))
        compact = np.zeros((len(rows), dim))
    total = 0.0
    chunk = max(1, _ALIGN_BLOCK_FLOATS // ((1 + cfg.m) * dim))
    for lo in range(0, n_occ, chunk):
        part, local = np.unique(occ[lo : lo + chunk], return_inverse=True)
        # Distinct anchor i of the chunk owns rows start[i]..start[i] + its
        # count of ids and grad: the anchor, then its positives.
        lengths = 1 + counts[part]
        start = np.cumsum(lengths) - lengths
        ids = np.empty(int(lengths.sum()), dtype=np.int64)
        grad = np.empty((ids.size, dim))
        per_anchor = np.empty(len(part))
        # One block per positive count: padding would change the mean's sum.
        for m_a in sorted(set(counts[part].tolist())):
            group = np.flatnonzero(counts[part] == m_a)
            slots = start[group][:, None] + np.arange(1 + m_a)
            u = part[group]
            ids[slots[:, 0]] = uniq[u]
            ids[slots[:, 1:]] = flat[first[u][:, None] + np.arange(m_a)]
            a = table.entity_vecs[ids[slots[:, 0]]]
            p = table.entity_vecs[ids[slots[:, 1:]]]
            a_norm = _checked_norms(a, "anchor")
            p_norms = _checked_norms(p, "positive")
            a_hat = (a / a_norm[:, None])[:, None, :]
            p_hat = p / p_norms[:, :, None]
            diff = a_hat - p_hat
            per_anchor[group] = (diff * diff).sum(axis=-1).mean(axis=1)
            if grad_entity is not None:
                cos = (p_hat * a_hat).sum(axis=-1)[:, :, None]
                w = 2.0 / (n_occ * m_a)
                grad[slots[:, 0]] = (-w / a_norm)[:, None] * (p_hat - cos * a_hat).sum(axis=1)
                grad[slots[:, 1:]] = -w / p_norms[:, :, None] * (a_hat - cos * p_hat)
        for value in per_anchor[local].tolist():
            total += value
        if grad_entity is not None:
            # The chunk's occurrences' blocks, back to back in occurrence order.
            lengths = lengths[local]
            ends = np.cumsum(lengths)
            gather = np.arange(ends[-1]) + np.repeat(start[local] - (ends - lengths), lengths)
            np.add.at(compact, np.searchsorted(rows, ids[gather]), grad[gather])
    if grad_entity is not None:
        compact *= cfg.alpha
        grad_entity[rows] += compact
    return total / n_occ


def _batch_anchors(batch: np.ndarray) -> np.ndarray:
    """Both endpoints of every batch triple act as anchor occurrences."""
    return np.concatenate([batch[:, 0], batch[:, 2]])


def _check_dict(pos_dict: PositiveDict | None, cfg: TrainConfig) -> None:
    if pos_dict is not None and pos_dict.hop_bound != cfg.k:
        raise KMismatchError(
            f"dictionary mined with hop bound {pos_dict.hop_bound}, config wants {cfg.k}"
        )


def combined_loss(
    table: EmbeddingTable,
    kind: ScorerKind,
    batch: np.ndarray,
    negatives: np.ndarray,
    pos_dict: PositiveDict | None,
    cfg: TrainConfig,
    epoch: int = 0,
) -> LossBreakdown:
    """task + alpha * alignment over one batch; deterministic given cfg.seed."""
    _check_dict(pos_dict, cfg)
    batch = np.asarray(batch, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    task = _task_forward_backward(table, kind, batch, negatives, cfg, None)
    contrastive = _contrastive_forward_backward(
        table, _batch_anchors(batch), pos_dict, cfg, epoch, None
    )
    return LossBreakdown(task, contrastive, task + cfg.alpha * contrastive)


def combined_gradients(
    table: EmbeddingTable,
    kind: ScorerKind,
    batch: np.ndarray,
    negatives: np.ndarray,
    pos_dict: PositiveDict | None,
    cfg: TrainConfig,
    epoch: int = 0,
) -> tuple[LossBreakdown, Gradients]:
    """Analytic gradients of combined_loss w.r.t. every touched embedding."""
    _check_dict(pos_dict, cfg)
    batch = np.asarray(batch, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    grads = Gradients(
        entity=np.zeros_like(table.entity_vecs),
        relation=np.zeros_like(table.relation_vecs),
    )
    task = _task_forward_backward(table, kind, batch, negatives, cfg, grads)
    # With alpha == 0 the term is still reported but adds nothing to train on.
    contrastive = _contrastive_forward_backward(
        table, _batch_anchors(batch), pos_dict, cfg, epoch,
        grads.entity if cfg.alpha != 0.0 else None,
    )
    return LossBreakdown(task, contrastive, task + cfg.alpha * contrastive), grads
