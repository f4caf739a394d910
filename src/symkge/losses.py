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

from dataclasses import dataclass

import numpy as np

from .config import BINARY_CROSS_ENTROPY, MARGIN_RANKING, TrainConfig
from .errors import DataError, DegenerateVectorError, KMismatchError
from .graph import _distinct, _ranges
from .mining import PositiveDict, sample_positives
from .model import SCORERS, EmbeddingTable, ScorerKind

NORM_EPS = 1e-12
# Floats per dense array in a block of the alignment or the task step.
_ALIGN_BLOCK_FLOATS = 1 << 19
_TASK_BLOCK_FLOATS = 1 << 15


@dataclass(frozen=True)
class LossBreakdown:
    task: float
    contrastive: float
    total: float


@dataclass
class Gradients:
    """Row-sparse: entity[i] is the gradient of entity row entity_rows[i] (sorted,
    distinct), likewise for relations; every other row's gradient is +0.0."""

    entity_rows: np.ndarray
    entity: np.ndarray
    relation_rows: np.ndarray
    relation: np.ndarray


def _ordered_sum(ids: np.ndarray, rows: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ids in [0, count), and for each the sum of the rows carrying it,
    added in order from +0.0 as bincount does: bit-identical to np.add.at into zeros.
    bincount sums in float64; the sums are rounded once to the rows' dtype."""
    distinct, slot = _distinct(ids, count)
    dim = rows.shape[1]
    flat = (slot[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(flat, weights=rows.ravel(), minlength=len(distinct) * dim)
    return distinct, sums.reshape(len(distinct), dim).astype(rows.dtype, copy=False)


# ---------------------------------------------------------------------------
# Alignment loss
# ---------------------------------------------------------------------------


def _checked_norms(vecs: np.ndarray, what: str) -> np.ndarray:
    norms = np.sqrt((vecs * vecs).sum(axis=-1))
    if np.any(norms <= NORM_EPS):
        raise DegenerateVectorError(f"{what} vector with norm <= {NORM_EPS}")
    return norms


def _alignment(a: np.ndarray, p: np.ndarray, counts: np.ndarray, w: np.ndarray | float):
    """For each row of p, its squared distance to its anchor as unit vectors, where anchor
    row i of a owns the next counts[i] rows; and the gradients by a and p of w[i] * sum(1 - cos)."""
    a_norm = _checked_norms(a, "anchor")
    p_norms = _checked_norms(p, "positive")
    a_hat = np.repeat(a / a_norm[:, None], counts, axis=0)
    p_hat = p / p_norms[:, None]
    diff = a_hat - p_hat
    cos = (p_hat * a_hat).sum(axis=-1)[:, None]
    # Axis 1 adds in order: the +0.0 padding at most turns -0.0 into +0.0, as _ordered_sum does.
    terms = np.zeros((len(a), counts.max(), a.shape[1]), a.dtype)
    terms[np.arange(counts.max()) < counts[:, None]] = p_hat - cos * a_hat
    return ((diff * diff).sum(axis=-1), (-w / a_norm)[:, None] * terms.sum(axis=1),
            (-np.repeat(w, counts) / p_norms)[:, None] * (a_hat - cos * p_hat))


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
    return combined_gradients(table, kind, batch, negatives, None, cfg)[0].task


# ---------------------------------------------------------------------------
# Combined objective and gradients
# ---------------------------------------------------------------------------


def _pair_terms(pos: np.ndarray, neg: np.ndarray, cfg: TrainConfig, n_pairs: int):
    """Per-pair loss terms, and d loss / d score of positives (B,) and negatives (B, N)."""
    if cfg.task_loss == MARGIN_RANKING:
        hinge = cfg.margin - pos[:, None] + neg
        active = hinge > 0.0
        d_pos = -active.sum(axis=1).astype(np.float64) / n_pairs
        return np.maximum(0.0, hinge), d_pos, active.astype(np.float64) / n_pairs
    if cfg.task_loss == BINARY_CROSS_ENTROPY:
        per_pair = -_log_sigmoid(pos)[:, None] - _log_sigmoid(-neg)
        # d/ds_pos of -log s(s_pos) = s(s_pos) - 1, repeated over its negatives.
        d_pos = (_sigmoid(pos) - 1.0) * (neg.shape[1] / n_pairs)
        return per_pair, d_pos, _sigmoid(neg) / n_pairs
    raise ValueError(f"unknown task loss {cfg.task_loss!r}")


def _task_forward_backward(
    table: EmbeddingTable,
    kind: ScorerKind,
    batch: np.ndarray,
    negatives: np.ndarray,
    cfg: TrainConfig,
    then: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, Gradients]:
    """Mean task loss over (positive, negative) pairs, and its gradients.

    Each block of positives and their negatives gathers its rows once. Scaled
    partials land in slots in the order one scatter of the batch adds them:
    positive heads, positive tails, negative heads, negative tails, then the
    (ids, rows) in then. A pair with coefficient exactly 0 would add +-0 to
    sums that start at +0.0, changing no bit while partials are finite: skipped.
    The slots are float64 whatever the table's dtype; Adam rounds their sums.
    """
    scorer = SCORERS[kind]
    n_pos, n_neg = negatives.shape[:2]
    n_pairs = n_pos * n_neg
    flat = negatives.reshape(-1, 3)
    per_pair = np.empty((n_pos, n_neg), np.float64)
    then_ids, then_rows = then or (
        np.empty(0, np.int64), np.empty((0, table.dim), table.entity_vecs.dtype)
    )
    ent_ids = np.concatenate([batch[:, 0], batch[:, 2], flat[:, 0], flat[:, 2], then_ids])
    ent_slots = np.zeros((len(ent_ids), table.dim), np.float64)
    ent_slots[len(ent_ids) - len(then_rows) :] = then_rows
    rel_slots = np.zeros((n_pos + n_pairs, table.dim), np.float64)
    chunk = max(1, _TASK_BLOCK_FLOATS // ((1 + n_neg) * table.dim))
    for lo in range(0, n_pos, chunk):
        n = min(chunk, n_pos - lo)
        h, r, t = np.concatenate([batch[lo : lo + n], flat[lo * n_neg : (lo + n) * n_neg]]).T
        scores, scaled_partials = scorer.forward(
            table.entity_vecs[h], table.relation_vecs[r], table.entity_vecs[t]
        )
        per_pair[lo : lo + n], d_pos, d_neg = _pair_terms(
            scores[:n], scores[n:].reshape(n, n_neg), cfg, n_pairs
        )
        coeff = np.concatenate([d_pos, d_neg.ravel()])
        keep = np.flatnonzero(coeff)
        d_h, d_r, d_t = scaled_partials(keep, coeff[keep])
        # Pair index: positives 0..n_pos, then negatives in flat order.
        is_pos = keep < n
        pair = np.where(is_pos, lo + keep, n_pos + lo * n_neg + keep - n)
        rel_slots[pair] = d_r
        ent_slots[np.where(is_pos, pair, pair + n_pos)] = d_h
        ent_slots[np.where(is_pos, pair + n_pos, pair + n_pos + n_pairs)] = d_t
    value = float(per_pair.mean())
    rel_ids = np.concatenate([batch[:, 1], flat[:, 1]])
    return value, Gradients(*_ordered_sum(ent_ids, ent_slots, table.entity_count),
                            *_ordered_sum(rel_ids, rel_slots, table.relation_count))


def _contrastive_forward_backward(
    table: EmbeddingTable,
    anchors: np.ndarray,
    pos_dict: PositiveDict | None,
    cfg: TrainConfig,
    epoch: int,
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Mean alignment loss over anchor occurrences with nonempty positives, and
    cfg.alpha times its gradient: touched entity rows, sorted, and their gradients,
    or None. Each distinct anchor's terms are computed once, and every sum runs
    in occurrence order: bit-identical to a loop over occurrences.
    """
    if pos_dict is None:
        return 0.0, None
    # The positive draw depends on the anchor, not the occurrence.
    uniq, occ = _distinct(anchors, table.entity_count)
    counts, flat = sample_positives(pos_dict, uniq, cfg.m, cfg.seed, epoch)
    occ = occ[counts[occ] > 0]
    if occ.size == 0:
        return 0.0, None
    # Distinct anchor u owns rows start[u] : start[u] + 1 + counts[u] of ids and grad:
    # the anchor, then its positives flat[first[u] : first[u] + counts[u]].
    first = np.cumsum(counts) - counts
    start = first + np.arange(len(uniq))
    positive_rows = _ranges(start + 1, counts)
    ids = np.empty(flat.size + len(uniq), np.int64)
    ids[start], ids[positive_rows] = uniq, flat
    n_occ, dim, vecs = occ.size, table.dim, table.entity_vecs
    grad, sq = np.empty((ids.size, dim), vecs.dtype), np.empty(flat.size, vecs.dtype)
    has = np.flatnonzero(counts)
    w = (2.0 / (n_occ * counts[has])).astype(vecs.dtype)  # rounded as a Python float w is
    step = max(1, _ALIGN_BLOCK_FLOATS // ((1 + counts.max()) * dim))
    for lo in range(0, len(has), step):
        block = has[lo : lo + step]
        span = slice(first[block[0]], first[block[-1]] + counts[block[-1]])
        sq[span], grad[start[block]], grad[positive_rows[span]] = _alignment(
            vecs[uniq[block]], vecs[flat[span]], counts[block], w[lo : lo + step])
    per_anchor = np.empty(len(uniq), np.float64)
    # The mean's summation order depends on the count: one mean per count.
    for m_a in np.flatnonzero(np.bincount(counts[has])).tolist():
        group = np.flatnonzero(counts == m_a)
        per_anchor[group] = sq[first[group][:, None] + np.arange(m_a)].mean(axis=1)
    # cumsum adds left to right, as the loop over occurrences does.
    value = float(np.cumsum(per_anchor[occ])[-1]) / n_occ
    gather = _ranges(start[occ], 1 + counts[occ])
    rows, compact = _ordered_sum(ids[gather], grad[gather], table.entity_count)
    compact *= cfg.alpha
    return value, (rows, compact)


def combined_gradients(
    table: EmbeddingTable,
    kind: ScorerKind,
    batch: np.ndarray,
    negatives: np.ndarray,
    pos_dict: PositiveDict | None,
    cfg: TrainConfig,
    epoch: int = 0,
) -> tuple[LossBreakdown, Gradients]:
    """task + alpha * alignment over one batch, deterministic given cfg.seed, and its
    analytic gradients, row-sparse over the touched rows. A triple with an id outside
    the table is refused with UnknownEntityError, a dictionary over more entities
    than the table with DataError."""
    if pos_dict is not None and pos_dict.hop_bound != cfg.k:
        raise KMismatchError(
            f"dictionary mined with hop bound {pos_dict.hop_bound}, config wants {cfg.k}"
        )
    if pos_dict is not None and pos_dict.entity_count > table.entity_count:
        raise DataError(f"dictionary covers {pos_dict.entity_count} entities, "
                        f"but the table has {table.entity_count}")
    batch = np.asarray(batch, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    table.check_triples(batch)
    table.check_triples(negatives.reshape(-1, 3))
    # Both endpoints of every triple are anchor occurrences. With alpha == 0
    # the term is still reported but adds nothing to train on.
    contrastive, alignment = _contrastive_forward_backward(
        table, np.concatenate([batch[:, 0], batch[:, 2]]), pos_dict, cfg, epoch
    )
    then = alignment if cfg.alpha != 0.0 else None
    task, grads = _task_forward_backward(table, kind, batch, negatives, cfg, then)
    return LossBreakdown(task, contrastive, task + cfg.alpha * contrastive), grads
