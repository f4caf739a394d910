"""Task loss, alignment (contrastive) loss, and their analytic gradients.

The alignment loss over an anchor a and sampled positives p_i is the mean
squared distance between L2-normalized vectors,

    (1/m) sum_i || a/|a| - p_i/|p_i| ||^2  =  2 - (2/m) sum_i cos(a, p_i),

which is bounded in [0, 4] and invariant to positive rescaling of any vector.
The combined objective is task + alpha * alignment. The task term scores each
negative against its positive's shared query (see model.SCORERS), and both
terms' gradient rows go into one float64 ordered scatter per table.

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
    # One (rows, d) scratch holds each product in turn; p_hat ends as the positives' gradient.
    scratch = np.multiply(p_hat, a_hat)
    cos = scratch.sum(axis=-1)[:, None]
    diff = np.subtract(a_hat, p_hat, out=scratch)
    sq = np.multiply(diff, diff, out=diff).sum(axis=-1)
    # Axis 1 adds in order: the +0.0 padding at most turns -0.0 into +0.0, as _ordered_sum does.
    terms = np.zeros((len(a), counts.max(), a.shape[1]), a.dtype)
    terms[np.arange(counts.max()) < counts[:, None]] = np.subtract(
        p_hat, np.multiply(cos, a_hat, out=scratch), out=scratch)
    grad_p = np.subtract(a_hat, np.multiply(cos, p_hat, out=p_hat), out=p_hat)
    grad_p *= (-np.repeat(w, counts) / p_norms)[:, None]
    return sq, (-w / a_norm)[:, None] * terms.sum(axis=1), grad_p


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


def _pair_terms(scores: np.ndarray, cfg: TrainConfig, n_pairs: int):
    """Per-pair loss terms, and d loss / d score, from (B, 1 + N) scores: each
    positive's, then its N negatives'."""
    pos, neg = scores[:, :1], scores[:, 1:]
    if cfg.task_loss == MARGIN_RANKING:
        hinge = cfg.margin - pos + neg
        active = hinge > 0.0
        d_pos = -active.sum(axis=1, keepdims=True).astype(np.float64) / n_pairs
        return np.maximum(0.0, hinge), np.concatenate([d_pos, active / n_pairs], axis=1)
    if cfg.task_loss == BINARY_CROSS_ENTROPY:
        per_pair = -_log_sigmoid(pos) - _log_sigmoid(-neg)
        # d/ds_pos of -log s(s_pos) = s(s_pos) - 1, repeated over its negatives.
        d_pos = (_sigmoid(pos) - 1.0) * (neg.shape[1] / n_pairs)
        return per_pair, np.concatenate([d_pos, _sigmoid(neg) / n_pairs], axis=1)
    raise ValueError(f"unknown task loss {cfg.task_loss!r}")


def _task_forward_backward(table: EmbeddingTable, kind: ScorerKind, batch: np.ndarray,
                           negatives: np.ndarray, cfg: TrainConfig,
                           then: tuple[np.ndarray, np.ndarray] | None = None
                           ) -> tuple[float, Gradients]:
    """Mean task loss over (positive, negative) pairs, and its gradients.

    Positive (h, r, t) scores as its tail query, query(h, r), against t; a
    negative whose head differs from h scores its head against the head query,
    query(t, inverse(r)), any other its tail against the tail query. Per
    positive and side, the partials by the query are summed, the positive's
    first, then the negatives' in order. The float64 slots, in the order one
    scatter adds them: the B positive heads; per positive, its tail (its partial
    by t, plus the head query's by its anchor), then its N negatives' corrupted
    entities; then the (ids, rows) in then; and the B relations.
    """
    scorer = SCORERS[kind]
    n_pos, n_neg = negatives.shape[:2]
    dim, vecs = table.dim, table.entity_vecs
    # Row j of a positive's 1 + n_neg: its tail (j = 0), else negative j - 1's
    # corrupted entity, and whether it scores against the head query.
    head_side = negatives[:, :, 0] != batch[:, None, 0]
    candidates = np.concatenate(
        [batch[:, 2:], np.where(head_side, negatives[:, :, 0], negatives[:, :, 2])], axis=1)
    on_head = np.concatenate([np.zeros((n_pos, 1), np.bool_), head_side], axis=1)[:, :, None]
    then_ids, then_rows = then or (np.empty(0, np.int64), np.empty((0, dim), np.float64))
    ent_ids = np.concatenate([batch[:, 0], candidates.ravel(), then_ids])
    ent_slots = np.empty((len(ent_ids), dim), np.float64)
    ent_slots[len(ent_ids) - len(then_rows) :] = then_rows
    rel_slots = np.empty((n_pos, dim), np.float64)
    per_pair = np.empty((n_pos, n_neg), np.float64)
    chunk = max(1, _TASK_BLOCK_FLOATS // ((1 + n_neg) * dim))
    for lo in range(0, n_pos, chunk):
        hi = min(lo + chunk, n_pos)
        e_h, rel = vecs[batch[lo:hi, 0]], table.relation_vecs[batch[lo:hi, 1]]
        rows = vecs[candidates[lo:hi]]
        e_t, inv, head = rows[:, 0], scorer.inverse(rel), on_head[lo:hi]
        queries = np.where(head, scorer.query(e_t, inv)[:, None], scorer.query(e_h, rel)[:, None])
        scores, scaled_partials = scorer.compare(queries, rows)
        per_pair[lo:hi], coeff = _pair_terms(scores, cfg, n_pos * n_neg)
        d_q, d_c = scaled_partials(coeff)
        # NumPy adds axis 1 in order. A +0.0 term changes at most a zero's sign,
        # which the scatter's sums from +0.0 do not keep.
        d_h, d_r = scorer.query_partials(np.where(head, 0.0, d_q).sum(axis=1), e_h, rel)
        d_t, d_inv = scorer.query_partials(np.where(head, d_q, 0.0).sum(axis=1), e_t, inv)
        ent_slots[lo:hi] = d_h
        block = ent_slots[n_pos + lo * (1 + n_neg) : n_pos + hi * (1 + n_neg)]
        block[:] = d_c.reshape(-1, dim)
        block[:: 1 + n_neg] += d_t
        np.add(d_r, scorer.inverse(d_inv), out=rel_slots[lo:hi])
    return float(per_pair.mean()), Gradients(
        *_ordered_sum(ent_ids, ent_slots, table.entity_count),
        *_ordered_sum(batch[:, 1], rel_slots, table.relation_count))


def _contrastive_forward_backward(table: EmbeddingTable, anchors: np.ndarray,
                                  pos_dict: PositiveDict | None, cfg: TrainConfig, epoch: int
                                  ) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Mean alignment loss over anchor occurrences with nonempty positives, bit-identical
    to a loop over occurrences, and the unsummed float64 (ids, rows) of cfg.alpha times
    its gradient, or None: each distinct anchor with positives, then its positives, each
    row computed once and scaled by alpha times its anchor's occurrences."""
    if pos_dict is None:
        return 0.0, None
    # The positive draw depends on the anchor, not the occurrence.
    uniq, occ = _distinct(anchors, table.entity_count)
    counts, flat = sample_positives(pos_dict, uniq, cfg.m, cfg.seed, epoch)
    occ = occ[counts[occ] > 0]
    if occ.size == 0:
        return 0.0, None
    # Distinct anchor u = has[i] owns rows start[i] : start[i] + 1 + counts[u] of ids and
    # grad: the anchor, then its positives flat[first[u] : first[u] + counts[u]].
    has = np.flatnonzero(counts)
    first = np.cumsum(counts) - counts
    start = first[has] + np.arange(len(has))
    positive_rows = _ranges(start + 1, counts[has])
    ids = np.empty(flat.size + len(has), np.int64)
    ids[start], ids[positive_rows] = uniq[has], flat
    n_occ, dim, vecs = occ.size, table.dim, table.entity_vecs
    # float64 rows, which the kernel's results widen into exactly, join the task's scatter.
    grad, sq = np.empty((ids.size, dim), np.float64), np.empty(flat.size, vecs.dtype)
    w = (2.0 / (n_occ * counts[has])).astype(vecs.dtype)  # rounded as a Python float w is
    step = max(1, _ALIGN_BLOCK_FLOATS // ((1 + counts.max()) * dim))
    for lo in range(0, len(has), step):
        block = has[lo : lo + step]
        span = slice(first[block[0]], first[block[-1]] + counts[block[-1]])
        sq[span], grad[start[lo : lo + step]], grad[positive_rows[span]] = _alignment(
            vecs[uniq[block]], vecs[flat[span]], counts[block], w[lo : lo + step])
    # A sum's order depends on its count: the anchors sorted by count, one sum per count
    # over their distances laid out in that order. Each divides as ndarray.mean does:
    # a float64 quotient, rounded to sq's dtype.
    by_count = has[np.argsort(counts[has], kind="stable")]
    sorted_counts = counts[by_count]
    values = sq[_ranges(first[by_count], sorted_counts)]
    edges = np.flatnonzero(np.diff(sorted_counts, prepend=-1, append=-1)).tolist()
    sums, v_lo = np.empty(len(by_count), sq.dtype), 0
    for lo, hi in zip(edges, edges[1:]):
        v_hi = v_lo + (hi - lo) * int(sorted_counts[lo])
        np.add.reduce(values[v_lo:v_hi].reshape(hi - lo, -1), axis=1, out=sums[lo:hi])
        v_lo = v_hi
    per_anchor = np.empty(len(uniq), np.float64)
    per_anchor[by_count] = (sums / sorted_counts).astype(sq.dtype)
    # cumsum adds left to right, as the loop over occurrences does.
    value = float(np.cumsum(per_anchor[occ])[-1]) / n_occ
    scale = cfg.alpha * np.bincount(occ, minlength=len(uniq))[has]
    grad *= np.repeat(scale, 1 + counts[has])[:, None]
    return value, (ids, grad)


def check_hop_bound(pos_dict: PositiveDict, cfg: TrainConfig) -> None:
    """Refuse a dictionary mined at a hop bound other than cfg.k with KMismatchError."""
    if pos_dict.hop_bound != cfg.k:
        raise KMismatchError(
            f"dictionary mined with hop bound {pos_dict.hop_bound}, config wants {cfg.k}"
        )


def combined_gradients(table: EmbeddingTable, kind: ScorerKind, batch: np.ndarray,
                       negatives: np.ndarray, pos_dict: PositiveDict | None, cfg: TrainConfig,
                       epoch: int = 0) -> tuple[LossBreakdown, Gradients]:
    """task + alpha * alignment over one batch, deterministic given cfg.seed, and its
    analytic gradients, row-sparse over the touched rows. A triple with an id outside
    the table is refused with UnknownEntityError; a dictionary over more entities
    than the table, or a negative that changes its positive's relation or both its
    head and its tail, with DataError."""
    if pos_dict is not None:
        check_hop_bound(pos_dict, cfg)
    if pos_dict is not None and pos_dict.entity_count > table.entity_count:
        raise DataError(f"dictionary covers {pos_dict.entity_count} entities, "
                        f"but the table has {table.entity_count}")
    batch = np.asarray(batch, dtype=np.int64)
    negatives = np.asarray(negatives, dtype=np.int64)
    table.check_triples(batch)
    table.check_triples(negatives.reshape(-1, 3))
    kept = negatives == batch[:, None, :]
    if (wrong := ~kept[:, :, 1] | ~(kept[:, :, 0] | kept[:, :, 2])).any():
        i, j = np.argwhere(wrong)[0]
        raise DataError(f"negative {tuple(negatives[i, j].tolist())} of positive "
                        f"{tuple(batch[i].tolist())} must keep its relation and its head or tail")
    # Both endpoints of every triple are anchor occurrences. With alpha == 0
    # the term is still reported but adds nothing to train on.
    contrastive, alignment = _contrastive_forward_backward(
        table, np.concatenate([batch[:, 0], batch[:, 2]]), pos_dict, cfg, epoch
    )
    then = alignment if cfg.alpha != 0.0 else None
    task, grads = _task_forward_backward(table, kind, batch, negatives, cfg, then)
    return LossBreakdown(task, contrastive, task + cfg.alpha * contrastive), grads
