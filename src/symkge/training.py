"""Mini-batch training loop with a dense Adam optimizer.

train() keeps the table and Adam's moments in float32. Gradient rows are
summed in float64 and rounded once, into Adam's float32 buffer, and the
result is the exact float64 widening of the float32 state.

Reproducibility contract: given the same config (including seed), graph, and
dictionary, two runs produce bit-identical loss logs and final tables. All
rng streams are derived arithmetically from the config seed, and score math
avoids thread-count-dependent BLAS reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .errors import DataError, NonFiniteLossError
from .losses import Gradients, LossBreakdown, combined_gradients
from .mining import PositiveDict
from .model import EmbeddingTable, _float32_init
from .graph import UnionGraph, candidate_runs, known_keys, triple_array


# Floats per array in a block of Adam's update, small enough to stay in cache.
_ADAM_BLOCK_FLOATS = 1 << 15
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Dense Adam over the two embedding matrices, with fixed BETA1, BETA2 and EPS.

    Updates every row in place, a block of rows at a time, in the operation
    order of params -= lr * (m / bc1) / (sqrt(v / bc2) + eps). A block's rows
    of the row-sparse gradient go into a zeroed buffer, so the result is
    bit-identical to one pass over whole tables and a dense gradient. The
    moments and the buffer take the table's dtype, and the gradient rows are
    rounded to it as they enter the buffer.
    """

    def __init__(self, table: EmbeddingTable, lr: float):
        self.lr = lr
        self.t = 0
        self.m_e = np.zeros_like(table.entity_vecs)
        self.v_e = np.zeros_like(table.entity_vecs)
        self.m_r = np.zeros_like(table.relation_vecs)
        self.v_r = np.zeros_like(table.relation_vecs)
        # Per matrix, one block's gradient, step and denominator, reused by every step.
        self.scratch = [np.empty((3, max(1, min(len(a), _ADAM_BLOCK_FLOATS // a.shape[1])),
                                  a.shape[1]), a.dtype)
                        for a in (table.entity_vecs, table.relation_vecs)]

    def step(self, table: EmbeddingTable, grads: Gradients) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for (all_params, rows, values, all_m, all_v), scratch in zip((
            (table.entity_vecs, grads.entity_rows, grads.entity, self.m_e, self.v_e),
            (table.relation_vecs, grads.relation_rows, grads.relation, self.m_r, self.v_r),
        ), self.scratch):
            size = scratch.shape[1]
            for lo in range(0, len(all_params), size):
                params, m, v = (a[lo : lo + size] for a in (all_params, all_m, all_v))
                grad, step, denom = scratch[:, : len(params)]
                grad.fill(0.0)
                inside = slice(*np.searchsorted(rows, [lo, lo + size]))
                grad[rows[inside] - lo] = values[inside]
                m *= BETA1
                m += np.multiply(grad, 1.0 - BETA1, out=step)
                v *= BETA2
                v += np.multiply(np.multiply(grad, 1.0 - BETA2, out=step), grad, out=step)
                np.multiply(np.divide(m, bc1, out=step), self.lr, out=step)
                np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), EPS, out=denom)
                params -= np.divide(step, denom, out=step)


def _stream_seed(seed: int, epoch: int, tag: int) -> int:
    # Distinct tags keep shuffle and negative streams independent.
    return ((seed * 1_000_003 + epoch) * 1_000_003 + tag) % (2**63)


def sample_negatives(
    rng: np.random.Generator,
    batch: np.ndarray,
    n_negatives: int,
    entity_count: int,
    relation_count: int,
    known: np.ndarray,
    shifted: np.ndarray,
) -> np.ndarray:
    """Corrupt head or tail (fair coin) with an entity drawn uniformly from the
    candidates outside known, the graph.known_keys of the triples to avoid.
    shifted is known - arange(len(known)), built once with the keys.

    graph.candidate_runs finds each slot's known candidates as one run of
    keys. A slot with no free candidate draws over all entities."""
    out = np.repeat(np.asarray(batch, dtype=np.int64), n_negatives, axis=0)
    corrupt_head = rng.integers(0, 2, len(out)) == 1
    base, lo, hi = candidate_runs(known, out, corrupt_head, entity_count, relation_count)
    free = entity_count - (hi - lo)
    u = rng.integers(0, np.where(free > 0, free, entity_count))
    # The u-th free candidate is u plus the count of the run's keys at or
    # below it. shifted does not decrease, as keys are distinct, so
    # searchsorted counts every entry before the run, none after it
    # (u < free), and exactly the run's keys at or below the answer.
    drawn = u + np.searchsorted(shifted, u + base - lo, "right") - lo
    out[np.arange(len(out)), np.where(corrupt_head, 0, 2)] = np.where(free > 0, drawn, u)
    return out.reshape(len(batch), n_negatives, 3)


@dataclass
class TrainResult:
    table: EmbeddingTable
    epoch_log: list[LossBreakdown]


def train(
    graph: UnionGraph,
    pos_dict: PositiveDict | None,
    cfg: TrainConfig,
    log_fn=None,
) -> TrainResult:
    """Run the full training loop; returns the table and per-epoch losses.

    pos_dict=None trains the plain task objective (the contrastive term is 0).
    A dictionary mined at a hop bound other than cfg.k fails the first batch,
    before any update, with KMismatchError.
    log_fn, when given, receives (epoch, LossBreakdown) after each epoch.
    """
    train_triples = triple_array(graph.triples)
    known = known_keys(train_triples, graph.entity_count, graph.relation_count)
    shifted = known - np.arange(len(known))
    if pos_dict is not None:
        # Every train entity needs a (possibly empty) row; padding past the
        # train split is fine, past the graph is not.
        highest = int(train_triples[:, ::2].max(initial=-1))
        if not highest < pos_dict.entity_count <= graph.entity_count:
            raise DataError(
                f"dictionary covers {pos_dict.entity_count} entities, but the train "
                f"split uses ids up to {highest} and the graph has {graph.entity_count}; "
                f"was it mined from another train split?"
            )
    table = _float32_init(graph.entity_count, graph.relation_count, cfg.dim, cfg.seed)
    optimizer = Adam(table, lr=cfg.lr)

    epoch_log: list[LossBreakdown] = []
    for epoch in range(1, cfg.epochs + 1):
        shuffle_rng = np.random.default_rng(_stream_seed(cfg.seed, epoch, 0xA))
        neg_rng = np.random.default_rng(_stream_seed(cfg.seed, epoch, 0xB))
        order = shuffle_rng.permutation(len(train_triples))

        task_sum = 0.0
        contr_sum = 0.0
        n_batches = 0
        for batch_index, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = train_triples[order[lo : lo + cfg.batch_size]]
            negatives = sample_negatives(neg_rng, batch, cfg.n_negatives, graph.entity_count,
                                         graph.relation_count, known, shifted)
            breakdown, grads = combined_gradients(
                table, cfg.scorer, batch, negatives, pos_dict, cfg, epoch
            )
            if not np.isfinite(breakdown.total):
                raise NonFiniteLossError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}",
                    epoch=epoch,
                    batch_index=batch_index,
                )
            optimizer.step(table, grads)
            # Kept, this batch's gradient rows would add to the next batch's
            # peak while combined_gradients builds its own.
            del grads
            if cfg.renormalize:
                norms = np.sqrt((table.entity_vecs**2).sum(axis=1, keepdims=True))
                np.divide(table.entity_vecs, norms, out=table.entity_vecs, where=norms > 0)
            task_sum += breakdown.task
            contr_sum += breakdown.contrastive
            n_batches += 1

        task_mean = task_sum / n_batches
        contr_mean = contr_sum / n_batches
        epoch_breakdown = LossBreakdown(
            task_mean, contr_mean, task_mean + cfg.alpha * contr_mean
        )
        epoch_log.append(epoch_breakdown)
        if log_fn is not None:
            log_fn(epoch, epoch_breakdown)

    if not table.all_finite():
        raise NonFiniteLossError("non-finite values in final embedding table")
    return TrainResult(table=table.astype(np.float64), epoch_log=epoch_log)
