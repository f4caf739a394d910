"""Mini-batch training loop with a dense Adam optimizer.

Reproducibility contract: given the same config (including seed), graph, and
dictionary, two runs produce bit-identical loss logs and final tables. All
rng streams are derived arithmetically from the config seed, and score math
avoids thread-count-dependent BLAS reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .errors import DataError, KMismatchError, NonFiniteLossError
from .losses import Gradients, LossBreakdown, combined_gradients
from .mining import PositiveDict
from .model import EmbeddingTable, init_embeddings
from .graph import UnionGraph


class Adam:
    """Dense Adam over the two embedding matrices (beta1=0.9, beta2=0.999).

    Updates in place, in the operation order of params -= lr * (m / bc1) /
    (sqrt(v / bc2) + eps). Its two scratch buffers live for one step: kept,
    they would add two tables to the gradient computation's peak memory.
    """

    def __init__(self, table: EmbeddingTable, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m_e = np.zeros_like(table.entity_vecs)
        self.v_e = np.zeros_like(table.entity_vecs)
        self.m_r = np.zeros_like(table.relation_vecs)
        self.v_r = np.zeros_like(table.relation_vecs)

    def step(self, table: EmbeddingTable, grads: Gradients) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for params, grad, m, v in (
            (table.entity_vecs, grads.entity, self.m_e, self.v_e),
            (table.relation_vecs, grads.relation, self.m_r, self.v_r),
        ):
            step, denom = np.empty_like(params), np.empty_like(params)
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=step)
            v *= self.beta2
            v += np.multiply(np.multiply(grad, 1.0 - self.beta2, out=step), grad, out=step)
            np.multiply(np.divide(m, bc1, out=step), self.lr, out=step)
            np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), self.eps, out=denom)
            params -= np.divide(step, denom, out=step)


def _stream_seed(seed: int, epoch: int, tag: int) -> int:
    # Distinct tags keep shuffle and negative streams independent.
    return ((seed * 1_000_003 + epoch) * 1_000_003 + tag) % (2**63)


def sample_negatives(
    rng: np.random.Generator,
    batch: np.ndarray,
    n_negatives: int,
    entity_count: int,
    known: set[tuple[int, int, int]],
) -> np.ndarray:
    """Corrupt head or tail (coin flip) uniformly, avoiding known triples.

    Rejection-samples each corruption; if a slot is saturated (every candidate
    entity forms a known triple) the enumeration fallback picks from the exact
    complement, or keeps the last draw when no candidate exists at all.
    """
    out = np.empty((len(batch), n_negatives, 3), dtype=np.int64)
    for i, (h, r, t) in enumerate(batch.tolist()):
        for j in range(n_negatives):
            corrupt_head = bool(rng.integers(0, 2))
            candidate = (h, r, t)
            for _ in range(100):
                e = int(rng.integers(0, entity_count))
                candidate = (e, r, t) if corrupt_head else (h, r, e)
                if candidate not in known:
                    break
            else:
                pool = [
                    e
                    for e in range(entity_count)
                    if ((e, r, t) if corrupt_head else (h, r, e)) not in known
                ]
                if pool:
                    e = pool[int(rng.integers(0, len(pool)))]
                    candidate = (e, r, t) if corrupt_head else (h, r, e)
            out[i, j] = candidate
    return out


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
    log_fn, when given, receives (epoch, LossBreakdown) after each epoch.
    """
    if pos_dict is not None:
        if pos_dict.hop_bound != cfg.k:
            raise KMismatchError(
                f"dictionary mined with hop bound {pos_dict.hop_bound}, config wants {cfg.k}"
            )
        # Every train entity needs a (possibly empty) row; padding past the
        # train split is fine, past the graph is not.
        highest = max((max(h, t) for h, _, t in graph.triples), default=-1)
        if not highest < pos_dict.entity_count <= graph.entity_count:
            raise DataError(
                f"dictionary covers {pos_dict.entity_count} entities, but the train "
                f"split uses ids up to {highest} and the graph has {graph.entity_count}; "
                f"was it mined from another train split?"
            )
    table = init_embeddings(graph.entity_count, graph.relation_count, cfg.dim, cfg.seed)
    optimizer = Adam(table, lr=cfg.lr)
    train_triples = np.asarray(graph.triples, dtype=np.int64)
    known = {(int(h), int(r), int(t)) for h, r, t in graph.triples}

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
            negatives = sample_negatives(
                neg_rng, batch, cfg.n_negatives, graph.entity_count, known
            )
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
            # Kept, this batch's gradients would add a table to the next
            # batch's peak while combined_gradients builds its own.
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
    return TrainResult(table=table, epoch_log=epoch_log)
