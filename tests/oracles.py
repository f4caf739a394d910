"""Slow, obviously-correct reference implementations the suite checks against."""

from __future__ import annotations

import itertools

import numpy as np

from symkge.errors import DimMismatchError, UnknownEntityError
from symkge.evaluation import HEAD
from symkge.graph import FORWARD, INVERSE, SignedRelation, UnionGraph
from symkge.config import BINARY_CROSS_ENTROPY, MARGIN_RANKING
from symkge import losses
from symkge.graph import _ranges
from symkge.losses import Gradients, _checked_norms, _log_sigmoid, _ordered_sum, _sigmoid
from symkge.mining import HalfSequence, _check_hop_bound, sample_positives
from symkge.model import SCORERS, ScorerKind


def signed_neighbors(graph: UnionGraph, e: int) -> tuple[tuple[SignedRelation, int], ...]:
    """The signed out-edges of e, decoded from the graph's CSR slice, in stored order."""
    edges = slice(graph.indptr[e], graph.indptr[e + 1])
    columns = (graph.rel[edges].tolist(), graph.sign[edges].tolist(), graph.nbr[edges].tolist())
    return tuple((SignedRelation(r, s), nb) for r, s, nb in zip(*columns))


def flipped(sr: SignedRelation) -> SignedRelation:
    """The same relation traversed in the opposite direction."""
    return SignedRelation(sr.relation, FORWARD if sr.sign == INVERSE else INVERSE)


def score(table, kind: ScorerKind, triple: tuple[int, int, int]) -> float:
    """The scorer's score of one id triple."""
    h, r, t = triple
    return float(
        SCORERS[kind].score(table.entity_vecs[h], table.relation_vecs[r], table.entity_vecs[t])
    )


def contrastive_loss(anchor_vec: np.ndarray, positive_vecs: np.ndarray | list) -> float:
    """Mean squared distance between the normalized anchor and positives, through
    the training step's alignment kernel.

    Empty positive sets contribute nothing and return 0. Positives are one
    vector or a sequence of them, each as long as the anchor.
    """
    positives = np.atleast_2d(np.asarray(positive_vecs, dtype=np.float64))
    anchor = np.asarray(anchor_vec, dtype=np.float64)
    if positives.ndim > 2:
        raise DimMismatchError(f"positives of shape {positives.shape}: want (m, d)")
    if positives.size == 0:
        return 0.0
    if anchor.shape != positives.shape[1:]:
        raise DimMismatchError(f"anchor of shape {anchor.shape} against positives of "
                               f"dimension {positives.shape[1]}")
    counts = np.array([len(positives)])
    return float(losses._alignment(anchor[None, :], positives, counts, 1.0)[0].mean())


def _step_relations(graph: UnionGraph, u: int, v: int) -> list[SignedRelation]:
    return [sr for sr, nb in signed_neighbors(graph, u) if nb == v]


def relation_sequences(graph: UnionGraph, path: list[int]) -> list[HalfSequence]:
    """All signed relation sequences realizable along an entity path.

    Parallel relations between a consecutive pair multiply out into one
    sequence per combination. Returns [] when some pair has no signed edge.
    """
    if len(path) < 2:
        raise ValueError("path needs at least two entities")
    per_step = [_step_relations(graph, u, v) for u, v in zip(path, path[1:])]
    if any(not choices for choices in per_step):
        return []
    return [tuple(combo) for combo in itertools.product(*per_step)]


def brute_force_oracle(graph: UnionGraph, anchor: int, k_max: int) -> set[int]:
    """Exhaustive reference for mine_positive_dict, for small graphs only.

    Enumerates every simple walk of length 2k (k = 1..k_max) leaving the
    anchor, splits it at the midpoint, and keeps the far endpoint whenever
    some combination of parallel edges gives both halves the same
    anchor-to-pivot / target-to-pivot signed sequence.
    """
    _check_hop_bound(k_max)
    found: set[int] = set()
    for k in range(1, k_max + 1):
        for path in _simple_walks(graph, anchor, 2 * k):
            target = path[2 * k]
            step_sets = [_step_relations(graph, u, v) for u, v in zip(path, path[1:])]
            first_half = {tuple(c) for c in itertools.product(*step_sets[:k])}
            back_sets = [
                [flipped(sr) for sr in step_sets[i]] for i in range(2 * k - 1, k - 1, -1)
            ]
            second_half = {tuple(c) for c in itertools.product(*back_sets)}
            if first_half & second_half:
                found.add(target)
    return found


def structure_stats_oracle(
    graph: UnionGraph, k: int, max_degree: int | None = None
) -> tuple[int, int]:
    """Exhaustive reference for one hop of structure_stats: (rs_count, total_count).

    Enumerates every simple walk of length 2k, splits it at the midpoint
    pivot, and collects each distinct (anchor, pivot, target, s1, s2), where
    s1 is an anchor-to-pivot and s2 a target-to-pivot signed sequence that
    some combination of parallel edges realizes. With max_degree set, walks
    whose pivot or interiors have more signed edges than the cap are skipped.
    rs_count counts the tuples with s1 == s2.
    """
    found = set()
    for anchor in range(graph.entity_count):
        for path in _simple_walks(graph, anchor, 2 * k):
            if max_degree is not None and any(
                len(signed_neighbors(graph, e)) > max_degree for e in path[1:-1]
            ):
                continue
            step_sets = [_step_relations(graph, u, v) for u, v in zip(path, path[1:])]
            back_sets = [
                [flipped(sr) for sr in step_sets[i]] for i in range(2 * k - 1, k - 1, -1)
            ]
            for s1 in itertools.product(*step_sets[:k]):
                for s2 in itertools.product(*back_sets):
                    found.add((anchor, path[k], path[2 * k], s1, s2))
    return sum(1 for *_, s1, s2 in found if s1 == s2), len(found)


def _simple_walks(graph: UnionGraph, start: int, length: int):
    """Yield every simple entity path of exactly `length` edges from start."""
    path = [start]

    def step(node: int, remaining: int):
        if remaining == 0:
            yield list(path)
            return
        neighbors = sorted({nb for _, nb in signed_neighbors(graph, node)})
        for nb in neighbors:
            if nb in path:
                continue
            path.append(nb)
            yield from step(nb, remaining - 1)
            path.pop()

    yield from step(start, length)


def contrastive_loss_cosine_form(anchor_vec: np.ndarray, positive_vecs: np.ndarray | list) -> float:
    """The 2 - 2*mean-cosine form of contrastive_loss, for identity checks."""
    positives = np.atleast_2d(np.asarray(positive_vecs, dtype=np.float64))
    if positives.size == 0:
        return 0.0
    anchor = np.asarray(anchor_vec, dtype=np.float64)
    a_norm = _checked_norms(anchor[None, :], "anchor")[0]
    p_norms = _checked_norms(positives, "positive")
    cosines = (positives * anchor).sum(axis=1) / (p_norms * a_norm)
    return float(2.0 - 2.0 * cosines.mean())


def contrastive_forward_backward_loop(table, anchors, pos_dict, cfg, epoch, grad_entity):
    """One anchor occurrence at a time: the reference for the batched alignment.

    Returns the mean alignment loss over occurrences with nonempty positives
    and, when grad_entity is given, adds the unscaled loss gradient into it.
    """
    if pos_dict is None:
        return 0.0
    sampled = []
    for anchor in np.asarray(anchors).tolist():
        positives = sample_positives(pos_dict, [anchor], cfg.m, cfg.seed, epoch)[1].tolist()
        if positives:
            sampled.append((anchor, positives))
    if not sampled:
        return 0.0

    n_occ = len(sampled)
    total = 0.0
    for anchor, positives in sampled:
        a = table.entity_vecs[anchor]
        p = table.entity_vecs[positives]
        a_norm = _checked_norms(a[None, :], "anchor")[0]
        p_norms = _checked_norms(p, "positive")
        a_hat = a / a_norm
        p_hat = p / p_norms[:, None]
        diff = a_hat[None, :] - p_hat
        total += float((diff * diff).sum(axis=1).mean())
        if grad_entity is not None:
            m_a = len(positives)
            cosines = (p_hat * a_hat).sum(axis=1)
            w = 2.0 / (n_occ * m_a)
            grad_a = -w / a_norm * (p_hat - cosines[:, None] * a_hat).sum(axis=0)
            grad_entity[anchor] += grad_a
            grad_p = -w / p_norms[:, None] * (a_hat[None, :] - cosines[:, None] * p_hat)
            np.add.at(grad_entity, positives, grad_p)
    return total / n_occ


def _alignment_per_count(a, p, w):
    """Alignment loss of each anchor row of a (g, d) with its positives p (g, m, d), and
    the gradients by a and by p of w * sum(1 - cos) over each row's positives."""
    a_norm = _checked_norms(a, "anchor")
    p_norms = _checked_norms(p, "positive")
    a_hat = (a / a_norm[:, None])[:, None, :]
    p_hat = p / p_norms[:, :, None]
    diff = a_hat - p_hat
    loss = (diff * diff).sum(axis=-1).mean(axis=1)
    cos = (p_hat * a_hat).sum(axis=-1)[:, :, None]
    grad_a = (-w / a_norm)[:, None] * (p_hat - cos * a_hat).sum(axis=1)
    return loss, (grad_a, -w / p_norms[:, :, None] * (a_hat - cos * p_hat))


def contrastive_forward_backward_per_count(table, anchors, pos_dict, cfg, epoch):
    """The alignment step as one dense kernel per distinct positive count, in blocks
    of at most losses._ALIGN_BLOCK_FLOATS floats: the bit-for-bit reference for
    losses._contrastive_forward_backward, which runs one pass over all counts."""
    if pos_dict is None:
        return 0.0, None
    uniq, occ = np.unique(anchors, return_inverse=True)
    counts, flat = sample_positives(pos_dict, uniq, cfg.m, cfg.seed, epoch)
    occ = occ[counts[occ] > 0]
    if occ.size == 0:
        return 0.0, None
    ids = np.insert(flat, np.cumsum(counts) - counts, uniq)
    lengths = 1 + counts
    start = np.cumsum(lengths) - lengths
    n_occ, dim = occ.size, table.dim
    grad = np.empty((ids.size, dim), table.entity_vecs.dtype)
    per_anchor = np.empty(len(uniq), np.float64)
    for m_a in np.unique(counts[counts > 0]).tolist():
        group = np.flatnonzero(counts == m_a)
        w = 2.0 / (n_occ * m_a)
        step = max(1, losses._ALIGN_BLOCK_FLOATS // ((1 + m_a) * dim))
        for lo in range(0, len(group), step):
            block = group[lo : lo + step]
            slots = start[block][:, None] + np.arange(1 + m_a)
            vecs = table.entity_vecs[ids[slots]]
            per_anchor[block], grads = _alignment_per_count(vecs[:, 0], vecs[:, 1:], w)
            grad[slots[:, 0]], grad[slots[:, 1:]] = grads
    value = float(np.cumsum(per_anchor[occ])[-1]) / n_occ
    gather = _ranges(start[occ], lengths[occ])
    rows, compact = _ordered_sum(ids[gather], grad[gather], table.entity_count)
    compact *= cfg.alpha
    return value, (rows, compact)


def known_keys_oracle(triples, entity_count: int, relation_count: int) -> list[int]:
    """Reference for graph.known_keys: the sorted set of the keys
    (r * E + h) * E + t of every triple inside the counts and of its
    inverse (t, r + relation_count, h)."""
    keys = set()
    for h, r, t in triples:
        if 0 <= h < entity_count and 0 <= r < relation_count and 0 <= t < entity_count:
            keys.add((r * entity_count + h) * entity_count + t)
            keys.add(((r + relation_count) * entity_count + t) * entity_count + h)
    return sorted(keys)


def rank_one(table, kind, triple, corrupt_side, known_here):
    """Filtered rank of one query from one full pass of score() over the table.

    known_here holds the candidate ids the filter drops on the query's side.
    The reference for the batched, bound-then-rescore ranking.
    """
    h, r, t = triple
    if not (0 <= h < table.entity_count and 0 <= t < table.entity_count):
        raise UnknownEntityError(f"query entity outside table: {triple}")
    if not 0 <= r < table.relation_count:
        raise UnknownEntityError(f"query relation outside table: {triple}")

    scorer = SCORERS[kind]
    entities = table.entity_vecs
    r_vec = table.relation_vecs[r]
    if corrupt_side == HEAD:
        scores = scorer.score(entities[t], scorer.inverse(r_vec), entities)
        true_entity = h
    else:
        scores = scorer.score(entities[h], r_vec, entities)
        true_entity = t

    keep = np.ones(table.entity_count, dtype=bool)
    for other in known_here:
        keep[other] = False
    keep[true_entity] = True  # the query itself always competes

    kept_scores = scores[keep]
    s_star = scores[true_entity]
    higher = int((kept_scores > s_star).sum())
    equal_others = int((kept_scores == s_star).sum()) - 1
    return 1.0 + higher + equal_others / 2.0


def dense_gradients(grads: Gradients, table) -> tuple[np.ndarray, np.ndarray]:
    """Row-sparse gradients as full entity and relation tables, +0.0 elsewhere."""
    entity = np.zeros_like(table.entity_vecs)
    relation = np.zeros_like(table.relation_vecs)
    entity[grads.entity_rows] = grads.entity
    relation[grads.relation_rows] = grads.relation
    return entity, relation


def row_sparse(entity: np.ndarray, relation: np.ndarray, entity_rows=None,
               relation_rows=None) -> Gradients:
    """Gradients holding the given sorted rows (default: all) of dense tables."""
    def rows_of(table, rows):
        return np.arange(len(table)) if rows is None else np.asarray(rows, dtype=np.int64)

    e_rows, r_rows = rows_of(entity, entity_rows), rows_of(relation, relation_rows)
    return Gradients(e_rows, entity[e_rows], r_rows, relation[r_rows])


def _partials(kind, h, r, t):
    """d score / d h, d r, d t, written out once more for the reference."""
    if kind is ScorerKind.TRANSE:
        delta = h + r - t
        norms = np.sqrt((delta * delta).sum(axis=-1, keepdims=True))
        unit = delta / np.where(norms > 0.0, norms, 1.0)
        return -unit, -unit, unit
    return r * t, h * t, h * r


def task_forward_backward_dense(table, kind, batch, negatives, cfg):
    """The task loss and its gradients as dense tables, scattered with np.add.at.

    Scores every positive, then every negative, gathering rows again for the
    partials. The reference for the blocked, row-sparse task step.
    """
    scorer = SCORERS[kind]
    grad_e = np.zeros_like(table.entity_vecs)
    grad_r = np.zeros_like(table.relation_vecs)

    def scores(triples):
        h, r, t = triples.T
        return scorer.score(table.entity_vecs[h], table.relation_vecs[r], table.entity_vecs[t])

    def add_grads(triples, coeff):
        h, r, t = triples.T
        d_h, d_r, d_t = _partials(
            kind, table.entity_vecs[h], table.relation_vecs[r], table.entity_vecs[t]
        )
        c = coeff[:, None]
        np.add.at(grad_e, h, d_h * c)
        np.add.at(grad_r, r, d_r * c)
        np.add.at(grad_e, t, d_t * c)

    flat = negatives.reshape(-1, 3)
    pos_scores = scores(batch)
    neg_scores = scores(flat).reshape(negatives.shape[0], negatives.shape[1])
    n_pairs = neg_scores.size
    if cfg.task_loss == MARGIN_RANKING:
        hinge = cfg.margin - pos_scores[:, None] + neg_scores
        active = hinge > 0.0
        value = float(np.maximum(0.0, hinge).mean())
        d_pos = -active.sum(axis=1).astype(np.float64) / n_pairs
        d_neg = active.astype(np.float64) / n_pairs
    else:
        assert cfg.task_loss == BINARY_CROSS_ENTROPY
        per_pair = -_log_sigmoid(pos_scores)[:, None] - _log_sigmoid(-neg_scores)
        value = float(per_pair.mean())
        d_pos = (_sigmoid(pos_scores) - 1.0) * (negatives.shape[1] / n_pairs)
        d_neg = _sigmoid(neg_scores) / n_pairs
    add_grads(batch, d_pos)
    add_grads(flat, d_neg.reshape(-1))
    return value, grad_e, grad_r
