"""Slow, obviously-correct reference implementations the suite checks against."""

from __future__ import annotations

import itertools

import numpy as np

from symkge.errors import UnknownEntityError
from symkge.evaluation import HEAD
from symkge.graph import SignedRelation, UnionGraph
from symkge.losses import _checked_norms, positive_sample_seed
from symkge.mining import HalfSequence, _check_hop_bound, sample_positives
from symkge.model import SCORERS


def _step_relations(graph: UnionGraph, u: int, v: int) -> list[SignedRelation]:
    return [sr for sr, nb in graph.out_index[u] if nb == v]


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
                [sr.flipped() for sr in step_sets[i]] for i in range(2 * k - 1, k - 1, -1)
            ]
            second_half = {tuple(c) for c in itertools.product(*back_sets)}
            if first_half & second_half:
                found.add(target)
    return found


def _simple_walks(graph: UnionGraph, start: int, length: int):
    """Yield every simple entity path of exactly `length` edges from start."""
    path = [start]

    def step(node: int, remaining: int):
        if remaining == 0:
            yield list(path)
            return
        neighbors = sorted({nb for _, nb in graph.out_index[node]})
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
        positives = sample_positives(
            pos_dict, anchor, cfg.m, positive_sample_seed(cfg.seed, epoch, anchor)
        )
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
