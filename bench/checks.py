"""Output checks that do not trust the program's own code paths.

The miner and ranking references here are written from the definitions,
not copied from or imported out of ``src/``: at half length 1 an anchor and
a target are paired when both reach a third entity, the pivot, over the
same relation in the same direction, and a filtered rank counts the kept
candidates that score above the query, with ties split evenly.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter, defaultdict

import numpy as np

FORWARD = 0
INVERSE = 1


def pairs_digest(targets) -> tuple[int, str]:
    """Count and sha256 prefix of the unordered pairs of a positive dictionary."""
    digest = hashlib.sha256()
    count = 0
    for anchor, linked in enumerate(targets):
        for target in sorted(t for t in linked if t > anchor):
            digest.update(struct.pack("<QQ", anchor, target))
            count += 1
    return count, digest.hexdigest()[:16]


def loss_log_digest(*epoch_logs) -> str:
    """sha256 prefix of every epoch's (task, contrastive, total) floats."""
    digest = hashlib.sha256()
    for log in epoch_logs:
        for entry in log:
            digest.update(struct.pack("<3d", entry.task, entry.contrastive, entry.total))
    return digest.hexdigest()[:16]


class SignedAdjacency:
    """adj[u][(relation, sign)] = entities one signed step away from u."""

    def __init__(self, triples) -> None:
        self.adj: dict[int, dict[tuple[int, int], set[int]]] = defaultdict(
            lambda: defaultdict(set)
        )
        for h, r, t in triples:
            self.adj[h][(r, FORWARD)].add(t)
            self.adj[t][(r, INVERSE)].add(h)

    def steps(self, u: int):
        return self.adj[u].items() if u in self.adj else ()

    def into(self, v: int, step: tuple[int, int]) -> set[int]:
        """Entities u with an edge u --step--> v."""
        r, sign = step
        flipped = (r, INVERSE if sign == FORWARD else FORWARD)
        return self.adj[v].get(flipped, set()) if v in self.adj else set()


def oracle_targets(adjacency: SignedAdjacency, anchor: int) -> set[int]:
    """Positive targets of one anchor at half length 1: anchor --s--> pivot <--s-- target."""
    found: set[int] = set()
    for step, pivots in adjacency.steps(anchor):
        for pivot in pivots:
            if pivot != anchor:
                found.update(t for t in adjacency.into(pivot, step) if t not in (anchor, pivot))
    return found


def cosine_gap(vecs: np.ndarray, pairs: np.ndarray, others: np.ndarray) -> float:
    """Mean cosine over pairs minus mean cosine over others (rows of entity ids)."""
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)

    def mean_cos(rows):
        return float(np.einsum("ij,ij->i", unit[rows[:, 0]], unit[rows[:, 1]]).mean())

    return mean_cos(pairs) - mean_cos(others)


def random_ranking_mrr(entity_count: int, triples, known: set) -> float:
    """Expected filtered MRR when every kept candidate is ranked at random.

    A query whose truth competes with n kept candidates lands at a uniform
    rank in 1..n+1, so its expected reciprocal rank is H(n+1) / (n+1).
    """
    by_tail = Counter((r, t) for _, r, t in known)
    by_head = Counter((h, r) for h, r, _ in known)
    total = 0.0
    for h, r, t in triples:
        for filtered in (by_tail[(r, t)], by_head[(h, r)]):  # both include the truth
            n = entity_count - filtered + 1
            total += float(np.sum(1.0 / np.arange(1, n + 1))) / n
    return total / (2 * len(triples))


def sample_ids(count: int, size: int) -> list[int]:
    """A fixed, evenly strided sample of ids in [0, count)."""
    stride = max(1, count // size)
    return list(range(0, count, stride))[:size]


def rank_bounds(
    entity_vecs: np.ndarray,
    relation_vecs: np.ndarray,
    scorer: str,
    triple: tuple[int, int, int],
    side: str,
    known: set[tuple[int, int, int]],
) -> tuple[float, float]:
    """Interval that the exact filtered rank must fall in.

    Scores come from other NumPy routines (norm, matmul) than the program
    uses, so candidates within a relative 1e-9 of the query score may land
    on either side of it; the interval allows for that.
    """
    h, r, t = triple
    if side == "head":
        other = relation_vecs[r] - entity_vecs[t]
        if scorer == "transe":
            scores = -np.linalg.norm(entity_vecs + other, axis=1)
        else:
            scores = entity_vecs @ (relation_vecs[r] * entity_vecs[t])
        truth = h
        known_here = [e for e in range(len(entity_vecs)) if (e, r, t) in known]
    else:
        if scorer == "transe":
            scores = -np.linalg.norm(entity_vecs - (entity_vecs[h] + relation_vecs[r]), axis=1)
        else:
            scores = entity_vecs @ (entity_vecs[h] * relation_vecs[r])
        truth = t
        known_here = [e for e in range(len(entity_vecs)) if (h, r, e) in known]
    keep = np.ones(len(entity_vecs), dtype=bool)
    keep[known_here] = False
    keep[truth] = False
    s_star = scores[truth]
    tol = 1e-9 * max(1.0, abs(float(s_star)))
    kept = scores[keep]
    surely_above = int((kept > s_star + tol).sum())
    maybe_above = int((kept >= s_star - tol).sum())
    return 1.0 + surely_above, 1.0 + maybe_above
