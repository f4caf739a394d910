"""Seeded input generators and the settings of each benchmark workload.

Every generator takes the seed as an argument and returns plain string
triples; the benchmark writes them to TSV files and the program only ever
sees those files. The same seed always gives the same files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

Rows = list[tuple[str, str, str]]


@dataclass(frozen=True)
class Inputs:
    train: Rows
    valid: Rows
    test: Rows
    labels: list[tuple[str, int]]  # (entity label, class) for the probe


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int], Inputs]
    train_config: dict = field(default_factory=dict)
    probe_steps: int = 500


# ---------------------------------------------------------------------------
# planted: the acceptance suite's planted KG
# ---------------------------------------------------------------------------


def planted_triples(seed: int, n_pivots: int, members_per_pivot: int, n_noise: int) -> Rows:
    """Planted symmetric clusters plus random noise edges.

    Same algorithm and random stream as the test suite's planted KG, so
    seed 42 with 10 pivots, 10 members and 500 noise edges gives the exact
    graph the acceptance criteria train on.
    """
    rng = random.Random(seed)
    members = [f"m{i}" for i in range(n_pivots * members_per_pivot)]
    pivots = [f"hub{j}" for j in range(n_pivots)]
    triples = []
    for j, pivot in enumerate(pivots):
        rel = f"rel{j % 3}"
        for i in range(members_per_pivot):
            triples.append((members[j * members_per_pivot + i], rel, pivot))
    seen = set(triples)
    target = len(triples) + n_noise
    while len(triples) < target:
        h = rng.choice(members)
        t = rng.choice(members)
        r = f"noise{rng.randrange(3)}"
        if h != t and (h, r, t) not in seen:
            seen.add((h, r, t))
            triples.append((h, r, t))
    rng.shuffle(triples)
    return triples


def split_80_10_10(rows: Rows) -> tuple[Rows, Rows, Rows]:
    n_train = int(len(rows) * 0.8)
    n_valid = int(len(rows) * 0.1)
    return rows[:n_train], rows[n_train : n_train + n_valid], rows[n_train + n_valid :]


def planted_inputs(seed: int, n_pivots: int, members_per_pivot: int, n_noise: int) -> Inputs:
    train, valid, test = split_80_10_10(
        planted_triples(seed, n_pivots, members_per_pivot, n_noise)
    )
    # Pivot membership is the probe's class.
    labels = [(f"m{i}", i // members_per_pivot) for i in range(n_pivots * members_per_pivot)]
    return Inputs(train, valid, test, labels)


# ---------------------------------------------------------------------------
# fb237shape: FB15k-237's vocabulary with Zipf-skewed frequencies
# ---------------------------------------------------------------------------


# Entity exponent, fitted rather than chosen: an i.i.d. draw of the 60,600
# endpoints of 30,000 train and 300 test triples over 14,541 ranks left
# 2,593 entities unseen, and the exponent whose expected unseen count is
# 2,593 lies between 0.792 and 0.799 (60,000 to 61,200 draws), so 0.80.
# The relation exponent has no measurement behind it; 1.0 is the classic
# Zipf law. It sets how many triples share a (relation, pivot) and so the
# mined pair count; per-triple training and ranking costs do not depend on
# it.
ENTITY_EXPONENT = 0.80
RELATION_EXPONENT = 1.0


def zipf_counts(total: int, n: int, exponent: float) -> np.ndarray:
    """Split exactly `total` occurrences over ranks 1..n in proportion to rank**-exponent."""
    share = 1.0 / np.arange(1, n + 1) ** exponent
    share *= total / share.sum()
    counts = np.floor(share).astype(np.int64)
    counts[np.argsort(counts - share)[: total - counts.sum()]] += 1  # largest remainders
    return counts


def fb237shape_inputs(
    seed: int,
    n_entities: int,
    n_relations: int,
    n_train: int,
    n_valid: int,
    n_test: int,
    n_labeled: int,
    entity_exponent: float = ENTITY_EXPONENT,
    relation_exponent: float = RELATION_EXPONENT,
) -> Inputs:
    """Unique triples whose endpoint and relation counts follow Zipf laws.

    The counts per rank are fixed and only their wiring is random (which
    entity holds which rank, and which endpoints meet), so the hubs that
    dominate mining and sampling cost are the same size for every seed.
    A Zipf draw leaves the rarest entities unseen, so the valid split starts
    with a cover: a random perfect matching of all entities, the first
    n_relations of its edges using each relation once. The loaded vocabulary,
    and so the embedding table, is then exactly n_entities by n_relations
    however small the train split is.
    """
    rng = np.random.default_rng(seed)
    entity_by_rank = rng.permutation(n_entities)
    relation_by_rank = rng.permutation(n_relations)

    matching = rng.permutation(n_entities)
    if n_entities % 2:
        matching = np.append(matching, matching[0])
    n_cover = len(matching) // 2
    cover_rel = rng.integers(0, n_relations, size=n_cover)
    cover_rel[: min(n_relations, n_cover)] = np.arange(min(n_relations, n_cover))
    cover = list(zip(matching[0::2].tolist(), cover_rel.tolist(), matching[1::2].tolist()))

    need = n_train + n_valid + n_test
    endpoints = np.repeat(entity_by_rank, zipf_counts(2 * need, n_entities, entity_exponent))
    relations = np.repeat(relation_by_rank, zipf_counts(need, n_relations, relation_exponent))
    rng.shuffle(endpoints)
    rng.shuffle(relations)
    seen = set(cover)
    extra: list[tuple[int, int, int]] = []
    clashes: list[int] = []
    for i, triple in enumerate(zip(endpoints[:need].tolist(), relations.tolist(),
                                   endpoints[need:].tolist())):
        if triple[0] != triple[2] and triple not in seen:
            seen.add(triple)
            extra.append(triple)
        else:
            clashes.append(i)
    # Rewire the few self-loops and duplicates to random other endpoints.
    for i in clashes:
        while True:
            triple = (int(endpoints[i]), int(relations[i]), int(endpoints[rng.integers(2 * need)]))
            if triple[0] != triple[2] and triple not in seen:
                seen.add(triple)
                extra.append(triple)
                break
    extra = [extra[i] for i in rng.permutation(need).tolist()]

    test = extra[:n_test]
    valid = cover + extra[n_test : n_test + n_valid]
    train = extra[n_test + n_valid :]

    def named(rows):
        return [(f"/m/{h}", f"/r/{r}", f"/m/{t}") for h, r, t in rows]

    # Probe class: popularity quartile of the entity's Zipf rank.
    rank_of = np.empty(n_entities, dtype=np.int64)
    rank_of[entity_by_rank] = np.arange(n_entities)
    labeled = rng.choice(n_entities, size=min(n_labeled, n_entities), replace=False)
    labels = [(f"/m/{e}", int(rank_of[e] * 4 // n_entities)) for e in labeled.tolist()]
    return Inputs(named(train), named(valid), named(test), labels)


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------


def _config(k, dim, epochs, batch_size, n_negatives, lr=0.01, m=10, alpha=0.001):
    return dict(
        k=k, m=m, alpha=alpha, dim=dim, lr=lr, epochs=epochs,
        batch_size=batch_size, n_negatives=n_negatives,
    )


# The planted workload keeps the acceptance suite's KG and step settings;
# fb237shape is sized so that several passes of every stage fit one run. Its
# 4,000 train triples give 0.55 endpoints per entity against FB15k-237's 37.4
# (272,115 train triples), so its table, dense bookkeeping and all-entity
# ranking are FB15k-237's size but its mining and positive sampling work is far less.
FULL = {
    "planted": Workload(
        lambda seed: planted_inputs(seed, n_pivots=10, members_per_pivot=10, n_noise=500),
        _config(k=1, dim=32, epochs=25, batch_size=128, n_negatives=5),
    ),
    "fb237shape": Workload(
        lambda seed: fb237shape_inputs(
            seed, n_entities=14_541, n_relations=237, n_train=4_000, n_valid=200,
            n_test=12, n_labeled=400,
        ),
        _config(k=1, dim=200, epochs=1, batch_size=512, n_negatives=10),
    ),
}

# Same shapes, scaled down until every workload runs in a few seconds; they
# train longer, and planted with a larger alpha, so that the fit and
# alignment checks pass on graphs this small.
TINY = {
    "planted": Workload(
        lambda seed: planted_inputs(seed, n_pivots=3, members_per_pivot=4, n_noise=40),
        _config(k=1, dim=8, epochs=20, batch_size=16, n_negatives=2, lr=0.05, alpha=0.1),
        probe_steps=20,
    ),
    "fb237shape": Workload(
        lambda seed: fb237shape_inputs(
            seed, n_entities=301, n_relations=20, n_train=300, n_valid=10, n_test=10,
            n_labeled=40,
        ),
        _config(k=1, dim=8, epochs=10, batch_size=64, n_negatives=2, lr=0.05),
        probe_steps=20,
    ),
}

SCALES = {"full": FULL, "tiny": TINY}


def write_inputs(inputs: Inputs, directory: Path) -> dict[str, Path]:
    """Write the splits and probe labels as TSV files; returns their paths."""
    paths = {}
    for name, rows in (("train", inputs.train), ("valid", inputs.valid), ("test", inputs.test)):
        path = directory / f"{name}.tsv"
        path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")
        paths[name] = path
    path = directory / "labels.tsv"
    path.write_text("".join(f"{e}\t{c}\n" for e, c in inputs.labels), encoding="utf-8")
    paths["labels"] = path
    return paths
