"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import random
import struct
import zlib

import numpy as np
import pytest

from symkge.graph import intern_graph
from symkge.mining import PositiveDict


def random_raw_triples(rng: random.Random, n_entities: int, n_triples: int, n_relations: int):
    """Random string triples; may contain duplicates and self-loops."""
    entities = [f"e{i}" for i in range(n_entities)]
    relations = [f"r{i}" for i in range(n_relations)]
    return [
        (rng.choice(entities), rng.choice(relations), rng.choice(entities))
        for _ in range(n_triples)
    ]


def random_graph(seed: int, n_entities: int, n_triples: int, n_relations: int):
    rng = random.Random(seed)
    graph, labels = intern_graph(random_raw_triples(rng, n_entities, n_triples, n_relations))
    return graph, labels


def positive_dict(rows, hop_bound: int = 1) -> PositiveDict:
    """A dictionary holding the target rows as given, valid or not."""
    rows = [sorted(row) for row in rows]
    indices = np.array([t for row in rows for t in row], dtype=np.int64)
    return PositiveDict(np.cumsum([0] + [len(row) for row in rows]), indices, hop_bound)


def symd_bytes(version: int, entity_count: int, words, hop_bound: int = 1) -> bytes:
    """A SYMD file built by hand: any version and u64 body words, valid checksum."""
    payload = struct.pack(f"<IIQ{len(words)}Q", version, hop_bound, entity_count, *words)
    return b"SYMD" + payload + struct.pack("<I", zlib.crc32(payload))


def planted_kg_triples(seed: int = 0, n_pivots: int = 10, members_per_pivot: int = 8,
                       n_noise: int = 520):
    """A KG with planted symmetric clusters plus random noise edges.

    Members of a pivot all point at it with the same relation, so every
    cluster is a clique of 1-hop symmetric pairs. Noise edges connect random
    members with separate relations.
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


def split_triples(triples, train_frac=0.8, valid_frac=0.1):
    n = len(triples)
    n_train = int(n * train_frac)
    n_valid = int(n * valid_frac)
    return (
        triples[:n_train],
        triples[n_train : n_train + n_valid],
        triples[n_train + n_valid :],
    )


def write_split_files(tmp_path, triples, train_frac=0.8, valid_frac=0.1):
    train, valid, test = split_triples(triples, train_frac, valid_frac)
    paths = {}
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        path = tmp_path / f"{name}.tsv"
        path.write_text(
            "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8"
        )
        paths[name] = path
    return paths


@pytest.fixture
def play_fixture():
    """Two people playing the same sport: the canonical 1-hop symmetric pair."""
    graph, labels = intern_graph(
        [("Bob", "play", "Basketball"), ("Jones", "play", "Basketball")]
    )
    return graph, labels


@pytest.fixture
def toy_people_fixture():
    """Sport/teaching toy graph; Bob and Jones share the Basketball pivot."""
    triples = [
        ("Bob", "play", "Basketball"),
        ("Jones", "play", "Basketball"),
        ("Bob", "student_of", "Mike"),
        ("Andy", "student_of", "Mike"),
        ("Mike", "teach", "Math"),
        ("Amy", "teach", "Math"),
    ]
    graph, labels = intern_graph(triples)
    return graph, labels


@pytest.fixture
def mixed_direction_fixture():
    """Chain through a pivot with opposite edge directions; no symmetric pair."""
    graph, labels = intern_graph([("Bob", "r1", "P"), ("P", "r1", "Jones")])
    return graph, labels
