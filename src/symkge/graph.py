"""Interned, immutable knowledge-graph representation.

Entities and relations are interned to dense integer ids in first-appearance
order. The adjacency index covers the union of the original edges and their
inverses: every stored triple (h, r, t) is traversable both as
h --(r, forward)--> t and as t --(r, inverse)--> h.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyDatasetError, MalformedTripleError, UnknownEntityError

FORWARD = 0
INVERSE = 1

RawTriple = tuple[str, str, str]


class SignedRelation(NamedTuple):
    relation: int
    sign: int  # FORWARD or INVERSE

    def flipped(self) -> "SignedRelation":
        """Same relation traversed in the opposite direction."""
        return SignedRelation(self.relation, FORWARD if self.sign == INVERSE else INVERSE)


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class LabelMaps:
    """Bijection between dense ids and the original string labels."""

    entity_labels: tuple[str, ...]
    relation_labels: tuple[str, ...]
    entity_ids: dict[str, int]
    relation_ids: dict[str, int]

    def entity_label(self, eid: int) -> str:
        return self.entity_labels[eid]

    def relation_label(self, rid: int) -> str:
        return self.relation_labels[rid]


@dataclass(frozen=True)
class UnionGraph:
    """Immutable triple store plus a signed adjacency index.

    out_index[e] lists (SignedRelation, neighbor) pairs sorted by
    (relation, sign, neighbor), containing one forward entry per triple with
    head e and one inverse entry per triple with tail e. The graph is safe
    for unrestricted concurrent reads.
    """

    triples: tuple[Triple, ...]
    out_index: tuple[tuple[tuple[SignedRelation, int], ...], ...]
    entity_count: int
    relation_count: int

    @property
    def signed_edge_count(self) -> int:
        return 2 * len(self.triples)

    def degree(self, e: int) -> int:
        return len(self.out_index[e])


def _build_out_index(
    triples: Sequence[Triple], entity_count: int
) -> tuple[tuple[tuple[SignedRelation, int], ...], ...]:
    buckets: list[list[tuple[SignedRelation, int]]] = [[] for _ in range(entity_count)]
    for h, r, t in triples:
        buckets[h].append((SignedRelation(r, FORWARD), t))
        buckets[t].append((SignedRelation(r, INVERSE), h))
    return tuple(tuple(sorted(b)) for b in buckets)


class _Interner:
    """Assigns dense ids in first-appearance order."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.labels: list[str] = []

    def intern(self, label: str) -> int:
        eid = self.ids.get(label)
        if eid is None:
            eid = len(self.labels)
            self.ids[label] = eid
            self.labels.append(label)
        return eid


def intern_graph(raw_triples: Iterable[RawTriple]) -> tuple[UnionGraph, LabelMaps]:
    """Intern string triples and build the union-graph adjacency index.

    Duplicate triples are dropped (first occurrence wins).
    """
    entities = _Interner()
    relations = _Interner()

    seen: dict[Triple, None] = {}
    for row in raw_triples:
        if len(row) != 3:
            raise MalformedTripleError(f"expected 3 fields, got {len(row)}: {row!r}")
        h, r, t = row
        if not h or not r or not t:
            raise MalformedTripleError(f"empty field in triple {row!r}")
        seen.setdefault(Triple(entities.intern(h), relations.intern(r), entities.intern(t)))

    if not seen:
        raise EmptyDatasetError("no triples to intern")

    triples = tuple(seen)
    graph = UnionGraph(
        triples=triples,
        out_index=_build_out_index(triples, len(entities.labels)),
        entity_count=len(entities.labels),
        relation_count=len(relations.labels),
    )
    maps = LabelMaps(
        entity_labels=tuple(entities.labels),
        relation_labels=tuple(relations.labels),
        entity_ids=dict(entities.ids),
        relation_ids=dict(relations.ids),
    )
    return graph, maps


def signed_neighbors(graph: UnionGraph, e: int) -> tuple[tuple[SignedRelation, int], ...]:
    """All signed out-edges of e in the union graph, sorted; empty if isolated."""
    if not 0 <= e < graph.entity_count:
        raise UnknownEntityError(f"entity id {e} outside [0, {graph.entity_count})")
    return graph.out_index[e]


def read_triple_file(path: str | os.PathLike[str]) -> list[RawTriple]:
    """Parse a tab-separated triple file.

    One triple per line: head TAB relation TAB tail. Blank lines and lines
    starting with '#' are skipped.
    """
    rows: list[RawTriple] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3 or any(f == "" for f in fields):
                raise MalformedTripleError(f"{path}:{lineno}: expected 3 tab-separated fields")
            rows.append((fields[0], fields[1], fields[2]))
    return rows


@dataclass(frozen=True)
class Dataset:
    """Train/valid/test splits over one shared vocabulary.

    The vocabulary is built scanning train first, then valid, then test, so
    ids of training entities do not depend on whether the other splits were
    supplied. The union graph is built from the train split only; entities
    seen only in valid/test have empty adjacency.
    """

    graph: UnionGraph
    labels: LabelMaps
    train: tuple[Triple, ...]
    valid: tuple[Triple, ...]
    test: tuple[Triple, ...]


def _to_id_triples(raw: Iterable[RawTriple], labels: LabelMaps) -> tuple[Triple, ...]:
    seen: dict[Triple, None] = {}
    for h, r, t in raw:
        seen.setdefault(Triple(labels.entity_ids[h], labels.relation_ids[r], labels.entity_ids[t]))
    return tuple(seen)


def load_dataset(
    train_path: str | os.PathLike[str],
    valid_path: str | os.PathLike[str] | None = None,
    test_path: str | os.PathLike[str] | None = None,
) -> Dataset:
    """Load split files into one interned Dataset."""
    raw_train = read_triple_file(train_path)
    raw_valid = read_triple_file(valid_path) if valid_path else []
    raw_test = read_triple_file(test_path) if test_path else []
    if not raw_train:
        raise EmptyDatasetError(f"{train_path}: no triples")

    graph, labels = intern_graph(raw_train)
    for extra in (raw_valid, raw_test):
        if extra:
            labels = _extend_vocab(extra, labels)

    # Pad the adjacency index so it covers valid/test-only entities too;
    # the edge set stays train-only.
    full_graph = UnionGraph(
        triples=graph.triples,
        out_index=graph.out_index
        + tuple(() for _ in range(len(labels.entity_labels) - graph.entity_count)),
        entity_count=len(labels.entity_labels),
        relation_count=len(labels.relation_labels),
    )
    return Dataset(
        graph=full_graph,
        labels=labels,
        train=full_graph.triples,
        valid=_to_id_triples(raw_valid, labels),
        test=_to_id_triples(raw_test, labels),
    )


def _extend_vocab(raw: Iterable[RawTriple], labels: LabelMaps) -> LabelMaps:
    entities = _Interner()
    entities.ids = dict(labels.entity_ids)
    entities.labels = list(labels.entity_labels)
    relations = _Interner()
    relations.ids = dict(labels.relation_ids)
    relations.labels = list(labels.relation_labels)
    for h, r, t in raw:
        entities.intern(h)
        relations.intern(r)
        entities.intern(t)
    return LabelMaps(
        entity_labels=tuple(entities.labels),
        relation_labels=tuple(relations.labels),
        entity_ids=dict(entities.ids),
        relation_ids=dict(relations.ids),
    )
