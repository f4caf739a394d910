"""Interned, immutable knowledge-graph representation.

Entities and relations are interned to dense integer ids in first-appearance
order. The adjacency index covers the union of the original edges and their
inverses: every stored triple (h, r, t) is traversable both as
h --(r, forward)--> t and as t --(r, inverse)--> h.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, EmptyDatasetError, MalformedTripleError

FORWARD = 0
INVERSE = 1

RawTriple = tuple[str, str, str]
Triple = tuple[int, int, int]


class SignedRelation(NamedTuple):
    relation: int
    sign: int  # FORWARD or INVERSE


@dataclass(frozen=True)
class LabelMaps:
    """Bijection between dense ids and the original string labels."""

    entity_labels: tuple[str, ...]
    relation_labels: tuple[str, ...]
    entity_ids: dict[str, int]
    relation_ids: dict[str, int]


@dataclass(frozen=True)
class UnionGraph:
    """Immutable triple store plus a signed adjacency index in CSR form.

    The signed out-edges of entity e are the slice indptr[e]:indptr[e + 1] of
    rel, sign and nbr, sorted by (relation, sign, neighbor): one forward entry
    per triple with head e and one inverse entry per triple with tail e. The
    arrays are read-only and derived from triples, so equality ignores them.
    The graph is safe for unrestricted concurrent reads.
    """

    triples: tuple[Triple, ...]
    entity_count: int
    relation_count: int
    indptr: np.ndarray = field(compare=False, repr=False)
    rel: np.ndarray = field(compare=False, repr=False)
    sign: np.ndarray = field(compare=False, repr=False)
    nbr: np.ndarray = field(compare=False, repr=False)


def triple_array(triples: Iterable[Triple]) -> np.ndarray:
    """The triples as one (n, 3) int64 array."""
    return np.fromiter(itertools.chain.from_iterable(triples), np.int64).reshape(-1, 3)


def _union_graph(triples: tuple[Triple, ...], labels: LabelMaps) -> UnionGraph:
    """The union graph of triples over every entity and relation of labels."""
    entities, relations = len(labels.entity_labels), len(labels.relation_labels)
    h, r, t = triple_array(triples).T
    src, rel, nbr = np.concatenate([h, t]), np.concatenate([r, r]), np.concatenate([t, h])
    sign = np.repeat(np.array([FORWARD, INVERSE], dtype=np.int64), len(h))
    order = _row_order((src, rel, sign, nbr), (entities, relations, 2, entities))
    indptr = np.searchsorted(src[order], np.arange(entities + 1))
    arrays = [indptr, rel[order], sign[order], nbr[order]]
    for a in arrays:
        a.flags.writeable = False
    return UnionGraph(triples, entities, relations, *arrays)


def _row_order(columns: tuple[np.ndarray, ...], bounds: tuple[int, ...]) -> np.ndarray:
    """A permutation sorting rows by columns, the first most significant, as
    np.lexsort(columns[::-1]) does, column c holding ints in [0, bounds[c]). It
    argsorts one packed int64 key, ten times faster, so tied rows land in any
    order; bounds whose product does not fit in int64 keep np.lexsort."""
    if math.prod(int(b) for b in bounds) - 1 > np.iinfo(np.int64).max:
        return np.lexsort(columns[::-1])
    key = np.array(columns[0], np.int64)
    for column, bound in zip(columns[1:], bounds[1:]):
        key *= bound
        key += column
    return np.argsort(key)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over each start s and count c."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _distinct(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, return_inverse=True) for int64 ids in [0, count), by counting, not sorting."""
    seen = np.zeros(count, np.bool_)
    seen[ids] = True
    return np.flatnonzero(seen), (np.cumsum(seen, dtype=np.int64) - 1)[ids]


def triple_keys(h: np.ndarray, r: np.ndarray, t: np.ndarray, entity_count: int) -> np.ndarray:
    """One int64 key per triple, (r * E + h) * E + t, for ids inside their counts.

    The tails of (h, r, .) are the keys in [triple_keys(h, r, 0), + E). Relation
    ids whose keys would not fit in 64 bits are refused with a DataError.
    """
    relations = int(np.max(r, initial=-1)) + 1
    if relations * entity_count**2 - 1 > np.iinfo(np.int64).max:
        raise DataError(f"{entity_count} entities and {relations} relations are too many "
                        f"to key triples in 64 bits")
    return (r * entity_count + h) * entity_count + t


def known_keys(triples: np.ndarray, entity_count: int, relation_count: int) -> np.ndarray:
    """Sorted, distinct triple_keys of the (n, 3) triples and of their inverses
    (t, r + relation_count, h): either side of a query has its known candidates
    in one run of keys. Triples outside the counts name no candidate, and
    their keys could collide with valid ones, so they are dropped."""
    h, r, t = triples.T
    inside = (h >= 0) & (h < entity_count) & (r >= 0) & (r < relation_count)
    inside &= (t >= 0) & (t < entity_count)
    if not inside.all():
        h, r, t = h[inside], r[inside], t[inside]
    keys = triple_keys(np.concatenate([h, t]), np.concatenate([r, r + relation_count]),
                       np.concatenate([t, h]), entity_count)
    keys.sort()
    return keys[np.diff(keys, prepend=-1) > 0]  # keys are >= 0; np.unique takes 10x as long


def candidate_runs(known: np.ndarray, queries: np.ndarray, corrupt_head: np.ndarray,
                   entity_count: int, relation_count: int) -> tuple[np.ndarray, ...]:
    """(base, lo, hi): candidate e of query i has key base[i] + e, and the keys of its
    known candidates are known[lo[i] : hi[i]], known being a known_keys index. Query
    i replaces the head of queries[i] where corrupt_head[i], else its tail; a head
    query is the tail query of relation r + relation_count, anchored at the tail."""
    h, r, t = queries.T
    base = triple_keys(np.where(corrupt_head, t, h), np.where(corrupt_head, r + relation_count, r),
                       0, entity_count)
    lo, hi = np.searchsorted(known, [base, base + entity_count])
    return base, lo, hi


def intern_graph(raw_triples: Iterable[RawTriple]) -> tuple[UnionGraph, LabelMaps]:
    """Intern string triples and build the union-graph adjacency index.

    Duplicate triples are dropped (first occurrence wins).
    """
    rows = list(raw_triples)
    for row in rows:
        if len(row) != 3:
            raise MalformedTripleError(f"expected 3 fields, got {len(row)}: {row!r}")
        if not all(row):
            raise MalformedTripleError(f"empty field in triple {row!r}")
    if not rows:
        raise EmptyDatasetError("no triples to intern")
    labels, (triples,) = _extend_vocab(rows)
    return _union_graph(triples, labels), labels


def text_lines(path: str | os.PathLike[str], error: type[DataError]) -> str:
    """The text of a UTF-8 file, read at once, its lines separated by "\n"
    whatever the file's newline convention.

    A leading byte-order mark is dropped. Bytes that are not UTF-8 raise error
    naming path:line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            pass
    # The decoder fails a whole read chunk at once. Latin-1 decodes every byte
    # and splits lines where UTF-8 does, so it finds the line.
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("latin-1").decode("utf-8-sig")
            except UnicodeDecodeError:
                raise error(f"{path}:{lineno}: not UTF-8 text") from None
    raise error(f"{path}: not UTF-8 text")


# False at the UTF-8 bytes of every character that str.isspace() accepts, so
# a line holding a byte that is True here is not blank.
_SOLID = np.ones(256, np.bool_)
_SOLID[[*range(0x09, 0x0E), *range(0x1C, 0x21), *range(0x80, 0x8B),
        0x9A, 0x9F, 0xA0, 0xA8, 0xA9, 0xAF, 0xC2, 0xE1, 0xE2, 0xE3]] = False


def _only_data_rows(body: str, width: int) -> bool:
    """Whether every "\n"-separated line of body holds width non-empty fields,
    starts with no '#' and holds a solid byte, so that read_tsv's walk would
    skip and refuse none. A line that is not blank may hold no solid byte
    ('\u00a9' is C2 A9); its file is walked."""
    data = np.frombuffer((body + "\n").encode(), np.uint8)
    ends = np.flatnonzero((data == ord("\t")) | (data == ord("\n")))  # of every field
    if len(ends) % width or np.diff(ends, prepend=-1).min() < 2:
        return False
    pattern = np.array([ord("\t")] * (width - 1) + [ord("\n")], np.uint8)
    starts = np.concatenate([[0], ends[width - 1 : -1 : width] + 1])
    return bool((data[ends].reshape(-1, width) == pattern).all()
                and (data[starts] != ord("#")).all()
                and np.logical_or.reduceat(_SOLID[data], starts).all())


def read_tsv(
    path: str | os.PathLike[str], names: tuple[str, ...], error: type[DataError]
) -> tuple[Sequence[int], list[tuple[str, ...]]]:
    """(line numbers, fields) of the rows of a tab-separated UTF-8 file.

    Any newline convention is read. Blank lines and lines starting with '#'
    are skipped. Every other line holds one non-empty field per name, or
    error is raised naming path:line and the fields.
    """
    body = text_lines(path, error).removesuffix("\n")
    if body and _only_data_rows(body, len(names)):
        rows = list(zip(*[iter(body.replace("\n", "\t").split("\t"))] * len(names)))
        return range(1, len(rows) + 1), rows
    linenos, rows = [], []
    for lineno, line in enumerate(body.split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = tuple(line.split("\t"))
        if len(fields) != len(names):
            raise error(f"{path}:{lineno}: expected {' TAB '.join(names)}")
        if not all(fields):
            raise error(f"{path}:{lineno}: empty {', '.join(names[:-1])} or {names[-1]} field")
        linenos.append(lineno)
        rows.append(fields)
    return linenos, rows


def read_triple_file(path: str | os.PathLike[str]) -> list[RawTriple]:
    """The head TAB relation TAB tail rows of a triple file, as read_tsv reads them."""
    return read_tsv(path, ("head", "relation", "tail"), MalformedTripleError)[1]


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


def _extend_vocab(*splits: Iterable[RawTriple]) -> tuple[LabelMaps, list[tuple[Triple, ...]]]:
    """Label maps over every label of splits, ids in first-appearance order,
    and each split's id triples: one pass of _to_id_triples over fresh maps."""
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    triples = [_to_id_triples(raw, entity_ids, relation_ids) for raw in splits]
    return LabelMaps(tuple(entity_ids), tuple(relation_ids), entity_ids, relation_ids), triples


def _to_id_triples(raw: Iterable[RawTriple], entity_ids: dict[str, int],
                   relation_ids: dict[str, int]) -> tuple[Triple, ...]:
    """Id triples of raw, duplicates dropped (first occurrence wins). A label the
    maps lack gets the next id as it appears, head before relation before tail."""
    entity, relation = entity_ids.setdefault, relation_ids.setdefault
    return tuple(dict.fromkeys(
        (entity(h, len(entity_ids)), relation(r, len(relation_ids)), entity(t, len(entity_ids)))
        for h, r, t in raw
    ))


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

    labels, (train, valid, test) = _extend_vocab(raw_train, raw_valid, raw_test)
    graph = _union_graph(train, labels)
    return Dataset(graph=graph, labels=labels, train=graph.triples, valid=valid, test=test)
