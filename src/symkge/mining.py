"""Mining of hop-symmetrical structures and the per-entity positive dictionary.

A structure pairs an anchor and a target entity that both reach a shared pivot
through simple paths carrying the same signed relation sequence. Walking an
edge against its direction flips its sign, so the sequence of the target half
is compared in the target-to-pivot direction.

The miner lists every simple k-step half-path as an array row, grown through
the graph's CSR adjacency. One join pairs rows at a shared pivot (and, for the
dictionary, a shared sequence) whose starts and interiors have no entity in
common: exactly the halves that splice into a 2k walk repeating no entity.
structure_stats counts the same join. Tests check both against walk oracles.
"""

from __future__ import annotations

import os
import random
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CorruptDictFileError, DataError, HopBoundExceededError
from .graph import SignedRelation, UnionGraph

MAX_HOP_BOUND = 3

# The join tests candidate row pairs in blocks of whole members, starting a
# new block at the first member past each multiple of this many pairs, so its
# temporaries stay small whatever the group sizes.
_JOIN_BLOCK_PAIRS = 1 << 16

HalfSequence = tuple[SignedRelation, ...]


@dataclass(frozen=True)
class SymmetricStructure:
    anchor: int
    pivot: int
    target: int
    half_sequence: HalfSequence
    k: int


@dataclass(frozen=True)
class PositiveDict:
    """Per-entity positive target sets, plus the hop bound they were mined at."""

    targets: tuple[frozenset[int], ...]
    hop_bound: int

    @property
    def entity_count(self) -> int:
        return len(self.targets)

    def __getitem__(self, entity: int) -> frozenset[int]:
        return self.targets[entity]


@dataclass(frozen=True)
class HopStats:
    k: int
    rs_count: int
    total_count: int

    @property
    def proportion(self) -> float | None:
        if self.total_count == 0:
            return None
        return self.rs_count / self.total_count


@dataclass(frozen=True)
class StructureStats:
    hop_bound: int
    per_hop: tuple[HopStats, ...]

    def hop(self, k: int) -> HopStats:
        return self.per_hop[k - 1]


def _check_hop_bound(k_max: int) -> None:
    if not 1 <= k_max <= MAX_HOP_BOUND:
        raise HopBoundExceededError(f"hop bound must be in 1..{MAX_HOP_BOUND}, got {k_max}")


# ---------------------------------------------------------------------------
# Half-paths and the join
# ---------------------------------------------------------------------------


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over each start s and count c."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def _key_starts(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key (the columns together) differs from the row before."""
    mask = np.arange(len(columns[0])) == 0
    for column in columns:
        mask[1:] |= column[1:] != column[:-1]
    return mask


def _half_paths(graph: UnionGraph, k_max: int, max_degree: int | None):
    """Check k_max, then yield (k, nodes, seq) for k = 1..k_max, one row per half-path.

    nodes[i] holds the path's start, its k - 1 interiors and its pivot. seq[i]
    packs its steps, each as 2 * relation + sign, in base 2R with the first
    step most significant, so numeric order is HalfSequence order.

    With max_degree set, nodes with more signed edges than the cap are neither
    pivots nor interiors, which bounds the fan-out around hubs on very large
    graphs (approximation; keep it off when exactness matters).
    """
    _check_hop_bound(k_max)
    base = 2 * graph.relation_count
    if base**k_max > np.iinfo(np.int64).max:
        raise DataError(f"{graph.relation_count} relations are too many to pack "
                        f"{k_max}-step sequences in 64 bits; mine at a lower hop bound")
    degree = np.diff(graph.indptr)
    walkable = degree <= (len(graph.nbr) if max_degree is None else max_degree)
    step_codes = 2 * graph.rel + graph.sign
    nodes = np.arange(graph.entity_count, dtype=np.int64)[:, None]
    seq = np.zeros(graph.entity_count, dtype=np.int64)
    for k in range(1, k_max + 1):
        last = nodes[:, -1]
        row = np.repeat(np.arange(len(nodes)), degree[last])
        edge = _ranges(graph.indptr[last], degree[last])
        nb = graph.nbr[edge]
        keep = walkable[nb] & (nodes[row] != nb[:, None]).all(axis=1)
        row, edge = row[keep], edge[keep]
        nodes = np.column_stack([nodes[row], graph.nbr[edge]])
        seq = seq[row] * base + step_codes[edge]
        yield k, nodes, seq


def _joined(nodes: np.ndarray, seq: np.ndarray, by_seq: bool):
    """Yield every distinct structure the half-path rows form, block by block.

    Two rows pair when they share the pivot, and the sequence too with
    by_seq, and their starts and interiors (nodes[:, :-1]) have no entity in
    common, so the halves splice into one simple 2k walk between distinct
    endpoints. The realizations of one member, a distinct (pivot, sequence,
    start), collapse into one. Each block holds whole members and is an
    (n, 5) array of (anchor, pivot, target, anchor sequence, target
    sequence), one row per distinct ordered member pair.
    """
    order = np.lexsort((nodes[:, 0], seq, nodes[:, -1]))
    nodes, seq = nodes[order], seq[order]
    start, pivot = nodes[:, 0], nodes[:, -1]
    new_member = _key_starts(pivot, seq, start)
    member = np.cumsum(new_member) - 1
    new_group = _key_starts(pivot, seq) if by_seq else _key_starts(pivot)
    bounds = np.append(np.flatnonzero(new_group), len(seq))
    group = np.cumsum(new_group) - 1
    lo, size = bounds[group], np.diff(bounds)[group]
    first = np.flatnonzero(new_member)

    left_rows = np.flatnonzero(size > 1)
    heads = np.flatnonzero(new_member[left_rows])
    window = (np.cumsum(size[left_rows]) - size[left_rows])[heads] // _JOIN_BLOCK_PAIRS
    cuts = np.append(heads[_key_starts(window)], len(left_rows)).tolist()
    for block in (left_rows[i:j] for i, j in zip(cuts, cuts[1:])):
        left = np.repeat(block, size[block])
        right = _ranges(lo[block], size[block])
        apart = (nodes[left, :-1, None] != nodes[right, None, :-1]).all(axis=(1, 2))
        # Sorted, not np.unique: its hashing is slow on these strided codes.
        pairs = np.sort(member[left[apart]] * len(first) + member[right[apart]])
        pairs = pairs[_key_starts(pairs)]
        i, j = (first[m] for m in np.divmod(pairs, len(first)))
        yield np.column_stack([start[i], pivot[i], start[j], seq[i], seq[j]])


def _unpacked(code: int, k: int, base: int) -> HalfSequence:
    """The k signed relations packed in a sequence code, first step first."""
    steps = (code // base**i % base for i in reversed(range(k)))
    return tuple(SignedRelation(step // 2, step % 2) for step in steps)


# ---------------------------------------------------------------------------
# Positive dictionary mining
# ---------------------------------------------------------------------------


def mine_positive_dict(
    graph: UnionGraph,
    k_max: int,
    max_degree: int | None = None,
    workers: int = 1,
) -> tuple[PositiveDict, list[SymmetricStructure]]:
    """Mine all symmetric structures with half length k = 1..k_max.

    Returns the per-entity positive dictionary and the structure list, one
    entry per ordered (anchor, pivot, target, sequence) combination, sorted
    by (k, anchor, pivot, target, sequence). The optional degree cap skips
    hub pivots and interiors (see _half_paths); it is an approximation for
    very large graphs and must stay off for correctness checks.

    Mining always runs in one process; `workers` is accepted and not read.
    It stays only because the benchmark harness still passes it. Once the
    harness stops passing it, the keyword is removed.
    """
    structures: list[SymmetricStructure] = []
    for k, nodes, seq in _half_paths(graph, k_max, max_degree):
        blocks = _joined(nodes, seq, by_seq=True)
        anchor, pivot, target, code, _ = np.concatenate([np.empty((0, 5), np.int64), *blocks]).T
        order = np.lexsort((code, target, pivot, anchor))
        halves = {c: _unpacked(c, k, 2 * graph.relation_count) for c in set(code.tolist())}
        columns = (c[order].tolist() for c in (anchor, pivot, target, code))
        structures += [SymmetricStructure(a, p, t, halves[s], k) for a, p, t, s in zip(*columns)]
    targets: list[set[int]] = [set() for _ in range(graph.entity_count)]
    for s in structures:
        targets[s.anchor].add(s.target)
    return PositiveDict(tuple(frozenset(t) for t in targets), hop_bound=k_max), structures


# ---------------------------------------------------------------------------
# Structure statistics
# ---------------------------------------------------------------------------


def structure_stats(
    graph: UnionGraph,
    k_max: int,
    max_degree: int | None = None,
) -> StructureStats:
    """Count 2k-hop structures and the symmetric ones among them, per k.

    A structure here is a distinct (anchor, pivot, target, full signed
    sequence) tuple realized by at least one simple 2k walk with the pivot at
    the midpoint; distinct sequence-half pairs count separately.
    """
    per_hop = []
    for k, nodes, seq in _half_paths(graph, k_max, max_degree):
        rs = total = 0
        for found in _joined(nodes, seq, by_seq=False):
            rs += int(np.count_nonzero(found[:, 3] == found[:, 4]))
            total += len(found)
        per_hop.append(HopStats(k=k, rs_count=rs, total_count=total))
    return StructureStats(hop_bound=k_max, per_hop=tuple(per_hop))


# ---------------------------------------------------------------------------
# Positive sampling
# ---------------------------------------------------------------------------


def sample_positives(pos: PositiveDict, anchor: int, m: int, seed: int) -> list[int]:
    """Sample up to m distinct positives for an anchor, uniformly, seeded.

    Returns the whole (sorted) target set when it has fewer than m entries.
    """
    if m < 1:
        raise ValueError(f"sampling number must be >= 1, got {m}")
    candidates = sorted(pos.targets[anchor])
    if len(candidates) <= m:
        return candidates
    return random.Random(seed).sample(candidates, m)


# ---------------------------------------------------------------------------
# Dictionary serialization
# ---------------------------------------------------------------------------

_DICT_MAGIC = b"SYMD"
_DICT_VERSION = 1


def save_dict(pos: PositiveDict, path: str | os.PathLike[str]) -> None:
    """Write the positive dictionary in the binary SYMD format.

    Layout, little-endian: magic "SYMD", then a payload of version u32,
    hop bound u32, entity count u64, and per entity a u64 count followed by
    that many u64 target ids, then CRC32 of the payload as u32.
    """
    parts = [struct.pack("<IIQ", _DICT_VERSION, pos.hop_bound, pos.entity_count)]
    for targets in pos.targets:
        ordered = sorted(targets)
        parts.append(struct.pack("<Q", len(ordered)))
        parts.append(struct.pack(f"<{len(ordered)}Q", *ordered))
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(_DICT_MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_dict(path: str | os.PathLike[str]) -> PositiveDict:
    """Read a SYMD dictionary, validating magic, version, checksum and pairs.

    Every target id must be below the entity count, no entity may be paired
    with itself, and every pair must appear in both directions.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_DICT_MAGIC) + 4 + struct.calcsize("<IIQ"):
        raise CorruptDictFileError(f"{path}: truncated file")
    if blob[:4] != _DICT_MAGIC:
        raise CorruptDictFileError(f"{path}: bad magic {blob[:4]!r}")
    payload, (crc,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise CorruptDictFileError(f"{path}: checksum mismatch")
    version, hop_bound, entity_count = struct.unpack_from("<IIQ", payload, 0)
    if version != _DICT_VERSION:
        raise CorruptDictFileError(f"{path}: unsupported version {version}")
    offset = struct.calcsize("<IIQ")
    targets: list[frozenset[int]] = []
    for _ in range(entity_count):
        if offset + 8 > len(payload):
            raise CorruptDictFileError(f"{path}: truncated entity table")
        (count,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        end = offset + 8 * count
        if end > len(payload):
            raise CorruptDictFileError(f"{path}: truncated target list")
        targets.append(frozenset(struct.unpack_from(f"<{count}Q", payload, offset)))
        offset = end
    if offset != len(payload):
        raise CorruptDictFileError(f"{path}: trailing bytes in payload")
    for a, row in enumerate(targets):
        for t in row:
            if t >= entity_count:
                raise CorruptDictFileError(
                    f"{path}: entity {a} has target {t}, outside the {entity_count} entities"
                )
            if t == a:
                raise CorruptDictFileError(f"{path}: entity {a} is paired with itself")
            if a not in targets[t]:
                raise CorruptDictFileError(f"{path}: pair ({a}, {t}) has no reverse ({t}, {a})")
    return PositiveDict(targets=tuple(targets), hop_bound=hop_bound)
