"""Mining of hop-symmetrical structures and the per-entity positive dictionary.

A structure pairs an anchor and a target entity that both reach a shared pivot
through simple paths carrying the same signed relation sequence. Walking an
edge against its direction flips its sign, so the sequence of the target half
is compared in the target-to-pivot direction.

The miner hashes half-paths into (pivot, sequence) groups and pairs group
members, instead of enumerating full 2k-hop walks per anchor. Full-path
simplicity still applies: a pair is only valid when the two halves can be
spliced into a 2k walk that repeats no entity. The test suite checks the
miner against an oracle that enumerates those walks directly.
"""

from __future__ import annotations

import os
import random
import struct
import zlib
from collections import defaultdict
from dataclasses import dataclass

from .errors import CorruptDictFileError, HopBoundExceededError
from .graph import SignedRelation, UnionGraph

MAX_HOP_BOUND = 3

HalfSequence = tuple[SignedRelation, ...]

# groups[k][(pivot, seq)] -> {start_entity: set of frozen interior-entity sets}
GroupTable = dict[tuple[int, HalfSequence], dict[int, set[frozenset[int]]]]


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
# Group collection (bounded DFS over simple half-paths)
# ---------------------------------------------------------------------------


def _collect_half_paths(
    graph: UnionGraph,
    start: int,
    k_max: int,
    groups: list[GroupTable],
    max_degree: int | None = None,
) -> None:
    """Record every simple path of length 1..k_max leaving `start`.

    groups[k][(pivot, seq)][start] accumulates the interior-entity sets of the
    paths realizing that (pivot, sequence) pair; those sets drive the
    full-path simplicity check during pairing.

    With max_degree set, nodes with more signed edges than the cap are
    neither recorded as pivots nor walked through, which bounds the quadratic
    fan-out around hubs on very large graphs (approximation; keep it off when
    exactness matters).
    """
    path = [start]
    seq: list[SignedRelation] = []

    def walk(node: int, depth: int) -> None:
        for sr, nb in graph.out_index[node]:
            if nb in path:
                continue
            capped = max_degree is not None and len(graph.out_index[nb]) > max_degree
            path.append(nb)
            seq.append(sr)
            if not capped:
                key = (nb, tuple(seq))
                interiors = groups[depth + 1].setdefault(key, {}).setdefault(start, set())
                interiors.add(frozenset(path[1:-1]))
                if depth + 1 < k_max:
                    walk(nb, depth + 1)
            path.pop()
            seq.pop()

    walk(start, 0)


def _half_path_groups(
    graph: UnionGraph, k_max: int, max_degree: int | None = None
) -> list[GroupTable]:
    groups: list[GroupTable] = [dict() for _ in range(k_max + 1)]
    for start in range(graph.entity_count):
        _collect_half_paths(graph, start, k_max, groups, max_degree)
    return groups


def _compatible(
    interiors_a: set[frozenset[int]],
    interiors_t: set[frozenset[int]],
    a: int,
    t: int,
) -> bool:
    """Can two half-paths be spliced into one simple 2k walk?

    Requires some pair of realizations whose interiors are disjoint and avoid
    the opposite endpoint. For 1-hop halves the interiors are empty and this
    is trivially true.
    """
    for ia in interiors_a:
        if t in ia:
            continue
        for it in interiors_t:
            if a in it:
                continue
            if ia.isdisjoint(it):
                return True
    return False


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
    entry per ordered (anchor, pivot, target, sequence) combination. The
    optional degree cap skips hub pivots entirely (see _collect_half_paths);
    it is an approximation for very large graphs and must stay off for
    correctness checks.

    Mining always runs in one process; `workers` is accepted and not read.
    It stays only because the benchmark harness still passes it. Once the
    harness stops passing it, the keyword is removed.
    """
    _check_hop_bound(k_max)
    groups = _half_path_groups(graph, k_max, max_degree)
    targets: list[set[int]] = [set() for _ in range(graph.entity_count)]
    structures: list[SymmetricStructure] = []

    for k in range(1, k_max + 1):
        for pivot, seq in sorted(groups[k].keys()):
            members = groups[k][(pivot, seq)]
            if len(members) < 2:
                continue
            names = sorted(members)
            for i, a in enumerate(names):
                for t in names[i + 1 :]:
                    if _compatible(members[a], members[t], a, t):
                        targets[a].add(t)
                        targets[t].add(a)
                        structures.append(SymmetricStructure(a, pivot, t, seq, k))
                        structures.append(SymmetricStructure(t, pivot, a, seq, k))

    structures.sort(key=lambda s: (s.k, s.anchor, s.pivot, s.target, s.half_sequence))
    pos = PositiveDict(targets=tuple(frozenset(s) for s in targets), hop_bound=k_max)
    return pos, structures


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
    _check_hop_bound(k_max)
    groups = _half_path_groups(graph, k_max, max_degree)
    per_hop = []
    for k in range(1, k_max + 1):
        by_pivot: dict[int, dict[HalfSequence, dict[int, set[frozenset[int]]]]] = defaultdict(dict)
        for (pivot, seq), members in groups[k].items():
            by_pivot[pivot][seq] = members
        total = 0
        rs = 0
        for pivot in sorted(by_pivot):
            seq_table = by_pivot[pivot]
            seqs = sorted(seq_table)
            for s1 in seqs:
                for s2 in seqs:
                    for a, ints_a in seq_table[s1].items():
                        for t, ints_t in seq_table[s2].items():
                            if a == t:
                                continue
                            if _compatible(ints_a, ints_t, a, t):
                                total += 1
                                if s1 == s2:
                                    rs += 1
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
