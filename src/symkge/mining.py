"""Mining of hop-symmetrical structures and the per-entity positive dictionary.

A structure pairs an anchor and a target entity that both reach a shared pivot
through simple paths carrying the same signed relation sequence. Walking an
edge against its direction flips its sign, so the sequence of the target half
is compared in the target-to-pivot direction.

The miner lists every simple k-step half-path as an array row, grown through
the graph's CSR adjacency. One join pairs rows at a shared pivot (and, for the
dictionary, a shared sequence) whose starts and interiors have no entity in
common: exactly the halves that splice into a 2k walk repeating no entity.
structure_stats counts that join's pairs at k >= 2, and at k = 1 in closed form
per pivot, with no join. Tests check both against walk oracles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .artifact import read_framed, write_framed
from .errors import (BadValueError, CorruptDictFileError, DataError, HopBoundExceededError,
                     UnknownEntityError)
from .graph import SignedRelation, UnionGraph, _ranges

MAX_HOP_BOUND = 3

# The join tests candidate row pairs in blocks of whole members, starting a
# new block at the first member past each multiple of this many pairs, so its
# temporaries stay small whatever the group sizes.
_JOIN_BLOCK_PAIRS = 1 << 16

# Most candidate row pairs one join may test; it also caps the mine's keys at 2 GiB.
_MAX_JOIN_PAIRS = 1 << 28

# Most candidate rows one hop of _half_paths may expand: 512 MiB of row and edge ids.
_MAX_HOP_ROWS = 1 << 25

HalfSequence = tuple[SignedRelation, ...]


@dataclass(frozen=True)
class SymmetricStructure:
    anchor: int
    pivot: int
    target: int
    half_sequence: HalfSequence
    k: int


@dataclass(frozen=True, eq=False)
class PositiveDict:
    """Per-entity positive targets in CSR form, plus the hop bound they were mined at.

    Entity e's targets are indices[indptr[e] : indptr[e + 1]], ascending. Both
    arrays are read-only; equality compares them and the hop bound.
    """

    indptr: np.ndarray
    indices: np.ndarray
    hop_bound: int

    def __post_init__(self) -> None:
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    @property
    def entity_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def targets(self) -> tuple[frozenset[int], ...]:
        """Every entity's targets, for callers that enumerate them."""
        ids, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(frozenset(ids[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def __getitem__(self, entity: int) -> frozenset[int]:
        if not 0 <= entity < self.entity_count:
            raise UnknownEntityError(f"entity {entity} is not in 0..{self.entity_count - 1}")
        return frozenset(self.indices[self.indptr[entity] : self.indptr[entity + 1]].tolist())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PositiveDict) and self.hop_bound == other.hop_bound
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))


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
    per_hop: tuple[HopStats, ...]  # hop k at index k - 1


def _check_hop_bound(k_max: int) -> None:
    if not 1 <= k_max <= MAX_HOP_BOUND:
        raise HopBoundExceededError(f"hop bound must be in 1..{MAX_HOP_BOUND}, got {k_max}")


def _cap_advice(max_degree: int | None) -> str:
    return ("cap hub pivots with --max-degree" if max_degree is None
            else f"lower --max-degree below {max_degree}")


# ---------------------------------------------------------------------------
# Half-paths and the join
# ---------------------------------------------------------------------------


def _key_starts(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key (the columns together) differs from the row before."""
    mask = np.arange(len(columns[0])) == 0
    for column in columns:
        mask[1:] |= column[1:] != column[:-1]
    return mask


def _half_paths(graph: UnionGraph, k_max: int, max_degree: int | None):
    """Check the bounds, then yield (k, nodes, seq) for k = 1..k_max, one row per half-path.

    nodes[i] holds the path's start, its k - 1 interiors and its pivot. seq[i]
    packs its steps, each as 2 * relation + sign, in base 2R with the first
    step most significant, so numeric order is HalfSequence order.

    With max_degree set, nodes with more signed edges than the cap are neither
    pivots nor interiors, which bounds the fan-out around hubs on very large
    graphs (approximation; keep it off when exactness matters).
    """
    _check_hop_bound(k_max)
    if max_degree is not None and max_degree < 1:
        raise BadValueError(f"max_degree must be >= 1, got {max_degree}")
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
        fan = degree[last]
        n_rows = int(fan.sum())
        if n_rows > _MAX_HOP_ROWS:
            raise DataError(f"hop {k} would expand {n_rows} half-path rows, over its budget of "
                            f"{_MAX_HOP_ROWS}; {_cap_advice(max_degree)}")
        row = np.repeat(np.arange(len(nodes)), fan)
        edge = _ranges(graph.indptr[last], fan)
        nb = graph.nbr[edge]
        keep = walkable[nb] & (nodes[row] != nb[:, None]).all(axis=1)
        row, edge = row[keep], edge[keep]
        nodes = np.column_stack([nodes[row], graph.nbr[edge]])
        seq = seq[row] * base + step_codes[edge]
        yield k, nodes, seq


def _joined(nodes: np.ndarray, seq: np.ndarray, by_seq: bool, max_degree: int | None):
    """Yield every distinct structure the half-path rows form, block by block.

    Two rows pair when they share the pivot, and the sequence too with
    by_seq, and their starts and interiors (nodes[:, :-1]) have no entity in
    common, so the halves splice into one simple 2k walk between distinct
    endpoints. The realizations of one member, a distinct (pivot, sequence,
    start), collapse into one. Each block holds whole members and is an
    (n, 5) array of (anchor, pivot, target, anchor sequence, target
    sequence), one row per distinct ordered member pair. Over the join budget it
    refuses, naming a degree cap below max_degree, the cap the rows were walked with.
    """
    order = np.lexsort((nodes[:, 0], seq, nodes[:, -1]))
    nodes, seq = nodes[order], seq[order]
    start, pivot = nodes[:, 0], nodes[:, -1]
    new_member = _key_starts(pivot, seq, start)
    member = np.cumsum(new_member) - 1
    new_group = _key_starts(pivot, seq) if by_seq else _key_starts(pivot)
    bounds = np.append(np.flatnonzero(new_group), len(seq))
    group = np.cumsum(new_group) - 1
    sizes = np.diff(bounds)
    candidates = int((sizes[sizes > 1] ** 2).sum())
    if candidates > _MAX_JOIN_PAIRS:
        raise DataError(f"the join would test {candidates} candidate row pairs, over its budget "
                        f"of {_MAX_JOIN_PAIRS}; {_cap_advice(max_degree)}")
    lo, size = bounds[group], sizes[group]
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


@dataclass(frozen=True, eq=False)
class Structures:
    """Mined structures: their count, and the inputs that mine them again on each
    iteration, decoded one at a time in join order."""

    graph: UnionGraph
    k_max: int
    max_degree: int | None
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        base = 2 * self.graph.relation_count
        for k, nodes, seq in _half_paths(self.graph, self.k_max, self.max_degree):
            for found in _joined(nodes, seq, by_seq=True, max_degree=self.max_degree):
                for anchor, pivot, target, code, _ in found.tolist():
                    yield SymmetricStructure(anchor, pivot, target, _unpacked(code, k, base), k)


# ---------------------------------------------------------------------------
# Positive dictionary mining
# ---------------------------------------------------------------------------


def mine_positive_dict(
    graph: UnionGraph,
    k_max: int,
    max_degree: int | None = None,
    workers: int = 1,
) -> tuple[PositiveDict, Structures]:
    """Mine all symmetric structures with half length k = 1..k_max.

    Returns the positive dictionary and a sized view of the structures, one
    per ordered (anchor, pivot, target, sequence); iterating it re-runs the
    join, in join order: by (k, pivot, sequence, anchor, target). The degree
    cap skips hub pivots and interiors (see _half_paths); it is an
    approximation for very large graphs and must stay off for correctness checks.

    Mining always runs in one process; `workers` is accepted and not read.
    It stays only because the benchmark harness still passes it. Once the
    harness stops passing it, the keyword is removed.
    """
    keys = np.concatenate([np.empty(0, np.int64)] + [
        found[:, 0] * graph.entity_count + found[:, 2]
        for _, nodes, seq in _half_paths(graph, k_max, max_degree)
        for found in _joined(nodes, seq, by_seq=True, max_degree=max_degree)])
    keys.sort()
    anchor, target = np.divmod(keys[_key_starts(keys)], graph.entity_count)
    pos = PositiveDict(np.searchsorted(anchor, np.arange(graph.entity_count + 1)), target, k_max)
    return pos, Structures(graph, k_max, max_degree, len(keys))


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

    At k = 1 each half-path row is a distinct (pivot, sequence, start), as the
    graph's edges are distinct, and two rows pair when their starts differ, so
    no join is needed. Per pivot p, with M_p rows, c_{p,s} of them starting at
    s and n_{p,q} with sequence q: total = sum(M_p^2 - c_{p,s}^2) and
    rs = sum(n_{p,q} * (n_{p,q} - 1)). Hops k >= 2 go through the join.
    """
    def squares(key: np.ndarray) -> int:
        return int((np.unique(key, return_counts=True)[1] ** 2).sum())

    per_hop = []
    for k, nodes, seq in _half_paths(graph, k_max, max_degree):
        if k == 1:
            start, pivot = nodes[:, 0], nodes[:, 1]
            rs = squares(pivot * (2 * graph.relation_count) + seq) - len(seq)
            total = squares(pivot) - squares(pivot * graph.entity_count + start)
        else:
            rs = total = 0
            for found in _joined(nodes, seq, by_seq=False, max_degree=max_degree):
                rs += int(np.count_nonzero(found[:, 3] == found[:, 4]))
                total += len(found)
        per_hop.append(HopStats(k=k, rs_count=rs, total_count=total))
    return StructureStats(per_hop=tuple(per_hop))


# ---------------------------------------------------------------------------
# Positive sampling
# ---------------------------------------------------------------------------


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer: a bijection of uint64 arrays with full avalanche."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def sample_positives(pos: PositiveDict, anchors, m: int, seed: int,
                     epoch: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Up to m distinct positives per anchor, drawn uniformly: (counts, flat).

    Anchor i's positives are the counts[i] ids of flat after those of the
    anchors before it, ascending. A row with at most m targets is taken whole.
    Otherwise each target gets a 40-bit key, a hash of the counter (anchor,
    target) keyed by (seed, epoch) as in counter-based generators (Salmon et
    al., SC'11), and the m smallest keys win, ties to the lower id: a uniform
    m-subset that depends on (seed, epoch, anchor) alone, not on the batch.
    """
    if m < 1:
        raise ValueError(f"sampling number must be >= 1, got {m}")
    anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
    if len(anchors) >= 1 << 23:
        raise ValueError(f"{len(anchors)} anchors are too many to sort in one draw")
    outside = anchors[anchors.view(np.uint64) >= pos.entity_count]
    if outside.size:
        raise UnknownEntityError(f"anchor {outside[0]} is not in 0..{pos.entity_count - 1}")
    lo = pos.indptr[anchors]
    sizes = pos.indptr[anchors + 1] - lo
    row = np.repeat(np.arange(len(anchors)), sizes)
    targets = pos.indices[_ranges(lo, sizes)]
    key = _mix(np.array([seed % (1 << 64), epoch % (1 << 64)], dtype=np.uint64))
    counter = (anchors[row] * pos.entity_count + targets).astype(np.uint64)
    keys = _mix(_mix(counter ^ key[0]) + key[1]) >> np.uint64(24)
    # Rows ascend already, so a stable sort by (row, key) runs fast.
    by_key = np.argsort(row << 40 | keys.astype(np.int64), kind="stable")
    keep = np.empty(len(targets), dtype=bool)
    keep[by_key] = np.arange(len(by_key)) - (np.cumsum(sizes) - sizes)[row[by_key]] < m
    return np.minimum(sizes, m), targets[keep]


# ---------------------------------------------------------------------------
# Dictionary serialization
# ---------------------------------------------------------------------------

_DICT_MAGIC = b"SYMD"
_DICT_HEADER = "<IIQ"
_DICT_VERSION = 2


def save_dict(pos: PositiveDict, path: str | os.PathLike[str]) -> None:
    """Write the positive dictionary as a SYMD frame (see symkge.artifact).

    Header: version u32, hop bound u32, entity count u64. Body: the CSR arrays
    as u64 words, every entity's target count, then every target id.
    """
    words = np.concatenate((np.diff(pos.indptr), pos.indices)).astype("<u8")
    write_framed(path, _DICT_MAGIC, _DICT_HEADER,
                 (_DICT_VERSION, pos.hop_bound, pos.entity_count), words)


def load_dict(path: str | os.PathLike[str]) -> PositiveDict:
    """Read a SYMD dictionary, validating the frame, the counts and the pairs.

    Target ids must be below the entity count and strictly ascending in each
    row, no entity may be paired with itself, and every pair must go both ways.
    """
    (hop_bound, entity_count), body = read_framed(
        path, _DICT_MAGIC, _DICT_HEADER, _DICT_VERSION, CorruptDictFileError)
    words = np.frombuffer(body, "<u8", len(body) // 8)
    if len(body) % 8 or entity_count > len(words):
        raise CorruptDictFileError(
            f"{path}: {len(body)} body bytes are not {entity_count} u64 counts and u64 targets")
    stored = len(words) - entity_count
    # A count of 2**63 or more turns negative here, and a running sum that
    # passes 2**63 wraps below the sum before it: either makes indptr fall.
    indptr = np.concatenate(([0], np.cumsum(words[:entity_count].astype(np.int64))))
    if indptr[-1] != stored or (indptr[1:] < indptr[:-1]).any():
        raise CorruptDictFileError(f"{path}: entity counts do not add up to the {stored} targets")
    targets = words[entity_count:]
    anchors = np.repeat(np.arange(entity_count), np.diff(indptr))

    def refuse(bad: np.ndarray, problem: str) -> None:
        if bad.any():
            a, t = anchors[bad.argmax()], targets[bad.argmax()]
            raise CorruptDictFileError(f"{path}: " + problem.format(a=a, t=t, n=entity_count))

    refuse(targets >= entity_count, "entity {a} has target {t}, outside the {n} entities")
    targets = targets.astype(np.int64)
    refuse(anchors == targets, "entity {a} is paired with itself")
    keys = anchors * entity_count + targets
    refuse(np.diff(keys, prepend=-1) <= 0, "entity {a}'s targets do not strictly ascend at {t}")
    reverse = np.isin(targets * entity_count + anchors, keys, assume_unique=True)
    refuse(~reverse, "pair ({a}, {t}) has no reverse ({t}, {a})")
    return PositiveDict(indptr, targets, hop_bound)
