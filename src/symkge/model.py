"""Embedding tables, scoring functions, and checkpoint serialization."""

from __future__ import annotations

import enum
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CorruptCheckpointError, UnknownEntityError
from .graph import Triple


_UNIT = np.finfo(np.float64).eps / 2  # unit roundoff u
# Absolute error per vector element from products that underflow.
_ABS_SLACK = 8.0 * np.finfo(np.float64).smallest_subnormal


def _slack(dim: int) -> float:
    """Relative error allowance for bounds() over dim-long rows.

    gamma_n = n u / (1 - n u) bounds the relative error of any n-term dot
    product of floats, whatever the summation order, FMA or thread count.
    Eight of them cover the BLAS product, the norms, score()'s own rounding
    and the few elementwise operations that combine them.
    """
    n = dim + 4
    return 8.0 * n * _UNIT / (1.0 - n * _UNIT)


class ScorerKind(enum.Enum):
    TRANSE = "transe"
    DISTMULT = "distmult"


@dataclass
class EmbeddingTable:
    """Dense entity/relation vectors, float64 while training."""

    entity_vecs: np.ndarray  # (entity_count, dim)
    relation_vecs: np.ndarray  # (relation_count, dim)

    @property
    def dim(self) -> int:
        return self.entity_vecs.shape[1]

    @property
    def entity_count(self) -> int:
        return self.entity_vecs.shape[0]

    @property
    def relation_count(self) -> int:
        return self.relation_vecs.shape[0]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.entity_vecs.copy(), self.relation_vecs.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.entity_vecs).all() and np.isfinite(self.relation_vecs).all())


def init_embeddings(entity_count: int, relation_count: int, dim: int, seed: int) -> EmbeddingTable:
    """Uniform init in [-6/sqrt(dim), +6/sqrt(dim)], reproducible from seed."""
    if entity_count < 1 or relation_count < 1 or dim < 1:
        raise ValueError("counts and dim must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    return EmbeddingTable(
        entity_vecs=rng.uniform(-bound, bound, size=(entity_count, dim)),
        relation_vecs=rng.uniform(-bound, bound, size=(relation_count, dim)),
    )


class TransE:
    """-||h + r - t||: the relation translates the head onto the tail."""

    @staticmethod
    def score(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        delta = h + r - t
        return -np.sqrt((delta * delta).sum(axis=-1))

    @staticmethod
    def partials(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
        delta = h + r - t
        norms = np.sqrt((delta * delta).sum(axis=-1, keepdims=True))
        # Zero distance has no defined direction; use the zero subgradient.
        unit = delta / np.where(norms > 0.0, norms, 1.0)
        return -unit, -unit, unit

    @staticmethod
    def inverse(r: np.ndarray) -> np.ndarray:
        return -r

    @staticmethod
    def bounds(h: np.ndarray, r: np.ndarray, entities: np.ndarray) -> tuple[np.ndarray, ...]:
        q = h + r  # the rows score() subtracts each tail from
        q_sq = np.einsum("ij,ij->i", q, q)
        e_sq = np.einsum("ij,ij->i", entities, entities)
        dist_sq = (-2.0 * q) @ entities.T  # power-of-two scaling is exact
        dist_sq += q_sq[:, None]
        dist_sq += e_sq[None, :]
        # ||q - e||^2 <= 2 (||q||^2 + ||e||^2), so this slack also covers the
        # rounding of score()'s own sum.
        rel = _slack(q.shape[-1])
        slack = np.add.outer(rel * q_sq + _ABS_SLACK * q.shape[-1], rel * e_sq)
        far = dist_sq + slack
        near = np.maximum(np.subtract(dist_sq, slack, out=dist_sq), 0.0, out=dist_sq)
        # score() rounds its sqrt once, and so does this.
        lo = np.multiply(np.sqrt(far, out=far), -(1.0 + 8.0 * _UNIT), out=far)
        hi = np.multiply(np.sqrt(near, out=near), -(1.0 - 8.0 * _UNIT), out=near)
        return lo, hi


class DistMult:
    """<h, r, t>: a diagonal bilinear form, symmetric in head and tail."""

    @staticmethod
    def score(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        return (h * r * t).sum(axis=-1)

    @staticmethod
    def partials(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
        return r * t, h * t, h * r

    @staticmethod
    def inverse(r: np.ndarray) -> np.ndarray:
        return r

    @staticmethod
    def bounds(h: np.ndarray, r: np.ndarray, entities: np.ndarray) -> tuple[np.ndarray, ...]:
        w = h * r  # the rows score() multiplies each tail by
        products = w @ entities.T
        # Any summation order errs by at most gamma * sum |w_k e_k|, and
        # sum |w_k e_k| <= ||w|| ||e||. The padding keeps the norms upper
        # bounds where squares underflow.
        pad = _ABS_SLACK * w.shape[-1]
        w_norm = np.sqrt(np.einsum("ij,ij->i", w, w) + pad) * _slack(w.shape[-1])
        e_norm = np.sqrt(np.einsum("ij,ij->i", entities, entities) + pad)
        err = np.multiply.outer(w_norm, e_norm)
        err += pad
        return products - err, np.add(products, err, out=products)


# The only place scoring math lives. Each scorer works on rows and broadcasts:
# score(h, r, t) is higher for more plausible triples; partials(h, r, t) gives
# the rows of d score / d h, d r, d t; score(t, inverse(r), h) equals
# score(h, r, t), so a head query is scored as a tail query of the inverse
# relation. bounds(h, r, entities) gives, for B query rows and N candidate
# tails, (B, N) arrays lo and hi with lo <= score(h[i], r[i], entities[j]) <=
# hi exactly as score() computes it, or a non-finite bound.
# score() and partials() reduce with ndarray.sum (pairwise, single-threaded,
# each row on its own) rather than BLAS, so results are bit-stable across
# thread counts. bounds() is the only BLAS product in the package: its error
# bound holds for any summation order, so ranking, which decides only clear
# cases from the bounds and re-scores the rest with score(), stays exact.
SCORERS = {ScorerKind.TRANSE: TransE, ScorerKind.DISTMULT: DistMult}


def score(table: EmbeddingTable, kind: ScorerKind, triple: Triple | tuple[int, int, int]) -> float:
    h, r, t = triple
    if not (0 <= h < table.entity_count and 0 <= t < table.entity_count):
        raise UnknownEntityError(f"entity id outside table: {triple}")
    if not 0 <= r < table.relation_count:
        raise UnknownEntityError(f"relation id outside table: {triple}")
    return float(
        SCORERS[kind].score(table.entity_vecs[h], table.relation_vecs[r], table.entity_vecs[t])
    )


def score_batch(
    table: EmbeddingTable, kind: ScorerKind, h: np.ndarray, r: np.ndarray, t: np.ndarray
) -> np.ndarray:
    return SCORERS[kind].score(table.entity_vecs[h], table.relation_vecs[r], table.entity_vecs[t])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SYME"
_CKPT_VERSION = 1
_SCORER_CODES = {ScorerKind.TRANSE: 0, ScorerKind.DISTMULT: 1}
_SCORER_FROM_CODE = {v: k for k, v in _SCORER_CODES.items()}


def save_checkpoint(table: EmbeddingTable, kind: ScorerKind, path: str | os.PathLike[str]) -> None:
    """Write embeddings as 32-bit floats with a trailing CRC32.

    Layout, little-endian: magic "SYME", then a payload of version u32,
    dim u32, entity count u64, relation count u64, scorer code u32, the
    entity matrix then the relation matrix row-major f32, then CRC32 of the
    payload as u32.
    """
    header = struct.pack(
        "<IIQQI",
        _CKPT_VERSION,
        table.dim,
        table.entity_count,
        table.relation_count,
        _SCORER_CODES[kind],
    )
    body = (
        np.ascontiguousarray(table.entity_vecs, dtype="<f4").tobytes()
        + np.ascontiguousarray(table.relation_vecs, dtype="<f4").tobytes()
    )
    payload = header + body
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def load_checkpoint(path: str | os.PathLike[str]) -> tuple[EmbeddingTable, ScorerKind]:
    """Read a SYME checkpoint back into a float64 table."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header_size = struct.calcsize("<IIQQI")
    if len(blob) < 4 + header_size + 4 or blob[:4] != _CKPT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a checkpoint file")
    payload, (crc,) = blob[4:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) != crc:
        raise CorruptCheckpointError(f"{path}: checksum mismatch")
    version, dim, entity_count, relation_count, scorer_code = struct.unpack_from("<IIQQI", payload, 0)
    if version != _CKPT_VERSION:
        raise CorruptCheckpointError(f"{path}: unsupported version {version}")
    if scorer_code not in _SCORER_FROM_CODE:
        raise CorruptCheckpointError(f"{path}: unknown scorer code {scorer_code}")
    expected = header_size + 4 * dim * (entity_count + relation_count)
    if len(payload) != expected:
        raise CorruptCheckpointError(f"{path}: payload size {len(payload)} != expected {expected}")
    data = np.frombuffer(payload, dtype="<f4", offset=header_size)
    entity = data[: entity_count * dim].reshape(entity_count, dim).astype(np.float64)
    relation = data[entity_count * dim :].reshape(relation_count, dim).astype(np.float64)
    return EmbeddingTable(entity, relation), _SCORER_FROM_CODE[scorer_code]
