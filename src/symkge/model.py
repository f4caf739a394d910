"""Embedding tables, scoring functions, and checkpoint serialization."""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass

import numpy as np

from .artifact import read_framed, write_framed
from .errors import CorruptCheckpointError, UnknownEntityError


_UNIT = np.finfo(np.float64).eps / 2  # unit roundoff u
# Absolute error per vector element from products that underflow.
_ABS_SLACK = 8.0 * np.finfo(np.float64).smallest_subnormal


def squared_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's squared L2 norm, for bounds(), whose slack covers any order."""
    return np.einsum("ij,ij->i", rows, rows)


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
    """Dense entity/relation vectors. train() works on a float32 copy and
    returns its exact float64 widening; ranking widens any table to float64."""

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

    def astype(self, dtype) -> "EmbeddingTable":
        """Both matrices in dtype; a matrix already in it is not copied."""
        return EmbeddingTable(self.entity_vecs.astype(dtype, copy=False),
                              self.relation_vecs.astype(dtype, copy=False))

    def check_triples(self, triples: np.ndarray) -> None:
        """Refuse, with UnknownEntityError, (n, 3) int64 (head, relation, tail)
        triples that hold an id outside the table."""
        # As uint64 a negative id exceeds every bound, so one comparison checks both ends.
        bounds = np.array([self.entity_count, self.relation_count, self.entity_count], np.uint64)
        outside = triples.view(np.uint64) >= bounds
        if outside.any():
            bad = tuple(triples[outside.any(axis=1).argmax()].tolist())
            raise UnknownEntityError(f"triple {bad} is outside the table's {self.entity_count} "
                                     f"entities and {self.relation_count} relations")

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.entity_vecs).all() and np.isfinite(self.relation_vecs).all())


def _float32_init(entity_count: int, relation_count: int, dim: int, seed: int) -> EmbeddingTable:
    """The float32 table train() starts from: init_embeddings' draw, rounded."""
    if entity_count < 1 or relation_count < 1 or dim < 1:
        raise ValueError("counts and dim must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    return EmbeddingTable(*(rng.uniform(-bound, bound, size=(count, dim)).astype(np.float32)
                            for count in (entity_count, relation_count)))


def init_embeddings(entity_count: int, relation_count: int, dim: int, seed: int) -> EmbeddingTable:
    """Uniform init in [-6/sqrt(dim), +6/sqrt(dim)], reproducible from seed.

    The arrays are float64, but every value is a float32 rounded from the
    draw, so train()'s float32 state starts from this table exactly.
    """
    return _float32_init(entity_count, relation_count, dim, seed).astype(np.float64)


class TransE:
    """-||h + r - t||: the relation translates the head onto the tail."""

    @staticmethod
    def score(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
        return TransE.forward(h, r, t)[0]

    @staticmethod
    def forward(h: np.ndarray, r: np.ndarray, t: np.ndarray):
        delta = h + r - t
        dist = np.sqrt((delta * delta).sum(axis=-1))

        def scaled_partials(rows: np.ndarray, coeff: np.ndarray) -> tuple[np.ndarray, ...]:
            # Zero distance has no defined direction; use the zero subgradient.
            norms = dist[rows]
            d_t = delta[rows] / np.where(norms > 0.0, norms, 1.0)[:, None] * coeff[:, None]
            d_h = -d_t  # negation is exact: -(unit * c) == (-unit) * c
            return d_h, d_h, d_t
        return -dist, scaled_partials

    @staticmethod
    def inverse(r: np.ndarray) -> np.ndarray:
        return -r

    @staticmethod
    def bounds(h: np.ndarray, r: np.ndarray, entities: np.ndarray, e_sq: np.ndarray):
        q = h + r  # the rows score() subtracts each tail from
        q_sq = squared_norms(q)
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
    def forward(h: np.ndarray, r: np.ndarray, t: np.ndarray):
        def scaled_partials(rows: np.ndarray, coeff: np.ndarray) -> tuple[np.ndarray, ...]:
            c, h_, r_, t_ = coeff[:, None], h[rows], r[rows], t[rows]
            return r_ * t_ * c, h_ * t_ * c, h_ * r_ * c
        return DistMult.score(h, r, t), scaled_partials

    @staticmethod
    def inverse(r: np.ndarray) -> np.ndarray:
        return r

    @staticmethod
    def bounds(h: np.ndarray, r: np.ndarray, entities: np.ndarray, e_sq: np.ndarray):
        w = h * r  # the rows score() multiplies each tail by
        products = w @ entities.T
        # Any summation order errs by at most gamma * sum |w_k e_k|, and
        # sum |w_k e_k| <= ||w|| ||e||. The padding keeps the norms upper
        # bounds where squares underflow.
        pad = _ABS_SLACK * w.shape[-1]
        w_norm = np.sqrt(squared_norms(w) + pad) * _slack(w.shape[-1])
        e_norm = np.sqrt(e_sq + pad)
        err = np.multiply.outer(w_norm, e_norm)
        err += pad
        return products - err, np.add(products, err, out=products)


# The only place scoring math lives. Each scorer works on rows and broadcasts:
# score(h, r, t) is higher for more plausible triples; forward(h, r, t) gives
# those scores and a function of (rows, c) giving, for the rows selected, the
# rows of c * d score / d h, d r, d t; score(t, inverse(r), h) equals
# score(h, r, t), so a head query is scored as a tail query of the inverse
# relation. bounds(h, r, entities, squared_norms(entities)) gives, for B query
# rows and N candidate tails, (B, N) arrays lo and hi with lo <= score(h[i],
# r[i], entities[j]) <= hi exactly as score() computes it, or a non-finite bound.
# score() and forward() reduce with ndarray.sum (pairwise, single-threaded,
# each row on its own) rather than BLAS, so results are bit-stable across
# thread counts. bounds() is the only BLAS product in the package: its error
# bound holds for any summation order, so ranking, which decides only clear
# cases from the bounds and re-scores the rest with score(), stays exact.
SCORERS = {ScorerKind.TRANSE: TransE, ScorerKind.DISTMULT: DistMult}


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"SYME"
_CKPT_HEADER = "<IIQQI"
_CKPT_VERSION = 1
_SCORER_CODES = {ScorerKind.TRANSE: 0, ScorerKind.DISTMULT: 1}
_SCORER_FROM_CODE = {v: k for k, v in _SCORER_CODES.items()}


def save_checkpoint(table: EmbeddingTable, kind: ScorerKind, path: str | os.PathLike[str]) -> None:
    """Write embeddings as 32-bit floats in a SYME frame (see symkge.artifact).

    Header: version u32, dim u32, entity count u64, relation count u64, scorer
    code u32. Body: the entity matrix then the relation matrix, row-major f32.
    """
    fields = (_CKPT_VERSION, table.dim, table.entity_count, table.relation_count,
              _SCORER_CODES[kind])
    body = np.concatenate((table.entity_vecs, table.relation_vecs), dtype="<f4")
    write_framed(path, _CKPT_MAGIC, _CKPT_HEADER, fields, body)


def load_checkpoint(path: str | os.PathLike[str]) -> tuple[EmbeddingTable, ScorerKind]:
    """Read a SYME checkpoint back into a float64 table.

    train() keeps its state in float32, so a trained table comes back exactly.
    """
    (dim, entity_count, relation_count, scorer_code), body = read_framed(
        path, _CKPT_MAGIC, _CKPT_HEADER, _CKPT_VERSION, CorruptCheckpointError)
    if scorer_code not in _SCORER_FROM_CODE:
        raise CorruptCheckpointError(f"{path}: unknown scorer code {scorer_code}")
    expected = 4 * dim * (entity_count + relation_count)
    if len(body) != expected:
        raise CorruptCheckpointError(f"{path}: body size {len(body)} != expected {expected}")
    data = np.frombuffer(body, dtype="<f4")
    entity = data[: entity_count * dim].reshape(entity_count, dim).astype(np.float64)
    relation = data[entity_count * dim :].reshape(relation_count, dim).astype(np.float64)
    return EmbeddingTable(entity, relation), _SCORER_FROM_CODE[scorer_code]
