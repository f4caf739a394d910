"""Embedding init, scorers, and checkpoint serialization."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkge.errors import CorruptCheckpointError
from symkge.model import (
    EmbeddingTable,
    ScorerKind,
    init_embeddings,
    load_checkpoint,
    save_checkpoint,
)

from oracles import score


def test_init_range_dim4():
    table = init_embeddings(50, 7, dim=4, seed=0)
    assert np.all(np.abs(table.entity_vecs) <= 3.0)  # 6/sqrt(4)
    assert np.all(np.abs(table.relation_vecs) <= 3.0)


def test_init_deterministic():
    a = init_embeddings(20, 4, 8, seed=9)
    b = init_embeddings(20, 4, 8, seed=9)
    assert np.array_equal(a.entity_vecs, b.entity_vecs)
    assert np.array_equal(a.relation_vecs, b.relation_vecs)


def test_init_seed_changes_table():
    a = init_embeddings(20, 4, 8, seed=1)
    b = init_embeddings(20, 4, 8, seed=2)
    assert not np.array_equal(a.entity_vecs, b.entity_vecs)


def test_init_validates_sizes():
    with pytest.raises(ValueError):
        init_embeddings(0, 1, 4, seed=0)


def _table(entities, relations):
    return EmbeddingTable(
        entity_vecs=np.asarray(entities, dtype=np.float64),
        relation_vecs=np.asarray(relations, dtype=np.float64),
    )


def test_transe_perfect_translation():
    table = _table([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]])
    assert score(table, ScorerKind.TRANSE, (0, 0, 1)) == 0.0


def test_transe_distance():
    table = _table([[0.0, 0.0], [3.0, 4.0]], [[0.0, 0.0]])
    assert score(table, ScorerKind.TRANSE, (0, 0, 1)) == -5.0


def test_distmult_product():
    table = _table([[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0]])
    assert score(table, ScorerKind.DISTMULT, (0, 0, 1)) == 4.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_distmult_symmetric_in_head_tail(seed):
    table = init_embeddings(6, 3, 5, seed=seed)
    rng = np.random.default_rng(seed)
    h, t = rng.integers(0, 6, size=2)
    r = int(rng.integers(0, 3))
    assert score(table, ScorerKind.DISTMULT, (int(h), r, int(t))) == pytest.approx(
        score(table, ScorerKind.DISTMULT, (int(t), r, int(h)))
    )


def test_checkpoint_round_trip(tmp_path):
    table = init_embeddings(12, 5, 6, seed=3)
    path = tmp_path / "model.syme"
    save_checkpoint(table, ScorerKind.DISTMULT, path)
    loaded, kind = load_checkpoint(path)
    assert kind is ScorerKind.DISTMULT
    # storage is float32, so the round trip matches the float32 cast exactly
    assert np.array_equal(loaded.entity_vecs, table.entity_vecs.astype(np.float32))
    assert np.array_equal(loaded.relation_vecs, table.relation_vecs.astype(np.float32))


# SHA-256 of the SYME version 1 file of init_embeddings(5, 2, 3, seed=0) under
# TransE, recorded when the init table began to be drawn in float32; SYME keeps
# its bytes while its version stays 1 and the draw stays the same.
GOLDEN_SYME_SHA256 = "27f15f6d13eff321c3e063ef689b43c704b13ad8301902b6c34a593722cb4eab"


def test_checkpoint_bytes_unchanged(tmp_path):
    path = tmp_path / "model.syme"
    save_checkpoint(init_embeddings(5, 2, 3, seed=0), ScorerKind.TRANSE, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SYME_SHA256


def test_checkpoint_rejects_corruption(tmp_path):
    table = init_embeddings(4, 2, 3, seed=1)
    path = tmp_path / "model.syme"
    save_checkpoint(table, ScorerKind.TRANSE, path)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0x01
    (tmp_path / "bad.syme").write_bytes(bytes(blob))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(tmp_path / "bad.syme")
    (tmp_path / "cut.syme").write_bytes(bytes(blob[:20]))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(tmp_path / "cut.syme")
