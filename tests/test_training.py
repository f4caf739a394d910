"""Training loop behavior: determinism, progress, failure modes."""

import dataclasses
import hashlib

import numpy as np
import pytest

from symkge.config import MARGIN_RANKING, TrainConfig
from symkge.errors import DataError, KMismatchError, NonFiniteLossError
from symkge.evaluation import evaluate_split
from symkge.graph import intern_graph, known_keys, triple_array, triple_keys
from symkge.mining import mine_positive_dict
from symkge.model import ScorerKind, init_embeddings, load_checkpoint, save_checkpoint
from symkge import mining, training
from symkge.training import Adam, sample_negatives, train

from conftest import planted_kg_triples, random_graph
from oracles import row_sparse


def _toy_cfg(**overrides) -> TrainConfig:
    base = dict(
        k=1, m=5, alpha=0.001, dim=8, lr=1e-2, epochs=5, batch_size=8,
        n_negatives=2, seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def test_zero_lr_leaves_table_at_init():
    graph, _ = random_graph(1, 12, 20, 3)
    cfg = _toy_cfg(lr=0.0, epochs=1)
    result = train(graph, None, cfg)
    init = init_embeddings(graph.entity_count, graph.relation_count, cfg.dim, cfg.seed)
    assert np.array_equal(result.table.entity_vecs, init.entity_vecs)
    assert np.array_equal(result.table.relation_vecs, init.relation_vecs)


def test_loss_decreases_on_toy_graph():
    graph, _ = random_graph(2, 12, 20, 3)
    pos, _ = mine_positive_dict(graph, 1)
    cfg = _toy_cfg(epochs=200)
    result = train(graph, pos, cfg)
    assert result.epoch_log[-1].total < result.epoch_log[0].total


def test_training_is_bit_reproducible():
    graph, _ = random_graph(4, 14, 30, 4)
    pos, _ = mine_positive_dict(graph, 1)
    cfg = _toy_cfg(epochs=4)
    first = train(graph, pos, cfg)
    second = train(graph, pos, cfg)
    assert first.epoch_log == second.epoch_log
    assert np.array_equal(first.table.entity_vecs, second.table.entity_vecs)
    assert np.array_equal(first.table.relation_vecs, second.table.relation_vecs)


def test_seed_changes_trajectory():
    graph, _ = random_graph(4, 14, 30, 4)
    a = train(graph, None, _toy_cfg(epochs=2, seed=1))
    b = train(graph, None, _toy_cfg(epochs=2, seed=2))
    assert a.epoch_log != b.epoch_log


def test_epoch_log_additivity():
    graph, _ = random_graph(5, 12, 25, 3)
    pos, _ = mine_positive_dict(graph, 1)
    cfg = _toy_cfg(epochs=3, alpha=0.01)
    result = train(graph, pos, cfg)
    for entry in result.epoch_log:
        assert entry.total == entry.task + cfg.alpha * entry.contrastive


def test_non_finite_loss_aborts_with_location():
    graph, _ = random_graph(6, 10, 40, 3)
    cfg = _toy_cfg(lr=1e200, epochs=3, batch_size=4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLossError) as exc_info:
        train(graph, None, cfg)
    assert exc_info.value.epoch is not None
    assert exc_info.value.batch_index is not None


def test_hop_bound_mismatch_rejected_before_training(monkeypatch):
    graph, _ = random_graph(11, 10, 20, 2)
    pos, _ = mine_positive_dict(graph, 1)

    def unreachable(*args):
        raise AssertionError("drew positives or stepped before checking the hop bound")

    monkeypatch.setattr(training, "draw_epoch", unreachable)
    monkeypatch.setattr(training.Adam, "step", unreachable)
    with pytest.raises(KMismatchError):
        train(graph, pos, _toy_cfg(k=2, epochs=1))


def test_positives_are_hashed_once_per_block_per_epoch(monkeypatch):
    """train() draws the epoch's positives block by block before its batches, so
    no batch hashes a target: each batch only reads rows of at most m ids."""
    graph, _ = random_graph(12, 16, 70, 2)
    pos, _ = mine_positive_dict(graph, 1)
    cfg = _toy_cfg(m=2, epochs=3, batch_size=8)
    monkeypatch.setattr(mining, "_DRAW_BLOCK", 12)
    blocks = list(mining._anchor_blocks(pos.indptr))
    sizes = np.diff(pos.indptr)
    hashed_blocks = sum(int(sizes[lo:hi].max() > cfg.m) for lo, hi in blocks)
    assert len(blocks) > 2 and hashed_blocks > 2

    mixes = [0]
    mix = mining._mix

    def counted(z):
        mixes[0] += 1
        return mix(z)

    monkeypatch.setattr(mining, "_mix", counted)
    mining.sample_positives(pos, [int(sizes.argmax())], cfg.m, cfg.seed)
    per_draw, mixes[0] = mixes[0], 0
    batches = [0]
    step = training.combined_gradients

    def batch_without_hashing(*args):
        before = mixes[0]
        out = step(*args)
        assert mixes[0] == before, "a batch hashed its positives"
        batches[0] += 1
        return out

    monkeypatch.setattr(training, "combined_gradients", batch_without_hashing)
    train(graph, pos, cfg)
    assert batches[0] == cfg.epochs * -(-len(graph.triples) // cfg.batch_size)
    assert mixes[0] == cfg.epochs * hashed_blocks * per_draw


def test_renormalize_flag_keeps_unit_entities():
    graph, _ = random_graph(7, 10, 20, 2)
    cfg = _toy_cfg(epochs=2, renormalize=True)
    result = train(graph, None, cfg)
    norms = np.linalg.norm(result.table.entity_vecs, axis=1)
    assert np.allclose(norms, 1.0)


def test_trained_table_is_finite():
    graph, _ = random_graph(8, 15, 40, 4)
    pos, _ = mine_positive_dict(graph, 2)
    cfg = _toy_cfg(epochs=10, k=2, scorer=ScorerKind.DISTMULT, task_loss="")
    result = train(graph, pos, cfg)
    assert result.table.all_finite()


def _index(keys):
    """The key arrays train() gives the negative sampler: keys and shifted."""
    return keys, keys - np.arange(len(keys))


def _keys(triples, graph):
    """Known keys of the triples, with their shifted copy."""
    return _index(known_keys(triple_array(triples), graph.entity_count, graph.relation_count))


def test_negative_sampler_avoids_known_triples():
    graph, _ = random_graph(9, 8, 30, 2)
    known = {(int(h), int(r), int(t)) for h, r, t in graph.triples}
    batch = np.asarray(graph.triples[:10], dtype=np.int64)
    rng = np.random.default_rng(0)
    negatives = sample_negatives(rng, batch, 4, graph.entity_count, graph.relation_count,
                                 *_keys(graph.triples, graph))
    assert negatives.shape == (10, 4, 3)
    for i, (h, r, t) in enumerate(batch.tolist()):
        for nh, nr, nt in negatives[i].tolist():
            assert (nh, nr, nt) not in known
            assert nr == r
            assert (nh, nt) != (h, t)  # one side was corrupted
            assert nh == h or nt == t


def test_negative_sampler_deterministic():
    graph, _ = random_graph(10, 12, 25, 3)
    known = _index(np.empty(0, dtype=np.int64))
    batch = np.asarray(graph.triples[:5], dtype=np.int64)
    n_e, n_r = graph.entity_count, graph.relation_count
    a = sample_negatives(np.random.default_rng(5), batch, 3, n_e, n_r, *known)
    b = sample_negatives(np.random.default_rng(5), batch, 3, n_e, n_r, *known)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_negative_sampler_corrupts_one_side_into_an_unknown_triple(seed):
    # 12 entities and 60 triples over 2 relations: many candidates are known,
    # and every slot still has free candidates.
    graph, _ = random_graph(seed, 12, 60, 2)
    known = {(int(h), int(r), int(t)) for h, r, t in graph.triples}
    batch = np.asarray(graph.triples, dtype=np.int64)
    negatives = sample_negatives(np.random.default_rng(seed), batch, 8, graph.entity_count,
                                 graph.relation_count, *_keys(graph.triples, graph))
    heads = 0
    for (h, r, t), row in zip(batch.tolist(), negatives.tolist()):
        for nh, nr, nt in row:
            assert (nh, nr, nt) not in known
            assert nr == r
            assert (nh != h) + (nt != t) == 1
            heads += nh != h
    assert 0.4 < heads / negatives[..., 0].size < 0.6  # a fair coin picks the side


def _saturated(entity_count, free_heads, free_tails):
    """Known keys of (e, 0, 1) and (0, 0, e) for every e but the free ones, with
    their shifted copy."""
    e = np.arange(entity_count)
    heads = np.column_stack([e, 0 * e, 0 * e + 1])[~np.isin(e, free_heads)]
    tails = np.column_stack([0 * e, 0 * e, e])[~np.isin(e, free_tails)]
    return _index(known_keys(np.concatenate([heads, tails]), entity_count, 1))


@pytest.mark.parametrize("free_heads,free_tails,n_negatives", [([3], [2], 4), ([3, 7], [2, 5], 24)])
def test_negative_sampler_falls_back_to_the_free_entities(free_heads, free_tails, n_negatives):
    # With 1 or 2 free entities in 100,000, a draw over all entities almost
    # never finds one; every slot must still land on a free entity.
    n = 100_000
    batch = np.array([[0, 0, 1]])
    negatives = sample_negatives(np.random.default_rng(0), batch, n_negatives, n, 1,
                                 *_saturated(n, free_heads, free_tails))
    free = {(e, 0, 1) for e in free_heads} | {(0, 0, e) for e in free_tails}
    assert {tuple(row) for row in negatives[0].tolist()} == free  # each free entity drawn


def test_negative_sampler_keeps_a_known_triple_when_no_entity_is_free():
    n = 6
    negatives = sample_negatives(np.random.default_rng(1), np.array([[0, 0, 1]]), 8, n, 1,
                                 *_saturated(n, [], []))
    known = {(e, 0, 1) for e in range(n)} | {(0, 0, e) for e in range(n)}
    assert {tuple(row) for row in negatives[0].tolist()} <= known


def test_negative_sampler_draws_uniformly_from_each_free_set():
    # 10 entities, 2 relations. The head and tail slots of (4, 0, 6) and
    # (9, 1, 0) have four free sets, and each known run holds ids 0 and 9 =
    # E - 1. Neighbouring runs are full ((3, 0, .), (8, 1, .)) or nearly empty.
    n = 10
    triples = [(4, 0, t) for t in (0, 1, 6, 9)] + [(h, 0, 6) for h in (0, 2, 4, 8, 9)]
    triples += [(3, 0, t) for t in range(n)] + [(5, 0, 0), (6, 0, 7), (7, 0, 6)]
    triples += [(9, 1, t) for t in (0, 5, 9)] + [(h, 1, 0) for h in (0, 1, 2, 3, 9)]
    triples += [(8, 1, t) for t in range(n)] + [(h, 1, 1) for h in range(n)]
    batch = np.array([[4, 0, 6], [9, 1, 0]])
    free = {(0, 0): [1, 5, 6], (0, 2): [2, 3, 4, 5, 7, 8],
            (1, 0): [4, 5, 6, 7], (1, 2): [2, 3, 4, 6, 7, 8]}  # (batch row, column)
    negatives = sample_negatives(np.random.default_rng(0), batch, 60_000, n, 2,
                                 *_index(known_keys(triple_array(triples), n, 2)))
    # Chi-square 0.999 quantiles at 2, 3 and 5 degrees of freedom.
    critical = {2: 13.82, 3: 16.27, 5: 20.52}
    for row, ((h, r, t), drawn) in enumerate(zip(batch.tolist(), negatives)):
        assert (drawn[:, 1] == r).all()
        corrupt_head = drawn[:, 0] != h
        assert (drawn[corrupt_head, 2] == t).all()
        for column, ids in ((0, drawn[corrupt_head, 0]), (2, drawn[~corrupt_head, 2])):
            cells = free[row, column]
            counts = np.bincount(ids, minlength=n)
            assert np.flatnonzero(counts).tolist() == cells
            expected = len(ids) / len(cells)
            chi_square = float(((counts[cells] - expected) ** 2 / expected).sum())
            assert chi_square < critical[len(cells) - 1], (row, column, chi_square)


def test_triple_keys_that_overflow_are_refused():
    # Keys are (r * E + h) * E + t in int64, and known_keys adds the inverse
    # relations r + R, so the largest, E^2 * 2R - 1, must fit.
    graph, _ = random_graph(40, 10, 25, 3)
    huge = dataclasses.replace(graph, entity_count=2**31)
    with pytest.raises(DataError, match="too many to key") as refused:
        train(huge, None, _toy_cfg())
    assert "\n" not in str(refused.value)
    edge = np.array([2**30 - 1])
    assert triple_keys(edge, np.array([7]), edge, 2**30) == 2**63 - 1
    with pytest.raises(DataError):
        triple_keys(edge, np.array([8]), edge, 2**30)  # 9 relations


def test_adam_moves_toward_gradient_descent_direction():
    table = init_embeddings(3, 2, 4, seed=0)
    before = table.entity_vecs.copy()
    opt = Adam(table, lr=0.1)
    grad_entity = np.zeros_like(table.entity_vecs)
    grad_entity[0] = 1.0
    opt.step(table, row_sparse(grad_entity, np.zeros_like(table.relation_vecs), [0]))
    # first Adam step with constant gradient is -lr * g / (|g| + eps) elementwise
    assert np.allclose(table.entity_vecs[0], before[0] - 0.1, atol=1e-6)
    assert np.array_equal(table.entity_vecs[1:], before[1:])


def test_adam_in_place_matches_reference_formula():
    table = init_embeddings(7, 3, 5, seed=1)
    params = [table.entity_vecs.copy(), table.relation_vecs.copy()]
    moments = [[np.zeros_like(p), np.zeros_like(p)] for p in params]
    opt = Adam(table, lr=0.05)
    rng = np.random.default_rng(2)
    for t in range(1, 10):
        grads = (rng.normal(size=(7, 5)), rng.normal(size=(3, 5)))
        grads[0][::2] = 0.0
        opt.step(table, row_sparse(*grads, entity_rows=[1, 3, 5]))
        bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        for p, (m, v), g in zip(params, moments, grads):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= 0.05 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    assert np.array_equal(table.entity_vecs, params[0])
    assert np.array_equal(table.relation_vecs, params[1])
    state = [(opt.m_e, opt.v_e), (opt.m_r, opt.v_r)]
    for (m, v), (ref_m, ref_v) in zip(state, moments):
        assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)


def test_adam_on_float32_table_keeps_float32_state():
    """Float64 gradient rows are rounded once into the buffer; the rest is the
    reference formula in float32 arithmetic."""
    table = init_embeddings(7, 3, 5, seed=1).astype(np.float32)
    params = [table.entity_vecs.copy(), table.relation_vecs.copy()]
    moments = [[np.zeros_like(p), np.zeros_like(p)] for p in params]
    opt = Adam(table, lr=0.05)
    rng = np.random.default_rng(2)
    for t in range(1, 6):
        grads = (rng.normal(size=(7, 5)), rng.normal(size=(3, 5)))
        grads[0][::2] = 0.0
        opt.step(table, row_sparse(*grads, entity_rows=[1, 3, 5]))
        bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        for p, (m, v), g in zip(params, moments, grads):
            g = g.astype(np.float32)
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= 0.05 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    state = (table.entity_vecs, table.relation_vecs, opt.m_e, opt.v_e, opt.m_r, opt.v_r)
    assert all(a.dtype == np.float32 for a in state)
    assert table.entity_vecs.tobytes() == params[0].tobytes()
    assert table.relation_vecs.tobytes() == params[1].tobytes()
    for (m, v), (ref_m, ref_v) in zip([(opt.m_e, opt.v_e), (opt.m_r, opt.v_r)], moments):
        assert m.tobytes() == ref_m.tobytes() and v.tobytes() == ref_v.tobytes()


def test_init_and_trained_tables_hold_float32_values():
    """train() runs on float32 state and returns its exact float64 widening."""
    graph, _ = random_graph(4, 14, 30, 4)
    pos, _ = mine_positive_dict(graph, 1)
    cfg = _toy_cfg(epochs=2)
    init = init_embeddings(graph.entity_count, graph.relation_count, cfg.dim, cfg.seed)
    trained = train(graph, pos, cfg).table
    assert not np.array_equal(init.entity_vecs, trained.entity_vecs)
    for vecs in (init.entity_vecs, init.relation_vecs, trained.entity_vecs,
                 trained.relation_vecs):
        assert vecs.dtype == np.float64
        assert np.array_equal(vecs.astype(np.float32).astype(np.float64), vecs)


def test_trained_table_survives_a_checkpoint_round_trip(tmp_path):
    """SYME stores float32, so eval --ckpt ranks the table experiment ranked."""
    graph, _ = random_graph(4, 14, 30, 4)
    pos, _ = mine_positive_dict(graph, 1)
    cfg = _toy_cfg(epochs=3)
    trained = train(graph, pos, cfg).table
    path = tmp_path / "model.syme"
    save_checkpoint(trained, cfg.scorer, path)
    loaded, kind = load_checkpoint(path)
    assert np.array_equal(loaded.entity_vecs, trained.entity_vecs)
    assert np.array_equal(loaded.relation_vecs, trained.relation_vecs)
    split = graph.triples[:10]
    assert (evaluate_split(loaded, kind, split, graph.triples)
            == evaluate_split(trained, cfg.scorer, split, graph.triples))


def test_blocked_adam_matches_dense_formula_bits(monkeypatch):
    """Blocks of two rows, row-sparse gradients: the bits of one dense pass.

    Entity 2's first moment decays from a tiny negative gradient into the
    negative subnormals, and a relation parameter is exactly -0.0.
    tobytes() compares signs of zeros.
    """
    monkeypatch.setattr(training, "_ADAM_BLOCK_FLOATS", 2 * 4)
    table = init_embeddings(7, 3, 4, seed=6)
    table.relation_vecs[1, 2] = -0.0
    params = [table.entity_vecs.copy(), table.relation_vecs.copy()]
    moments = [[np.zeros_like(p), np.zeros_like(p)] for p in params]
    opt = Adam(table, lr=0.05)
    rng = np.random.default_rng(4)
    for t in range(1, 121):
        grads = [np.zeros((7, 4)), np.zeros((3, 4))]
        entity_rows = [2] if t == 1 else sorted(rng.choice([0, 1, 3, 4, 5, 6], 2, replace=False))
        grads[0][entity_rows] = rng.normal(size=(len(entity_rows), 4))
        if t == 1:
            grads[0][2] = -1e-305
        grads[1][0] = rng.normal(size=4)
        opt.step(table, row_sparse(*grads, entity_rows=entity_rows, relation_rows=[0]))
        bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        for p, (m, v), g in zip(params, moments, grads):
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * g * g
            p -= 0.05 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
    assert -np.finfo(np.float64).tiny < opt.m_e[2, 0] < 0.0
    assert np.signbit(table.relation_vecs[1, 2])
    assert table.entity_vecs.tobytes() == params[0].tobytes()
    assert table.relation_vecs.tobytes() == params[1].tobytes()
    state = [(opt.m_e, opt.v_e), (opt.m_r, opt.v_r)]
    for (m, v), (ref_m, ref_v) in zip(state, moments):
        assert m.tobytes() == ref_m.tobytes() and v.tobytes() == ref_v.tobytes()


# Recorded when the init table began to be drawn in float32, negatives began
# to be scored against their positive's shared query, and the alignment's rows
# joined the task's one scatter. A change that alters trajectories on purpose
# re-records it and says so in CHANGES.md.
GOLDEN_TRAJECTORY_SHA256 = "bd68732abcf2c998c14e3b49fb77ab3a16510b2a24fb33627606f8ac0470673e"


def test_golden_trajectory():
    """Epoch log and final table bits of a fixed run with alignment.

    TransE with margin ranking uses only + - * / sqrt and pairwise sums, all
    correctly rounded, so its bits should not depend on SIMD code paths. m=12
    over rows of 0 and 11 to 15 targets gives anchors with no, fewer than m,
    m and more than m targets.
    """
    triples = planted_kg_triples(seed=5, n_pivots=4, members_per_pivot=12, n_noise=60)
    graph, _ = intern_graph(triples)
    pos, _ = mine_positive_dict(graph, 1)
    cfg = TrainConfig(k=1, m=12, alpha=0.5, dim=8, lr=0.01, epochs=3, batch_size=32,
                      n_negatives=2, seed=3, scorer=ScorerKind.TRANSE, task_loss=MARGIN_RANKING)
    result = train(graph, pos, cfg)
    digest = hashlib.sha256()
    for e in result.epoch_log:
        digest.update(f"{e.task.hex()} {e.contrastive.hex()} {e.total.hex()}\n".encode())
    digest.update(result.table.entity_vecs.tobytes())
    digest.update(result.table.relation_vecs.tobytes())
    assert digest.hexdigest() == GOLDEN_TRAJECTORY_SHA256
