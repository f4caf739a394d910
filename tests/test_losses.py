"""Loss values against hand-derived numbers and gradients against finite differences."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkge import losses
from symkge.config import BINARY_CROSS_ENTROPY, MARGIN_RANKING, TrainConfig
from symkge.errors import DataError, DegenerateVectorError, DimMismatchError, UnknownEntityError
from symkge.losses import (
    _contrastive_forward_backward,
    _task_forward_backward,
    combined_gradients,
    task_loss,
)
from symkge.mining import sample_positives
from symkge.model import SCORERS, EmbeddingTable, ScorerKind, init_embeddings

from conftest import positive_dict
from oracles import (
    contrastive_forward_backward_loop,
    contrastive_forward_backward_per_count,
    contrastive_loss,
    contrastive_loss_cosine_form,
    dense_gradients,
    task_forward_backward_dense,
)


def _dict_of(targets, k=2):
    return positive_dict(targets, k)


# ---------------------------------------------------------------------------
# alignment loss
# ---------------------------------------------------------------------------


def test_identical_vectors_zero():
    v = np.array([0.3, -1.2, 4.0])
    assert contrastive_loss(v, [v]) == pytest.approx(0.0, abs=1e-12)


def test_orthogonal_unit_vectors():
    assert contrastive_loss(np.array([1.0, 0.0]), [np.array([0.0, 1.0])]) == pytest.approx(2.0)


def test_antipodal_mean():
    anchor = np.array([1.0, 0.0])
    positives = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
    assert contrastive_loss(anchor, positives) == pytest.approx(2.0)  # mean of 0 and 4


def test_empty_positives():
    assert contrastive_loss(np.array([1.0, 0.0]), []) == 0.0


def test_degenerate_vector_rejected():
    with pytest.raises(DegenerateVectorError):
        contrastive_loss(np.zeros(3), [np.ones(3)])
    with pytest.raises(DegenerateVectorError):
        contrastive_loss(np.ones(3), [np.zeros(3)])


def test_positives_of_another_length_are_refused():
    with pytest.raises(DimMismatchError, match=r"anchor of shape \(3,\) against positives of "
                                               r"dimension 2") as err:
        contrastive_loss(np.ones(3), [np.ones(2), np.ones(2)])
    assert "\n" not in str(err.value)


def test_positives_of_more_than_two_dimensions_are_refused():
    with pytest.raises(DimMismatchError, match=r"positives of shape \(2, 1, 3\)") as err:
        contrastive_loss(np.ones(3), np.ones((2, 1, 3)))
    assert "\n" not in str(err.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(2, 8))
def test_two_forms_agree_and_bounded(seed, n_pos, dim):
    rng = np.random.default_rng(seed)
    anchor = rng.normal(size=dim)
    positives = rng.normal(size=(n_pos, dim))
    if np.linalg.norm(anchor) < 1e-6 or np.any(np.linalg.norm(positives, axis=1) < 1e-6):
        return
    mse_form = contrastive_loss(anchor, positives)
    cos_form = contrastive_loss_cosine_form(anchor, positives)
    assert mse_form == pytest.approx(cos_form, abs=1e-6)
    assert 0.0 <= mse_form <= 4.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_scale_invariance(seed):
    rng = np.random.default_rng(seed)
    anchor = rng.normal(size=5)
    positives = rng.normal(size=(3, 5))
    if np.linalg.norm(anchor) < 1e-6 or np.any(np.linalg.norm(positives, axis=1) < 1e-6):
        return
    scales = rng.uniform(0.1, 50.0, size=3)
    base = contrastive_loss(anchor, positives)
    scaled = contrastive_loss(anchor * rng.uniform(0.1, 50.0), positives * scales[:, None])
    assert scaled == pytest.approx(base, abs=1e-6)


def test_zero_only_for_aligned_positives():
    anchor = np.array([2.0, 1.0])
    assert contrastive_loss(anchor, [anchor * 3.5, anchor * 0.01]) == pytest.approx(0.0, abs=1e-12)
    assert contrastive_loss(anchor, [anchor, np.array([1.0, 2.0])]) > 1e-3


# ---------------------------------------------------------------------------
# task loss (DistMult with d=1 makes scores easy to stage)
# ---------------------------------------------------------------------------


def _staged_table():
    # score(0, 0, i) equals the value of entity i
    return EmbeddingTable(
        entity_vecs=np.array([[1.0], [5.0], [1.0], [0.0]]),
        relation_vecs=np.array([[1.0]]),
    )


def test_margin_satisfied():
    cfg = TrainConfig(task_loss=MARGIN_RANKING, margin=1.0, dim=1)
    batch = np.array([[0, 0, 1]])  # score 5
    negatives = np.array([[[0, 0, 2]]])  # score 1
    assert task_loss(_staged_table(), ScorerKind.DISTMULT, batch, negatives, cfg) == 0.0


def test_margin_tied_scores():
    cfg = TrainConfig(task_loss=MARGIN_RANKING, margin=1.0, dim=1)
    batch = np.array([[0, 0, 1]])
    negatives = np.array([[[0, 0, 1]]])
    assert task_loss(_staged_table(), ScorerKind.DISTMULT, batch, negatives, cfg) == 1.0


def test_bce_at_zero_scores():
    cfg = TrainConfig(task_loss=BINARY_CROSS_ENTROPY, dim=1)
    batch = np.array([[0, 0, 3]])  # score 0
    negatives = np.array([[[0, 0, 3]]])
    value = task_loss(_staged_table(), ScorerKind.DISTMULT, batch, negatives, cfg)
    assert value == pytest.approx(2.0 * np.log(2.0))


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------


def _small_setup(seed=0, alpha=0.001, task=MARGIN_RANKING, kind=ScorerKind.TRANSE):
    cfg = TrainConfig(
        k=2, m=3, alpha=alpha, dim=8, epochs=1, batch_size=4, n_negatives=3,
        seed=seed, scorer=kind, task_loss=task,
    )
    table = init_embeddings(10, 3, cfg.dim, seed=seed)
    rng = np.random.default_rng(seed + 1)
    batch = np.stack(
        [rng.integers(0, 10, 4), rng.integers(0, 3, 4), rng.integers(0, 10, 4)], axis=1
    ).astype(np.int64)
    negatives = np.stack(
        [
            rng.integers(0, 10, (4, 3)),
            np.repeat(batch[:, 1][:, None], 3, axis=1),
            rng.integers(0, 10, (4, 3)),
        ],
        axis=2,
    ).astype(np.int64)
    pos_dict = _dict_of(
        [{1, 2}, {0, 2}, {0, 1}, {4}, {3}, set(), {7}, {6}, {9}, {8}], k=2
    )
    return table, cfg, batch, negatives, pos_dict


def test_alpha_zero_total_is_task():
    table, cfg, batch, negatives, pos_dict = _small_setup(alpha=0.0)
    breakdown = combined_gradients(table, cfg.scorer, batch, negatives, pos_dict, cfg)[0]
    assert breakdown.total == breakdown.task
    assert breakdown.contrastive > 0.0


def test_empty_dict_contrastive_zero():
    table, cfg, batch, negatives, _ = _small_setup(alpha=0.5)
    empty = _dict_of([set()] * 10, k=2)
    breakdown = combined_gradients(table, cfg.scorer, batch, negatives, empty, cfg)[0]
    assert breakdown.contrastive == 0.0
    assert breakdown.total == breakdown.task
    no_dict = combined_gradients(table, cfg.scorer, batch, negatives, None, cfg)[0]
    assert no_dict == breakdown


def test_breakdown_additivity():
    table, cfg, batch, negatives, pos_dict = _small_setup(alpha=0.001)
    b = combined_gradients(table, cfg.scorer, batch, negatives, pos_dict, cfg)[0]
    assert b.total == b.task + cfg.alpha * b.contrastive
    assert 0.0 <= b.contrastive <= 4.0


def test_combined_loss_matches_straight_line_recompute():
    """Independent elementwise reimplementation of the objective."""
    table, cfg, batch, negatives, pos_dict = _small_setup(alpha=0.001)
    breakdown = combined_gradients(table, cfg.scorer, batch, negatives, pos_dict, cfg, epoch=4)[0]

    def transe(h, r, t):
        d = table.entity_vecs[h] + table.relation_vecs[r] - table.entity_vecs[t]
        return -float(np.sqrt((d * d).sum()))

    hinge_terms = []
    for (h, r, t), negs in zip(batch.tolist(), negatives.tolist()):
        sp = transe(h, r, t)
        for nh, nr, nt in negs:
            hinge_terms.append(max(0.0, cfg.margin - sp + transe(nh, nr, nt)))
    expected_task = sum(hinge_terms) / len(hinge_terms)

    anchor_terms = []
    for anchor in [row[0] for row in batch.tolist()] + [row[2] for row in batch.tolist()]:
        chosen = sample_positives(pos_dict, [anchor], cfg.m, cfg.seed, 4)[1].tolist()
        if not chosen:
            continue
        a = table.entity_vecs[anchor]
        a = a / np.linalg.norm(a)
        terms = []
        for p in chosen:
            v = table.entity_vecs[p]
            v = v / np.linalg.norm(v)
            terms.append(float(((a - v) ** 2).sum()))
        anchor_terms.append(sum(terms) / len(terms))
    expected_contr = sum(anchor_terms) / len(anchor_terms)

    assert breakdown.task == pytest.approx(expected_task, rel=1e-12)
    assert breakdown.contrastive == pytest.approx(expected_contr, rel=1e-12)
    assert breakdown.total == pytest.approx(expected_task + cfg.alpha * expected_contr, rel=1e-12)


def test_combined_loss_deterministic_per_epoch():
    table, cfg, batch, negatives, _ = _small_setup()
    # entity 4 anchors the batch and has more positives than m, so per-epoch
    # resampling actually matters
    assert 4 in set(batch[:, 0].tolist()) | set(batch[:, 2].tolist())
    targets = [{4}] * 10
    targets[4] = set(range(10)) - {4}
    pos_dict = _dict_of(targets, k=2)
    a = combined_gradients(table, cfg.scorer, batch, negatives, pos_dict, cfg, epoch=2)[0]
    b = combined_gradients(table, cfg.scorer, batch, negatives, pos_dict, cfg, epoch=2)[0]
    c = combined_gradients(table, cfg.scorer, batch, negatives, pos_dict, cfg, epoch=3)[0]
    assert a == b
    assert a != c  # resampled positives move the contrastive term


@pytest.mark.parametrize("m", [3, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("chunked", [False, True])
def test_batched_alignment_equals_per_anchor_loop(m, seed, chunked, monkeypatch):
    """Same loss and gradient bits as one anchor occurrence at a time."""
    rng = np.random.default_rng(seed)
    n, dim = 40, 16
    if chunked:  # a few occurrences per dense block, so the batch spans many
        monkeypatch.setattr(losses, "_ALIGN_BLOCK_FLOATS", 7 * (1 + m) * dim)
    sizes = [0, 1, 2, 3, 5, 8, 9, 10, 12, 20]
    targets = [
        set(rng.choice(np.delete(np.arange(n), e), sizes[e % len(sizes)], replace=False).tolist())
        for e in range(n)
    ]
    pos_dict = _dict_of(targets, k=1)
    cfg = TrainConfig(k=1, m=m, alpha=0.37, dim=dim, seed=seed)
    table = init_embeddings(n, 1, dim, seed=seed)
    anchors = rng.integers(0, n, 96)
    sizes_hit = {len(targets[a]) for a in anchors.tolist()}
    assert len(set(anchors.tolist())) < len(anchors)  # repeated anchors
    assert 0 in sizes_hit and min(sizes_hit - {0}) < m < max(sizes_hit)
    assert len({min(size, m) for size in sizes_hit} - {0}) >= 2  # several positive counts

    base = rng.normal(size=(n, dim))
    base[::3] = 0.0
    grad = base.copy()
    value, (rows, values) = _contrastive_forward_backward(table, anchors, pos_dict, cfg, 5)
    grad[rows] += values
    reference = np.zeros_like(base)
    assert value == contrastive_forward_backward_loop(table, anchors, pos_dict, cfg, 5, reference)
    assert np.array_equal(grad, base + cfg.alpha * reference)

    empty_only = anchors[[len(targets[a]) == 0 for a in anchors.tolist()]]
    assert _contrastive_forward_backward(table, empty_only, pos_dict, cfg, 5) == (0.0, None)


def _alignment_battery(seed, n, dim, dtype):
    """Rows of every size around m, a table with +-0.0 coordinates (column 0 is
    -0.0 everywhere, column 1 +0.0) and some antipodal or repeated rows."""
    rng = np.random.default_rng(seed)
    sizes = list(range(14)) + [20]
    targets = [
        set(rng.choice(np.delete(np.arange(n), e), sizes[e % len(sizes)], replace=False).tolist())
        for e in range(n)
    ]
    vecs = rng.normal(size=(n, dim))
    vecs[rng.random((n, dim)) < 0.2] = 0.0
    vecs[rng.random((n, dim)) < 0.2] *= -1.0
    vecs[:, 0], vecs[:, 1] = -0.0, 0.0
    vecs[1::7] = -vecs[::7][: len(vecs[1::7])]
    vecs[2::7] = vecs[::7][: len(vecs[2::7])] * 3.0
    vecs[(vecs == 0.0).all(axis=1), 2] = 1.0
    return _dict_of(targets, k=1), EmbeddingTable(vecs.astype(dtype), np.ones((1, dim), dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("m", [3, 10, 12])
@pytest.mark.parametrize("block_anchors", [None, 1, 7])
def test_alignment_bytes_equal_the_per_count_kernel(dtype, m, block_anchors, monkeypatch):
    """Value, rows and gradients byte for byte against one kernel per positive count.

    m = 12 takes NumPy's unrolled pairwise path in the mean; tobytes() sees the
    float32 rounding of each weight and the signs of zeros.
    """
    n, dim = 150, 6
    if block_anchors is not None:
        monkeypatch.setattr(losses, "_ALIGN_BLOCK_FLOATS", block_anchors * (1 + m) * dim)
    pos_dict, table = _alignment_battery(m, n, dim, dtype)
    cfg = TrainConfig(k=1, m=m, alpha=0.37, dim=dim, seed=m)
    anchors = np.random.default_rng(m).integers(0, n, 400)
    counts = sample_positives(pos_dict, np.unique(anchors), m, cfg.seed, 4)[0]
    assert len(np.unique(anchors)) < len(anchors) and 0 in counts  # repeats, no positives
    assert len(np.unique(counts)) >= 4
    value, (rows, compact) = _contrastive_forward_backward(table, anchors, pos_dict, cfg, 4)
    expected, (oracle_rows, oracle_compact) = contrastive_forward_backward_per_count(
        table, anchors, pos_dict, cfg, 4
    )
    assert type(value) is float and np.float64(value).tobytes() == np.float64(expected).tobytes()
    assert rows.tobytes() == oracle_rows.tobytes()
    assert compact.dtype == dtype and compact.tobytes() == oracle_compact.tobytes()


def test_alignment_temporaries_stay_within_the_block(monkeypatch):
    """Every kernel call of a many-anchor batch allocates a few blocks at most."""
    n, dim, m, block = 3000, 16, 10, 1 << 12
    monkeypatch.setattr(losses, "_ALIGN_BLOCK_FLOATS", block)
    rng = np.random.default_rng(0)
    pos_dict = _dict_of([set(rng.choice(n, m, replace=False).tolist()) - {e}
                         for e in range(n)], k=1)
    table = init_embeddings(n, 1, dim, seed=0)
    cfg = TrainConfig(k=1, m=m, alpha=0.5, dim=dim)
    kernel, peaks = losses._alignment, []

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = kernel(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(losses, "_alignment", traced)
    tracemalloc.start()
    try:
        _contrastive_forward_backward(table, np.arange(n), pos_dict, cfg, 0)
    finally:
        tracemalloc.stop()
    assert len(peaks) >= n * (1 + m) * dim // block  # one block after another
    assert max(peaks) <= 10 * block * table.entity_vecs.itemsize  # 747 blocks unblocked


@pytest.mark.parametrize("n_pos", [1, 2, 7])
@pytest.mark.parametrize("extra_m", [0, 3])
def test_contrastive_loss_equals_one_anchor_training_term(n_pos, extra_m):
    """The public loss and the training step's term share one formula, bit for bit."""
    rng = np.random.default_rng(n_pos + 10 * extra_m)
    vecs = rng.normal(size=(1 + n_pos, 5)) * rng.uniform(0.01, 30.0, size=(1 + n_pos, 1))
    table = EmbeddingTable(vecs, np.ones((1, 5)))
    # Anchor 0 holds every other entity, so the draw takes them all, ascending.
    pos_dict = _dict_of([set(range(1, 1 + n_pos))] + [set()] * n_pos, k=1)
    cfg = TrainConfig(k=1, m=n_pos + extra_m, dim=5)
    value, _ = _contrastive_forward_backward(table, np.array([0]), pos_dict, cfg, 0)
    assert value == contrastive_loss(vecs[0], vecs[1:])
    assert type(value) is float


@pytest.mark.parametrize("kind", list(ScorerKind))
@pytest.mark.parametrize("task", [MARGIN_RANKING, BINARY_CROSS_ENTROPY])
@pytest.mark.parametrize("chunked", [False, True])
def test_blocked_task_step_equals_dense_scatter(kind, task, chunked, monkeypatch):
    """Same loss and gradient bits as scoring the whole batch and np.add.at.

    tobytes() compares signs of zeros, which array_equal cannot see.
    """
    n_pos, n_neg, dim = 24, 4, 6
    if chunked:  # three positives and their negatives per block
        monkeypatch.setattr(losses, "_TASK_BLOCK_FLOATS", 3 * (1 + n_neg) * dim)
    rng = np.random.default_rng(3)
    table = init_embeddings(9, 3, dim, seed=5)  # 9 entities: rows repeat across the batch
    # Tail 1 sits exactly at head 0 translated by relation 0: zero TransE distance.
    table.entity_vecs[1] = table.entity_vecs[0] + table.relation_vecs[0]
    batch = np.stack([rng.integers(0, 9, n_pos), rng.integers(0, 3, n_pos),
                      rng.integers(0, 9, n_pos)], axis=1)
    batch[:2] = [0, 0, 1]
    negatives = np.repeat(batch[:, None, :], n_neg, axis=1)
    side = rng.integers(0, 2, (n_pos, n_neg)) * 2
    negatives[np.arange(n_pos)[:, None], np.arange(n_neg), side] = rng.integers(0, 9, (n_pos, n_neg))
    negatives[5, 0] = [0, 0, 1]
    cfg = TrainConfig(k=1, dim=dim, margin=0.3, scorer=kind, task_loss=task)

    value, grads = _task_forward_backward(table, kind, batch, negatives, cfg)
    ref_value, ref_entity, ref_relation = task_forward_backward_dense(
        table, kind, batch, negatives, cfg
    )
    assert value == ref_value
    entity, relation = dense_gradients(grads, table)
    assert entity.tobytes() == ref_entity.tobytes()
    assert relation.tobytes() == ref_relation.tobytes()
    touched = np.concatenate([batch[:, [0, 2]].ravel(), negatives[:, :, [0, 2]].ravel()])
    assert np.array_equal(grads.entity_rows, np.unique(touched))
    if task == MARGIN_RANKING:  # inactive hinges, whose partials are skipped, and active ones
        scores = SCORERS[kind].score(table.entity_vecs[negatives[..., 0]],
                                     table.relation_vecs[negatives[..., 1]],
                                     table.entity_vecs[negatives[..., 2]])
        own = SCORERS[kind].score(table.entity_vecs[batch[:, 0]],
                                  table.relation_vecs[batch[:, 1]], table.entity_vecs[batch[:, 2]])
        hinge = cfg.margin - own[:, None] + scores
        assert (hinge > 0.0).any() and (hinge <= 0.0).any()


@pytest.mark.parametrize("where", ["batch", "negatives"])
@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("outside", ["negative", "past the table"])
def test_ids_outside_the_table_are_refused(where, column, outside):
    """A negative id used to train silently on a row keyed -1; one past the end
    raised NumPy's IndexError."""
    table, cfg, batch, negatives, pos_dict = _small_setup()
    triples = {"batch": batch, "negatives": negatives.reshape(-1, 3)}[where]
    triples[2, column] = -1 if outside == "negative" else (10, 3, 10)[column]
    bad = tuple(triples[2].tolist())
    message = re.escape(f"triple {bad} is outside the table's 10 entities and 3 relations")
    for dictionary in (None, pos_dict):
        with pytest.raises(UnknownEntityError, match=message) as err:
            combined_gradients(table, cfg.scorer, batch, negatives, dictionary, cfg)
        assert "\n" not in str(err.value)


def test_dictionary_over_more_entities_than_the_table_is_refused():
    """Anchor 0's target 8 is past a 5-entity table: it raised NumPy's IndexError."""
    table = init_embeddings(5, 1, 4, seed=0)
    pos_dict = _dict_of([{8}] + [set()] * 9, k=1)
    cfg = TrainConfig(k=1, dim=4)
    message = "dictionary covers 10 entities, but the table has 5"
    with pytest.raises(DataError, match=message) as err:
        combined_gradients(table, cfg.scorer, np.array([[0, 0, 1]]), np.array([[[0, 0, 2]]]),
                           pos_dict, cfg)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("kind", list(ScorerKind))
def test_gradients_without_alignment_equal_task_gradients(kind):
    table, cfg, batch, negatives, pos_dict = _small_setup(alpha=0.5, kind=kind)
    _, task_only = _task_forward_backward(table, kind, batch, negatives, cfg)
    _, no_dict = combined_gradients(table, kind, batch, negatives, None, cfg)
    breakdown, no_alpha = combined_gradients(
        table, kind, batch, negatives, pos_dict, replace(cfg, alpha=0.0)
    )
    assert breakdown.contrastive > 0.0  # still reported
    for grads in (no_dict, no_alpha):
        for field in ("entity_rows", "entity", "relation_rows", "relation"):
            assert np.array_equal(getattr(grads, field), getattr(task_only, field))


@pytest.mark.parametrize("kind", list(ScorerKind))
@pytest.mark.parametrize("alpha", [None, 0.0, 0.37])
def test_loss_views_equal_the_gradient_pass(kind, alpha):
    """A second pass and task_loss report the gradient pass's values, bit for bit."""
    table, cfg, batch, negatives, pos_dict = _small_setup(alpha=alpha or 0.0, kind=kind)
    if alpha is None:  # no dictionary
        pos_dict = None
    breakdown, _ = combined_gradients(table, kind, batch, negatives, pos_dict, cfg, 3)
    assert combined_gradients(table, kind, batch, negatives, pos_dict, cfg, 3)[0] == breakdown
    assert task_loss(table, kind, batch, negatives, cfg) == breakdown.task


# ---------------------------------------------------------------------------
# gradients vs central finite differences
# ---------------------------------------------------------------------------


def _touched_indices(batch, negatives, pos_dict, cfg, epoch):
    entities = set(batch[:, 0].tolist()) | set(batch[:, 2].tolist())
    flat = negatives.reshape(-1, 3)
    entities |= set(flat[:, 0].tolist()) | set(flat[:, 2].tolist())
    if pos_dict is not None:
        for anchor in batch[:, 0].tolist() + batch[:, 2].tolist():
            entities.add(anchor)
            _, drawn = sample_positives(pos_dict, [anchor], cfg.m, cfg.seed, epoch)
            entities.update(drawn.tolist())
    relations = set(batch[:, 1].tolist()) | set(flat[:, 1].tolist())
    return sorted(entities), sorted(relations)


def _finite_difference_check(table, cfg, batch, negatives, pos_dict, epoch=0,
                             step=1e-5, tol=1e-4):
    _, grads = combined_gradients(
        table, cfg.scorer, batch, negatives, pos_dict, cfg, epoch
    )
    grad_entity, grad_relation = dense_gradients(grads, table)

    def loss_at(t):
        return combined_gradients(t, cfg.scorer, batch, negatives, pos_dict, cfg, epoch)[0].total

    entities, relations = _touched_indices(batch, negatives, pos_dict, cfg, epoch)
    worst = 0.0
    for kind, rows in (("entity", entities), ("relation", relations)):
        vecs = table.entity_vecs if kind == "entity" else table.relation_vecs
        analytic = grad_entity if kind == "entity" else grad_relation
        for row in rows:
            for j in range(vecs.shape[1]):
                original = vecs[row, j]
                vecs[row, j] = original + step
                up = loss_at(table)
                vecs[row, j] = original - step
                down = loss_at(table)
                vecs[row, j] = original
                fd = (up - down) / (2 * step)
                err = abs(fd - analytic[row, j]) / max(abs(fd), abs(analytic[row, j]), 1e-6)
                worst = max(worst, err)
                assert err < tol, (
                    f"{kind}[{row},{j}]: analytic {analytic[row, j]:.8g} vs fd {fd:.8g}"
                )
    return worst


@pytest.mark.parametrize("kind", list(ScorerKind))
@pytest.mark.parametrize("task", [MARGIN_RANKING, BINARY_CROSS_ENTROPY])
@pytest.mark.parametrize("alpha", [0.0, 0.001, 1.0])
def test_gradients_match_finite_differences(kind, task, alpha):
    table, cfg, batch, negatives, pos_dict = _small_setup(
        seed=7, alpha=alpha, task=task, kind=kind
    )
    _finite_difference_check(table, cfg, batch, negatives, pos_dict, epoch=1)


def test_gradients_zero_when_margin_satisfied():
    # staged scores: positive 5, negative 1, margin 1 -> inactive hinge
    table = EmbeddingTable(
        entity_vecs=np.array([[1.0], [5.0], [1.0], [0.0]]),
        relation_vecs=np.array([[1.0]]),
    )
    cfg = TrainConfig(task_loss=MARGIN_RANKING, margin=1.0, dim=1, alpha=0.0,
                      scorer=ScorerKind.DISTMULT)
    batch = np.array([[0, 0, 1]])
    negatives = np.array([[[0, 0, 2]]])
    breakdown, grads = combined_gradients(
        table, ScorerKind.DISTMULT, batch, negatives, None, cfg
    )
    assert breakdown.total == 0.0
    assert not grads.entity.any()
    assert not grads.relation.any()


def test_contrastive_gradient_zero_at_alignment():
    # positive embedding identical to the anchor: loss minimum, zero gradient
    vec = np.array([0.4, -0.3, 1.1])
    table = EmbeddingTable(
        entity_vecs=np.stack([vec, vec, np.array([5.0, 0.0, 0.0])]),
        relation_vecs=np.ones((1, 3)),
    )
    cfg = TrainConfig(k=1, m=1, alpha=1.0, dim=3, task_loss=MARGIN_RANKING)
    pos_dict = _dict_of([{1}, {0}, set()], k=1)
    batch = np.array([[0, 0, 0]])
    negatives = np.array([[[2, 0, 2]]])
    _, grads = combined_gradients(table, ScorerKind.TRANSE, batch, negatives, pos_dict, cfg)
    # isolate the contrastive part: alpha=0 run removes it
    cfg0 = TrainConfig(k=1, m=1, alpha=0.0, dim=3, task_loss=MARGIN_RANKING)
    _, grads0 = combined_gradients(table, ScorerKind.TRANSE, batch, negatives, pos_dict, cfg0)
    contrastive_part = dense_gradients(grads, table)[0] - dense_gradients(grads0, table)[0]
    assert np.allclose(contrastive_part[0], 0.0, atol=1e-12)
    assert np.allclose(contrastive_part[1], 0.0, atol=1e-12)
