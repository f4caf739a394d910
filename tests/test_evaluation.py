"""Filtered ranking against exhaustive enumeration, probe behavior, t-test values."""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkge import evaluation
from symkge.errors import (
    BadValueError,
    DimMismatchError,
    EmptyDatasetError,
    InsufficientSamplesError,
    NonFiniteLossError,
    NonFiniteTableError,
    NumericError,
    SingleClassError,
    UnknownEntityError,
)
from symkge.evaluation import (
    HEAD,
    TAIL,
    ProbeConfig,
    ProbeWeights,
    classify,
    evaluate_split,
    filtered_rank,
    probe_report,
    regularized_incomplete_beta,
    students_t_test,
    train_probe,
)
from symkge.model import SCORERS, EmbeddingTable, ScorerKind, init_embeddings, score

from oracles import rank_one


def _table(entities, relations):
    return EmbeddingTable(
        entity_vecs=np.asarray(entities, dtype=np.float64),
        relation_vecs=np.asarray(relations, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# filtered ranking
# ---------------------------------------------------------------------------


def test_rank_one_when_truth_scores_highest():
    # d=1 DistMult: score(0, 0, i) is entity i's value
    table = _table([[3.0], [2.0], [1.0]], [[1.0]])
    known = {(0, 0, 1)}
    # tail candidates: e0 -> 9, e1 (truth) -> 6, e2 -> 3
    assert filtered_rank(table, ScorerKind.DISTMULT, (0, 0, 0), TAIL, {(0, 0, 0)}) == 1.0
    assert filtered_rank(table, ScorerKind.DISTMULT, (0, 0, 1), TAIL, known) == 2.0


def test_filtering_excludes_known_candidates():
    table = _table([[3.0], [2.0], [1.0]], [[1.0]])
    with_filter = filtered_rank(
        table, ScorerKind.DISTMULT, (0, 0, 1), TAIL, {(0, 0, 1), (0, 0, 0)}
    )
    assert with_filter == 1.0  # the better-scoring candidate 0 is a known truth


def test_constant_scorer_tie_rank():
    table = _table([[1.0], [1.0], [1.0]], [[0.0]])  # every score is 0
    rank = filtered_rank(table, ScorerKind.DISTMULT, (0, 0, 1), TAIL, {(0, 0, 1)})
    assert rank == 1.0 + (3 - 1) / 2.0


def test_unknown_entity_rejected():
    table = _table([[1.0], [1.0]], [[1.0]])
    with pytest.raises(UnknownEntityError):
        filtered_rank(table, ScorerKind.DISTMULT, (0, 0, 7), TAIL, set())


@pytest.mark.parametrize("known", [set(), {(0, 1, 0)}, {(7, 0, 0)}],
                         ids=["empty", "other-relation", "outside-table"])
def test_no_known_triple_on_the_query_ranks_unfiltered(known):
    # d=1 DistMult over 2 relations: tail scores of (0, 0, .) are 9, 6, 3 and
    # head scores of (., 0, 1) are 6, 4, 2, so (0, 0, 1) ranks 2 and 1.
    table = _table([[3.0], [2.0], [1.0]], [[1.0], [1.0]])
    assert filtered_rank(table, ScorerKind.DISTMULT, (0, 0, 1), TAIL, known) == 2.0
    assert filtered_rank(table, ScorerKind.DISTMULT, (0, 0, 1), HEAD, known) == 1.0
    report = evaluate_split(table, ScorerKind.DISTMULT, [(0, 0, 1)], list(known))
    assert report.mrr == 0.75 and report.n_queries == 2


@pytest.mark.parametrize("query", [(-1, 0, 1), (2, 0, 1), (0, 0, -1), (0, 0, 2),
                                   (0, -1, 1), (0, 1, 1)])
def test_split_ids_outside_table_rejected(query):
    # NumPy would wrap -1 to the last row rather than fail.
    table = _table([[1.0], [2.0]], [[1.0]])
    with pytest.raises(UnknownEntityError):
        evaluate_split(table, ScorerKind.TRANSE, [(0, 0, 1), query], {(0, 0, 1)})


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("entities", [
    [[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]],
    [[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]],
    [[0.0, 1e300], [0.0, -1e300], [1.0, 1.0]],  # finite, but distances overflow
])
def test_nonfinite_scores_rejected(entities):
    table = _table(entities, [[1.0, 0.0]])
    assert issubclass(NonFiniteTableError, NumericError)
    with pytest.raises(NonFiniteTableError):
        filtered_rank(table, ScorerKind.TRANSE, (0, 0, 1), TAIL, {(0, 0, 1)})
    with pytest.raises(NonFiniteTableError):
        evaluate_split(table, ScorerKind.TRANSE, [(0, 0, 1)], {(0, 0, 1)})


@pytest.mark.parametrize("kind", list(ScorerKind))
def test_rank_matches_exhaustive_enumeration(kind):
    """Oracle: enumerate candidate scores one by one with score()."""
    rng = np.random.default_rng(12)
    # Entities 5..8 repeat the rows of 0..3, so exact ties occur on both sides.
    distinct = rng.normal(size=(5, 4))
    table = EmbeddingTable(
        entity_vecs=distinct[[0, 1, 2, 3, 4, 0, 1, 2, 3]],
        relation_vecs=rng.normal(size=(3, 4)),
    )
    n_e = table.entity_count
    triples = {(int(h), int(r), int(t))
               for h, r, t in rng.integers(0, [n_e, 3, n_e], size=(12, 3))}
    tied_sides = set()
    for query in list(triples)[:6]:
        for side in (HEAD, TAIL):
            got = filtered_rank(table, kind, query, side, triples)
            h, r, t = query
            truth = h if side == HEAD else t
            candidates = []
            for e in range(n_e):
                candidate = (e, r, t) if side == HEAD else (h, r, e)
                if e != truth and candidate in triples:
                    continue  # filtered out
                candidates.append((e, score(table, kind, candidate)))
            s_star = dict(candidates)[truth]
            higher = sum(1 for e, s in candidates if s > s_star)
            ties = sum(1 for e, s in candidates if s == s_star and e != truth)
            if ties:
                tied_sides.add(side)
            assert got == 1.0 + higher + ties / 2.0
            assert 1.0 <= got <= len(candidates)
    assert tied_sides == {HEAD, TAIL}


def _rank_events():
    """Record, for both scorers, which of score() and bounds() runs, in order."""
    events = []

    def recording(name, fn):
        def wrapper(*args):
            events.append(name)
            return fn(*args)
        return staticmethod(wrapper)

    patches = [(cls, name, recording(name, getattr(cls, name)))
               for cls in SCORERS.values() for name in ("score", "bounds")]
    return events, patches


@st.composite
def _hard_tables(draw):
    """Small tables built to defeat a bound-only ranking.

    Row magnitudes span 1e-3..1e6; rows repeat exactly (ties on both sides)
    or within a few ulps (near-ties only a re-score can order); one relation
    may be zero, and some tails sit exactly at head + relation.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_e, n_r, dim = draw(st.integers(2, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    entities = rng.normal(size=(n_e, dim)) * 10.0 ** rng.uniform(-3, 6, size=(n_e, 1))
    relations = rng.normal(size=(n_r, dim)) * 10.0 ** rng.uniform(-3, 6, size=(n_r, 1))
    if draw(st.booleans()):
        relations[0] = 0.0
    for _ in range(draw(st.integers(0, n_e))):
        src, dst = rng.integers(0, n_e, size=2)
        kind = draw(st.sampled_from(["copy", "ulps", "translate"]))
        if kind == "copy":
            entities[dst] = entities[src]
        elif kind == "ulps":
            steps = int(rng.integers(1, 4))
            entities[dst] = entities[src]
            col = int(rng.integers(0, dim))
            for _ in range(steps):
                entities[dst, col] = np.nextafter(entities[dst, col], np.inf)
        else:
            entities[dst] = entities[src] + relations[int(rng.integers(0, n_r))]
    table = EmbeddingTable(entity_vecs=entities, relation_vecs=relations)
    known = {(int(h), int(r), int(t))
             for h, r, t in rng.integers(0, [n_e, n_r, n_e], size=(draw(st.integers(1, 12)), 3))}
    split = sorted(known)[: draw(st.integers(1, len(known)))]
    return table, split, known


@pytest.mark.parametrize("one_query_per_chunk", [False, True])
def test_batched_ranks_match_oracle(monkeypatch, one_query_per_chunk):
    if one_query_per_chunk:
        monkeypatch.setattr(evaluation, "_RANK_BLOCK_FLOATS", 1)
    events, patches = _rank_events()
    for cls, name, wrapper in patches:
        monkeypatch.setattr(cls, name, wrapper)
    rescored = []

    @settings(max_examples=150, deadline=None)
    @given(_hard_tables(), st.sampled_from(list(ScorerKind)))
    def check(case, kind):
        table, split, known = case
        triples = np.repeat(np.asarray(split, dtype=np.int64), 2, axis=0)
        corrupt_head = np.tile([True, False], len(split))
        events.clear()
        got = evaluation._filtered_ranks(table, kind, triples, corrupt_head, known)
        # A score() call right after bounds() re-scores a non-empty band.
        rescored.append(any(a == "bounds" and b == "score" for a, b in zip(events, events[1:])))
        want = []
        for h, r, t in split:
            heads = {kh for kh, kr, kt in known if (kr, kt) == (r, t)}
            tails = {kt for kh, kr, kt in known if (kh, kr) == (h, r)}
            want += [rank_one(table, kind, (h, r, t), HEAD, heads),
                     rank_one(table, kind, (h, r, t), TAIL, tails)]
        assert got.tolist() == want
        report = evaluate_split(table, kind, split, known)
        assert report.mrr == float((1.0 / np.asarray(want)).mean())

    check()
    assert any(rescored), "no example exercised the re-scored band"


@pytest.mark.parametrize("kind", list(ScorerKind))
def test_float32_table_ranks_as_its_widening(kind):
    """The bounds pad float64 rounding error, far too little for float32
    arithmetic, so a float32 table must be ranked as its float64 widening.

    Each of 40 base rows has 10 copies one float32 ulp away in one
    coordinate, so the queries' scores have near-ties on both sides.
    """
    rng = np.random.default_rng(8)
    n_base, n_copies, dim = 40, 10, 200
    base = rng.normal(size=(n_base, dim)).astype(np.float32)
    copies = np.repeat(base, n_copies, axis=0)
    column = rng.integers(0, dim, len(copies))
    rows = np.arange(len(copies))
    toward = np.where(rng.random(len(copies)) < 0.5, np.inf, -np.inf).astype(np.float32)
    copies[rows, column] = np.nextafter(copies[rows, column], toward)
    table = EmbeddingTable(np.concatenate([base, copies]),
                           rng.normal(size=(4, dim)).astype(np.float32))
    widened = EmbeddingTable(table.entity_vecs.astype(np.float64),
                             table.relation_vecs.astype(np.float64))
    split = sorted({(int(h), int(r), int(t))
                    for h, r, t in rng.integers(0, [n_base, 4, n_base], size=(60, 3))})
    triples = np.repeat(np.asarray(split, dtype=np.int64), 2, axis=0)
    corrupt_head = np.tile([True, False], len(split))
    got = evaluation._filtered_ranks(table, kind, triples, corrupt_head, split)
    want = []
    for h, r, t in split:
        heads = {kh for kh, kr, kt in split if (kr, kt) == (r, t)}
        tails = {kt for kh, kr, kt in split if (kh, kr) == (h, r)}
        want += [rank_one(widened, kind, (h, r, t), HEAD, heads),
                 rank_one(widened, kind, (h, r, t), TAIL, tails)]
    assert got.tolist() == want


def _adversarial_bounds(cls, rngs):
    """bounds() whose every interval still holds the exact score() but is moved.

    Per candidate the interval is, at random: exactly [s, s]; the real
    bounds; endpoints snapped to other candidates' scores in the same row
    (the query's own score among them); infinite; or NaN.
    """
    real_bounds = cls.bounds

    def bounds(h, r, entities, e_sq):
        rng = rngs[-1]
        n_q, n_e = len(h), len(entities)
        rows, ids = np.repeat(np.arange(n_q), n_e), np.tile(np.arange(n_e), n_q)
        s = cls.score(h[rows], r[rows], entities[ids]).reshape(n_q, n_e)
        real_lo, real_hi = real_bounds(h, r, entities, e_sq)
        snap_lo, snap_hi = s.copy(), s.copy()
        for i, row in enumerate(s):
            ordered = np.sort(row)
            n_le = np.searchsorted(ordered, row, side="right")
            n_lt = np.searchsorted(ordered, row, side="left")
            snap_lo[i] = ordered[(rng.random(n_e) * n_le).astype(np.int64)]
            snap_hi[i] = ordered[n_lt + (rng.random(n_e) * (n_e - n_lt)).astype(np.int64)]
        choices = [
            (s, s),
            (np.minimum(real_lo, s), np.maximum(real_hi, s)),
            (snap_lo, snap_hi),
            (np.full_like(s, -np.inf), np.full_like(s, np.inf)),
            (np.full_like(s, np.nan), np.full_like(s, np.nan)),
        ]
        mode = rng.integers(0, len(choices), size=s.shape)
        lo = np.choose(mode, [c[0] for c in choices])
        hi = np.choose(mode, [c[1] for c in choices])
        assert ((lo <= s) | np.isnan(lo)).all() and ((s <= hi) | np.isnan(hi)).all()
        return lo, hi

    return staticmethod(bounds)


def test_ranks_exact_under_adversarial_bounds(monkeypatch):
    """Ranks depend only on bounds() containing the score, not on the BLAS."""
    rngs = []
    for cls in SCORERS.values():
        monkeypatch.setattr(cls, "bounds", _adversarial_bounds(cls, rngs))

    @settings(max_examples=150, deadline=None)
    @given(_hard_tables(), st.sampled_from(list(ScorerKind)), st.integers(0, 2**32 - 1))
    def check(case, kind, seed):
        rngs.append(np.random.default_rng(seed))
        table, split, known = case
        triples = np.repeat(np.asarray(split, dtype=np.int64), 2, axis=0)
        got = evaluation._filtered_ranks(table, kind, triples,
                                         np.tile([True, False], len(split)), known)
        want = []
        for h, r, t in split:
            heads = {kh for kh, kr, kt in known if (kr, kt) == (r, t)}
            tails = {kt for kh, kr, kt in known if (kh, kr) == (h, r)}
            want += [rank_one(table, kind, (h, r, t), HEAD, heads),
                     rank_one(table, kind, (h, r, t), TAIL, tails)]
        assert got.tolist() == want

    check()


_THREADED_EVAL = """
import hashlib, sys
import numpy as np
from symkge.evaluation import _filtered_ranks, evaluate_split
from symkge.model import EmbeddingTable, ScorerKind
rng = np.random.default_rng(5)
table = EmbeddingTable(rng.normal(size=(3000, 64)), rng.normal(size=(20, 64)))
split = [tuple(x) for x in rng.integers(0, [3000, 20, 3000], size=(200, 3)).tolist()]
known = set(split) | {tuple(x) for x in rng.integers(0, [3000, 20, 3000], size=(2000, 3)).tolist()}
triples = np.repeat(np.asarray(split), 2, axis=0)
for kind in ScorerKind:
    ranks = _filtered_ranks(table, kind, triples, np.tile([True, False], len(split)), known)
    report = evaluate_split(table, kind, split, known)
    print(kind.value, hashlib.sha256(ranks.tobytes()).hexdigest(), repr(report))
"""


def test_ranks_independent_of_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": ":".join(sys.path)}
        run = subprocess.run([sys.executable, "-c", _THREADED_EVAL], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("RankingReport") == len(ScorerKind)


def test_single_triple_perfect_report():
    table = _table([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]], [[1.0, 0.0]])
    report = evaluate_split(table, ScorerKind.TRANSE, [(0, 0, 1)], {(0, 0, 1)})
    assert report.mrr == 1.0
    assert report.hits == {1: 1.0, 3: 1.0, 10: 1.0}
    assert report.n_queries == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_report_invariants_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    n_e = int(rng.integers(4, 12))
    table = init_embeddings(n_e, 3, 6, seed=seed)
    triples = {(int(h), int(r), int(t))
               for h, r, t in rng.integers(0, [n_e, 3, n_e], size=(10, 3))}
    split = sorted(triples)[:5]
    kind = ScorerKind.DISTMULT if seed % 2 else ScorerKind.TRANSE
    report = evaluate_split(table, kind, split, triples)
    assert report.hits[1] <= report.hits[3] <= report.hits[10]
    assert report.hits[1] <= report.mrr <= 1.0
    assert report.n_queries == 2 * len(split)


def test_adding_known_triples_never_hurts_rank():
    rng = np.random.default_rng(3)
    table = EmbeddingTable(
        entity_vecs=rng.normal(size=(9, 5)), relation_vecs=rng.normal(size=(2, 5))
    )
    query = (0, 1, 4)
    base_known = {query}
    base = filtered_rank(table, ScorerKind.TRANSE, query, TAIL, base_known)
    extended = base_known | {(0, 1, 2), (0, 1, 7), (3, 1, 4)}
    assert filtered_rank(table, ScorerKind.TRANSE, query, TAIL, extended) <= base


def test_boosting_query_score_never_hurts_rank():
    rng = np.random.default_rng(8)
    table = EmbeddingTable(
        entity_vecs=rng.normal(size=(8, 3)), relation_vecs=rng.normal(size=(2, 3))
    )
    query = (0, 1, 5)
    known = {query}
    before = filtered_rank(table, ScorerKind.DISTMULT, query, TAIL, known)
    # moving the tail vector along h*r raises only the query candidate's score
    direction = table.entity_vecs[0] * table.relation_vecs[1]
    table.entity_vecs[5] += 2.0 * direction
    after = filtered_rank(table, ScorerKind.DISTMULT, query, TAIL, known)
    assert after <= before


def test_published_split_size_yields_double_queries():
    # a full-scale test split of 3,134 edges must produce one head and
    # one tail query per triple
    rng = np.random.default_rng(0)
    n_e, n_r = 800, 11
    triples = set()
    while len(triples) < 3134:
        h, t = rng.integers(0, n_e, 2)
        r = int(rng.integers(0, n_r))
        triples.add((int(h), r, int(t)))
    table = init_embeddings(n_e, n_r, 4, seed=0)
    report = evaluate_split(table, ScorerKind.DISTMULT, sorted(triples), triples)
    assert report.n_queries == 6268


# ---------------------------------------------------------------------------
# linear probe
# ---------------------------------------------------------------------------


def _separable_table(n_per_class=6, dim=4, gap=3.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(scale=0.3, size=(n_per_class, dim)) + np.r_[gap, np.zeros(dim - 1)]
    b = rng.normal(scale=0.3, size=(n_per_class, dim)) - np.r_[gap, np.zeros(dim - 1)]
    table = EmbeddingTable(entity_vecs=np.vstack([a, b]), relation_vecs=np.zeros((1, dim)))
    labeled = [(i, 0) for i in range(n_per_class)] + [
        (n_per_class + i, 1) for i in range(n_per_class)
    ]
    return table, labeled


def test_probe_fits_separable_classes():
    table, labeled = _separable_table()
    weights = train_probe(table, labeled, ProbeConfig(lr=0.5, steps=500))
    report = probe_report(weights, table, labeled)
    assert report.accuracy == 1.0
    assert sum(total for _, total in report.per_class.values()) == len(labeled)


def test_probe_zero_lr_keeps_zero_weights():
    table, labeled = _separable_table()
    weights = train_probe(table, labeled, ProbeConfig(lr=0.0, steps=50))
    assert not weights.weight.any()
    assert not weights.bias.any()


def test_probe_zero_weights_predict_class_zero():
    table, labeled = _separable_table()
    weights = ProbeWeights(weight=np.zeros((2, table.dim)), bias=np.zeros(2))
    preds = classify(weights, table, [e for e, _ in labeled])
    assert (preds == 0).all()


def test_probe_label_permutation_consistent():
    table, labeled = _separable_table()
    flipped = [(e, 1 - c) for e, c in labeled]
    w1 = train_probe(table, labeled, ProbeConfig(lr=0.5, steps=300))
    w2 = train_probe(table, flipped, ProbeConfig(lr=0.5, steps=300))
    ids = [e for e, _ in labeled]
    p1 = classify(w1, table, ids)
    p2 = classify(w2, table, ids)
    assert np.array_equal(p1, 1 - p2)
    assert probe_report(w1, table, labeled).accuracy == probe_report(
        w2, table, flipped
    ).accuracy


def test_probe_single_class_rejected():
    table, _ = _separable_table()
    with pytest.raises(SingleClassError):
        train_probe(table, [(0, 1), (1, 1)])


def test_probe_dim_mismatch_rejected():
    table, _ = _separable_table(dim=4)
    weights = ProbeWeights(weight=np.zeros((2, 6)), bias=np.zeros(2))
    with pytest.raises(DimMismatchError):
        classify(weights, table, [0, 1])


def test_probe_deterministic():
    table, labeled = _separable_table()
    w1 = train_probe(table, labeled, ProbeConfig(lr=0.3, steps=200))
    w2 = train_probe(table, labeled, ProbeConfig(lr=0.3, steps=200))
    assert np.array_equal(w1.weight, w2.weight)
    assert np.array_equal(w1.bias, w2.bias)


def test_probe_refuses_diverged_weights():
    """A huge step overflows the weights; NaN weights would still report an accuracy."""
    table, labeled = _separable_table()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning may escape either
        with pytest.raises(NonFiniteLossError, match="weights diverged to NaN or inf") as refused:
            train_probe(table, labeled, ProbeConfig(lr=1e308, steps=500))
    assert isinstance(refused.value, NumericError) and "\n" not in str(refused.value)


def test_classify_refuses_overflowing_logits():
    """One huge step leaves the weights finite, but their products with the rows overflow."""
    rng = np.random.default_rng(0)
    table = EmbeddingTable(rng.normal(scale=3.0, size=(20, 32)), np.zeros((1, 32)))
    labeled = [(i, i % 2) for i in range(20)]
    weights = train_probe(table, labeled, ProbeConfig(lr=5e307, steps=1))
    assert np.isfinite(weights.weight).all() and np.isfinite(weights.bias).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning may escape either
        with pytest.raises(NonFiniteLossError, match="logits overflow") as refused:
            probe_report(weights, table, labeled)
    assert isinstance(refused.value, NumericError) and "\n" not in str(refused.value)


def test_probe_report_refuses_empty_held_out_set():
    table, labeled = _separable_table()
    weights = train_probe(table, labeled, ProbeConfig(lr=0.5, steps=10))
    with pytest.raises(EmptyDatasetError):
        probe_report(weights, table, [])


# ---------------------------------------------------------------------------
# t-test (reference values frozen from an independent implementation)
# ---------------------------------------------------------------------------


def test_identical_samples():
    report = students_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert report.t_statistic == 0.0
    assert report.p_value == 1.0


def test_reported_run_values_significant():
    report = students_t_test([0.469, 0.467, 0.468], [0.471, 0.471, 0.472])
    assert report.t_statistic == pytest.approx(-5.0, rel=1e-9)
    assert report.p_value == pytest.approx(0.0074904338812738286, rel=1e-9)
    assert report.p_value < 0.05
    assert report.p_value <= 0.01


@pytest.mark.parametrize(
    "a,b,expected_t,expected_p",
    [
        ([1.0, 2.0, 3.0], [1.5, 2.5, 3.5], -0.6123724356957945, 0.5733922538253555),
        ([10.0, 11.0, 12.0, 13.0], [10.5, 11.5, 12.5], 0.0, 1.0),
        ([0.1, 0.2, 0.3], [0.9, 1.0, 1.1], -9.797958971132712, 0.0006081849444633362),
    ],
)
def test_reference_table_cases(a, b, expected_t, expected_p):
    report = students_t_test(a, b)
    assert report.t_statistic == pytest.approx(expected_t, rel=1e-9, abs=1e-12)
    assert report.p_value == pytest.approx(expected_p, rel=1e-9, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_ttest_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=int(rng.integers(2, 8))).tolist()
    b = rng.normal(size=int(rng.integers(2, 8))).tolist()
    fwd = students_t_test(a, b)
    rev = students_t_test(b, a)
    assert fwd.t_statistic == pytest.approx(-rev.t_statistic, abs=1e-12)
    assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)
    assert 0.0 <= fwd.p_value <= 1.0


def test_degenerate_constant_samples():
    equal = students_t_test([2.0, 2.0], [2.0, 2.0])
    assert (equal.t_statistic, equal.p_value) == (0.0, 1.0)
    different = students_t_test([2.0, 2.0], [3.0, 3.0])
    assert different.p_value == 0.0


def test_insufficient_samples_rejected():
    with pytest.raises(InsufficientSamplesError):
        students_t_test([1.0], [1.0, 2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_samples_rejected(bad):
    # A NaN t would otherwise clamp to p = 0, the most significant result.
    for a, b in (([1.0, 2.0, bad], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [-bad, 2.0])):
        with pytest.raises(BadValueError, match="finite"):
            students_t_test(a, b)


def test_incomplete_beta_endpoints():
    assert regularized_incomplete_beta(2.0, 0.5, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 0.5, 1.0) == 1.0
    # symmetry identity I_x(a,b) = 1 - I_{1-x}(b,a)
    assert regularized_incomplete_beta(1.5, 2.5, 0.3) == pytest.approx(
        1.0 - regularized_incomplete_beta(2.5, 1.5, 0.7), abs=1e-12
    )
