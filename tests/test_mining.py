"""Miner correctness against the brute-force oracle, plus dictionary plumbing."""

import multiprocessing
import random

import pytest

from symkge.errors import CorruptDictFileError, HopBoundExceededError, KMismatchError
from symkge.graph import FORWARD, INVERSE, SignedRelation, intern_graph
from symkge.mining import (
    PositiveDict,
    load_dict,
    mine_positive_dict,
    sample_positives,
    save_dict,
    structure_stats,
)

from conftest import random_graph
from oracles import brute_force_oracle, relation_sequences


# ---------------------------------------------------------------------------
# relation sequences
# ---------------------------------------------------------------------------


def test_relation_sequence_forward(play_fixture):
    graph, labels = play_fixture
    bob, ball = labels.entity_ids["Bob"], labels.entity_ids["Basketball"]
    assert relation_sequences(graph, [bob, ball]) == [(SignedRelation(0, FORWARD),)]


def test_relation_sequence_inverse(play_fixture):
    graph, labels = play_fixture
    bob, ball = labels.entity_ids["Bob"], labels.entity_ids["Basketball"]
    assert relation_sequences(graph, [ball, bob]) == [(SignedRelation(0, INVERSE),)]


def test_relation_sequence_absent(play_fixture):
    graph, labels = play_fixture
    bob, jones = labels.entity_ids["Bob"], labels.entity_ids["Jones"]
    assert relation_sequences(graph, [bob, jones]) == []


def test_relation_sequence_enumerates_parallel_edges():
    graph, labels = intern_graph([("a", "r", "b"), ("a", "s", "b")])
    a, b = labels.entity_ids["a"], labels.entity_ids["b"]
    assert sorted(relation_sequences(graph, [a, b])) == [
        (SignedRelation(0, FORWARD),),
        (SignedRelation(1, FORWARD),),
    ]


# ---------------------------------------------------------------------------
# hand fixtures (expected values enumerated manually before implementation)
# ---------------------------------------------------------------------------


def test_shared_pivot_pair(play_fixture):
    graph, labels = play_fixture
    bob, jones = labels.entity_ids["Bob"], labels.entity_ids["Jones"]
    pos, structures = mine_positive_dict(graph, 1)
    assert pos[bob] == {jones}
    assert pos[jones] == {bob}
    ball = labels.entity_ids["Basketball"]
    assert {(s.anchor, s.pivot, s.target) for s in structures} == {
        (bob, ball, jones),
        (jones, ball, bob),
    }


def test_shared_pivot_pair_with_inverse_halves():
    # Both halves traverse against the edge direction: still symmetric.
    graph, labels = intern_graph(
        [("Basketball", "played_by", "Bob"), ("Basketball", "played_by", "Jones")]
    )
    bob, jones = labels.entity_ids["Bob"], labels.entity_ids["Jones"]
    pos, _ = mine_positive_dict(graph, 1)
    assert pos[bob] == {jones}


def test_mixed_direction_chain_is_not_symmetric(mixed_direction_fixture):
    graph, labels = mixed_direction_fixture
    pos, structures = mine_positive_dict(graph, 1)
    assert all(len(targets) == 0 for targets in pos.targets)
    assert structures == []


def test_toy_people_fixture(toy_people_fixture):
    graph, labels = toy_people_fixture
    ids = labels.entity_ids
    pos, _ = mine_positive_dict(graph, 1)
    assert ids["Jones"] in pos[ids["Bob"]]
    assert ids["Andy"] in pos[ids["Bob"]]  # both are students of Mike
    assert ids["Amy"] in pos[ids["Mike"]]  # both teach Math
    assert ids["Jones"] not in pos[ids["Mike"]]


def test_hop_bound_validation(play_fixture):
    graph, _ = play_fixture
    for bad in (0, 4, -1):
        with pytest.raises(HopBoundExceededError):
            mine_positive_dict(graph, bad)
        with pytest.raises(HopBoundExceededError):
            structure_stats(graph, bad)
        with pytest.raises(HopBoundExceededError):
            brute_force_oracle(graph, 0, bad)


def test_two_hop_symmetry():
    # a -r-> x -s-> p <-s- y <-r- b; a and b are 2-hop symmetric about p.
    graph, labels = intern_graph(
        [
            ("a", "r", "x"),
            ("x", "s", "p"),
            ("b", "r", "y"),
            ("y", "s", "p"),
        ]
    )
    ids = labels.entity_ids
    pos1, _ = mine_positive_dict(graph, 1)
    assert pos1[ids["a"]] == set()
    pos2, structures = mine_positive_dict(graph, 2)
    assert pos2[ids["a"]] == {ids["b"]}
    assert pos2[ids["x"]] == {ids["y"]}  # 1-hop about p
    two_hop = [s for s in structures if s.k == 2]
    assert {(s.anchor, s.target) for s in two_hop} == {(ids["a"], ids["b"]), (ids["b"], ids["a"])}


def test_shared_interior_is_not_a_simple_walk():
    # a and b both reach p only through the same interior x; the spliced
    # 4-hop walk would visit x twice, so no 2-hop structure may be reported.
    # The pair is still 1-hop symmetric about x itself.
    graph, labels = intern_graph(
        [
            ("a", "r", "x"),
            ("b", "r", "x"),
            ("x", "s", "p"),
        ]
    )
    ids = labels.entity_ids
    pos, structures = mine_positive_dict(graph, 2)
    assert all(s.k == 1 for s in structures)
    assert all(s.pivot == ids["x"] for s in structures)
    assert pos[ids["a"]] == {ids["b"]}
    assert brute_force_oracle(graph, ids["a"], 2) == pos[ids["a"]]


def test_parallel_relations_form_distinct_groups():
    # a reaches p by both r and s; only the r-route is shared with b.
    graph, labels = intern_graph(
        [("a", "r", "p"), ("a", "s", "p"), ("b", "r", "p")]
    )
    ids = labels.entity_ids
    pos, structures = mine_positive_dict(graph, 1)
    assert pos[ids["a"]] == {ids["b"]}
    r_id = labels.relation_ids["r"]
    assert {s.half_sequence for s in structures} == {(SignedRelation(r_id, FORWARD),)}
    # hand enumeration: ordered pairs (r,r)x2 symmetric, (r,s)+(s,r) mixed
    hop = structure_stats(graph, 1).hop(1)
    assert (hop.rs_count, hop.total_count, hop.proportion) == (2, 4, 0.5)
    assert brute_force_oracle(graph, ids["a"], 1) == {ids["b"]}


def test_degree_cap_skips_hub_pivots(play_fixture):
    graph, labels = play_fixture
    ball = labels.entity_ids["Basketball"]
    assert graph.degree(ball) == 2
    capped, capped_structures = mine_positive_dict(graph, 1, max_degree=1)
    assert all(len(t) == 0 for t in capped.targets)
    assert capped_structures == []
    assert structure_stats(graph, 1, max_degree=1).hop(1).total_count == 0
    # cap off (or high enough) keeps the pair
    loose, _ = mine_positive_dict(graph, 1, max_degree=2)
    assert loose[labels.entity_ids["Bob"]] == {labels.entity_ids["Jones"]}


def test_degree_cap_prunes_walks_through_hubs():
    # x and y are 2-hop symmetric about p through the hub interiors a and b;
    # capping below the hub degree removes that pair but keeps the 1-hop
    # pair (a, b) about the low-degree pivot p.
    triples = [
        ("x", "q", "a"),
        ("y", "q", "b"),
        ("a", "r", "p"),
        ("b", "r", "p"),
    ]
    triples += [("a", "spoke", f"sa{i}") for i in range(4)]
    triples += [("b", "spoke", f"sb{i}") for i in range(4)]
    graph, labels = intern_graph(triples)
    ids = labels.entity_ids
    assert graph.degree(ids["a"]) == 6 and graph.degree(ids["p"]) == 2

    exact, _ = mine_positive_dict(graph, 2)
    assert ids["y"] in exact[ids["x"]]
    assert ids["b"] in exact[ids["a"]]

    capped, _ = mine_positive_dict(graph, 2, max_degree=3)
    assert capped[ids["x"]] == set()  # interior hubs pruned
    assert capped[ids["a"]] == {ids["b"]}  # pivot p itself is under the cap


# ---------------------------------------------------------------------------
# oracle equivalence battery
# ---------------------------------------------------------------------------


def _battery_specs():
    # Heavier hop bounds get sparser graphs to keep the oracle affordable.
    rng = random.Random(20260810)
    specs = []
    for i in range(18):
        k = 1 + i % 3
        if k == 1:
            n_e, n_t, n_r = rng.randint(8, 30), rng.randint(10, 120), rng.randint(1, 8)
        elif k == 2:
            n_e, n_t, n_r = rng.randint(8, 22), rng.randint(10, 60), rng.randint(1, 6)
        else:
            n_e, n_t, n_r = rng.randint(6, 14), rng.randint(8, 25), rng.randint(1, 5)
        specs.append((rng.randint(0, 10**6), n_e, n_t, n_r, k))
    return specs


@pytest.mark.parametrize("seed,n_e,n_t,n_r,k", _battery_specs())
def test_miner_matches_oracle(seed, n_e, n_t, n_r, k):
    graph, _ = random_graph(seed, n_e, n_t, n_r)
    pos, _ = mine_positive_dict(graph, k)
    for anchor in range(graph.entity_count):
        assert pos[anchor] == brute_force_oracle(graph, anchor, k), (
            f"anchor {anchor} differs on graph seed={seed} k={k}"
        )


def test_oracle_isolated_anchor():
    graph, labels = intern_graph([("a", "r", "b"), ("c", "r", "d")])
    # entity with no 2-hop reach
    assert brute_force_oracle(graph, labels.entity_ids["a"], 3) == set()


# ---------------------------------------------------------------------------
# dictionary properties
# ---------------------------------------------------------------------------


def _mine_random(seed, k):
    graph, _ = random_graph(seed, 18, 50, 5)
    pos, structures = mine_positive_dict(graph, k)
    return graph, pos, structures


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_dict_symmetry_and_irreflexivity(seed):
    _, pos, _ = _mine_random(seed, 2)
    for a, targets in enumerate(pos.targets):
        assert a not in targets
        for t in targets:
            assert a in pos[t]


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_dict_monotone_in_hop_bound(seed):
    graph, _ = random_graph(seed, 14, 30, 4)
    per_k = [mine_positive_dict(graph, k)[0] for k in (1, 2, 3)]
    for a in range(graph.entity_count):
        assert per_k[0][a] <= per_k[1][a] <= per_k[2][a]


def test_parallel_mining_matches_serial(monkeypatch):
    # Mining runs in one process whatever `workers` says; the keyword is
    # still accepted because the benchmark harness passes it.
    def no_pool(*args, **kwargs):
        raise AssertionError("mining must not start worker processes")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    graph, _ = random_graph(99, 20, 60, 5)
    pos1, structs1 = mine_positive_dict(graph, 2, workers=1)
    pos2, structs2 = mine_positive_dict(graph, 2, workers=3)
    assert pos1 == pos2
    assert structs1 == structs2


def test_structures_record_walks(toy_people_fixture):
    graph, _ = toy_people_fixture
    _, structures = mine_positive_dict(graph, 2)
    assert structures
    for s in structures:
        assert len(s.half_sequence) == s.k
        assert s.anchor != s.target
        assert s.pivot not in (s.anchor, s.target)
        if s.k == 1:
            # both halves must be directly realizable single edges
            assert s.half_sequence in relation_sequences(graph, [s.anchor, s.pivot])
            assert s.half_sequence in relation_sequences(graph, [s.target, s.pivot])


# ---------------------------------------------------------------------------
# structure statistics
# ---------------------------------------------------------------------------


def test_stats_shared_pivot(play_fixture):
    graph, _ = play_fixture
    stats = structure_stats(graph, 1)
    hop = stats.hop(1)
    assert (hop.rs_count, hop.total_count, hop.proportion) == (2, 2, 1.0)


def test_stats_single_triple():
    graph, _ = intern_graph([("Bob", "play", "Basketball")])
    hop = structure_stats(graph, 1).hop(1)
    assert hop.total_count == 0
    assert hop.proportion is None


def test_stats_chain():
    graph, _ = intern_graph([("a", "r", "b"), ("b", "s", "c")])
    hop = structure_stats(graph, 1).hop(1)
    assert (hop.rs_count, hop.total_count) == (0, 2)
    assert hop.proportion == 0.0


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_stats_bounds(seed):
    graph, _ = random_graph(seed, 16, 45, 4)
    stats = structure_stats(graph, 3)
    for hop in stats.per_hop:
        assert 0 <= hop.rs_count <= hop.total_count
        if hop.total_count:
            assert 0.0 <= hop.proportion <= 1.0


def test_stats_rs_count_matches_miner_structures():
    graph, _ = random_graph(21, 15, 40, 4)
    _, structures = mine_positive_dict(graph, 2)
    stats = structure_stats(graph, 2)
    for k in (1, 2):
        assert stats.hop(k).rs_count == sum(1 for s in structures if s.k == k)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _dict_of(targets, k=1):
    return PositiveDict(targets=tuple(frozenset(t) for t in targets), hop_bound=k)


def test_sample_fewer_candidates_than_m():
    pos = _dict_of([{1}, set()])
    assert sample_positives(pos, 0, 6, seed=0) == [1]


def test_sample_empty():
    pos = _dict_of([set(), set()])
    assert sample_positives(pos, 0, 4, seed=0) == []


def test_sample_deterministic():
    pos = _dict_of([set(range(1, 101)), set()])
    first = sample_positives(pos, 0, 10, seed=42)
    assert len(first) == 10
    assert len(set(first)) == 10
    assert first == sample_positives(pos, 0, 10, seed=42)
    assert first != sample_positives(pos, 0, 10, seed=43)


def test_sample_uniform_coverage():
    pos = _dict_of([set(range(1, 21))])
    seen = set()
    for seed in range(60):
        seen.update(sample_positives(pos, 0, 5, seed=seed))
    assert seen == set(range(1, 21))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_dict_round_trip(tmp_path):
    graph, _ = random_graph(31, 16, 40, 4)
    pos, _ = mine_positive_dict(graph, 2)
    path = tmp_path / "pos.symd"
    save_dict(pos, path)
    assert load_dict(path) == pos


def test_dict_truncated_file(tmp_path):
    graph, _ = random_graph(32, 10, 25, 3)
    pos, _ = mine_positive_dict(graph, 1)
    path = tmp_path / "pos.symd"
    save_dict(pos, path)
    blob = path.read_bytes()
    (tmp_path / "cut.symd").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CorruptDictFileError):
        load_dict(tmp_path / "cut.symd")


@pytest.mark.parametrize(
    "rows,problem",
    [
        ([{1, 99}, {0}, set()], "outside the 3 entities"),
        ([{1}, {0}, {2}], "paired with itself"),
        ([{1, 2}, {0}, set()], "no reverse"),
    ],
    ids=["out_of_range", "self_pair", "asymmetric"],
)
def test_dict_bad_pairs_rejected(tmp_path, rows, problem):
    # save_dict writes any content with a valid checksum; load_dict must
    # still refuse pairs no miner can produce.
    path = tmp_path / "bad.symd"
    save_dict(_dict_of(rows), path)
    with pytest.raises(CorruptDictFileError, match=problem):
        load_dict(path)


def test_dict_bad_magic(tmp_path):
    path = tmp_path / "junk.symd"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CorruptDictFileError):
        load_dict(path)


def test_dict_flipped_bit(tmp_path):
    graph, _ = random_graph(33, 10, 25, 3)
    pos, _ = mine_positive_dict(graph, 1)
    path = tmp_path / "pos.symd"
    save_dict(pos, path)
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0xFF
    (tmp_path / "bad.symd").write_bytes(bytes(blob))
    with pytest.raises(CorruptDictFileError):
        load_dict(tmp_path / "bad.symd")


def test_hop_bound_mismatch_surfaces_in_training(tmp_path):
    import numpy as np

    from symkge.config import TrainConfig
    from symkge.losses import combined_loss
    from symkge.model import ScorerKind, init_embeddings

    graph, _ = random_graph(34, 8, 15, 2)
    pos, _ = mine_positive_dict(graph, 2)
    path = tmp_path / "pos.symd"
    save_dict(pos, path)
    loaded = load_dict(path)
    assert loaded.hop_bound == 2

    cfg = TrainConfig(k=3, dim=4, epochs=1)
    table = init_embeddings(graph.entity_count, graph.relation_count, 4, seed=0)
    batch = np.asarray(graph.triples[:2], dtype=np.int64)
    negatives = np.zeros((2, 1, 3), dtype=np.int64)
    with pytest.raises(KMismatchError):
        combined_loss(table, ScorerKind.TRANSE, batch, negatives, loaded, cfg)
