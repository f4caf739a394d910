"""Miner correctness against the brute-force oracle, plus dictionary plumbing."""

import dataclasses
import importlib.util
import itertools
import json
import multiprocessing
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from symkge import mining
from symkge.errors import (
    BadValueError, CorruptDictFileError, DataError, HopBoundExceededError, KMismatchError,
    UnknownEntityError,
)
from symkge.graph import FORWARD, INVERSE, SignedRelation, intern_graph, load_dataset
from symkge.mining import (
    draw_epoch,
    load_dict,
    mine_positive_dict,
    sample_positives,
    save_dict,
    structure_stats,
)

from conftest import positive_dict, random_graph, symd_bytes
from oracles import (brute_force_oracle, relation_sequences, sample_positives_one_by_one,
                     signed_neighbors, structure_stats_oracle)


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
    assert list(structures) == []


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
    hop = structure_stats(graph, 1).per_hop[0]
    assert (hop.rs_count, hop.total_count, hop.proportion) == (2, 4, 0.5)
    assert brute_force_oracle(graph, ids["a"], 1) == {ids["b"]}


def test_degree_cap_skips_hub_pivots(play_fixture):
    graph, labels = play_fixture
    ball = labels.entity_ids["Basketball"]
    assert len(signed_neighbors(graph, ball)) == 2
    capped, capped_structures = mine_positive_dict(graph, 1, max_degree=1)
    assert all(len(t) == 0 for t in capped.targets)
    assert list(capped_structures) == []
    assert structure_stats(graph, 1, max_degree=1).per_hop[0].total_count == 0
    # cap off (or high enough) keeps the pair
    loose, _ = mine_positive_dict(graph, 1, max_degree=2)
    assert loose[labels.entity_ids["Bob"]] == {labels.entity_ids["Jones"]}


@pytest.mark.parametrize("max_degree", [0, -3])
def test_degree_cap_below_one_is_refused(play_fixture, max_degree):
    # A cap below 1 leaves no pivot, so it would mine nothing, silently.
    graph, _ = play_fixture
    for run in (lambda: mine_positive_dict(graph, 1, max_degree=max_degree),
                lambda: structure_stats(graph, 1, max_degree=max_degree)):
        with pytest.raises(BadValueError, match="max_degree must be >= 1") as refused:
            run()
        assert "\n" not in str(refused.value)


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
    assert (len(signed_neighbors(graph, ids["a"])) == 6
            and len(signed_neighbors(graph, ids["p"])) == 2)

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


@pytest.mark.parametrize("max_degree", [None, 4])
@pytest.mark.parametrize("seed,n_e,n_t,n_r,k", _battery_specs())
def test_stats_match_oracle(seed, n_e, n_t, n_r, k, max_degree):
    graph, _ = random_graph(seed, n_e, n_t, n_r)
    stats = structure_stats(graph, k, max_degree=max_degree)
    for hop in stats.per_hop:
        assert (hop.rs_count, hop.total_count) == structure_stats_oracle(
            graph, hop.k, max_degree
        ), f"k={hop.k} differs on graph seed={seed}"


@pytest.mark.parametrize("pairs", [1, 7])
def test_join_blocks_do_not_change_results(monkeypatch, pairs):
    # The join tests candidate pairs in blocks; any block size gives the
    # same dictionary, structure list and statistics.
    def outputs(graph, k, cap):
        pos, structures = mine_positive_dict(graph, k, max_degree=cap)
        return pos, list(structures), structure_stats(graph, k, max_degree=cap)

    graphs = [(random_graph(*spec[:4])[0], spec[4]) for spec in _battery_specs()]
    whole = [outputs(g, k, cap) for g, k in graphs for cap in (None, 2)]
    monkeypatch.setattr(mining, "_JOIN_BLOCK_PAIRS", pairs)
    assert [outputs(g, k, cap) for g, k in graphs for cap in (None, 2)] == whole


@pytest.mark.parametrize("cap", [None, 1, 2, 4])
def test_k1_stats_count_without_joining(monkeypatch, cap):
    def refuse(*_):
        raise AssertionError("k = 1 statistics ran the join")

    monkeypatch.setattr(mining, "_joined", refuse)
    for seed, n_e, n_t, n_r, k in _battery_specs():
        if k == 1:
            graph, _ = random_graph(seed, n_e, n_t, n_r)
            hop = structure_stats(graph, 1, max_degree=cap).per_hop[0]
            assert (hop.rs_count, hop.total_count) == structure_stats_oracle(graph, 1, cap)


def test_k1_stats_do_not_depend_on_the_hop_bound():
    for seed, n_e, n_t, n_r, _ in _battery_specs():
        graph, _ = random_graph(seed, n_e, n_t, n_r)
        assert structure_stats(graph, 2).per_hop[0] == structure_stats(graph, 1).per_hop[0]


def test_k1_stats_of_a_star_with_parallel_relations():
    # At the hub: 2,010 rows, 2,000 on r and 10 on s, and 10 starts with two
    # rows. rs = 2000 * 1999 + 10 * 9; total = 2010^2 - (1990 + 10 * 2^2).
    # A member as pivot has one start (the hub), so it adds nothing.
    triples = [(f"m{i}", "r", "hub") for i in range(2000)]
    triples += [(f"m{i}", "s", "hub") for i in range(10)]
    graph, _ = intern_graph(triples)
    hop = structure_stats(graph, 1).per_hop[0]
    assert (hop.rs_count, hop.total_count) == (3_998_090, 4_038_070)


def test_join_over_budget_is_refused(monkeypatch):
    # Pivot p has the r-rows of a and b, a group of 2, so k = 1 mining tests
    # exactly 2^2 candidate pairs; the budget refuses any count above it.
    graph, _ = intern_graph([("a", "r", "p"), ("a", "s", "p"), ("b", "r", "p")])
    monkeypatch.setattr(mining, "_MAX_JOIN_PAIRS", 4)
    assert len(mine_positive_dict(graph, 1)[1]) == 2
    monkeypatch.setattr(mining, "_MAX_JOIN_PAIRS", 3)
    battery, _ = random_graph(*_battery_specs()[1][:4])
    for run in (lambda: mine_positive_dict(graph, 1), lambda: structure_stats(battery, 2)):
        with pytest.raises(DataError, match="candidate row pairs, over its budget of 3") as refused:
            run()
        assert "\n" not in str(refused.value) and "--max-degree" in str(refused.value)
    # With a cap set, the advice names a smaller one.
    for cap, run in ((3, lambda: mine_positive_dict(graph, 1, 3)),
                     (40, lambda: structure_stats(battery, 2, 40))):
        with pytest.raises(DataError, match=f"over its budget of 3; lower --max-degree below {cap}$"):
            run()
    assert structure_stats(battery, 1).per_hop[0].total_count > 3  # closed form: no join, no budget


def _mined(graph, k_max):
    """mine_positive_dict's dictionary and its structures, decoded."""
    pos, structures = mine_positive_dict(graph, k_max)
    return pos, list(structures)


def test_sequence_codes_that_overflow_are_refused():
    # Sequences pack into int64 in base 2R, so (2R)^k must fit.
    graph, _ = random_graph(40, 10, 25, 3)
    wide = dataclasses.replace(graph, relation_count=2 * 10**6)
    assert _mined(wide, 2) == _mined(graph, 2)
    for run in (mine_positive_dict, structure_stats):
        with pytest.raises(DataError, match="too many to pack") as refused:
            run(wide, 3)
        assert "\n" not in str(refused.value)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["planted", "fb237shape"])
def test_bench_inputs_mine_to_recorded_outputs(tmp_path, monkeypatch, name):
    """The benchmark's full seed-0 inputs mine to the outputs it records."""
    workloads = _bench_module("workloads", monkeypatch)
    checks = _bench_module("checks", monkeypatch)
    recorded = json.loads((BENCH / "expected.json").read_text())[f"full/{name}/0"]
    workload = workloads.FULL[name]
    paths = workloads.write_inputs(workload.generate(0), tmp_path)
    graph = load_dataset(paths["train"], paths["valid"], paths["test"]).graph
    k = workload.train_config["k"]
    pos, structures = mine_positive_dict(graph, k)
    stats = structure_stats(graph, k)
    pairs, digest = checks.pairs_digest(pos.targets)
    assert (pairs, digest, len(structures)) == (
        recorded["pairs"], recorded["pairs_digest"], recorded["structures"]
    )
    assert [[h.rs_count, h.total_count] for h in stats.per_hop] == recorded["stats"]


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
    assert list(structs1) == list(structs2)


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
    hop = stats.per_hop[0]
    assert (hop.rs_count, hop.total_count, hop.proportion) == (2, 2, 1.0)


def test_stats_single_triple():
    graph, _ = intern_graph([("Bob", "play", "Basketball")])
    hop = structure_stats(graph, 1).per_hop[0]
    assert hop.total_count == 0
    assert hop.proportion is None


def test_stats_chain():
    graph, _ = intern_graph([("a", "r", "b"), ("b", "s", "c")])
    hop = structure_stats(graph, 1).per_hop[0]
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


def test_structures_are_decoded_only_when_iterated(monkeypatch):
    graph, _ = random_graph(21, 15, 40, 4)
    pos, _ = mine_positive_dict(graph, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a structure object was built")

    monkeypatch.setattr(mining, "SymmetricStructure", refuse)
    lazy_pos, structures = mine_positive_dict(graph, 2)
    assert lazy_pos == pos
    assert len(structures) == sum(h.rs_count for h in structure_stats(graph, 2).per_hop) > 0
    with pytest.raises(AssertionError, match="object was built"):
        next(iter(structures))


@pytest.mark.parametrize("seed,n_e,n_t,n_r,k", _battery_specs())
def test_structures_come_in_join_order(seed, n_e, n_t, n_r, k):
    graph, _ = random_graph(seed, n_e, n_t, n_r)
    _, structures = mine_positive_dict(graph, k)
    keys = [(s.k, s.pivot, s.half_sequence, s.anchor, s.target) for s in structures]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    # The view keeps only the count and mines again on each iteration.
    assert len(structures) == len(keys)
    assert list(structures) == list(structures)


def test_mining_peak_memory_per_structure():
    # A star of 1,000 members on one relation: every ordered member pair is
    # a structure, 999,000 of them. Keeping one 8-byte pair key per
    # structure, not a row of the structure, keeps the peak small.
    graph, _ = intern_graph([(f"m{i}", "r", "hub") for i in range(1000)])
    tracemalloc.start()
    try:
        _, structures = mine_positive_dict(graph, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(structures) == 999_000
    assert peak / len(structures) <= 48


def test_stats_rs_count_matches_miner_structures():
    graph, _ = random_graph(21, 15, 40, 4)
    _, structures = mine_positive_dict(graph, 2)
    stats = structure_stats(graph, 2)
    for k in (1, 2):
        assert stats.per_hop[k - 1].rs_count == sum(1 for s in structures if s.k == k)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _dict_of(targets, k=1):
    return positive_dict(targets, k)


def _draw(pos, anchor, m, seed):
    """One anchor's positives, as a list."""
    return sample_positives(pos, [anchor], m, seed)[1].tolist()


def test_sample_fewer_candidates_than_m():
    pos = _dict_of([{1}, set()])
    assert _draw(pos, 0, 6, seed=0) == [1]


def test_sample_empty():
    pos = _dict_of([set(), set()])
    assert _draw(pos, 0, 4, seed=0) == []


def test_sample_deterministic():
    pos = _dict_of([set(range(1, 101)), set()])
    first = _draw(pos, 0, 10, seed=42)
    assert len(first) == 10
    assert len(set(first)) == 10
    assert first == _draw(pos, 0, 10, seed=42)
    assert first != _draw(pos, 0, 10, seed=43)


def test_sample_uniform_coverage():
    pos = _dict_of([set(range(1, 21))])
    seen = set()
    for seed in range(60):
        seen.update(_draw(pos, 0, 5, seed=seed))
    assert seen == set(range(1, 21))


def _chi_square(counts, expected):
    counts = np.asarray(counts, dtype=np.float64)
    return float(((counts - expected) ** 2 / expected).sum())


def test_sample_subsets_uniform_over_seeds_and_epochs():
    # Every 3-subset of 6 targets, over 200 seeds x 20 epochs: 20 cells of
    # 200 expected draws each. 43.82 is the chi-square 0.999 quantile at 19
    # degrees of freedom.
    pos = _dict_of([set(range(1, 7))] + [set()] * 6)
    subsets = {s: 0 for s in itertools.combinations(range(1, 7), 3)}
    for seed in range(200):
        for epoch in range(20):
            subsets[tuple(sample_positives(pos, [0], 3, seed, epoch)[1].tolist())] += 1
    assert _chi_square(list(subsets.values()), 4000 / 20) < 43.82


def test_sample_targets_uniform_in_a_batch():
    # Each of 30 targets of 50 anchors in one draw, 60 epochs: 50 * 60 * 7
    # picks over 30 targets. 58.30 is the 0.999 quantile at 29 degrees of freedom.
    n = 31
    pos = _dict_of([set(range(n)) - {a} for a in range(n)])
    anchors = np.arange(n)
    hits = np.zeros(n)
    for epoch in range(60):
        counts, flat = sample_positives(pos, anchors, 7, seed=5, epoch=epoch)
        assert counts.tolist() == [7] * n
        owner = np.repeat(anchors, counts)
        # Rank each pick among its anchor's targets, so every anchor's
        # 30 candidates map onto the same 30 cells.
        hits += np.bincount(flat - (flat > owner), minlength=n)
    assert hits[n - 1] == 0
    assert _chi_square(hits[: n - 1], n * 60 * 7 / (n - 1)) < 58.30


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_draws_are_distinct_sorted_and_whole_when_small(seed):
    rng = np.random.default_rng(seed)
    n = 40
    rows = [set(rng.choice(np.delete(np.arange(n), e), int(rng.integers(0, 16)),
                           replace=False).tolist()) for e in range(n)]
    pos = _dict_of(rows)
    anchors = rng.integers(0, n, 60)  # repeats included
    counts, flat = sample_positives(pos, anchors, 6, seed, epoch=3)
    assert counts.tolist() == [min(len(rows[a]), 6) for a in anchors.tolist()]
    for a, drawn in zip(anchors.tolist(), np.split(flat, np.cumsum(counts)[:-1])):
        drawn = drawn.tolist()
        assert drawn == sorted(set(drawn))  # distinct, ascending
        assert set(drawn) <= rows[a]
        if len(rows[a]) <= 6:
            assert drawn == sorted(rows[a])


def test_sample_draw_does_not_depend_on_the_batch():
    rng = np.random.default_rng(9)
    n = 60
    pos = _dict_of([set(range(n)) - {e} for e in range(n)])
    batch = np.unique(rng.integers(0, n, 25))
    counts, flat = sample_positives(pos, batch, 5, seed=11, epoch=2)
    per_anchor = np.split(flat, np.cumsum(counts)[:-1])
    for a, drawn in zip(batch.tolist(), per_anchor):
        assert drawn.tolist() == sample_positives(pos, [a], 5, seed=11, epoch=2)[1].tolist()
    reordered = sample_positives(pos, batch[::-1], 5, seed=11, epoch=2)[1]
    assert np.array_equal(np.concatenate(per_anchor[::-1]), reordered)


@pytest.mark.parametrize("anchor", [-3, -1, 3, 4])
def test_sample_refuses_anchors_outside_the_dictionary(anchor):
    """-3 used to read entity 1's row, -1 raised a raw ValueError and 3 an IndexError."""
    pos = _dict_of([{1, 2}, {0, 2}, {0, 1}])
    with pytest.raises(UnknownEntityError, match=f"anchor {anchor} is not in 0..2") as err:
        sample_positives(pos, [0, anchor, 1], 2, seed=0)
    assert "\n" not in str(err.value)
    with pytest.raises(UnknownEntityError, match=f"entity {anchor} is not in 0..2"):
        pos[anchor]
    assert pos[2] == {0, 1} and _draw(pos, 2, 2, seed=0) == [0, 1]


def test_sample_from_an_empty_dictionary():
    pos = _dict_of([])
    counts, flat = sample_positives(pos, [], 3, seed=0)
    assert counts.size == flat.size == 0
    with pytest.raises(UnknownEntityError):
        sample_positives(pos, [0], 3, seed=0)


def test_sample_takes_rows_of_at_most_m_whole_unhashed(monkeypatch):
    def unreachable(z):
        raise AssertionError("hashed a row of at most m targets")

    monkeypatch.setattr(mining, "_mix", unreachable)
    rows = [{1, 2, 3}, {0}, {0, 3}, {0, 2}, set()]
    pos = _dict_of(rows)
    counts, flat = sample_positives(pos, [4, 0, 2, 0, 1], 3, seed=7, epoch=1)
    assert counts.tolist() == [0, 3, 2, 3, 1]
    assert flat.tolist() == [1, 2, 3, 0, 3, 1, 2, 3, 0]


def _mixed_rows(n, m, padding, seed):
    """Rows over n entities of every length 0..2m + 1, so shorter than, equal to and
    longer than m, then padding empty rows, as a dictionary padded past the train
    split has."""
    rng = np.random.default_rng(seed)
    rows = [set(rng.choice(np.delete(np.arange(n), a), a % (2 * m + 2), replace=False).tolist())
            for a in range(n)]
    return _dict_of(rows + [set()] * padding, k=2)


@pytest.mark.parametrize("block", [mining._DRAW_BLOCK, 9, 3])
@pytest.mark.parametrize("m", [2, 4])
def test_epoch_draw_equals_the_per_batch_draw(monkeypatch, block, m):
    """The epoch's dictionary gives every anchor subset exactly the draw the mined
    dictionary gives it, with the blocks bounded small so that the rows split
    across many of them."""
    monkeypatch.setattr(mining, "_DRAW_BLOCK", block)
    pos = _mixed_rows(30, m, padding=4, seed=m)
    rng = np.random.default_rng(block)
    for seed in (0, 5):
        for epoch in (1, 2, 3):
            drawn = draw_epoch(pos, m, seed, epoch)
            assert drawn.hop_bound == 2 and drawn.entity_count == pos.entity_count
            assert np.diff(drawn.indptr).max() <= m
            everyone = np.arange(pos.entity_count)
            whole = sample_positives(pos, everyone, m, seed, epoch)
            oracle = sample_positives_one_by_one(pos, everyone, m, seed, epoch)
            assert all(np.array_equal(a, b) for a, b in zip(whole, oracle))
            for size in (0, 1, 7, 40):
                anchors = rng.integers(0, pos.entity_count, size)  # repeats included
                want = sample_positives(pos, anchors, m, seed, epoch)
                got = sample_positives(drawn, anchors, m, seed, epoch)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_epoch_draw_blocks_cover_every_anchor_within_the_bounds(monkeypatch):
    monkeypatch.setattr(mining, "_DRAW_BLOCK", 3)
    pos = _dict_of([{1}, {0, 2, 3, 4, 5, 6, 7}, {1}, {1}, {1}, {1}, {1}, {1}, set(), set()])
    blocks = list(mining._anchor_blocks(pos.indptr))
    assert blocks == [(0, 1), (1, 2), (2, 5), (5, 8), (8, 10)]
    assert list(mining._anchor_blocks(_dict_of([]).indptr)) == []
    assert draw_epoch(_dict_of([]), 3, 0, 1) == _dict_of([])


def test_epoch_draw_temporaries_stay_within_the_block(monkeypatch):
    """Each block's draw allocates a fixed multiple of the block at most, however
    many targets the dictionary holds."""
    n, row, block = 1 << 10, 1 << 6, 1 << 10
    monkeypatch.setattr(mining, "_DRAW_BLOCK", block)
    rng = np.random.default_rng(0)
    pos = _dict_of([set(rng.choice(n, row, replace=False).tolist()) for _ in range(n)])
    assert len(pos.indices) >= 1 << 16
    draw, peaks = mining.sample_positives, []

    def traced(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = draw(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(mining, "sample_positives", traced)
    tracemalloc.start()
    try:
        draw_epoch(pos, 4, 0, 1)
    finally:
        tracemalloc.stop()
    assert len(peaks) >= len(pos.indices) // block  # one block after another
    assert max(peaks) <= 128 * block  # about 73 bytes a target; 64 blocks unblocked


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
        (symd_bytes(2, 3, [2, 1, 1, 2, 1, 0, 0]), "0's targets do not strictly ascend at 1"),
        (symd_bytes(2, 2, [2, 1, 1, 1, 0]), "0's targets do not strictly ascend at 1"),
    ],
    ids=["out_of_range", "self_pair", "asymmetric", "descending_row", "repeated_target"],
)
def test_dict_bad_pairs_rejected(tmp_path, rows, problem):
    # save_dict writes any content with a valid checksum; load_dict must
    # still refuse pairs no miner can produce.
    path = tmp_path / "bad.symd"
    if isinstance(rows, bytes):  # rows save_dict cannot write, framed by hand
        path.write_bytes(rows)
    else:
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


def test_dict_version_1_refused(tmp_path):
    # Version 1 put each entity's count in front of its targets.
    rows = ({1, 2}, {0}, {0})
    old = symd_bytes(1, 3, [2, 1, 2, 1, 0, 1, 0])
    path = tmp_path / "old.symd"
    path.write_bytes(old)
    with pytest.raises(CorruptDictFileError, match="version 1"):
        load_dict(path)
    # Version 2 stores the same words, counts first, so the size is unchanged.
    save_dict(positive_dict(rows), path)
    assert path.read_bytes()[4:8] == (2).to_bytes(4, "little")
    assert path.stat().st_size == len(old)


@pytest.mark.parametrize(
    "entity_count,words",
    [
        (5, [1, 0]),  # fewer words than counts
        (2, [2, 1, 0]),  # counts ask for more targets than stored
        (2, [0, 0, 1]),  # a target no count covers
        (2, [2**64 - 1, 2, 1]),  # counts whose u64 sum wraps to the stored 1
        (2, [2**63, 2**63 + 1, 1]),  # the same, through two huge counts
    ],
    ids=["short_table", "short_targets", "extra_target", "wrapping_sum", "huge_counts"],
)
def test_dict_bad_counts_rejected(tmp_path, entity_count, words):
    path = tmp_path / "bad.symd"
    path.write_bytes(symd_bytes(2, entity_count, words))
    with pytest.raises(CorruptDictFileError, match="bad.symd"):
        load_dict(path)


def test_hop_bound_mismatch_surfaces_in_training(tmp_path):
    import numpy as np

    from symkge.config import TrainConfig
    from symkge.losses import combined_gradients
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
        combined_gradients(table, ScorerKind.TRANSE, batch, negatives, loaded, cfg)
