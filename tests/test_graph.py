"""Interning, union adjacency, and triple-file parsing."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkge.errors import EmptyDatasetError, MalformedTripleError
from symkge.graph import (
    FORWARD,
    INVERSE,
    SignedRelation,
    _distinct,
    intern_graph,
    known_keys,
    load_dataset,
    read_triple_file,
)

from conftest import random_raw_triples
from oracles import flipped, known_keys_oracle, signed_neighbors


def test_single_triple_counts():
    graph, labels = intern_graph([("Bob", "play", "Basketball")])
    assert graph.entity_count == 2
    assert graph.relation_count == 1
    assert len(graph.triples) == 1
    assert len(graph.nbr) == 2
    assert labels.entity_labels == ("Bob", "Basketball")


def test_duplicate_triples_removed():
    graph, _ = intern_graph([("a", "r", "b"), ("a", "r", "b")])
    assert len(graph.triples) == 1


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        intern_graph([])


def test_malformed_rows_rejected():
    with pytest.raises(MalformedTripleError):
        intern_graph([("a", "r")])  # type: ignore[list-item]
    with pytest.raises(MalformedTripleError):
        intern_graph([("a", "", "b")])


def test_signed_neighbors_forward_and_inverse():
    graph, labels = intern_graph([("Bob", "play", "Basketball")])
    bob = labels.entity_ids["Bob"]
    ball = labels.entity_ids["Basketball"]
    assert signed_neighbors(graph, bob) == ((SignedRelation(0, FORWARD), ball),)
    assert signed_neighbors(graph, ball) == ((SignedRelation(0, INVERSE), bob),)


def test_every_forward_edge_has_inverse():
    rng = random.Random(7)
    graph, _ = intern_graph(random_raw_triples(rng, 20, 60, 5))
    edges = {
        (e, sr, nb) for e in range(graph.entity_count) for sr, nb in signed_neighbors(graph, e)
    }
    for e, sr, nb in edges:
        assert (nb, flipped(sr), e) in edges


def test_union_neighbor_count_matches_triples():
    rng = random.Random(3)
    graph, _ = intern_graph(random_raw_triples(rng, 25, 80, 6))
    total = sum(len(signed_neighbors(graph, e)) for e in range(graph.entity_count))
    assert total == 2 * len(graph.triples)


def test_out_index_sorted():
    rng = random.Random(11)
    graph, _ = intern_graph(random_raw_triples(rng, 15, 70, 4))
    for e in range(graph.entity_count):
        entries = signed_neighbors(graph, e)
        assert list(entries) == sorted(entries)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.text(min_size=1, max_size=4), st.text(min_size=1, max_size=3),
              st.text(min_size=1, max_size=4)),
    min_size=1, max_size=30,
))
def test_label_round_trip(raw):
    graph, labels = intern_graph(raw)
    for label, eid in labels.entity_ids.items():
        assert labels.entity_labels[eid] == label
    for label, rid in labels.relation_ids.items():
        assert labels.relation_labels[rid] == label
    assert set(labels.entity_ids.values()) == set(range(graph.entity_count))
    assert set(labels.relation_ids.values()) == set(range(graph.relation_count))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.data())
def test_distinct_equals_np_unique(count, data):
    """Distinct ids and the inverse, as np.unique returns them, from a counting pass."""
    kind = data.draw(st.sampled_from(["empty", "single", "all equal", "random"]))
    size = {"empty": 0, "single": 1}.get(kind, data.draw(st.integers(1, 500)))
    if kind == "all equal":
        ids = np.full(size, data.draw(st.integers(0, count - 1)), np.int64)
    else:
        ids = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=size,
                                          max_size=size)), np.int64)
    if size and data.draw(st.booleans()):
        ids[data.draw(st.integers(0, size - 1))] = count - 1  # the table's last row
    distinct, inverse = _distinct(ids, count)
    expected, expected_inverse = np.unique(ids, return_inverse=True)
    for got, want in ((distinct, expected), (inverse, expected_inverse)):
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_interning_deterministic():
    rng = random.Random(5)
    raw = random_raw_triples(rng, 12, 40, 3)
    g1, l1 = intern_graph(raw)
    g2, l2 = intern_graph(list(raw))
    assert g1 == g2
    assert l1 == l2


def test_read_triple_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "train.tsv"
    path.write_text("# header\nBob\tplay\tBasketball\n\nJones\tplay\tBasketball\n",
                    encoding="utf-8")
    rows = read_triple_file(path)
    assert rows == [("Bob", "play", "Basketball"), ("Jones", "play", "Basketball")]
    # Text mode turns CRLF into LF, so a CRLF file gives the same rows.
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_triple_file(crlf) == rows


def test_read_triple_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.tsv"
    for text in ("a\tb\n", "a\t\tb\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedTripleError):
            read_triple_file(path)


def test_load_dataset_vocab_spans_all_splits(tmp_path):
    (tmp_path / "train.tsv").write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
    (tmp_path / "valid.tsv").write_text("a\tr\tc\n", encoding="utf-8")
    (tmp_path / "test.tsv").write_text("d\ts\ta\n", encoding="utf-8")
    ds = load_dataset(tmp_path / "train.tsv", tmp_path / "valid.tsv", tmp_path / "test.tsv")
    assert ds.graph.entity_count == 4  # a, b, c, d
    assert ds.graph.relation_count == 2
    assert len(ds.train) == 2
    assert len(ds.valid) == 1
    assert len(ds.test) == 1
    # train-only ids are not disturbed by the extra splits
    solo_graph, solo_labels = intern_graph(read_triple_file(tmp_path / "train.tsv"))
    assert ds.labels.entity_ids["a"] == solo_labels.entity_ids["a"]
    assert ds.labels.entity_ids["c"] == solo_labels.entity_ids["c"]
    assert solo_graph.triples == ds.graph.triples
    # test-only entity has no train edges
    assert signed_neighbors(ds.graph, ds.labels.entity_ids["d"]) == ()


def test_self_loop_kept():
    graph, _ = intern_graph([("a", "r", "a"), ("a", "r", "b")])
    assert len(graph.triples) == 2
    assert len(signed_neighbors(graph, 0)) == 3  # loop contributes forward and inverse


def _write_split(path, rows):
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows), encoding="utf-8")
    return path


def test_load_dataset_matches_interning_splits_in_order(tmp_path):
    late_entities = late_relations = 0
    for seed in range(20):
        rng = random.Random(seed)
        train = random_raw_triples(rng, 10, 30, 3)
        valid = random_raw_triples(rng, 15, 12, 5) + train[:2]
        test = random_raw_triples(rng, 15, 12, 5)
        test += test[:3]  # duplicate rows within a split
        ds = load_dataset(_write_split(tmp_path / "train.tsv", train),
                          _write_split(tmp_path / "valid.tsv", valid),
                          _write_split(tmp_path / "test.tsv", test))

        train_graph, train_labels = intern_graph(train)
        _, all_labels = intern_graph(train + valid + test)
        assert ds.labels == all_labels
        assert ds.graph.triples == ds.train == train_graph.triples
        assert ds.graph.entity_count == len(all_labels.entity_labels)
        assert ds.graph.relation_count == len(all_labels.relation_labels)
        n_train = train_graph.entity_count
        out_index = [signed_neighbors(ds.graph, e) for e in range(ds.graph.entity_count)]
        assert out_index[:n_train] == [signed_neighbors(train_graph, e) for e in range(n_train)]
        assert all(edges == () for edges in out_index[n_train:])
        late_entities += ds.graph.entity_count - n_train
        late_relations += ds.graph.relation_count - train_graph.relation_count

        for split, rows in ((ds.valid, valid), (ds.test, test)):
            want = []
            for h, r, t in rows:
                triple = (all_labels.entity_ids[h], all_labels.relation_ids[r],
                          all_labels.entity_ids[t])
                if triple not in want:
                    want.append(triple)
            assert list(split) == want
    assert late_entities and late_relations  # valid/test-only labels were exercised


def _keys_cases():
    """(triples, entity_count, relation_count): ids on both sides of each
    count, repeated rows, every row outside, and no rows."""
    rng = np.random.default_rng(9)
    cases = []
    for n_e, n_r, n in ((5, 2, 40), (9, 3, 200), (1, 1, 6)):
        rows = rng.integers(-2, [n_e + 2, n_r + 2, n_e + 2], size=(n, 3))
        kept = rows % [n_e, n_r, n_e]  # every id moved inside its count
        cases.append((np.concatenate([rows, kept, kept[: n // 2]]), n_e, n_r))
    cases.append((np.array([[-1, 0, 0], [0, 2, 0], [0, 0, 4], [4, -1, 1]]), 4, 2))
    cases.append((np.empty((0, 3), dtype=np.int64), 4, 2))
    return cases


@pytest.mark.parametrize("triples, entity_count, relation_count", _keys_cases(),
                         ids=["small", "wide", "one-entity", "all-outside", "empty"])
def test_known_keys_match_oracle(triples, entity_count, relation_count):
    keys = known_keys(triples.astype(np.int64), entity_count, relation_count)
    assert keys.dtype == np.int64
    assert (np.diff(keys) > 0).all()
    assert keys.tolist() == known_keys_oracle(triples.tolist(), entity_count, relation_count)
