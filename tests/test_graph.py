"""Interning, union adjacency, and triple-file parsing."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symkge.errors import BadValueError, EmptyDatasetError, MalformedTripleError
from symkge.graph import (
    _SOLID,
    FORWARD,
    INVERSE,
    SignedRelation,
    _distinct,
    _row_order,
    intern_graph,
    known_keys,
    load_dataset,
    read_triple_file,
    read_tsv,
)

from conftest import random_raw_triples
from oracles import flipped, known_keys_oracle, read_tsv_by_lines, signed_neighbors


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


def _bounded_columns(data, unique):
    """Up to 200 rows of 1 to 4 columns, column c in [0, bounds[c]), as tuples."""
    bounds = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    size = math.prod(bounds)
    flat = data.draw(st.lists(st.integers(0, size - 1), max_size=min(size, 200) if unique else 200,
                              unique=unique))
    return np.unravel_index(np.array(flat, np.int64), bounds), tuple(bounds)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_order_is_lexsorts_permutation_for_distinct_keys(data):
    columns, bounds = _bounded_columns(data, unique=True)
    assert np.array_equal(_row_order(columns, bounds), np.lexsort(columns[::-1]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_order_sorts_tied_keys_as_lexsort_does(data):
    """Rows that tie may land in any order, so only the sorted rows must agree."""
    columns, bounds = _bounded_columns(data, unique=False)
    order = _row_order(columns, bounds)
    assert sorted(order.tolist()) == list(range(len(columns[0])))
    rows = np.stack(columns, axis=1)
    assert np.array_equal(rows[order], rows[np.lexsort(columns[::-1])])


@pytest.mark.parametrize("bounds, packed", [
    ((2**40, 2**23), True),
    ((2**40 + 1, 2**23), False),
    ((3, 2**62, 2), False),
    ((2**64, 1), False),
])
def test_row_order_keeps_lexsort_where_keys_would_not_fit(monkeypatch, bounds, packed):
    """The bounds alone choose the branch. Each column holds its largest value, 0
    and a middle value, so a packed key of the first case reaches 2^63 - 1."""
    columns = tuple(np.array([top, 0, top // 2], np.int64)
                    for top in (min(b, 2**63) - 1 for b in bounds))
    lexsort, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
    assert np.array_equal(_row_order(columns, bounds), lexsort(columns[::-1]))
    assert len(calls) == (0 if packed else 1)


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


def test_read_triple_file_names_the_line_that_is_not_utf8(tmp_path):
    """The decoder fails a whole read chunk at once, so the reader finds the line
    itself, numbering lines as text mode does whatever their newline."""
    rows = [f"e{i}\tr\te{i + 1}".encode("utf-8") for i in range(5000)]
    rows[4321] = b"e\xff\tr\te"
    ends = [b"\n", b"\r\n", b"\r"]
    path = tmp_path / "big.tsv"
    path.write_bytes(b"".join(row + ends[i % 3] for i, row in enumerate(rows)))
    with pytest.raises(MalformedTripleError, match=r"big\.tsv:4322: not UTF-8 text$"):
        read_triple_file(path)


# '–' (U+2013, E2 80 93) and '©' (U+00A9, C2 A9) are not whitespace, though their
# lead bytes start some characters that are, and each of ©'s bytes is in one.
FIELD_CHARS = "ab#\u00e9\u4e2d\u2013\u00a9 \u00a0\x1c\u2028"
SPACES = " \t\x0b\x0c\x1c\x85\u00a0\u2028"
READERS = {3: (("head", "relation", "tail"), MalformedTripleError),
           2: (("entity", "class"), BadValueError)}


def _replaced(fields, at, value):
    return [*fields[:at], value, *fields[at + 1 :]]


@st.composite
def tsv_files(draw, width):
    """The bytes of a file mixing data rows with blank, all-whitespace, '#',
    wrong-width and empty-field lines and rows with one whitespace-only field,
    in mixed newlines; or of data rows only."""
    field = st.text(st.sampled_from(FIELD_CHARS), min_size=1, max_size=3)
    fields = st.lists(field, min_size=width, max_size=width)
    slot = st.integers(0, width - 1)
    other = st.one_of(
        st.just(""),
        st.text(st.sampled_from(SPACES), min_size=1, max_size=4),
        field.map("#".__add__),
        st.one_of(
            st.lists(field, min_size=1, max_size=width + 2).filter(lambda f: len(f) != width),
            st.builds(_replaced, fields, slot, st.just("")),
            st.builds(_replaced, fields, slot,
                      st.text(st.sampled_from(" \x1c\u00a0\u2028"), min_size=1, max_size=2)),
        ).map("\t".join),
    )
    rows = fields.map("\t".join)
    lines = draw(st.one_of(st.lists(rows, max_size=8), st.lists(rows | other, max_size=8)))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if data and draw(st.sampled_from(range(10))) == 9:  # one file in ten
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def _outcome(read, path, names, error):
    try:
        return list(read(path, names, error))
    except error as exc:
        return type(exc), str(exc)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([3, 2]).flatmap(lambda width: st.tuples(st.just(width), tsv_files(width))))
def test_read_tsv_matches_the_line_walk(tmp_path_factory, width_and_data):
    width, data = width_and_data
    path = tmp_path_factory.getbasetemp() / "read_tsv_example.tsv"
    path.write_bytes(data)
    names, error = READERS[width]
    bulk = _outcome(lambda *args: zip(*read_tsv(*args)), path, names, error)
    assert bulk == _outcome(read_tsv_by_lines, path, names, error)


def test_a_file_of_data_rows_is_split_at_once(tmp_path):
    """No line is walked: the line numbers are a range, not a list built per line."""
    path = tmp_path / "rows.tsv"
    path.write_text("a\tr\tb\n\u4e2d\tr\t\u2013\n\u00a0b\tr \ta\n", encoding="utf-8")
    linenos, rows = read_tsv(path, READERS[3][0], MalformedTripleError)
    assert linenos == range(1, 4)
    assert rows == [("a", "r", "b"), ("\u4e2d", "r", "\u2013"), ("\u00a0b", "r ", "a")]


def test_solid_bytes_are_in_no_whitespace_character():
    space = {byte for c in range(sys.maxunicode + 1) if chr(c).isspace()
             for byte in chr(c).encode("utf-8")}
    assert set(np.flatnonzero(~_SOLID).tolist()) == space


def test_byte_order_mark_is_not_part_of_the_first_label(tmp_path):
    """A train file saved with a BOM and a test file without one name the same Bob."""
    (tmp_path / "train.tsv").write_bytes(b"\xef\xbb\xbfBob\tknows\tBall\nBall\tknows\tJones\n")
    (tmp_path / "test.tsv").write_text("Bob\tknows\tJones\n", encoding="utf-8")
    ds = load_dataset(tmp_path / "train.tsv", None, tmp_path / "test.tsv")
    assert ds.labels.entity_labels == ("Bob", "Ball", "Jones")
    assert ds.test == ((0, 0, 2),)


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
