"""FP-tree construction, conditional projection, and mining equivalence."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from freqmine.apriori import apriori_mine
from freqmine.bench import SynthParams, generate_synthetic
from freqmine.dataset import (
    TransactionDb,
    item_frequencies,
    parse_transactions,
)
from freqmine.errors import ValidationError
from freqmine.fpgrowth import (
    TreeStats,
    build_conditional_tree,
    build_fptree,
    build_mask_base,
    conditional_pattern_base,
    dump_tree,
    fpgrowth_mine,
)

DB5_TREE_DUMP = "a:4\n  b:3\n    c:2\n  c:1\nb:1\n  c:1\n"


def test_build_fptree_db5_shape(db5):
    tree, header = build_fptree(db5, 3)
    assert tree.node_count == 6
    assert dump_tree(tree) == DB5_TREE_DUMP
    assert [(db5.catalog.label(item), total) for item, total in header.items()] == [
        ("a", 4),
        ("b", 4),
        ("c", 4),
    ]


def test_header_ties_break_by_label_not_handle():
    # c is interned before b, so handle order and label order disagree.
    db = parse_transactions("c,b\na\nb\nc\n")
    c, b, a = (db.catalog.lookup(label) for label in "cba")
    _, header = build_fptree(db, 1)
    assert list(header) == [b, c, a]
    _, header = build_conditional_tree([((c, b), 2), ((a,), 1)], 1, db.catalog)
    assert list(header) == [b, c, a]


def test_header_excludes_infrequent_items(db5):
    _, header = build_fptree(db5, 3)
    assert db5.catalog.lookup("d") not in header


def test_header_order_descending_support():
    db = parse_transactions("a\na\na\nb\nb\nc,b\n")
    _, header = build_fptree(db, 1)
    assert [(db.catalog.label(item), total) for item, total in header.items()] == [
        ("a", 3),
        ("b", 3),
        ("c", 1),
    ]


def test_chain_counts_sum_to_header_total(db5):
    tree, header = build_fptree(db5, 1)
    assert tree.order == list(header)
    for rank, chain in enumerate(tree.chains):
        assert chain == sorted(chain)
        assert all(tree.ranks[node] == rank for node in chain)
        assert sum(tree.counts[node] for node in chain) == header[tree.order[rank]]


def test_conditional_pattern_base_db5_golden(db5):
    tree, _ = build_fptree(db5, 3)
    base = conditional_pattern_base(tree, db5.catalog.lookup("c"))
    named = [(db5.catalog.labels_of(path), count) for path, count in base]
    assert named == [(("a", "b"), 2), (("a",), 1), (("b",), 1)]


def test_conditional_pattern_base_unknown_item(db5):
    tree, _ = build_fptree(db5, 3)
    with pytest.raises(KeyError):
        conditional_pattern_base(tree, db5.catalog.lookup("d"))


def test_empty_prefix_paths_keep_their_counts():
    db = parse_transactions("a\nb\na,b\n")
    tree, _ = build_fptree(db, 1)
    b = db.catalog.lookup("b")
    base = conditional_pattern_base(tree, b)
    assert sorted(base) == [((), 1), ((db.catalog.lookup("a"),), 1)]


def test_build_conditional_tree_db5_c(db5):
    tree, _ = build_fptree(db5, 3)
    base = conditional_pattern_base(tree, db5.catalog.lookup("c"))
    subtree, subheader = build_conditional_tree(base, 3, db5.catalog)
    assert subtree.node_count == 3
    assert dump_tree(subtree) == "a:3\n  b:2\nb:1\n"
    assert [(db5.catalog.label(item), total) for item, total in subheader.items()] == [
        ("a", 3),
        ("b", 3),
    ]


def test_build_conditional_tree_filters_below_threshold(db5):
    tree, _ = build_fptree(db5, 3)
    base = conditional_pattern_base(tree, db5.catalog.lookup("c"))
    subtree, subheader = build_conditional_tree(base, 4, db5.catalog)
    assert subtree.node_count == 0
    assert len(subheader) == 0


def test_fpgrowth_db5_golden(db5):
    stats = TreeStats()
    freq = fpgrowth_mine(db5, 3, stats=stats)
    named = {db5.catalog.labels_of(s): c for s, c in freq.support.items()}
    assert named == {
        ("a",): 4,
        ("b",): 4,
        ("c",): 4,
        ("a", "b"): 3,
        ("a", "c"): 3,
        ("b", "c"): 3,
    }
    assert stats.nodes_created == 9
    assert stats.peak_alive_nodes == 8


def test_fpgrowth_rejects_bad_threshold(db5):
    with pytest.raises(ValidationError):
        fpgrowth_mine(db5, 0)
    with pytest.raises(ValidationError):
        build_fptree(db5, -1)


def test_fpgrowth_empty_db():
    freq = fpgrowth_mine(parse_transactions(""), 1)
    assert freq.support == {}


def test_dump_tree_empty():
    tree, _ = build_fptree(parse_transactions(""), 1)
    assert dump_tree(tree) == ""


def test_dump_tree_renders_a_path_deeper_than_the_recursion_limit():
    labels = [f"i{k:04d}" for k in range(sys.getrecursionlimit() + 10)]
    tree, _ = build_fptree(parse_transactions(",".join(labels) + "\n"), 1)
    lines = dump_tree(tree).splitlines()
    assert len(lines) == len(labels)
    assert lines[-1] == "  " * (len(labels) - 1) + f"{labels[-1]}:1"


@settings(max_examples=100, deadline=None)
@given(conftest.dbs_with_threshold())
def test_fpgrowth_matches_apriori(case):
    db, threshold = case
    assert fpgrowth_mine(db, threshold).support == apriori_mine(db, threshold).support


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_header_totals_equal_item_frequencies(case):
    db, threshold = case
    counts = item_frequencies(db)
    _, header = build_fptree(db, threshold)
    expected = {i: c for i, c in counts.items() if c >= threshold}
    assert header == expected


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_node_count_bounded_by_ordered_volume(case):
    db, threshold = case
    counts = item_frequencies(db)
    volume = sum(counts[item] >= threshold for t in db.transactions for item in t)
    tree, _ = build_fptree(db, threshold)
    assert tree.node_count <= volume


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_build_fptree_matches_unit_count_pattern_base(case):
    """Folding equal transactions builds the tree that inserting each one does."""
    db, threshold = case
    counts = item_frequencies(db)
    paths = [
        (tuple(sorted(t, key=lambda item: (-counts[item], db.catalog.label(item)))), 1)
        for t in db.transactions
    ]
    tree, header = build_fptree(db, threshold)
    expected, expected_header = build_conditional_tree(paths, threshold, db.catalog)
    assert dump_tree(tree) == dump_tree(expected)
    assert tree.node_count == expected.node_count
    assert list(header.items()) == list(expected_header.items())


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_repeated_rows(), st.integers(min_value=1, max_value=6))
def test_build_fptree_folds_equal_transactions_by_value(db, threshold):
    """Equal transactions build one tree whether or not they share a tuple."""
    shared: dict = {}
    one_each = TransactionDb(
        db.catalog, tuple(shared.setdefault(t, t) for t in db.transactions)
    )
    tree, header = build_fptree(conftest.unshared(db), threshold)
    expected, expected_header = build_fptree(one_each, threshold)
    assert dump_tree(tree) == dump_tree(expected)
    assert (tree.parents, tree.ranks, tree.counts) == (
        expected.parents,
        expected.ranks,
        expected.counts,
    )
    assert list(header.items()) == list(expected_header.items())


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold(), st.data())
def test_reference_tree_does_not_depend_on_insertion_order(case, data):
    """Reversed or shuffled transactions build the same tree, header and pattern bases."""
    db, threshold = case
    tree, header = build_fptree(db, threshold)
    for rows in (db.transactions[::-1], data.draw(st.permutations(db.transactions))):
        other, other_header = build_fptree(TransactionDb(db.catalog, tuple(rows)), threshold)
        assert dump_tree(other) == dump_tree(tree)
        assert other.node_count == tree.node_count
        assert list(other_header.items()) == list(header.items())
        for item in header:
            assert Counter(conditional_pattern_base(other, item)) == Counter(
                conditional_pattern_base(tree, item)
            )


def _reference_tree_stats(base, threshold):
    """Entries created, and the most live along one recursion path, in mining base.

    The walk folds and projects as fpgrowth_mine does, and sums each base's
    node_count along the path that reaches it.
    """

    def walk(base, alive):
        created, peak = base.node_count, alive
        for rank in range(len(base.buckets) - 1, -1, -1):
            bucket = base.buckets[rank]
            if bucket is None:
                continue
            if sum(bucket.values()) < threshold:
                base.fold(rank)
                continue
            sub = base.project(rank)
            if sub.node_count:
                below_created, below_peak = walk(sub, alive + sub.node_count)
                created += below_created
                peak = max(peak, below_peak)
        return created, peak

    return walk(base, base.node_count)


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_tree_stats_match_a_reference_walk(case):
    db, threshold = case
    stats = TreeStats()
    fpgrowth_mine(db, threshold, stats=stats)
    expected = _reference_tree_stats(build_mask_base(db, threshold), threshold)
    assert (stats.nodes_created, stats.peak_alive_nodes) == expected


def _path_sets(paths, threshold):
    """Paths as {item set: summed count}, below-threshold items and empty paths removed."""
    totals = Counter()
    for path, count in paths:
        for item in path:
            totals[item] += count
    sets = Counter()
    for path, count in paths:
        kept = frozenset(item for item in path if totals[item] >= threshold)
        if kept:
            sets[kept] += count
    return sets


def _assert_bases_match(base, tree, header, threshold, catalog):
    """Walk the base as mining does, checking each frequent rank against the tree."""
    frequent = {}
    for rank in range(len(base.buckets) - 1, -1, -1):
        bucket = base.buckets[rank]
        if bucket is None:
            continue
        item, total = base.order[rank], sum(bucket.values())
        if total < threshold:
            base.fold(rank)
            continue
        frequent[item] = total
        sub = base.project(rank)
        masks = [(mask, count) for bucket in sub.buckets if bucket for mask, count in bucket.items()]
        assert sub.node_count == len(masks)
        assert all(mask.bit_length() <= rank for mask, _ in masks)
        paths = [
            ([base.order[r] for r in range(rank) if mask >> r & 1], count) for mask, count in masks
        ]
        reference = conditional_pattern_base(tree, item)
        assert _path_sets(paths, threshold) == _path_sets(reference, threshold)
        subtree, subheader = build_conditional_tree(reference, threshold, catalog)
        _assert_bases_match(sub, subtree, subheader, threshold, catalog)
    assert frequent == header


# Seventy items ranked by label, each in four rows: the wide row and three
# windows of three. Pairs one or two apart and triples of neighbours are
# frequent at 2, and the windows that wrap round mix the lowest ranks with
# the highest.
WIDE_LABELS = [f"w{k:02d}" for k in range(70)]
WIDE_DB = parse_transactions(
    ",".join(WIDE_LABELS)
    + "\n"
    + "".join(f"{WIDE_LABELS[k]},{WIDE_LABELS[k - 69]},{WIDE_LABELS[k - 68]}\n" for k in range(70))
)


@settings(max_examples=100, deadline=None)
@given(conftest.dbs_with_threshold())
@example((WIDE_DB, 2))
def test_projection_matches_reference_route(case):
    """Every frequent rank's mask base, at every depth, holds the reference tree's paths."""
    db, threshold = case
    tree, header = build_fptree(db, threshold)
    base = build_mask_base(db, threshold)
    assert base.order == tree.order
    _assert_bases_match(base, tree, header, threshold, db.catalog)


@settings(max_examples=100, deadline=None)
@given(conftest.small_dbs())
def test_projection_at_threshold_one_matches_reference_route(db):
    """At threshold 1 every rank holding a mask is frequent, so no rank is ever folded."""
    tree, header = build_fptree(db, 1)
    _assert_bases_match(build_mask_base(db, 1), tree, header, 1, db.catalog)


def test_projection_drops_a_rank_without_merging():
    # Above z: a-b twice, a-c-d once and d once. c's conditional total is 1,
    # so it is folded, and a-c-d becomes a-d, where no a-d mask is yet.
    db = parse_transactions("a,b,z\na,b,z\na,c,d,z\nd,z\na,b,c,d\na,b,c,d\nc\n")
    base = build_mask_base(db, 2)
    assert [db.catalog.label(item) for item in base.order] == ["a", "b", "c", "d", "z"]
    projected = base.project(4)
    assert projected.buckets == [None, {0b0011: 2}, None, {0b1101: 1, 0b1000: 1}]
    assert projected.node_count == 3
    assert projected.project(3).buckets == [None, None, {0b0101: 1}]
    assert projected.buckets[:3] == [None, {0b0011: 2}, {0b0101: 1}]
    projected.fold(2)
    assert projected.buckets == [{0b0001: 1}, {0b0011: 2}, None, None]


def test_tree_counters_are_pinned():
    stats = TreeStats()
    db = generate_synthetic(SynthParams(2000, 20, 6.0, 0.5, 1))
    assert len(fpgrowth_mine(db, 40, stats).support) == 1616
    assert stats.nodes_created == 23387
    assert stats.peak_alive_nodes == 2501


def test_projection_merges_paths_joined_by_a_dropped_item():
    # b is frequent overall but not alongside x, so x's prefix paths a-b-c
    # and a-c meet, as a, once c is projected and b is folded.
    db = parse_transactions("a,b,c,x\na,c,x\na,b\nb\n")
    base = build_mask_base(db, 2)
    projected = base.project(base.order.index(db.catalog.lookup("x")))
    assert projected.buckets == [None, None, {0b111: 1, 0b101: 1}]
    assert projected.node_count == 2
    projected.project(2)
    assert projected.buckets == [{0b001: 1}, {0b011: 1}, None]
    projected.fold(1)
    assert projected.buckets == [{0b001: 2}, None, None]


def _fresh_buckets(rows, width):
    """The rows' masks cut below width, summed and bucketed from scratch."""
    buckets = [None] * width
    for mask, count in rows:
        if mask := mask & ((1 << width) - 1):
            bucket = buckets[mask.bit_length() - 1]
            if bucket is None:
                buckets[mask.bit_length() - 1] = {mask: count}
            else:
                bucket[mask] = bucket.get(mask, 0) + count
    return buckets


def _assert_steps_match_fresh_bases(base, rows, threshold):
    assert base.buckets == _fresh_buckets(rows, len(base.buckets))
    assert base.node_count == sum(len(bucket) for bucket in base.buckets if bucket)
    for rank in range(len(base.buckets) - 1, -1, -1):
        bucket = base.buckets[rank]
        if bucket is None:
            continue
        if sum(bucket.values()) < threshold:
            base.fold(rank)
        else:
            through = [(mask, count) for mask, count in rows if mask >> rank & 1]
            _assert_steps_match_fresh_bases(base.project(rank), through, threshold)
        assert base.buckets[:rank] == _fresh_buckets(rows, rank)
        assert base.buckets[rank:] == [None] * (len(base.buckets) - rank)


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_repeated_projections_of_one_tree_match_a_fresh_tree(case):
    """After every fold and project, each base equals one built afresh from the rows."""
    db, threshold = case
    base = build_mask_base(db, threshold)
    bits = {item: 1 << rank for rank, item in enumerate(base.order)}
    rows = [(sum(bits.get(item, 0) for item in row), 1) for row in db.transactions]
    _assert_steps_match_fresh_bases(base, rows, threshold)
