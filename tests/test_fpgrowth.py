"""FP-tree construction, conditional projection, and mining equivalence."""

from __future__ import annotations

import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from freqmine.apriori import apriori_mine
from freqmine.bench import SynthParams, generate_synthetic
from freqmine.dataset import (
    TransactionDb,
    item_frequencies,
    parse_transactions,
    serialize_transactions,
)
from freqmine.errors import ValidationError
from freqmine.fpgrowth import (
    ConditionalPatternBase,
    TreeStats,
    build_conditional_tree,
    build_fptree,
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
    base = ConditionalPatternBase([((c, b), 2), ((a,), 1)])
    _, header = build_conditional_tree(base, 1, db.catalog)
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
    assert tree.totals == list(header.values())
    for rank, chain in enumerate(tree.chains):
        assert chain == sorted(chain)
        assert all(tree.ranks[node] == rank for node in chain)
        assert sum(tree.counts[node] for node in chain) == tree.totals[rank]


def test_conditional_pattern_base_db5_golden(db5):
    tree, header = build_fptree(db5, 3)
    base = conditional_pattern_base(tree, header, db5.catalog.lookup("c"))
    named = [(db5.catalog.labels_of(path), count) for path, count in base.paths]
    assert named == [(("a", "b"), 2), (("a",), 1), (("b",), 1)]


def test_conditional_pattern_base_unknown_item(db5):
    tree, header = build_fptree(db5, 3)
    with pytest.raises(KeyError):
        conditional_pattern_base(tree, header, db5.catalog.lookup("d"))


def test_empty_prefix_paths_keep_their_counts():
    db = parse_transactions("a\nb\na,b\n")
    tree, header = build_fptree(db, 1)
    b = db.catalog.lookup("b")
    base = conditional_pattern_base(tree, header, b)
    assert sorted(base.paths) == [((), 1), ((db.catalog.lookup("a"),), 1)]


def test_build_conditional_tree_db5_c(db5):
    tree, header = build_fptree(db5, 3)
    base = conditional_pattern_base(tree, header, db5.catalog.lookup("c"))
    subtree, subheader = build_conditional_tree(base, 3, db5.catalog)
    assert subtree.node_count == 3
    assert dump_tree(subtree) == "a:3\n  b:2\nb:1\n"
    assert [(db5.catalog.label(item), total) for item, total in subheader.items()] == [
        ("a", 3),
        ("b", 3),
    ]


def test_build_conditional_tree_filters_below_threshold(db5):
    tree, header = build_fptree(db5, 3)
    base = conditional_pattern_base(tree, header, db5.catalog.lookup("c"))
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
    assert stats.nodes_created == 10
    assert stats.alive_nodes == 0
    assert stats.peak_alive_nodes >= 6


def test_fpgrowth_rejects_bad_threshold(db5):
    with pytest.raises(ValidationError):
        fpgrowth_mine(db5, 0)
    with pytest.raises(ValidationError):
        build_fptree(db5, -1)


def test_fpgrowth_empty_db():
    freq = fpgrowth_mine(parse_transactions(""), 1)
    assert freq.support == {} and freq.n == 0


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
    base = ConditionalPatternBase(paths)
    tree, header = build_fptree(db, threshold)
    expected, expected_header = build_conditional_tree(base, threshold, db.catalog)
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
    assert tree.totals == expected.totals
    assert list(header.items()) == list(expected_header.items())


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_top_level_nodes_are_numbered_depth_first(case):
    """Each node hangs under the node just before it or one of its ancestors."""
    db, threshold = case
    parents = build_fptree(db, threshold)[0].parents
    for node in range(2, len(parents)):
        above = node - 1
        while above and above != parents[node]:
            above = parents[above]
        assert above == parents[node]


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_tree_stats_drain_to_zero(case):
    db, threshold = case
    stats = TreeStats()
    fpgrowth_mine(db, threshold, stats=stats)
    assert stats.alive_nodes == 0
    assert stats.peak_alive_nodes <= stats.nodes_created


def _assert_projections_match(tree, header, ranked, threshold, catalog):
    for rank, chain in enumerate(ranked.chains):
        assert chain == [i for i, r in enumerate(ranked.ranks) if r == rank]
        if not chain:
            continue
        base = conditional_pattern_base(tree, header, ranked.order[rank])
        expected, expected_header = build_conditional_tree(base, threshold, catalog)
        projected = ranked.project(rank, threshold)
        assert projected.order is ranked.order
        assert all(parent < node for node, parent in enumerate(projected.parents) if node)
        assert all(chain == sorted(chain) for chain in projected.chains)
        assert dump_tree(projected) == dump_tree(expected)
        assert projected.node_count == expected.node_count
        totals = {projected.order[r]: t for r, t in enumerate(projected.totals) if t}
        assert totals == expected_header
        _assert_projections_match(expected, expected_header, projected, threshold, catalog)


@settings(max_examples=100, deadline=None)
@given(conftest.dbs_with_threshold())
def test_projection_matches_reference_route(case):
    """Every conditional tree, at every depth, equals the path-by-path build."""
    db, threshold = case
    tree, header = build_fptree(db, threshold)
    _assert_projections_match(tree, header, tree, threshold, db.catalog)


@settings(max_examples=100, deadline=None)
@given(conftest.small_dbs())
def test_projection_at_threshold_one_matches_reference_route(db):
    """At threshold 1 no rank is ever dropped, so every projection is merge-free."""
    tree, header = build_fptree(db, 1)
    _assert_projections_match(tree, header, tree, 1, db.catalog)


def test_projection_drops_a_rank_without_merging():
    # Above z: a-b twice, a-c-d once and d once. c's conditional total is 1,
    # so it is dropped and d is relinked under a, where no d node is yet.
    db = parse_transactions("a,b,z\na,b,z\na,c,d,z\nd,z\na,b,c,d\na,b,c,d\nc\n")
    tree, _ = build_fptree(db, 2)
    assert [db.catalog.label(item) for item in tree.order] == ["a", "b", "c", "d", "z"]
    projected = tree.project(tree.order.index(db.catalog.lookup("z")), 2)
    assert dump_tree(projected) == "a:3\n  b:2\n  d:1\nd:1\n"
    assert projected.parents == [0, 0, 1, 1, 0]
    assert projected.totals == [3, 2, 0, 2]


def test_tree_counters_are_pinned():
    stats = TreeStats()
    db = generate_synthetic(SynthParams(2000, 20, 6.0, 0.5, 1))
    assert len(fpgrowth_mine(db, 40, stats).support) == 1616
    assert stats.nodes_created == 22706
    assert stats.peak_alive_nodes == 6093


def test_projection_merges_paths_joined_by_a_dropped_item():
    # b is frequent overall but not alongside x, so x's prefix paths a-b-c
    # and a-c meet once b is dropped.
    db = parse_transactions("a,b,c,x\na,c,x\na,b\nb\n")
    tree, _ = build_fptree(db, 2)
    projected = tree.project(tree.order.index(db.catalog.lookup("x")), 2)
    assert dump_tree(projected) == "a:2\n  c:2\n"
    assert projected.node_count == 2


@st.composite
def dbs_reaching_every_projection_route(draw):
    """A random database plus rows on items of their own, with a threshold.

    No random row holds an added item, so the added rows make paths of their
    own. At threshold m >= 2 the added items rank ga, gc, gz, gb: ga and gc
    project to empty trees, gb is copied straight, and gz drops gc (total 1)
    and takes the merge route.
    """
    threshold = draw(st.integers(min_value=2, max_value=5))
    random_rows = serialize_transactions(draw(conftest.small_dbs()))
    added = ["ga,gb,gz"] * threshold + ["ga,gc,gz"] + ["gc"] * threshold
    return parse_transactions(random_rows + "\n".join(added) + "\n"), threshold


def _projection_route(tree, header, rank, threshold):
    """Which of project's three returns the rank's projection takes."""
    totals = Counter()
    for path, count in conditional_pattern_base(tree, header, tree.order[rank]).paths:
        for item in path:
            totals[item] += count
    if all(total < threshold for total in totals.values()):
        return "empty"
    if all(total >= threshold for total in totals.values()):
        return "straight"
    return "merge"


@settings(max_examples=60, deadline=None)
@given(dbs_reaching_every_projection_route())
def test_repeated_projections_of_one_tree_match_a_fresh_tree(case):
    """project resets the tree's reused walk array on every return path."""
    db, threshold = case
    tree, header = build_fptree(db, threshold)
    routes = Counter()
    ascending = range(len(tree.order))
    for ranks in (ascending, reversed(ascending)):
        for rank in ranks:
            projected = tree.project(rank, threshold)
            expected = build_fptree(db, threshold)[0].project(rank, threshold)
            assert dump_tree(projected) == dump_tree(expected)
            assert projected.totals == expected.totals
            assert projected.node_count == expected.node_count
            routes[_projection_route(tree, header, rank, threshold)] += 1
    assert set(routes) == {"empty", "straight", "merge"}
