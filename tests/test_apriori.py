"""Levelwise miner: candidate pipeline, counting, and CSV round-trips."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings

import conftest
from freqmine.apriori import (
    AprioriStats,
    FrequentItemsets,
    MiningParams,
    apriori_mine,
    count_support,
    join_candidates,
    prune_candidates,
    read_support_csv,
    threshold_singletons,
    write_frequent_csv,
)
from freqmine.dataset import parse_transactions
from freqmine.errors import ContractViolationError, CsvParseError, ValidationError
from freqmine.oracle import brute_force_frequent

DB5_FREQUENT_AT_3 = {
    ("a",): 4,
    ("b",): 4,
    ("c",): 4,
    ("a", "b"): 3,
    ("a", "c"): 3,
    ("b", "c"): 3,
}


def by_labels(freq, catalog):
    return {catalog.labels_of(s): c for s, c in freq.support.items()}


def test_threshold_singletons_inclusive_boundary(db5):
    from freqmine.dataset import item_frequencies

    counts = item_frequencies(db5)
    assert set(threshold_singletons(counts, 4)) == {(0,), (1,), (2,)}
    assert threshold_singletons(counts, 5) == {}
    # d has count 1 and appears only once the threshold drops to 1
    assert (3,) in threshold_singletons(counts, 1)


def test_join_pairs_from_singletons():
    level = {(0,), (1,), (2,)}
    assert join_candidates(level) == {(0, 1), (0, 2), (1, 2)}


def test_join_requires_shared_prefix():
    level = {(0, 1), (0, 2), (1, 2)}
    assert join_candidates(level) == {(0, 1, 2)}
    # joins only happen within a shared k-1 prefix
    assert join_candidates({(0, 1), (2, 3)}) == set()


def test_join_rejects_mixed_sizes():
    with pytest.raises(ContractViolationError):
        join_candidates({(0,), (0, 1)})


def test_join_empty_level():
    assert join_candidates(set()) == set()


def test_prune_keeps_closed_candidates():
    level = {(0, 1), (0, 2), (1, 2)}
    assert prune_candidates({(0, 1, 2)}, level) == {(0, 1, 2)}
    assert prune_candidates({(0, 1, 2)}, {(0, 1), (0, 2)}) == set()


def test_count_support_db5_pairs(db5):
    tallies = count_support(db5, {(0, 1), (0, 2), (1, 2)})
    assert tallies == {(0, 1): 3, (0, 2): 3, (1, 2): 3}


def test_count_support_reports_zeros():
    db = parse_transactions("a\nb\n")
    assert count_support(db, {(0, 1)}) == {(0, 1): 0}


def test_count_support_rejects_foreign_handles(db5):
    with pytest.raises(ContractViolationError):
        count_support(db5, {(0, 99)})


def _oracle_counts(db, candidates):
    sets = [set(t) for t in db.transactions]
    return {c: sum(1 for t in sets if set(c) <= t) for c in candidates}


@settings(max_examples=100, deadline=None)
@given(conftest.small_dbs())
def test_count_support_matches_set_scans(db):
    """Uniform- and mixed-size candidate sets count identically to raw scans."""
    items = sorted({i for t in db.transactions for i in t})
    if not items:
        return
    uniform = set(combinations(items, min(2, len(items))))
    mixed = {(items[0],)} | set(combinations(items, min(3, len(items))))
    for candidates in (uniform, mixed):
        assert count_support(db, candidates) == _oracle_counts(db, candidates)


def test_apriori_db5_golden(db5):
    freq = apriori_mine(db5, 3)
    assert by_labels(freq, db5.catalog) == DB5_FREQUENT_AT_3
    assert freq.n == 5


def test_apriori_stats_db5(db5):
    stats = AprioriStats()
    apriori_mine(db5, 3, stats=stats)
    assert stats.level_candidates == [(1, 4), (2, 3), (3, 1)]
    assert stats.candidates_tested == 8


def test_apriori_threshold_above_everything(db5):
    assert apriori_mine(db5, 6).support == {}


def test_apriori_empty_db():
    freq = apriori_mine(parse_transactions(""), 1)
    assert freq.support == {} and freq.n == 0


def test_apriori_rejects_bad_threshold(db5):
    for bad in (0, -3):
        with pytest.raises(ValidationError):
            apriori_mine(db5, bad)


def test_mining_params_validation():
    MiningParams(1, 0.5)
    with pytest.raises(ValidationError):
        MiningParams(0, 0.5)
    with pytest.raises(ValidationError):
        MiningParams(1, 1.5)


@settings(max_examples=100, deadline=None)
@given(conftest.dbs_with_threshold())
def test_apriori_matches_brute_force(case):
    db, threshold = case
    assert apriori_mine(db, threshold).support == brute_force_frequent(db, threshold).support


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_apriori_result_is_downward_closed(case):
    db, threshold = case
    support = apriori_mine(db, threshold).support
    for itemset, count in support.items():
        for size in range(1, len(itemset)):
            for subset in combinations(itemset, size):
                assert support[subset] >= count


DB5_CSV = (
    "itemset,support\n"
    "a,4\nb,4\nc,4\n"
    "a|b,3\na|c,3\nb|c,3\n"
)


def test_write_frequent_csv_golden(db5):
    assert write_frequent_csv(apriori_mine(db5, 3), db5.catalog) == DB5_CSV


def test_read_support_csv_round_trip(db5):
    freq = apriori_mine(db5, 3)
    text = write_frequent_csv(freq, db5.catalog)
    again, catalog = read_support_csv(text)
    assert by_labels(again, catalog) == by_labels(freq, db5.catalog)
    assert again.n == 4  # falls back to the largest count seen


def test_read_support_csv_headerless_and_count_header():
    for text in ("a,3\n", "itemset,count\na,3\n"):
        freq, catalog = read_support_csv(text)
        assert by_labels(freq, catalog) == {("a",): 3}


def test_read_support_csv_duplicate_handling():
    freq, _ = read_support_csv("a|b,3\nb|a,3\n")
    assert len(freq.support) == 1
    with pytest.raises(ValidationError):
        read_support_csv("a,3\na,4\n")


def test_read_support_csv_rejects_bad_rows():
    with pytest.raises(ValidationError, match="line 1: count is not an integer"):
        read_support_csv("a,notanumber\n")
    with pytest.raises(ValidationError, match="line 2: count must be >= 1"):
        read_support_csv("itemset,support\na,0\n")
    with pytest.raises(ValidationError, match="line 3: expected itemset,count"):
        read_support_csv('"a\nb",3\njustone\n')
    with pytest.raises(ValidationError, match="line 1: empty itemset"):
        read_support_csv("|,3\n")


def test_read_support_csv_quoting_error_names_the_line():
    with pytest.raises(CsvParseError, match="line 2"):
        read_support_csv('a,3\n"b,2\n')


def test_read_support_csv_skips_blank_rows():
    freq, catalog = read_support_csv("itemset,support\na,3\n,\n\nb,2\n")
    assert by_labels(freq, catalog) == {("a",): 3, ("b",): 2}


def test_frequent_itemsets_equality_ignores_dict_order(db5):
    first = apriori_mine(db5, 3)
    reordered = FrequentItemsets(dict(reversed(list(first.support.items()))), first.n)
    assert first == reordered
