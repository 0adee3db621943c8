"""Levelwise miner: candidate pipeline, counting, and CSV round-trips."""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from freqmine import apriori, dataset, oracle
from freqmine.apriori import (
    AprioriStats,
    FrequentItemsets,
    apriori_mine,
    count_support,
    frequent_pairs,
    frequent_partners,
    join_candidates,
    prune_candidates,
    read_support_csv,
    sorted_itemsets,
    threshold_singletons,
    write_frequent_csv,
)
from freqmine.bench import SynthParams, generate_synthetic
from freqmine.dataset import item_frequencies, parse_transactions
from freqmine.errors import ContractViolationError, CsvParseError, ValidationError
from freqmine.fpgrowth import fpgrowth_mine
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


def test_join_skips_candidates_whose_last_pair_is_infrequent():
    # (1, 3) and (2, 3) are not frequent pairs, so (0, 1, 3) and (0, 2, 3)
    # would fail prune; the filtered join never makes them.
    level = {(0, 1), (0, 2), (0, 3), (1, 2)}
    partners = frequent_partners(level)
    assert partners == {0: {1, 2, 3}, 1: {2}}
    assert join_candidates(level) == {(0, 1, 2), (0, 1, 3), (0, 2, 3)}
    assert join_candidates(level, partners) == {(0, 1, 2)}
    assert prune_candidates(join_candidates(level), level) == {(0, 1, 2)}


@st.composite
def downward_closed_levels(draw):
    """A level of k-itemsets (k >= 2) from a downward-closed family, and its pairs."""
    n_items = draw(st.integers(min_value=3, max_value=9))
    maximal = draw(
        st.lists(
            st.sets(st.integers(0, n_items - 1), min_size=2, max_size=6),
            min_size=1,
            max_size=8,
        )
    )
    k = draw(st.integers(min_value=2, max_value=5))
    level: set[tuple[int, ...]] = set()
    pairs: set[tuple[int, ...]] = set()
    for members in maximal:
        ordered = sorted(members)
        level.update(combinations(ordered, k))
        pairs.update(combinations(ordered, 2))
    return level, pairs


@settings(max_examples=200, deadline=None)
@given(downward_closed_levels())
def test_filtered_join_prunes_to_the_unfiltered_result(case):
    level, pairs = case
    filtered = join_candidates(level, frequent_partners(pairs))
    assert filtered <= join_candidates(level)
    assert prune_candidates(filtered, level) == prune_candidates(join_candidates(level), level)


def _closed_candidates(candidates, level):
    """The candidates whose every one-smaller subset is in level, each probed."""
    return {
        candidate
        for candidate in candidates
        if all(subset in level for subset in combinations(candidate, len(candidate) - 1))
    }


@st.composite
def uniform_levels(draw):
    """Any set of sorted k-itemsets over a few items, closed downward or not."""
    k = draw(st.integers(min_value=1, max_value=5))
    itemsets = st.lists(st.integers(0, 8), min_size=k, max_size=k, unique=True)
    return draw(st.sets(itemsets.map(lambda items: tuple(sorted(items))), max_size=40))


@settings(max_examples=200, deadline=None)
@given(st.one_of(downward_closed_levels().map(lambda case: case[0]), uniform_levels()))
def test_prune_of_the_join_probes_as_if_it_probed_every_subset(level):
    # The join guarantees the two subsets that drop one of a candidate's last
    # two items whether or not the level is closed downward, so prune skips
    # them. The level is probed as given when it is a set, copied otherwise.
    joined = join_candidates(level)
    kept = prune_candidates(joined, level)
    assert kept == _closed_candidates(joined, level)
    assert prune_candidates(joined, sorted(level)) == kept


@st.composite
def wide_sparse_dbs(draw):
    """Many items, short rows and a low threshold, so that some pair of
    frequent items is infrequent while deeper itemsets are still frequent."""
    n_items = draw(st.integers(min_value=6, max_value=18))
    rows = draw(
        st.lists(
            st.sets(st.integers(0, n_items - 1), max_size=5),
            min_size=4,
            max_size=40,
        )
    )
    text = "".join(",".join(f"i{item}" for item in sorted(row)) + "\n" for row in rows)
    threshold = draw(st.integers(min_value=1, max_value=3))
    return parse_transactions(text), threshold


def _unfiltered_level_candidates(db, threshold):
    """level_candidates of the levelwise route that joins every pair and
    probes every one-smaller subset of every candidate."""
    counts = item_frequencies(db)
    sizes = [(1, len(counts))]
    level = threshold_singletons(counts, threshold)
    while level:
        candidates = _closed_candidates(join_candidates(level), level)
        if not candidates:
            break
        sizes.append((len(next(iter(candidates))), len(candidates)))
        tallies = count_support(db, candidates)
        level = {s: count for s, count in tallies.items() if count >= threshold}
    return sizes


@settings(max_examples=150, deadline=None)
@given(wide_sparse_dbs())
def test_apriori_on_wide_sparse_dbs_matches_brute_force(case):
    # No level is too small to try the pair array, and on rows this short
    # its pass nearly always stays within budget, so level 2 is counted there.
    db, threshold = case
    stats = AprioriStats()
    assert apriori_mine(db, threshold, stats).support == brute_force_frequent(db, threshold).support
    assert stats.level_candidates == _unfiltered_level_candidates(db, threshold)


@settings(max_examples=150, deadline=None)
@given(wide_sparse_dbs())
def test_apriori_trying_the_pair_array_at_any_size_matches_brute_force(case):
    # With no budget to run out of, the pair array counts level 2 at every
    # size, including the rows that would make its pass give up by default.
    db, threshold = case
    stats = AprioriStats()
    with mock.patch.object(apriori, "_PAIR_ARRAY_BUDGET", 10**9):
        mined = apriori_mine(db, threshold, stats)
    assert mined.support == brute_force_frequent(db, threshold).support
    assert stats.level_candidates == _unfiltered_level_candidates(db, threshold)


def _pair_increments(folded, items):
    """Increments the pair array's pass makes: C(f, 2) per distinct transaction."""
    held = set(items)
    sizes = [len(held.intersection(transaction)) for transaction in folded]
    return sum(size * (size - 1) // 2 for size in sizes)


@st.composite
def repeated_dbs_with_threshold(draw):
    db = draw(conftest.dbs_with_repeated_rows())
    return db, draw(st.integers(min_value=1, max_value=max(db.n, 1)))


@settings(max_examples=150, deadline=None)
@given(repeated_dbs_with_threshold())
def test_frequent_pairs_equal_count_support_over_every_pair(case):
    db, threshold = case
    folded = Counter(db.transactions)
    items = [item for (item,) in threshold_singletons(item_frequencies(db), threshold)]
    budget = _pair_increments(folded, items)
    tallies = count_support(db, combinations(items, 2))
    expected = {pair: count for pair, count in tallies.items() if count >= threshold}
    pairs = frequent_pairs(folded, items, threshold, budget)
    assert pairs == expected
    assert list(pairs) == sorted(pairs)
    if budget:
        assert frequent_pairs(folded, items, threshold, budget - 1) is None


def test_frequent_pairs_count_each_distinct_transaction_with_its_multiplicity():
    folded = Counter({(0, 1, 2): 3, (0, 2): 2, (1,): 5, (0, 1, 3): 1})
    # Increments: 3 + 1 + 0 + 1, item 3 being left out.
    assert frequent_pairs(folded, [0, 1, 2], 2, 5) == {(0, 1): 4, (0, 2): 5, (1, 2): 3}
    assert frequent_pairs(folded, [0, 1, 2], 2, 4) is None


WIDE_BASKETS = conftest.DATA_DIR / "wide_baskets.csv"


def _spy_on_level_2(monkeypatch):
    """Record what frequent_pairs returns and the sizes count_support is given."""
    seen = {"pairs": [], "counted_sizes": set()}
    pairs, count = apriori.frequent_pairs, apriori.count_support

    def spy_pairs(*args):
        result = pairs(*args)
        seen["pairs"].append(result)
        return result

    def spy_count(db, candidates, tidsets=None):
        candidates = set(candidates)
        seen["counted_sizes"].update(map(len, candidates))
        return count(db, candidates, tidsets)

    monkeypatch.setattr(apriori, "frequent_pairs", spy_pairs)
    monkeypatch.setattr(apriori, "count_support", spy_count)
    return seen


def test_apriori_counts_the_wide_fixture_pairs_in_one_array(monkeypatch):
    # 320 baskets over 80 items, 2 to 6 items each, with a planted 5-itemset:
    # at support 3 every item is frequent, 173 of the 3,160 pairs are, and
    # the pass makes 2,303 increments, under the budget of 4 per pair.
    db = parse_transactions(WIDE_BASKETS.read_text(encoding="utf-8"))
    seen = _spy_on_level_2(monkeypatch)
    stats = AprioriStats()
    mined = apriori_mine(db, 3, stats)
    assert len(seen["pairs"]) == 1 and seen["pairs"][0] is not None
    assert 2 not in seen["counted_sizes"]
    # The oracle's item limit guards against long rows; these hold at most 6.
    monkeypatch.setattr(oracle, "MAX_ORACLE_ITEMS", 80)
    assert mined.support == brute_force_frequent(db, 3).support
    assert stats.level_candidates == _unfiltered_level_candidates(db, 3)
    assert stats.level_candidates[:2] == [(1, 80), (2, 3160)]


def test_apriori_agrees_with_fpgrowth_deep_into_prune():
    # 500 baskets over 16 items, 8 long on average: at support 30 itemsets
    # reach size 8, and prune runs on candidates of sizes 4 to 9. The wide
    # fixture stops at size 5, and check's random cases hold at most 10 items.
    db = generate_synthetic(SynthParams(500, 16, 8.0, 0.5, 0))
    stats = AprioriStats()
    mined = apriori_mine(db, 30, stats)
    assert mined.support == fpgrowth_mine(db, 30).support
    assert max(map(len, mined.support)) == 8
    assert stats.level_candidates == [
        (1, 16), (2, 120), (3, 560), (4, 1820), (5, 3019), (6, 1665), (7, 258), (8, 6)
    ]
    assert stats.level_candidates == _unfiltered_level_candidates(db, 30)


DEEP_BASKETS = conftest.DATA_DIR / "deep_baskets.csv"


def test_both_miners_write_the_deep_fixture_alike():
    # 100 baskets over 12 items, the labels of each row in shuffled order: at
    # support 14 itemsets reach size 7, and prune runs on candidates of sizes
    # 4 to 8. Apriori's levels follow the join's order, which the writer must
    # not show.
    db = parse_transactions(DEEP_BASKETS.read_text(encoding="utf-8"))
    stats = AprioriStats()
    levelwise = apriori_mine(db, 14, stats)
    assert stats.level_candidates == [
        (1, 12), (2, 66), (3, 220), (4, 465), (5, 382), (6, 88), (7, 4)
    ]
    written = conftest.written(write_frequent_csv, levelwise, db.catalog)
    assert written == conftest.written(write_frequent_csv, fpgrowth_mine(db, 14), db.catalog)


def test_db5_at_support_1_counts_its_pairs_in_one_array(monkeypatch, db5):
    # All 4 items are frequent: 6 pairs, and the pass makes 3 + 1 + 1 + 1 + 6
    # = 12 increments, under the budget of 4 per pair. No level is too small
    # to try the array.
    seen = _spy_on_level_2(monkeypatch)
    stats = AprioriStats()
    mined = apriori_mine(db5, 1, stats)
    assert len(seen["pairs"]) == 1 and len(seen["pairs"][0]) == 6
    assert 2 not in seen["counted_sizes"]
    assert mined.support == brute_force_frequent(db5, 1).support
    assert stats.level_candidates == [(1, 4), (2, 6), (3, 4), (4, 1)]


def test_dense_input_counts_pairs_by_the_ands(monkeypatch):
    # 60 rows, each holding each of 50 items with probability 1/2: 1,225
    # pairs, enough to try the array, but each row holds about 300 of them,
    # so the pass gives up.
    draw = random.Random(6).random
    rows = [[f"i{k:02d}" for k in range(50) if draw() < 0.5] for _ in range(60)]
    text = "".join(",".join(row) + "\n" for row in rows)
    db = parse_transactions(text)
    seen = _spy_on_level_2(monkeypatch)
    stats = AprioriStats()
    mined = apriori_mine(db, 12, stats)
    assert seen["pairs"] == [None]
    assert 2 in seen["counted_sizes"]
    assert stats.level_candidates[:2] == [(1, 50), (2, 1225)]
    with mock.patch.object(apriori, "_PAIR_ARRAY_BUDGET", 10**9):
        assert apriori_mine(db, 12).support == mined.support


def test_count_support_db5_pairs(db5):
    tallies = count_support(db5, {(0, 1), (0, 2), (1, 2)})
    assert tallies == {(0, 1): 3, (0, 2): 3, (1, 2): 3}


def test_count_support_reports_zeros():
    db = parse_transactions("a\nb\n")
    assert count_support(db, {(0, 1)}) == {(0, 1): 0}


def test_count_support_rejects_foreign_handles(db5):
    with pytest.raises(ContractViolationError):
        count_support(db5, {(0, 99)})
    # Indexing the tidsets with -1 would read the last item's.
    with pytest.raises(ContractViolationError, match="item handle -1"):
        count_support(db5, {(-1, 0)})


def test_count_support_takes_a_generator(db5):
    pairs = combinations(range(4), 2)
    assert count_support(db5, pairs) == count_support(db5, set(combinations(range(4), 2)))


def _oracle_counts(db, candidates):
    sets = [set(t) for t in db.transactions]
    return {c: sum(1 for t in sets if set(c) <= t) for c in candidates}


@settings(max_examples=100, deadline=None)
@given(conftest.dbs_with_repeated_rows())
def test_count_support_matches_set_scans(db):
    """Uniform- and mixed-size candidate sets count identically to raw scans,
    each repeated row once per repeat, with tidsets given or built."""
    items = sorted({i for t in db.transactions for i in t})
    if not items:
        return
    uniform = set(combinations(items, min(2, len(items))))
    mixed = {(items[0],)} | set(combinations(items, min(3, len(items))))
    tidsets = apriori._tidsets(db, Counter(db.transactions))
    for candidates in (uniform, mixed):
        expected = _oracle_counts(db, candidates)
        assert count_support(db, candidates) == expected
        assert count_support(db, candidates, tidsets) == expected


def test_tidsets_put_repeats_first_with_their_planes():
    rows = ["a,b"] * 9 + ["b,c"] * 5 + ["a"] * 2 + ["c", "a,b,c"]
    db = parse_transactions("".join(row + "\n" for row in rows))
    a, b, c = 0, 1, 2
    tidsets = items, planes = apriori._tidsets(db)
    # Bits 0-2 are a,b (9 times), b,c (5) and a (2); bits 3 and 4 are held
    # once. Multiplicity minus one: 8, 4 and 1, so four planes.
    assert items == [0b10101, 0b10011, 0b11010]
    assert planes == [0b100, 0, 0b010, 0b001]
    tallies = count_support(db, {(a,), (a, b), (b, c), (a, b, c)}, tidsets)
    assert tallies == {(a,): 12, (a, b): 10, (b, c): 6, (a, b, c): 1}


def test_all_distinct_rows_make_no_planes(db5):
    assert apriori._tidsets(db5) == ([0b10111, 0b11011, 0b11101, 0b10000], [])


def test_apriori_db5_golden(db5):
    freq = apriori_mine(db5, 3)
    assert by_labels(freq, db5.catalog) == DB5_FREQUENT_AT_3


def test_apriori_stats_db5(db5):
    stats = AprioriStats()
    apriori_mine(db5, 3, stats=stats)
    assert stats.level_candidates == [(1, 4), (2, 3), (3, 1)]
    assert stats.candidates_tested == 8


def test_apriori_threshold_above_everything(db5):
    assert apriori_mine(db5, 6).support == {}


def test_apriori_empty_db():
    freq = apriori_mine(parse_transactions(""), 1)
    assert freq.support == {}


def test_apriori_rejects_bad_threshold(db5):
    for bad in (0, -3):
        with pytest.raises(ValidationError):
            apriori_mine(db5, bad)


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
    assert conftest.written(write_frequent_csv, apriori_mine(db5, 3), db5.catalog) == DB5_CSV


def test_read_support_csv_round_trip(db5):
    freq = apriori_mine(db5, 3)
    text = conftest.written(write_frequent_csv, freq, db5.catalog)
    again, catalog = read_support_csv(text)
    assert by_labels(again, catalog) == by_labels(freq, db5.catalog)


def test_read_support_csv_headerless_and_count_header():
    for text in ("a,3\n", "itemset,count\na,3\n"):
        freq, catalog = read_support_csv(text)
        assert by_labels(freq, catalog) == {("a",): 3}


@pytest.mark.parametrize("blank", ["\n", "\r\n", " , \n"], ids=["lf", "crlf", "blank_cells"])
@pytest.mark.parametrize("from_file", [False, True], ids=["text", "file"])
def test_read_support_csv_header_may_follow_blank_rows(blank, from_file, tmp_path):
    text = "itemset,support\na,3\nb,3\na|b,2\n"

    def parsed(content):
        if not from_file:
            return read_support_csv(content)
        path = tmp_path / "supports.csv"
        path.write_text(content, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as handle:
            return read_support_csv(handle)

    freq, catalog = parsed(blank * 2 + text)
    assert (freq, catalog) == parsed(text)
    assert catalog.labels == ("a", "b")


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


def test_read_support_csv_normalizes_each_spelling_once(monkeypatch):
    calls = []
    normalize = dataset.normalize_label

    def counting(raw):
        calls.append(raw)
        return normalize(raw)

    monkeypatch.setattr(dataset, "normalize_label", counting)
    rows = ["A,9", "b,8", "A|b,5", "a|B,5", " a |b|,5", "B|c,4", "c|A,3"]
    freq, catalog = read_support_csv("itemset,support\n" + "\n".join(rows * 50) + "\n")
    assert catalog.labels == ("A", "b", "c")
    assert freq.support[(0, 1)] == 5
    spellings = {"A", "b", "a", "B", " a ", "", "c"}
    assert sorted(calls) == sorted(spellings)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,3\n|,3\n", "support line 2: empty itemset"),
        ("itemset,support\n | ,3\n", "support line 2: empty itemset"),
        ('a,3\n"|\n",3\n', "support line 3: empty itemset"),
        ("a,3\n|\n", "support line 2: expected itemset,count"),
        ("a,3\na,4\n", "support line 2: conflicting counts for 'a'"),
        ("a|b,3\n,\n\nb||A,4\n", "support line 4: conflicting counts for 'b||A'"),
        ("a,3\nb,x\n", "support line 2: count is not an integer: 'x'"),
        ("itemset,count\n\na,2.0\n", "support line 3: count is not an integer: '2.0'"),
        ("\n , \nitemset,count\na,x\n", "support line 4: count is not an integer: 'x'"),
        ("a,3\nitemset,support\n", "support line 2: count is not an integer: 'support'"),
        ('"a\nb",3\nc,\n', "support line 3: count is not an integer: ''"),
        ("a,1_0\n", "support line 1: count is not an integer: '1_0'"),
        ("a,3\nb,\u0661\u0660\n", "support line 2: count is not an integer: '\u0661\u0660'"),
    ],
)
def test_read_support_csv_errors_name_their_line(text, message):
    with pytest.raises(ValidationError) as caught:
        read_support_csv(text)
    assert str(caught.value) == message


def test_read_support_csv_skips_blank_parts_and_all_blank_rows():
    text = 'itemset,support\na||b,3\n,\n , \n\n" ",\n|b|,4\n'
    freq, catalog = read_support_csv(text)
    assert by_labels(freq, catalog) == {("a", "b"): 3, ("b",): 4}
    assert catalog.labels == ("a", "b")


def test_read_support_csv_quoting_error_names_the_line():
    with pytest.raises(CsvParseError, match="line 2"):
        read_support_csv('a,3\n"b,2\n')


def test_read_support_csv_skips_blank_rows():
    freq, catalog = read_support_csv("itemset,support\na,3\n,\n\nb,2\n")
    assert by_labels(freq, catalog) == {("a",): 3, ("b",): 2}


# Spellings whose first-seen order is not their label order: case and
# whitespace variants of one label, spellings an alias maps onto another
# label, and labels that need CSV quoting.
SPELLINGS = (
    "zeta", "Alpha", " alpha ", "ALPHA", "Mid  Label", "mid label", "b", "beta",
    "comma, label", 'quote "label"', "line\nbreak", "Panic", "anxiety", "Zeta",
)
ALIASES = {"b": "Beta", "panic": "Anxiety"}


@st.composite
def aliased_dbs(draw):
    rows = draw(st.lists(st.lists(st.sampled_from(SPELLINGS), max_size=5), max_size=12))
    buffer = io.StringIO()
    csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(rows)
    return parse_transactions(buffer.getvalue(), ALIASES)


@settings(max_examples=80, deadline=None)
@given(aliased_dbs())
def test_sorted_itemsets_orders_by_size_then_labels(db):
    freq = apriori_mine(db, 1)
    expected = sorted(freq.support, key=lambda s: (len(s), db.catalog.labels_of(s)))
    assert sorted_itemsets(freq.support, db.catalog) == expected


def test_frequent_itemsets_equality_ignores_dict_order(db5):
    first = apriori_mine(db5, 3)
    reordered = FrequentItemsets(dict(reversed(list(first.support.items()))))
    assert first == reordered
