"""Levelwise frequent-itemset mining.

Candidates of size k+1 are joined from frequent k-itemsets sharing a prefix,
pruned by downward closure, then counted against the database. The join
makes prefix + (a, b) from prefix + (a,) and prefix + (b,), so prune probes
only the subsets that drop a prefix item: a pair has none, and for a triple
it is the one pair that the partners filter already guarantees (see
apriori_mine). From size 3 on, when some pair of frequent items is
infrequent, the join makes only candidates whose last two items are a
frequent pair (a 2-itemset filter in the spirit of DHP, Park, Chen & Yu,
SIGMOD 1995); prune would drop every other one.

Support is counted by one of two routes. The general one is vertical (Zaki,
IEEE TKDE 2000) over the distinct transactions, each weighed by its
multiplicity as in LCM (Uno, Kiyomi & Arimura, FIMI'04). Each item's tidset
has one bit per distinct transaction, and bit-plane j marks those whose
multiplicity minus one has bit j set. A candidate costs one AND per item
after the first, and one per plane. The repeated transactions take the
lowest bits, so the planes are short; with no repeats there are none.

Level 2 is first tried without any candidates: one pass over the distinct
transactions adds each one's multiplicity to every pair of frequent items it
holds, in a flat triangular array (the triangular-matrix method of Leskovec,
Rajaraman & Ullman, Mining of Massive Datasets, section 6.2, which is also
the exact form of DHP's pair hashing). That pass costs one increment per pair
of frequent items per distinct transaction; the ANDs cost one per pair of
frequent items. So the pass gives up, leaving the level to the ANDs, as soon
as its increments would pass _PAIR_ARRAY_BUDGET per pair.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, compress
from typing import Iterable, Mapping, Sequence, TextIO

from .dataset import (
    DROPPED,
    CsvRows,
    ItemCatalog,
    ItemId,
    Itemset,
    TransactionDb,
    item_frequencies,
)
from .errors import ContractViolationError, ValidationError

CandidateSet = set[Itemset]

FREQUENT_CSV_HEADER = ("itemset", "support")
LABEL_JOINER = "|"

# Fixed memory model, so memory proxies compare across platforms: a k-itemset
# costs one tuple of k machine words. These are accounting constants, not a
# claim about the interpreter's real allocations.
ITEMSET_BASE_BYTES = 56
ITEMSET_WORD_BYTES = 8

# The pair array's pass gives up once its increments would pass this many per
# pair of frequent items. An increment costs a small fraction of an AND of
# two tidsets, so the array is the cheaper route well beyond this, and a pass
# that gives up has spent a bounded share of what the ANDs then cost.
_PAIR_ARRAY_BUDGET = 4


@dataclass
class FrequentItemsets:
    """Mining result: itemset -> absolute support count."""

    support: dict[Itemset, int]


@dataclass
class AprioriStats:
    """Work counters from one mining run.

    level_candidates records (itemset size, candidates counted) per level,
    starting with the distinct singletons. The counters depend only on the
    database and threshold, never on timing. work_counter and mem_proxy_bytes
    are the figures the benchmark harness reports for every miner.
    """

    level_candidates: list[tuple[int, int]] = field(default_factory=list)

    @property
    def candidates_tested(self) -> int:
        return sum(count for _, count in self.level_candidates)

    work_counter = candidates_tested

    @property
    def mem_proxy_bytes(self) -> int:
        """Footprint of the largest candidate level under the fixed byte model."""
        return max(
            (
                count * (ITEMSET_BASE_BYTES + ITEMSET_WORD_BYTES * size)
                for size, count in self.level_candidates
            ),
            default=0,
        )


def threshold_singletons(
    counts: Mapping[ItemId, int], min_support: int
) -> dict[Itemset, int]:
    """Frequent 1-itemsets from an item-frequency map; threshold is inclusive."""
    return {
        (item,): count
        for item, count in sorted(counts.items())
        if count >= min_support
    }


def join_candidates(
    level: Iterable[Itemset], partners: Mapping[ItemId, set[ItemId]] | None = None
) -> CandidateSet:
    """Join k-itemsets sharing their first k-1 items into k+1 candidates.

    Input itemsets must all have the same size k >= 1; mixed sizes raise
    ContractViolationError. An empty level yields an empty candidate set.

    partners, when given, maps an item a to the set of items b > a such that
    {a, b} is frequent (an item with no such b may be left out). The join
    then makes prefix + (a, b) only for b in partners[a]. This is exact for
    k >= 2 under downward closure: a candidate whose last two items are not
    a frequent pair has a k-subset holding that pair, which the level cannot
    contain, so prune_candidates would drop it anyway. None joins every pair.
    """
    itemsets = list(level)
    if not itemsets:
        return set()
    k = len(itemsets[0])
    if k < 1 or any(len(s) != k for s in itemsets):
        raise ContractViolationError("join requires itemsets of one uniform size >= 1")
    by_prefix: dict[Itemset, list[ItemId]] = {}
    for itemset in itemsets:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])
    candidates: CandidateSet = set()
    if partners is None:
        for prefix, lasts in by_prefix.items():
            lasts.sort()
            for i, first in enumerate(lasts):
                for second in lasts[i + 1 :]:
                    candidates.add(prefix + (first, second))
        return candidates
    no_partners: set[ItemId] = set()
    for prefix, lasts in by_prefix.items():
        # partners[first] holds only items after first, so intersecting it
        # with the whole group is its intersection with the later lasts.
        group = set(lasts)
        for first in lasts:
            for second in partners.get(first, no_partners) & group:
                candidates.add(prefix + (first, second))
    return candidates


def frequent_partners(pairs: Iterable[Itemset]) -> dict[ItemId, set[ItemId]]:
    """Map each item to the later items it forms a frequent pair with.

    pairs are sorted 2-itemsets; the result is join_candidates' partners.
    """
    partners: dict[ItemId, set[ItemId]] = {}
    for first, second in pairs:
        partners.setdefault(first, set()).add(second)
    return partners


def prune_candidates(candidates: CandidateSet, level: Iterable[Itemset]) -> CandidateSet:
    """Keep only candidates whose every one-smaller subset is in the level.

    candidates must come from join_candidates(level). A candidate
    prefix + (a, b) was joined from prefix + (a,) and prefix + (b,), so only
    the len(candidate) - 2 subsets that drop a prefix item are probed, up to
    the first one missing. level is probed as it is when it is a dict or a
    set; apriori_mine passes its level dict.
    """
    members = level if isinstance(level, (dict, set, frozenset)) else set(level)
    kept: CandidateSet = set()
    for candidate in candidates:
        for i in range(len(candidate) - 2):
            if candidate[:i] + candidate[i + 1 :] not in members:
                break
        else:
            kept.add(candidate)
    return kept


def _bit_rows(n_rows: int, columns: Iterable[Iterable[int]], n_columns: int) -> list[int]:
    """One int per row: bit t is set when the row is among the t-th column's members."""
    rows: list = [bytearray((n_columns + 7) // 8) for _ in range(n_rows)]
    for tid, members in enumerate(columns):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for row in members:
            rows[row][byte] |= bit
    # Each int replaces its row as it is made, so it can reuse the freed
    # rows' memory, which would otherwise stay behind as a hole in the heap.
    for index, row in enumerate(rows):
        rows[index] = int.from_bytes(row, "little")
    return rows


def _tidsets(
    db: TransactionDb, folded: Mapping[Itemset, int] | None = None
) -> tuple[list[int], list[int]]:
    """Item tidsets over db's distinct transactions, and multiplicity planes.

    Bit t of items[i] is set when the t-th distinct transaction holds item i;
    bit t of planes[j] when its multiplicity minus one has bit j set. The
    repeated transactions come first, by descending multiplicity (only they
    are sorted), so the planes are short. folded, when given, must be
    Counter(db.transactions).
    """
    if folded is None:
        folded = Counter(db.transactions)
    repeated = [transaction for transaction, times in folded.items() if times > 1]
    repeated.sort(key=folded.__getitem__, reverse=True)
    extras = [folded[transaction] - 1 for transaction in repeated]
    n_planes = extras[0].bit_length() if extras else 0
    planes = _bit_rows(
        n_planes,
        ([j for j in range(n_planes) if extra >> j & 1] for extra in extras),
        len(extras),
    )
    once = (transaction for transaction, times in folded.items() if times == 1)
    items = _bit_rows(len(db.catalog), chain(repeated, once), len(folded))
    return items, planes


def count_support(
    db: TransactionDb,
    candidates: Iterable[Itemset],
    tidsets: tuple[list[int], list[int]] | None = None,
) -> dict[Itemset, int]:
    """Support count of every candidate, including zeros.

    With T the AND of a candidate's item tidsets, its support is
    popcount(T) + sum of popcount(T & planes[j]) << j (see _tidsets).
    Candidates may mix sizes; the empty itemset is held by every
    transaction. Handles outside the catalog raise ContractViolationError.
    tidsets, when given, must be _tidsets(db); apriori_mine passes them so
    that they are built once per mine, not once per level.
    """
    candidates = list(candidates)
    catalog_size = len(db.catalog)
    handles = set(chain.from_iterable(candidates))
    for item in (min(handles), max(handles)) if handles else ():
        if not 0 <= item < catalog_size:
            raise ContractViolationError(
                f"item handle {item} outside catalog of size {catalog_size}"
            )
    items, planes = _tidsets(db) if tidsets is None else tidsets
    repeated = 0
    for plane in planes:
        repeated |= plane
    counts: dict[Itemset, int] = {}
    for candidate in candidates:
        # Every transaction holds the empty itemset.
        if not candidate:
            counts[()] = db.n
            continue
        bits = items[candidate[0]]
        for item in candidate[1:]:
            bits &= items[item]
        count = bits.bit_count()
        if bits & repeated:
            for shift, plane in enumerate(planes):
                count += (bits & plane).bit_count() << shift
        counts[candidate] = count
    return counts


def frequent_pairs(
    folded: Mapping[Itemset, int], items: Sequence[ItemId], min_support: int, budget: int
) -> dict[Itemset, int] | None:
    """Every pair of items with support >= min_support, counted in one pass.

    folded maps each distinct transaction to its multiplicity, as
    Counter(db.transactions) does. items are sorted handles. The pair of
    items[p] and items[q], p < q, is counted in one slot of a flat
    triangular array, and each transaction adds its multiplicity to the
    slot of every pair of items it holds. The result is keyed by sorted
    pairs, in sorted order. None means the pass gave up before a
    transaction whose increments would have taken the total past budget.
    """
    width = len(items)
    rank = {item: position for position, item in enumerate(items)}.get
    # Pair (p, q) sits at bases[p] + q: row p holds q = p+1 .. width-1.
    bases = [p * (2 * width - p - 3) // 2 - 1 for p in range(width)]
    counts = [0] * (width * (width - 1) // 2)
    spent = 0
    for transaction, times in folded.items():
        ranks = [r for r in map(rank, transaction) if r is not None]
        held = len(ranks)
        spent += held * (held - 1) // 2
        if spent > budget:
            return None
        for p, q in combinations(ranks, 2):
            counts[bases[p] + q] += times
    frequent: dict[Itemset, int] = {}
    at_least = min_support.__le__
    for p in range(width - 1):
        start = bases[p] + p + 1
        row = counts[start : start + width - 1 - p]
        # On a wide catalog most rows hold no frequent pair at all.
        if max(row) < min_support:
            continue
        first = items[p]
        for q, count in compress(enumerate(row, p + 1), map(at_least, row)):
            frequent[first, items[q]] = count
    return frequent


def apriori_mine(
    db: TransactionDb, min_support: int, stats: AprioriStats | None = None
) -> FrequentItemsets:
    """Mine all itemsets with support >= min_support, levelwise.

    Level 1 thresholds the item frequencies; from two frequent items on, each
    later level joins, prunes, counts, and thresholds until no candidates
    survive. The result maps every frequent itemset to its exact support count.

    Level 2 is counted by one of two routes. frequent_pairs counts every pair
    of frequent items in one pass over the distinct transactions, unless that
    pass would take more than _PAIR_ARRAY_BUDGET increments per pair; then
    the pairs are joined and counted by count_support like every later
    level. Either way it records C(F, 2) candidates for F >= 2 frequent items.

    Prune probes only the subsets that drop a prefix item, so only
    candidates of size 4 and up are pruned. A pair has no such subset. For
    a triple (x, a, b) it is {a, b}, and that is frequent: when some pair of
    frequent items is infrequent, the frequent pairs become the join's
    partners filter from size 3 on, and when every pair is frequent no
    filter is needed, so none is built.
    """
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    if stats is None:
        stats = AprioriStats()
    folded = Counter(db.transactions)
    counts = item_frequencies(db, folded)
    stats.level_candidates.append((1, len(counts)))
    support = threshold_singletons(counts, min_support)
    n_pairs = len(support) * (len(support) - 1) // 2
    if not n_pairs:
        return FrequentItemsets(support)
    stats.level_candidates.append((2, n_pairs))
    items = [item for (item,) in support]
    level = frequent_pairs(folded, items, min_support, _PAIR_ARRAY_BUDGET * n_pairs)
    tidsets = _tidsets(db, folded)
    del folded  # before the levels run
    if level is None:
        tallies = count_support(db, join_candidates(support), tidsets)
        level = {itemset: count for itemset, count in tallies.items() if count >= min_support}
    partners = frequent_partners(level) if len(level) < n_pairs else None
    size = 2
    while level:
        support.update(level)
        candidates = join_candidates(level, partners)
        if size > 2:
            candidates = prune_candidates(candidates, level)
        if not candidates:
            break
        size += 1
        stats.level_candidates.append((size, len(candidates)))
        tallies = count_support(db, candidates, tidsets)
        level = {itemset: count for itemset, count in tallies.items() if count >= min_support}
    return FrequentItemsets(support)


def sorted_itemsets(itemsets: Iterable[Itemset], catalog: ItemCatalog) -> list[Itemset]:
    """The itemsets ordered by size, then lexicographically by display labels.

    The itemsets are bucketed by size, and each bucket is sorted in turn by
    the tuple of its items' ranks in label order (ItemCatalog.label_ranks),
    so only one size's keys are alive at a time. Display labels are unique,
    so this is the order of (size, labels) without building a label tuple
    per itemset.
    """
    rank = catalog.label_ranks().__getitem__
    by_size: dict[int, list[Itemset]] = {}
    for itemset in itemsets:
        by_size.setdefault(len(itemset), []).append(itemset)
    ordered: list[Itemset] = []
    for size in sorted(by_size):
        ordered += sorted(by_size.pop(size), key=lambda s: tuple(map(rank, s)))
    return ordered


def check_joinable(catalog: ItemCatalog) -> None:
    """Raise ValidationError naming the first label that contains LABEL_JOINER.

    Output joins an itemset's labels with it, so such a label could not be
    told apart from two labels when the CSV is read back.
    """
    for label in catalog.labels:
        if LABEL_JOINER in label:
            raise ValidationError(
                f"item label {label!r} contains {LABEL_JOINER!r}, "
                "which joins the labels of an itemset in the output"
            )


def write_frequent_csv(freq: FrequentItemsets, catalog: ItemCatalog, out: TextIO) -> None:
    """Write itemset,support rows with '|'-joined labels to out, sized-then-label order.

    A label containing '|' raises ValidationError before anything is written.
    """
    check_joinable(catalog)
    labels = catalog.labels.__getitem__
    support = freq.support
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FREQUENT_CSV_HEADER)
    writer.writerows(
        (LABEL_JOINER.join(map(labels, itemset)), support[itemset])
        for itemset in sorted_itemsets(support, catalog)
    )


def read_support_csv(source: str | TextIO) -> tuple[FrequentItemsets, ItemCatalog]:
    """Parse an itemset,count CSV into a support table and its catalog.

    source is the text or a file opened with newline="", read line by line
    (see CsvRows). The header row is optional ("itemset,support" or
    "itemset,count"); blank rows may come before it, data rows may not.
    Labels within a row are '|'-separated; blank parts are skipped, and a
    row whose itemset cell has no label is skipped when all its cells are
    blank and rejected otherwise. Conflicting duplicate rows raise
    ValidationError, naming the physical line on which the row ends;
    identical duplicates collapse.

    Each distinct label spelling is resolved once, by the catalog's memo.
    """
    catalog = ItemCatalog()
    support: dict[Itemset, int] = {}
    rows = CsvRows(source)
    for row in rows:
        # support is empty until the first data row.
        if not support and tuple(cell.strip().casefold() for cell in row[:2]) in {
            ("itemset", "support"),
            ("itemset", "count"),
        }:
            continue
        parts = row[0].split(LABEL_JOINER) if row else []
        items = set(map(catalog.resolve, parts))
        items.discard(DROPPED)
        if not items and not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ValidationError(f"support line {rows.line_num}: expected itemset,count")
        if not items:
            raise ValidationError(f"support line {rows.line_num}: empty itemset")
        try:
            count = int(row[1])
        except ValueError:
            raise ValidationError(
                f"support line {rows.line_num}: count is not an integer: {row[1]!r}"
            ) from None
        if count < 1:
            raise ValidationError(f"support line {rows.line_num}: count must be >= 1")
        itemset = tuple(sorted(items))
        previous = support.setdefault(itemset, count)
        if previous != count:
            raise ValidationError(
                f"support line {rows.line_num}: conflicting counts for {row[0]!r}"
            )
    return FrequentItemsets(support), catalog
