"""Levelwise frequent-itemset mining.

Candidates of size k+1 are joined from frequent k-itemsets sharing a prefix,
pruned by downward closure, then counted against the database. Counting is
vertical: each item's tidset is one int bitset over the transactions, built
once per mine at the first counted level, and a candidate's support is the
population count of the AND of its items' tidsets. Level sets are
materialized per level and every candidate is counted the same way, so each
candidate tested costs one AND per item after the first.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .dataset import CsvRows, ItemCatalog, ItemId, Itemset, TransactionDb, item_frequencies
from .errors import ContractViolationError, ValidationError

CandidateSet = set[Itemset]

FREQUENT_CSV_HEADER = ("itemset", "support")
LABEL_JOINER = "|"

# Fixed memory model, so memory proxies compare across platforms: a k-itemset
# costs one tuple of k machine words. These are accounting constants, not a
# claim about the interpreter's real allocations.
ITEMSET_BASE_BYTES = 56
ITEMSET_WORD_BYTES = 8


@dataclass(frozen=True)
class MiningParams:
    """Thresholds shared by mining and rule generation.

    min_support is an absolute transaction count. min_confidence may be a
    float or an exact Fraction; a Fraction makes boundary comparisons exact.
    """

    min_support: int
    min_confidence: float | Fraction = 0.0

    def __post_init__(self) -> None:
        if self.min_support < 1:
            raise ValidationError(f"min_support must be >= 1, got {self.min_support}")
        if not 0 <= self.min_confidence <= 1:
            raise ValidationError(
                f"min_confidence must be in [0, 1], got {self.min_confidence}"
            )


@dataclass
class FrequentItemsets:
    """Mining result: itemset -> absolute support count, plus the database size."""

    support: dict[Itemset, int]
    n: int


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


def join_candidates(level: Iterable[Itemset]) -> CandidateSet:
    """Join k-itemsets sharing their first k-1 items into k+1 candidates.

    Input itemsets must all have the same size k >= 1; mixed sizes raise
    ContractViolationError. An empty level yields an empty candidate set.
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
    for prefix, lasts in by_prefix.items():
        lasts.sort()
        for i, first in enumerate(lasts):
            for second in lasts[i + 1 :]:
                candidates.add(prefix + (first, second))
    return candidates


def prune_candidates(candidates: CandidateSet, level: Iterable[Itemset]) -> CandidateSet:
    """Keep only candidates whose every one-smaller subset is in the level set."""
    level_set = set(level)
    kept: CandidateSet = set()
    for candidate in candidates:
        subsets = combinations(candidate, len(candidate) - 1)
        if all(subset in level_set for subset in subsets):
            kept.add(candidate)
    return kept


def _tidsets(db: TransactionDb) -> list[int]:
    """One bitset per catalog item: bit t is set when transaction t holds it."""
    rows = [bytearray((db.n + 7) // 8) for _ in range(len(db.catalog))]
    for tid, transaction in enumerate(db.transactions):
        byte, bit = tid >> 3, 1 << (tid & 7)
        for item in transaction:
            rows[item][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def count_support(
    db: TransactionDb, candidates: Iterable[Itemset], tidsets: list[int] | None = None
) -> dict[Itemset, int]:
    """Support count of every candidate, including zeros.

    A candidate's support is the population count of the AND of its items'
    tidsets. Candidates may mix sizes; the empty itemset is held by every
    transaction. Handles outside the catalog raise ContractViolationError.
    tidsets, when given, must be _tidsets(db); apriori_mine passes them so
    that they are built once per mine, not once per level.
    """
    ordered = sorted(candidates)
    catalog_size = len(db.catalog)
    for candidate in ordered:
        for item in candidate:
            if not 0 <= item < catalog_size:
                raise ContractViolationError(
                    f"item handle {item} outside catalog of size {catalog_size}"
                )
    if tidsets is None:
        tidsets = _tidsets(db)
    counts: dict[Itemset, int] = {}
    for candidate in ordered:
        bits = tidsets[candidate[0]] if candidate else (1 << db.n) - 1
        for item in candidate[1:]:
            bits &= tidsets[item]
        counts[candidate] = bits.bit_count()
    return counts


def apriori_mine(
    db: TransactionDb, min_support: int, stats: AprioriStats | None = None
) -> FrequentItemsets:
    """Mine all itemsets with support >= min_support, levelwise.

    Level 1 thresholds the item frequencies; each later level joins, prunes,
    counts, and thresholds until no candidates survive. The result maps every
    frequent itemset to its exact support count.
    """
    if min_support < 1:
        raise ValidationError(f"min_support must be >= 1, got {min_support}")
    if stats is None:
        stats = AprioriStats()
    counts = item_frequencies(db)
    stats.level_candidates.append((1, len(counts)))
    level = threshold_singletons(counts, min_support)
    support = dict(level)
    tidsets: list[int] | None = None
    while level:
        candidates = prune_candidates(join_candidates(level), level)
        if not candidates:
            break
        stats.level_candidates.append((len(next(iter(candidates))), len(candidates)))
        if tidsets is None:
            tidsets = _tidsets(db)
        tallies = count_support(db, candidates, tidsets)
        level = {itemset: count for itemset, count in tallies.items() if count >= min_support}
        support.update(level)
    return FrequentItemsets(support, db.n)


def sorted_itemsets(freq: FrequentItemsets, catalog: ItemCatalog) -> list[Itemset]:
    """Itemsets ordered by size, then lexicographically by display labels."""
    return sorted(freq.support, key=lambda s: (len(s), catalog.labels_of(s)))


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


def write_frequent_csv(freq: FrequentItemsets, catalog: ItemCatalog) -> str:
    """Render itemset,support rows with '|'-joined labels, sized-then-label order.

    A label containing '|' raises ValidationError before anything is rendered.
    """
    check_joinable(catalog)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FREQUENT_CSV_HEADER)
    for itemset in sorted_itemsets(freq, catalog):
        labels = LABEL_JOINER.join(catalog.labels_of(itemset))
        writer.writerow([labels, freq.support[itemset]])
    return buffer.getvalue()


def read_support_csv(content: str) -> tuple[FrequentItemsets, ItemCatalog]:
    """Parse an itemset,count CSV into a support table and its catalog.

    The header row is optional ("itemset,support" or "itemset,count"). Labels
    within a row are '|'-separated. When no database size accompanies the
    counts, n is taken as the largest count seen. Conflicting duplicate rows
    raise ValidationError, naming the physical line on which the row ends;
    identical duplicates collapse.
    """
    catalog = ItemCatalog()
    support: dict[Itemset, int] = {}
    rows = CsvRows(content)
    for index, row in enumerate(rows):
        if index == 0 and tuple(cell.strip().casefold() for cell in row[:2]) in {
            ("itemset", "support"),
            ("itemset", "count"),
        }:
            continue
        if not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ValidationError(f"support line {rows.line_num}: expected itemset,count")
        labels = [part for part in row[0].split(LABEL_JOINER) if part.strip()]
        if not labels:
            raise ValidationError(f"support line {rows.line_num}: empty itemset")
        try:
            count = int(row[1])
        except ValueError:
            raise ValidationError(
                f"support line {rows.line_num}: count is not an integer: {row[1]!r}"
            ) from None
        if count < 1:
            raise ValidationError(f"support line {rows.line_num}: count must be >= 1")
        itemset = tuple(sorted({catalog.intern(label) for label in labels}))
        previous = support.get(itemset)
        if previous is not None and previous != count:
            raise ValidationError(
                f"support line {rows.line_num}: conflicting counts for {row[0]!r}"
            )
        support[itemset] = count
    n = max(support.values(), default=0)
    return FrequentItemsets(support, n), catalog
