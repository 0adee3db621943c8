"""Output checks made apart from the program.

Every check compares the program's output files against counts the benchmark
makes itself from the rows it generated, or against properties any correct
miner's output has: agreement of the two miners, downward closure, a negative
border that recounts below the threshold, and exact rule confidences. Each
function returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

Itemset = tuple[int, ...]

SAMPLE_SIZE = 2000
LABEL_JOINER = "|"


class Index:
    """The benchmark's own item numbering and vertical counts of its rows."""

    def __init__(self, rows: list[tuple[str, ...]]) -> None:
        self.labels = sorted({label for row in rows for label in row})
        self.of = {label: item for item, label in enumerate(self.labels)}
        self.rows = [tuple(sorted(self.of[label] for label in row)) for row in rows]
        bits = [bytearray((len(rows) + 7) // 8) for _ in self.labels]
        for tid, row in enumerate(self.rows):
            byte, bit = tid >> 3, 1 << (tid & 7)
            for item in row:
                bits[item][byte] |= bit
        self.tidsets = [int.from_bytes(row_bits, "little") for row_bits in bits]

    def support(self, itemset: Itemset) -> int:
        bits = self.tidsets[itemset[0]]
        for item in itemset[1:]:
            bits &= self.tidsets[item]
        return bits.bit_count()

    def itemset(self, labels: list[str]) -> Itemset | None:
        items = [self.of.get(label) for label in labels]
        if None in items or len(set(items)) != len(items):
            return None
        return tuple(sorted(items))


def read_frequent(path: Path, index: Index) -> tuple[dict[Itemset, int], list[str]]:
    """The itemset,support CSV as a support map over the benchmark's numbering."""
    problems: list[str] = []
    support: dict[Itemset, int] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != ["itemset", "support"]:
        return support, [f"{path.name}: missing itemset,support header"]
    for row in rows[1:]:
        itemset = index.itemset(row[0].split(LABEL_JOINER)) if len(row) == 2 else None
        if itemset is None or itemset in support:
            problems.append(f"{path.name}: bad or repeated row {row!r}")
            continue
        support[itemset] = int(row[1])
    return support, problems


def check_mining(
    index: Index, threshold: int, apriori_csv: Path, fpgrowth_csv: Path, seed: int
) -> tuple[dict[Itemset, int], list[str]]:
    """Check both miners' itemset CSVs; returns the support map and problems."""
    problems: list[str] = []
    if apriori_csv.read_bytes() != fpgrowth_csv.read_bytes():
        problems.append("apriori and fpgrowth itemset CSVs differ")
    support, read_problems = read_frequent(apriori_csv, index)
    problems += read_problems

    counts: Counter[Itemset] = Counter()
    for row in index.rows:
        counts.update((item,) for item in row)
        counts.update(combinations(row, 2))
    expected_small = {s: count for s, count in counts.items() if count >= threshold}
    reported_small = {s: count for s, count in support.items() if len(s) <= 2}
    if reported_small != expected_small:
        wrong = sorted(set(reported_small.items()) ^ set(expected_small.items()))[:5]
        problems.append(f"item or pair supports differ from the generated rows: {wrong}")

    ordered = sorted(support)
    sample = random.Random(seed).sample(ordered, min(SAMPLE_SIZE, len(ordered)))
    for itemset in sample:
        recount = index.support(itemset)
        if recount != support[itemset]:
            problems.append(
                f"itemset {_name(index, itemset)} reported {support[itemset]}, "
                f"recounted {recount}"
            )
            break

    for itemset, count in support.items():
        if count < threshold:
            problems.append(f"itemset {_name(index, itemset)} is below the threshold")
            break
        if len(itemset) < 2:
            continue
        if any(
            support.get(subset, -1) < count
            for subset in combinations(itemset, len(itemset) - 1)
        ):
            problems.append(
                f"itemset {_name(index, itemset)} has a subset missing or with less support"
            )
            break

    for candidate in negative_border(support):
        if index.support(candidate) >= threshold:
            problems.append(
                f"border itemset {_name(index, candidate)} is frequent but not reported"
            )
            break
    return support, problems


def negative_border(support: dict[Itemset, int]) -> list[Itemset]:
    """Unreported itemsets of size >= 3 whose one-smaller subsets all are reported.

    Sizes 1 and 2 need no border: check_mining counts every item and pair.
    A border itemset P + (a, b) has P + (a,), P + (b,) and P[1:] + (a, b)
    among the reported itemsets, so b is a last item after both prefixes
    P and P[1:] + (a,); intersecting those two sets reaches all of it.
    """
    lasts_after: dict[Itemset, set[int]] = {}
    for itemset in support:
        lasts_after.setdefault(itemset[:-1], set()).add(itemset[-1])
    border: list[Itemset] = []
    for prefix, lasts in lasts_after.items():
        if not prefix:
            continue
        for first in lasts:
            for second in lasts & lasts_after.get(prefix[1:] + (first,), set()):
                candidate = prefix + (first, second)
                if candidate not in support and all(
                    candidate[:drop] + candidate[drop + 1 :] in support
                    for drop in range(1, len(prefix))
                ):
                    border.append(candidate)
    return border


def read_rules(path: Path, index: Index) -> tuple[list[tuple], list[str]]:
    """Rules CSV rows as (antecedent, consequent, support, confidence text, status)."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header = ["antecedent", "consequent", "support", "confidence", "status"]
    if not rows or rows[0] != header:
        return [], [f"{path.name}: missing rules header"]
    rules: list[tuple] = []
    problems: list[str] = []
    for row in rows[1:]:
        if len(row) != 5:
            problems.append(f"{path.name}: bad row {row!r}")
            continue
        antecedent = index.itemset(row[0].split(LABEL_JOINER))
        consequent = index.itemset(row[1].split(LABEL_JOINER))
        if antecedent is None or consequent is None:
            problems.append(f"{path.name}: unknown labels in {row!r}")
            continue
        rules.append((antecedent, consequent, int(row[2]), row[3], row[4]))
    return rules, problems


def check_rules(
    index: Index, support: dict[Itemset, int], rules_csv: Path, min_confidence: Fraction
) -> list[str]:
    """Each rule is exact and meets the threshold; no qualifying split is missing."""
    rules, problems = read_rules(rules_csv, index)
    num, den = min_confidence.numerator, min_confidence.denominator
    seen: set[tuple[Itemset, Itemset]] = set()
    for antecedent, consequent, count, confidence, status in rules:
        union = tuple(sorted(antecedent + consequent))
        name = f"{_name(index, antecedent)} => {_name(index, consequent)}"
        sup_union = support.get(union)
        sup_antecedent = support.get(antecedent)
        if (
            len(set(union)) != len(union)
            or sup_union is None
            or sup_antecedent is None
            or (antecedent, consequent) in seen
        ):
            problems.append(f"rule {name} is repeated or not a split of a reported itemset")
            break
        seen.add((antecedent, consequent))
        if count != sup_union or float(confidence) != sup_union / sup_antecedent:
            problems.append(
                f"rule {name}: support {count} confidence {confidence}, expected "
                f"{sup_union} and {sup_union}/{sup_antecedent}"
            )
            break
        if sup_union * den < num * sup_antecedent or status != "Accepted":
            problems.append(f"rule {name} is reported but below the threshold")
            break
    expected = count_qualifying_splits(support, num, den)
    if len(rules) != expected:
        problems.append(f"{len(rules)} rules reported, {expected} splits qualify")
    return problems


def count_qualifying_splits(support: dict[Itemset, int], num: int, den: int) -> int:
    """Splits a => X - a with sup(X) / sup(a) >= num / den, over reported X.

    A larger antecedent has no more support, hence no less confidence, so every
    subset of a failing antecedent fails too. The search descends from the
    (k-1)-subsets and expands only antecedents that qualify.
    """
    total = 0
    for itemset, sup_union in support.items():
        level = [itemset]
        while len(level[0]) > 1:
            smaller = {
                subset for antecedent in level
                for subset in combinations(antecedent, len(antecedent) - 1)
            }
            level = [
                subset for subset in smaller
                if subset in support and sup_union * den >= num * support[subset]
            ]
            if not level:
                break
            total += len(level)
    return total


def check_recode(expected: list[tuple[str, ...]], recoded_csv: Path) -> list[str]:
    """Each recoded row holds exactly the generator's canonical labels."""
    with open(recoded_csv, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) != len(expected):
        return [f"recode wrote {len(rows)} rows for {len(expected)} respondents"]
    for line, (row, labels) in enumerate(zip(rows, expected), start=1):
        if len(row) != len(set(row)) or set(row) != set(labels):
            return [f"recoded row {line} is {row!r}, expected {sorted(labels)!r}"]
    return []


def check_survey_exact(
    index: Index, rows: list[tuple[str, ...]], buckets: list[str], threshold: int,
    support: dict[Itemset, int],
) -> list[str]:
    """Compare the whole support map with an exact enumeration of the survey.

    Every row holds one age bucket and a subset of the impacts, so the rows
    collapse into counts per (bucket, impact mask). A superset-sum transform
    over the masks gives the support of every itemset with at most one bucket;
    itemsets with two buckets have support 0.
    """
    impacts = [label for label in index.labels if label not in buckets]
    bit = {label: 1 << position for position, label in enumerate(impacts)}
    size = 1 << len(impacts)
    by_bucket = {bucket: [0] * size for bucket in buckets}
    patterns = Counter(
        (row[0], sum(bit[label] for label in row[1:])) for row in rows
    )
    for (bucket, mask), count in patterns.items():
        by_bucket[bucket][mask] += count
    for table in by_bucket.values():
        for position in range(len(impacts)):
            step = 1 << position
            for mask in range(size):
                if not mask & step:
                    table[mask] += table[mask | step]
    expected: dict[Itemset, int] = {}
    for mask in range(1, size):
        labels = [label for label in impacts if mask & bit[label]]
        count = sum(table[mask] for table in by_bucket.values())
        if count >= threshold:
            expected[index.itemset(labels)] = count
    for bucket, table in by_bucket.items():
        for mask in range(size):
            labels = [bucket] + [label for label in impacts if mask & bit[label]]
            if table[mask] >= threshold:
                expected[index.itemset(labels)] = table[mask]
    if expected != support:
        wrong = sorted(set(expected.items()) ^ set(support.items()))[:3]
        return [f"support map differs from the exact survey enumeration: {wrong}"]
    return []


def _name(index: Index, itemset: Itemset) -> str:
    return LABEL_JOINER.join(index.labels[item] for item in itemset)
