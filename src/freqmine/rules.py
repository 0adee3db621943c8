"""Association rules from a frequent-itemset table.

Every itemset of size two or more splits into antecedent => consequent for
each nonempty proper subset. A rule stores its antecedent, its itemset, the
two supports and its status; the consequent and the float confidence are
derived from them. Confidence is kept as an exact integer pair, so
acceptance against a Fraction threshold never suffers rounding at the
boundary.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from typing import Callable, Iterable, TextIO

from .apriori import LABEL_JOINER, FrequentItemsets, check_joinable, sorted_itemsets
from .dataset import ItemCatalog, Itemset
from .errors import ClosureViolationError, ContractViolationError

ACCEPTED = "Accepted"
REJECTED = "Rejected"

RULES_CSV_HEADER = ("antecedent", "consequent", "support", "confidence", "status")


def meets_confidence(num: int, den: int, min_confidence: float | Fraction) -> bool:
    """Inclusive acceptance test; cross-multiplied (exact) for Fraction thresholds."""
    if isinstance(min_confidence, Fraction):
        return num * min_confidence.denominator >= min_confidence.numerator * den
    return num / den >= min_confidence


def confidence_limit(min_confidence: float | Fraction) -> Callable[[int], int | float]:
    """Map an itemset's support to the largest antecedent support it accepts.

    With limit = confidence_limit(min_confidence) and counts
    1 <= sup_union <= a, meets_confidence(sup_union, a, min_confidence)
    holds exactly when a <= limit(sup_union), which is inf when no
    antecedent support is too large. Confidence only falls as a grows, so
    one limit per itemset answers every split's test with one compare.

    A Fraction threshold N/D gives sup_union * D // N. A float threshold c
    is met when the correctly rounded quotient is at least c, which holds
    exactly when the true ratio exceeds the midpoint between c and the
    float below it, or equals that midpoint and c, being even, wins the
    tie. The midpoint is a fraction too, so the limit is again one floor
    division.
    """
    tie = 0  # 1 when a ratio equal to the bound is rejected
    if isinstance(min_confidence, Fraction):
        bound = min_confidence
    elif min_confidence <= 0:
        bound = Fraction(0)
    elif not min_confidence <= 1:  # above 1, or NaN: no split is accepted
        return lambda sup_union: 0
    else:
        below = math.nextafter(min_confidence, 0)
        bound = (Fraction(below) + Fraction(min_confidence)) / 2
        tie = int(min_confidence / math.ulp(min_confidence)) % 2
    num, den = bound.numerator, bound.denominator
    if num <= 0:
        return lambda sup_union: math.inf
    return lambda sup_union: (sup_union * den - tie) // num


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """antecedent => consequent with its support and confidence evidence.

    itemset is the whole itemset, antecedent and consequent together;
    generate_rules gives every rule of one itemset the same tuple. support
    counts the transactions containing the itemset, and confidence_den those
    containing the antecedent; the two counts keep the exact confidence.
    """

    antecedent: Itemset
    itemset: Itemset
    support: int
    confidence_den: int
    status: str

    @property
    def consequent(self) -> Itemset:
        """The itemset's items not in the antecedent, in handle order."""
        antecedent = self.antecedent
        return tuple(item for item in self.itemset if item not in antecedent)

    @property
    def confidence(self) -> float:
        """support / confidence_den, correctly rounded."""
        return self.support / self.confidence_den


def generate_rules(
    freq: FrequentItemsets,
    catalog: ItemCatalog,
    min_confidence: float | Fraction,
    include_rejected: bool = False,
) -> list[AssociationRule]:
    """All rules s => (l - s) over the stored itemsets, confidence-filtered.

    The first pass reads the table in its own order and takes each itemset's
    least k-1 antecedent support, an unstored antecedent reading 0. It must
    be at least the itemset's support, which, by induction over the itemsets
    in size order, proves the table downward closed. No smaller antecedent
    has less support, so an itemset yields an accepted rule only if this
    minimum is within its confidence_limit; only those are kept, or all
    when include_rejected is set. On a violation the table is read again in
    sorted_itemsets order, and the first bad itemset raises for its first
    bad split, smallest antecedent first: ClosureViolationError for an
    unstored antecedent, ContractViolationError for a smaller one or an
    itemset support below 1.

    The second pass sorts the kept itemsets and walks each one's antecedents
    level by level, from size k-1 down to 1 (ap-genrules, Agrawal & Srikant
    1994), examining a smaller antecedent only under kept ones: accepted,
    or any when include_rejected is set. Acceptance is one integer compare
    against the itemset's confidence_limit.

    Rules come out itemset by itemset in sorted_itemsets order, the itemset
    CSV's, and within an itemset by antecedent labels, compared through
    their ranks in label order.
    """
    support = freq.support
    support_of = support.get
    limit_of = confidence_limit(min_confidence)
    yielding: list[Itemset] = []
    for itemset, sup_union in support.items():
        size = len(itemset)
        if size < 2:
            continue
        least = min(map(support_of, combinations(itemset, size - 1), repeat(0)))
        if sup_union < 1 or least < sup_union:
            for first in sorted_itemsets(support, catalog):
                _raise_first_bad_split(first, support, catalog)
        if include_rejected or least <= limit_of(sup_union):
            yielding.append(itemset)
    rank = catalog.label_ranks().__getitem__
    out: list[AssociationRule] = []
    for itemset in sorted_itemsets(yielding, catalog):
        sup_union = support[itemset]
        limit = limit_of(sup_union)
        kept: list[AssociationRule] = []
        size = len(itemset)
        level: Iterable[Itemset] = combinations(itemset, size - 1)
        for take in range(size - 2, -1, -1):
            survivors = []
            for antecedent in level:
                sup_antecedent = support[antecedent]
                accepted = sup_antecedent <= limit
                if accepted or include_rejected:
                    status = ACCEPTED if accepted else REJECTED
                    rule = AssociationRule(antecedent, itemset, sup_union, sup_antecedent, status)
                    kept.append(rule)
                    survivors.append(antecedent)
            # A rejected antecedent's subsets are rejected too: a smaller one
            # needs all size - take of its supersets one item larger kept,
            # and only the survivors' subsets need examining.
            if not take or len(survivors) < size - take:
                break
            if include_rejected:
                level = combinations(itemset, take)
            else:
                level = {smaller for larger in survivors for smaller in combinations(larger, take)}
        kept.sort(key=lambda rule: tuple(map(rank, rule.antecedent)))
        out += kept
    return out


def _raise_first_bad_split(
    itemset: Itemset, support: dict[Itemset, int], catalog: ItemCatalog
) -> None:
    """Raise for the first unstored or out-of-range antecedent, smallest first."""
    sup_union = support[itemset]
    for take in range(1, len(itemset)):
        for antecedent in combinations(itemset, take):
            sup_antecedent = support.get(antecedent)
            if sup_antecedent is None:
                raise ClosureViolationError(
                    "no stored support for antecedent "
                    f"{LABEL_JOINER.join(catalog.labels_of(antecedent))!r}"
                )
            if not 1 <= sup_union <= sup_antecedent:
                raise ContractViolationError(
                    f"confidence counts out of range: union={sup_union}, "
                    f"antecedent={sup_antecedent}"
                )


def write_rules_csv(
    rules: Iterable[AssociationRule], catalog: ItemCatalog, out: TextIO
) -> None:
    """Write antecedent,consequent,support,confidence,status rows to out.

    Itemsets are '|'-joined labels, so a label containing '|' raises
    ValidationError before anything is written; confidence prints as the
    shortest decimal that round-trips to the stored double.
    """
    check_joinable(catalog)
    labels = catalog.labels.__getitem__
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RULES_CSV_HEADER)
    writer.writerows(
        (
            LABEL_JOINER.join(map(labels, rule.antecedent)),
            LABEL_JOINER.join(map(labels, rule.consequent)),
            rule.support,
            repr(rule.confidence),
            rule.status,
        )
        for rule in rules
    )
