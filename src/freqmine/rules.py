"""Association rules from a frequent-itemset table.

Every itemset of size two or more splits into antecedent => consequent for
each nonempty proper subset. Confidence is kept as an exact integer pair
alongside its float quotient, so acceptance against a Fraction threshold
never suffers rounding at the boundary.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .apriori import LABEL_JOINER, FrequentItemsets, check_joinable, sorted_itemsets
from .dataset import ItemCatalog, Itemset
from .errors import ClosureViolationError, ContractViolationError

ACCEPTED = "Accepted"
REJECTED = "Rejected"

RULES_CSV_HEADER = ("antecedent", "consequent", "support", "confidence", "status")


def rule_confidence(sup_union: int, sup_antecedent: int) -> tuple[int, int, float]:
    """Confidence as (numerator, denominator, float quotient).

    The quotient is the correctly rounded double of the exact ratio. Counts
    must satisfy 1 <= sup_union <= sup_antecedent.
    """
    if not 1 <= sup_union <= sup_antecedent:
        raise ContractViolationError(
            f"confidence counts out of range: union={sup_union}, "
            f"antecedent={sup_antecedent}"
        )
    return sup_union, sup_antecedent, sup_union / sup_antecedent


def meets_confidence(num: int, den: int, min_confidence: float | Fraction) -> bool:
    """Inclusive acceptance test; cross-multiplied (exact) for Fraction thresholds."""
    if isinstance(min_confidence, Fraction):
        return num * min_confidence.denominator >= min_confidence.numerator * den
    return num / den >= min_confidence


@dataclass(frozen=True)
class AssociationRule:
    """antecedent => consequent with its support and confidence evidence.

    support counts transactions containing the whole itemset (antecedent and
    consequent together). confidence equals confidence_num / confidence_den
    exactly; the float field is that quotient correctly rounded.
    """

    antecedent: Itemset
    consequent: Itemset
    support: int
    confidence_num: int
    confidence_den: int
    confidence: float
    status: str


def generate_rules(
    freq: FrequentItemsets,
    catalog: ItemCatalog,
    min_confidence: float | Fraction,
    include_rejected: bool = False,
) -> list[AssociationRule]:
    """All rules s => (l - s) over the stored itemsets, confidence-filtered.

    Each itemset's antecedents are walked level by level, from size k-1 down
    to 1 (ap-genrules, Agrawal & Srikant 1994). Confidence can only fall as
    the antecedent shrinks, so a smaller antecedent is examined only when
    every superset of it within the itemset was kept: accepted, or any split
    when include_rejected is set.

    The k-1 level is always examined. Its antecedents must be stored with a
    support at least the itemset's, which, by induction over the itemsets in
    size order, proves the whole table downward closed. A missing antecedent
    raises ClosureViolationError and a smaller one ContractViolationError,
    each naming the first bad split in smallest-antecedent-first order.

    Rules come out itemset by itemset in sorted_itemsets order, the itemset
    CSV's, and within an itemset by antecedent labels.
    """
    support = freq.support
    out: list[AssociationRule] = []
    for itemset in sorted_itemsets(freq, catalog):
        size = len(itemset)
        if size < 2:
            continue
        sup_union = support[itemset]
        kept: list[tuple[Itemset, int, bool]] = []
        level = list(combinations(itemset, size - 1))
        while level:
            survivors = []
            for antecedent in level:
                sup_antecedent = support.get(antecedent)
                if sup_antecedent is None or not 1 <= sup_union <= sup_antecedent:
                    _raise_first_bad_split(itemset, support, catalog)
                accepted = meets_confidence(sup_union, sup_antecedent, min_confidence)
                if accepted or include_rejected:
                    kept.append((antecedent, sup_antecedent, accepted))
                    survivors.append(antecedent)
            take = len(level[0]) - 1
            if take == 0:
                break
            if len(survivors) == len(level):
                level = list(combinations(itemset, take))
            else:
                # Keep a smaller antecedent only if all size - take of its
                # supersets one item larger survived.
                tally = Counter(
                    smaller for larger in survivors for smaller in combinations(larger, take)
                )
                level = [smaller for smaller, count in tally.items() if count == size - take]
        kept.sort(key=lambda split: catalog.labels_of(split[0]))
        for antecedent, sup_antecedent, accepted in kept:
            out.append(
                AssociationRule(
                    antecedent,
                    tuple(item for item in itemset if item not in antecedent),
                    sup_union,
                    sup_union,
                    sup_antecedent,
                    sup_union / sup_antecedent,
                    ACCEPTED if accepted else REJECTED,
                )
            )
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
            rule_confidence(sup_union, sup_antecedent)


def write_rules_csv(rules: list[AssociationRule], catalog: ItemCatalog) -> str:
    """Render antecedent,consequent,support,confidence,status rows.

    Itemsets are '|'-joined labels, so a label containing '|' raises
    ValidationError before anything is rendered; confidence prints as the
    shortest decimal that round-trips to the stored double.
    """
    check_joinable(catalog)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(RULES_CSV_HEADER)
    for rule in rules:
        writer.writerow(
            [
                LABEL_JOINER.join(catalog.labels_of(rule.antecedent)),
                LABEL_JOINER.join(catalog.labels_of(rule.consequent)),
                rule.support,
                repr(rule.confidence),
                rule.status,
            ]
        )
    return buffer.getvalue()
