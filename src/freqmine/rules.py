"""Association rules from a frequent-itemset table.

Every itemset of size two or more splits into antecedent => consequent for
each nonempty proper subset. Confidence is kept as an exact integer pair
alongside its float quotient, so acceptance against a Fraction threshold
never suffers rounding at the boundary.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .apriori import LABEL_JOINER, FrequentItemsets, sorted_itemsets
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

    An itemset of size k yields 2**k - 2 splits before filtering. Every
    antecedent's support must itself be stored (downward closure); a missing
    one raises ClosureViolationError. Rules come out itemset by itemset in
    sorted_itemsets order, the itemset CSV's, and within an itemset by
    antecedent labels.
    """
    support = freq.support
    out: list[AssociationRule] = []
    for itemset in sorted_itemsets(freq, catalog):
        if len(itemset) < 2:
            continue
        sup_union = support[itemset]
        kept: list[tuple[Itemset, int, int, float, bool]] = []
        for take in range(1, len(itemset)):
            for antecedent in combinations(itemset, take):
                sup_antecedent = support.get(antecedent)
                if sup_antecedent is None:
                    raise ClosureViolationError(
                        "no stored support for antecedent "
                        f"{LABEL_JOINER.join(catalog.labels_of(antecedent))!r}"
                    )
                num, den, quotient = rule_confidence(sup_union, sup_antecedent)
                accepted = meets_confidence(num, den, min_confidence)
                if accepted or include_rejected:
                    kept.append((antecedent, num, den, quotient, accepted))
        kept.sort(key=lambda split: catalog.labels_of(split[0]))
        for antecedent, num, den, quotient, accepted in kept:
            out.append(
                AssociationRule(
                    antecedent,
                    tuple(item for item in itemset if item not in antecedent),
                    sup_union,
                    num,
                    den,
                    quotient,
                    ACCEPTED if accepted else REJECTED,
                )
            )
    return out


def write_rules_csv(rules: list[AssociationRule], catalog: ItemCatalog) -> str:
    """Render antecedent,consequent,support,confidence,status rows.

    Itemsets are '|'-joined labels; confidence prints as the shortest decimal
    that round-trips to the stored double.
    """
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
