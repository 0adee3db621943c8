"""Naive reference implementations used as ground truth in tests and checks.

These share no counting or traversal machinery with the miners: supports come
from exhaustive subset enumeration, and rule confidences are recounted by raw
transaction scans. Slow on purpose; bounded so they stay tractable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .apriori import FrequentItemsets
from .dataset import Itemset, TransactionDb
from .errors import ValidationError
from .rules import ACCEPTED, REJECTED, AssociationRule

MAX_ORACLE_ITEMS = 20


def brute_force_frequent(db: TransactionDb, min_support: int) -> FrequentItemsets:
    """Count every itemset occurring in the database, keep those at threshold.

    Enumerates each transaction's nonempty subsets, so every itemset present
    in at least one transaction gets an exact count; absent itemsets have
    support zero and can never reach a threshold of one or more. Databases
    with more than MAX_ORACLE_ITEMS distinct items are refused.
    """
    universe: set[int] = set()
    for transaction in db.transactions:
        universe.update(transaction)
    if len(universe) > MAX_ORACLE_ITEMS:
        raise ValidationError(
            f"refusing exhaustive enumeration over {len(universe)} distinct items "
            f"(limit {MAX_ORACLE_ITEMS})"
        )
    counts: dict[Itemset, int] = {}
    for transaction in db.transactions:
        for size in range(1, len(transaction) + 1):
            for subset in combinations(transaction, size):
                counts[subset] = counts.get(subset, 0) + 1
    support = {
        itemset: count
        for itemset, count in sorted(counts.items())
        if count >= min_support
    }
    return FrequentItemsets(support)


def brute_force_rules(
    db: TransactionDb,
    min_support: int,
    min_confidence: Fraction | int,
    include_rejected: bool = False,
) -> list[AssociationRule]:
    """Rules over the brute-force itemsets, confidences recounted from scratch.

    Both the union support and each antecedent support come from fresh scans
    of the raw transactions, not from the frequent table, so a miscounted
    support in either implementation shows up as a mismatch. A min_confidence
    that is not a Fraction or an int, such as a float, raises ValidationError.
    """
    if not isinstance(min_confidence, (Fraction, int)):
        raise ValidationError(
            f"min_confidence must be a fractions.Fraction or an int, got {min_confidence!r}"
        )
    num, den = min_confidence.numerator, min_confidence.denominator
    freq = brute_force_frequent(db, min_support)
    transaction_sets = [set(t) for t in db.transactions]

    def scan(itemset: Itemset) -> int:
        wanted = set(itemset)
        return sum(1 for t in transaction_sets if wanted <= t)

    out: list[AssociationRule] = []
    for itemset in freq.support:
        if len(itemset) < 2:
            continue
        sup_union = scan(itemset)
        for take in range(1, len(itemset)):
            for antecedent in combinations(itemset, take):
                sup_antecedent = scan(antecedent)
                accepted = sup_union * den >= num * sup_antecedent
                if not accepted and not include_rejected:
                    continue
                out.append(
                    AssociationRule(
                        antecedent,
                        itemset,
                        sup_union,
                        sup_antecedent,
                        ACCEPTED if accepted else REJECTED,
                    )
                )

    def order_key(rule: AssociationRule):
        labels = db.catalog.labels_of
        return (len(rule.itemset), labels(rule.itemset), labels(rule.antecedent))

    out.sort(key=order_key)
    return out
