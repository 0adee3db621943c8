"""Rule generation, confidence arithmetic, and CSV rendering."""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from freqmine.apriori import (
    FrequentItemsets,
    apriori_mine,
    read_support_csv,
    write_frequent_csv,
)
from freqmine.dataset import ItemCatalog, parse_transactions
from freqmine.errors import ClosureViolationError, ContractViolationError, ValidationError
from freqmine.oracle import brute_force_rules
from freqmine.rules import (
    ACCEPTED,
    REJECTED,
    AssociationRule,
    confidence_limit,
    generate_rules,
    meets_confidence,
    write_rules_csv,
)


def test_rule_derives_its_consequent_and_confidence():
    rule = AssociationRule((0, 2), (0, 1, 2, 3), 399, 987, ACCEPTED)
    assert rule.consequent == (1, 3)
    assert repr(rule.confidence) == "0.40425531914893614"
    assert rule == AssociationRule((0, 2), (0, 1, 2, 3), 399, 987, ACCEPTED)
    assert rule != AssociationRule((0, 2), (0, 1, 2, 3), 399, 988, ACCEPTED)


def test_meets_confidence_boundary_is_inclusive():
    assert meets_confidence(2, 5, Fraction("0.40"))
    assert meets_confidence(399, 987, Fraction("0.40"))
    assert not meets_confidence(394, 987, Fraction("0.40"))
    assert meets_confidence(1, 4, 0)
    assert meets_confidence(4, 4, 1)
    assert not meets_confidence(3, 4, 1)


def test_meets_confidence_fraction_path_is_exact():
    threshold = Fraction(1, 3)
    num, den = 33333333333333331, 99999999999999994
    # The float quotient rounds to float(1/3) exactly, yet the true ratio is
    # below one third; only cross-multiplication gets this right.
    assert num / den == 1 / 3
    assert not meets_confidence(num, den, threshold)


def test_confidence_limit_keeps_the_exact_and_the_rounded_test():
    """The bound rejects a ratio below the threshold whose rounded quotient
    reaches it, and an int threshold bounds as the equal Fraction does."""
    num, den = 33333333333333331, 99999999999999994
    assert num / den == 1 / 3
    assert confidence_limit(Fraction(1, 3))(num) < den
    # num / (num + 1) rounds to 1.0, yet num + 1 is above the bound.
    assert num / (num + 1) == 1.0
    assert confidence_limit(Fraction(1))(num) == confidence_limit(1)(num) == num
    assert confidence_limit(Fraction(0))(num) == confidence_limit(0)(num) == math.inf


THRESHOLDS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(9, 10)]),
    st.fractions(min_value=0, max_value=1),
)


@settings(max_examples=400, deadline=None)
@given(THRESHOLDS, st.integers(1, 10**18), st.data())
def test_confidence_limit_accepts_what_meets_confidence_accepts(threshold, sup_union, data):
    """One bound per itemset accepts exactly the antecedent supports the
    per-split test accepts: the bound itself, and nothing above it."""
    limit = confidence_limit(threshold)(sup_union)
    if limit == math.inf:
        probes = [sup_union, data.draw(st.integers(sup_union, 10**40))]
    else:
        assert limit >= sup_union
        offsets = st.integers(-3, 3) | st.integers(-(10**6), 10**6)
        probes = [limit, limit + 1, max(sup_union, limit + data.draw(offsets))]
    for sup_antecedent in probes:
        accepted = meets_confidence(sup_union, sup_antecedent, threshold)
        assert (sup_antecedent <= limit) == accepted


def rules_by_labels(ruleset, catalog):
    return {
        (catalog.labels_of(r.antecedent), catalog.labels_of(r.consequent)): r
        for r in ruleset
    }


def test_generate_rules_db5(db5):
    freq = apriori_mine(db5, 3)
    ruleset = generate_rules(freq, db5.catalog, Fraction(3, 4))
    named = rules_by_labels(ruleset, db5.catalog)
    assert set(named) == {
        (("a",), ("b",)),
        (("b",), ("a",)),
        (("a",), ("c",)),
        (("c",), ("a",)),
        (("b",), ("c",)),
        (("c",), ("b",)),
    }
    for rule in ruleset:
        assert rule.support == 3
        assert rule.confidence_den == 4
        assert rule.confidence == 0.75
        assert rule.status == ACCEPTED


def test_generate_rules_rejection_and_include_flag(db5):
    freq = apriori_mine(db5, 3)
    assert generate_rules(freq, db5.catalog, Fraction("0.76")) == []
    kept = generate_rules(freq, db5.catalog, Fraction("0.76"), include_rejected=True)
    assert len(kept) == 6
    assert all(rule.status == REJECTED for rule in kept)


def test_generate_rules_closure_violation():
    catalog = ItemCatalog()
    a, b = catalog.intern("a"), catalog.intern("b")
    freq = FrequentItemsets({(a, b): 2, (a,): 3})
    with pytest.raises(ClosureViolationError) as exc_info:
        generate_rules(freq, catalog, Fraction(0))
    assert "b" in str(exc_info.value)


def test_generate_rules_closure_violation_below_failing_splits():
    # At confidence 1 every split of abc fails, so the walk over abc never
    # reaches c; the gap must still be found, through a|c.
    catalog = ItemCatalog()
    a, b, c = (catalog.intern(label) for label in "abc")
    freq = FrequentItemsets({(a, b, c): 2, (a, b): 3, (a, c): 3, (b, c): 3, (a,): 4, (b,): 4})
    for include_rejected in (False, True):
        with pytest.raises(ClosureViolationError, match="'c'"):
            generate_rules(freq, catalog, 1, include_rejected)


def four_item_catalog():
    catalog = ItemCatalog()
    for label in "abcd":
        catalog.intern(label)
    return catalog


def test_generate_rules_names_the_first_gap_in_sorted_order():
    # The gap under cd is inserted first; sorted order reaches ab first.
    catalog = four_item_catalog()
    freq = FrequentItemsets({(2, 3): 2, (2,): 3, (0, 1): 2, (0,): 3})
    for include_rejected in (False, True):
        with pytest.raises(ClosureViolationError) as exc_info:
            generate_rules(freq, catalog, Fraction(1, 2), include_rejected)
        assert str(exc_info.value) == "no stored support for antecedent 'b'"


def test_generate_rules_names_the_first_support_below_one_in_sorted_order():
    catalog = four_item_catalog()
    freq = FrequentItemsets({(2, 3): -1, (2,): 4, (3,): 4, (0, 1): 0, (0,): 3, (1,): 3})
    for include_rejected in (False, True):
        with pytest.raises(ContractViolationError) as exc_info:
            generate_rules(freq, catalog, Fraction(1, 2), include_rejected)
        assert str(exc_info.value) == "confidence counts out of range: union=0, antecedent=3"


def test_generate_rules_names_an_antecedent_with_less_support_than_its_itemset():
    catalog = ItemCatalog()
    a, b = catalog.intern("a"), catalog.intern("b")
    freq = FrequentItemsets({(a, b): 5, (a,): 4, (b,): 6})
    for include_rejected in (False, True):
        with pytest.raises(ContractViolationError) as exc_info:
            generate_rules(freq, catalog, Fraction(1, 2), include_rejected)
        assert str(exc_info.value) == "confidence counts out of range: union=5, antecedent=4"


def test_generate_rules_ordering():
    db = parse_transactions("x,m,a\nx,m,a\nx,m\nx,a\nm,a\n")
    freq = apriori_mine(db, 2)
    ruleset = generate_rules(freq, db.catalog, Fraction(0), include_rejected=True)
    keys = [
        (
            len(r.antecedent) + len(r.consequent),
            db.catalog.labels_of(tuple(sorted(r.antecedent + r.consequent))),
            db.catalog.labels_of(r.antecedent),
        )
        for r in ruleset
    ]
    assert keys == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(
    conftest.dbs_with_threshold(),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
def test_generate_rules_matches_brute_force_in_order(case, confidence):
    """Same rules in the same order as the oracle, on catalogs whose label order
    differs from handle order."""
    db, threshold = case
    freq = apriori_mine(db, threshold)
    for include_rejected in (False, True):
        generated = generate_rules(freq, db.catalog, confidence, include_rejected)
        assert generated == brute_force_rules(db, threshold, confidence, include_rejected)


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_int_thresholds_give_the_rules_of_the_equal_fractions(case):
    db, threshold = case
    freq = apriori_mine(db, threshold)
    for confidence in (0, 1):
        for include_rejected in (False, True):
            expected = generate_rules(freq, db.catalog, Fraction(confidence), include_rejected)
            assert generate_rules(freq, db.catalog, confidence, include_rejected) == expected
            assert brute_force_rules(db, threshold, confidence, include_rejected) == expected


def test_generate_rules_refuses_a_float_threshold(db5):
    freq = apriori_mine(db5, 3)
    for confidence in (0.5, 0.0, 1.0, math.nan):
        with pytest.raises(ValidationError, match="fractions.Fraction"):
            generate_rules(freq, db5.catalog, confidence)
    with pytest.raises(ValidationError, match="fractions.Fraction"):
        generate_rules(FrequentItemsets({}), db5.catalog, 0.5, include_rejected=True)


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold(), THRESHOLDS, st.data())
def test_generate_rules_does_not_follow_the_table_order(case, confidence, data):
    """The same table inserted reversed or shuffled gives the same rule list."""
    db, threshold = case
    freq = apriori_mine(db, threshold)
    entries = list(freq.support.items())
    orders = (entries[::-1], data.draw(st.permutations(entries)))
    for include_rejected in (False, True):
        expected = generate_rules(freq, db.catalog, confidence, include_rejected)
        for order in orders:
            reordered = FrequentItemsets(dict(order))
            assert generate_rules(reordered, db.catalog, confidence, include_rejected) == expected


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold(), THRESHOLDS)
def test_accepted_rules_are_the_accepted_rows_of_every_rule(case, confidence):
    """Without include_rejected the rules are the Accepted rows, in the same order."""
    db, threshold = case
    freq = apriori_mine(db, threshold)
    every = generate_rules(freq, db.catalog, confidence, include_rejected=True)
    accepted = [rule for rule in every if rule.status == ACCEPTED]
    assert generate_rules(freq, db.catalog, confidence) == accepted


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_every_itemset_splits_into_all_rules(case):
    """An itemset of size k yields 2**k - 2 rules when nothing is filtered."""
    db, threshold = case
    freq = apriori_mine(db, threshold)
    ruleset = generate_rules(freq, db.catalog, Fraction(0))
    by_source: dict[tuple, int] = {}
    for rule in ruleset:
        source = tuple(sorted(rule.antecedent + rule.consequent))
        by_source[source] = by_source.get(source, 0) + 1
    for itemset in freq.support:
        if len(itemset) >= 2:
            assert by_source[itemset] == 2 ** len(itemset) - 2
        else:
            assert itemset not in by_source


@settings(max_examples=60, deadline=None)
@given(conftest.dbs_with_threshold())
def test_rule_fields_are_internally_consistent(case):
    db, threshold = case
    freq = apriori_mine(db, threshold)
    # Each rule holds the table's own key, so one itemset's rules share one tuple.
    table_key = {itemset: itemset for itemset in freq.support}
    for rule in generate_rules(freq, db.catalog, Fraction(3, 10), include_rejected=True):
        assert rule.confidence == rule.support / rule.confidence_den
        assert set(rule.antecedent).isdisjoint(rule.consequent)
        assert rule.consequent == tuple(i for i in rule.itemset if i not in rule.antecedent)
        assert rule.itemset == tuple(sorted(rule.antecedent + rule.consequent))
        assert rule.itemset is table_key[rule.itemset]
        assert freq.support[rule.itemset] == rule.support
        assert freq.support[rule.antecedent] == rule.confidence_den


def test_rules_invariant_under_relabeling():
    rows = ["p,q,r", "p,q", "q,r", "p,r", "p,q,r"]
    forward = parse_transactions("\n".join(rows) + "\n")
    backward = parse_transactions("\n".join(reversed(rows)) + "\n")
    kwargs = dict(min_confidence=Fraction(1, 2), include_rejected=True)
    named_forward = {
        (forward.catalog.labels_of(r.antecedent), forward.catalog.labels_of(r.consequent), r.status, r.confidence)
        for r in generate_rules(apriori_mine(forward, 2), forward.catalog, **kwargs)
    }
    named_backward = {
        (backward.catalog.labels_of(r.antecedent), backward.catalog.labels_of(r.consequent), r.status, r.confidence)
        for r in generate_rules(apriori_mine(backward, 2), backward.catalog, **kwargs)
    }
    assert named_forward == named_backward


def label_rows(text):
    """A rules CSV's rows with each itemset's labels sorted, in sorted order."""
    rows = list(csv.reader(io.StringIO(text)))
    named = [
        (tuple(sorted(ante.split("|"))), tuple(sorted(cons.split("|"))), *rest)
        for ante, cons, *rest in rows[1:]
    ]
    return rows[0], sorted(named)


@settings(max_examples=60, deadline=None)
@given(
    conftest.dbs_with_threshold(),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)
def test_rules_from_the_support_csv_match_rules_from_the_table(case, confidence):
    """The rules command's route, itemset CSV -> read -> rules, loses nothing."""
    db, threshold = case
    freq = apriori_mine(db, threshold)
    read, catalog = read_support_csv(conftest.written(write_frequent_csv, freq, db.catalog))
    for include_rejected in (False, True):
        direct = generate_rules(freq, db.catalog, confidence, include_rejected)
        routed = generate_rules(read, catalog, confidence, include_rejected)
        assert label_rows(conftest.written(write_rules_csv, routed, catalog)) == label_rows(
            conftest.written(write_rules_csv, direct, db.catalog)
        )


def test_write_rules_csv_golden(db5):
    freq = apriori_mine(db5, 3)
    text = conftest.written(
        write_rules_csv, generate_rules(freq, db5.catalog, Fraction(3, 4)), db5.catalog
    )
    assert text == (
        "antecedent,consequent,support,confidence,status\n"
        "a,b,3,0.75,Accepted\n"
        "b,a,3,0.75,Accepted\n"
        "a,c,3,0.75,Accepted\n"
        "c,a,3,0.75,Accepted\n"
        "b,c,3,0.75,Accepted\n"
        "c,b,3,0.75,Accepted\n"
    )


def test_write_rules_csv_shortest_round_trip_floats():
    catalog = ItemCatalog()
    of = catalog.intern("Ongoing fears")
    u18 = catalog.intern("Under 18")
    freq = FrequentItemsets({(of,): 860, (u18,): 1169, (of, u18): 595})
    text = conftest.written(
        write_rules_csv,
        generate_rules(freq, catalog, Fraction("0.40"), include_rejected=True),
        catalog,
    )
    assert "Ongoing fears,Under 18,595,0.6918604651162791,Accepted\n" in text
    assert f"Under 18,Ongoing fears,595,{595 / 1169!r},Accepted\n" in text
