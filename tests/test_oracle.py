"""Brute-force reference: exhaustive counts and recounted rules."""

from __future__ import annotations

from fractions import Fraction

import pytest

from freqmine.apriori import apriori_mine
from freqmine.dataset import parse_transactions
from freqmine.errors import ValidationError
from freqmine.oracle import MAX_ORACLE_ITEMS, brute_force_frequent, brute_force_rules
from freqmine.rules import generate_rules

# Independently hand-counted from the five raw rows, not copied from a miner.
DB5_EXPECTED_AT_3 = {
    ("a",): 4,
    ("b",): 4,
    ("c",): 4,
    ("a", "b"): 3,
    ("a", "c"): 3,
    ("b", "c"): 3,
}


def test_brute_force_db5(db5):
    freq = brute_force_frequent(db5, 3)
    named = {db5.catalog.labels_of(s): c for s, c in freq.support.items()}
    assert named == DB5_EXPECTED_AT_3


def test_brute_force_counts_below_threshold_too(db5):
    freq = brute_force_frequent(db5, 1)
    named = {db5.catalog.labels_of(s): c for s, c in freq.support.items()}
    assert named[("a", "b", "c")] == 2
    assert named[("a", "b", "c", "d")] == 1
    assert named[("d",)] == 1


def test_brute_force_threshold_above_db_size(db5):
    assert brute_force_frequent(db5, db5.n + 1).support == {}


def test_brute_force_refuses_wide_universes():
    rows = "\n".join(f"item{i}" for i in range(MAX_ORACLE_ITEMS + 1)) + "\n"
    with pytest.raises(ValidationError):
        brute_force_frequent(parse_transactions(rows), 1)
    # exactly at the bound is fine
    rows = "\n".join(f"item{i}" for i in range(MAX_ORACLE_ITEMS)) + "\n"
    assert len(brute_force_frequent(parse_transactions(rows), 1).support) == 20


def test_brute_force_rules_matches_generate_rules(db5):
    confidence = Fraction("0.75")
    freq = apriori_mine(db5, 3)
    assert brute_force_rules(db5, 3, confidence) == generate_rules(freq, db5.catalog, confidence)
    assert brute_force_rules(db5, 3, confidence, include_rejected=True) == generate_rules(
        freq, db5.catalog, confidence, include_rejected=True
    )


def test_brute_force_rules_statuses(db5):
    ruleset = brute_force_rules(db5, 3, Fraction("0.8"), include_rejected=True)
    assert ruleset and all(rule.status == "Rejected" for rule in ruleset)
    assert brute_force_rules(db5, 3, Fraction("0.8")) == []


def test_brute_force_rules_refuses_a_float_threshold(db5):
    for confidence in (0.0, 0.5, 2 / 3, 1.0):
        with pytest.raises(ValidationError, match="fractions.Fraction"):
            brute_force_rules(db5, 2, confidence)
