"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import csv
import io
import pathlib

import pytest
from hypothesis import strategies as st

from freqmine.dataset import TransactionDb, parse_transactions

DATA_DIR = pathlib.Path(__file__).parent / "data"

DB5_TEXT = "a,b,c\na,b\na,c\nb,c\na,b,c,d\n"

# Pool of labels whose lexicographic order differs from any fixed insertion
# order, plus a few that exercise CSV quoting.
LABEL_POOL = (
    "zeta",
    "alpha",
    "Mid Label",
    "kappa",
    "beta",
    "comma, label",
    'quote "label"',
    "omega",
    "gamma",
    "x",
)


@pytest.fixture
def db5() -> TransactionDb:
    return parse_transactions(DB5_TEXT)


@st.composite
def small_dbs(draw, max_items: int = 8, max_transactions: int = 25) -> TransactionDb:
    """Random databases built through the parser, so ids follow first use."""
    n_items = draw(st.integers(min_value=1, max_value=max_items))
    labels = list(LABEL_POOL[:n_items])
    n_rows = draw(st.integers(min_value=0, max_value=max_transactions))
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_ALL, lineterminator="\n")
    for _ in range(n_rows):
        member_ids = draw(st.sets(st.integers(0, n_items - 1), max_size=n_items))
        writer.writerow([labels[i] for i in sorted(member_ids)])
    return parse_transactions(buffer.getvalue())


@st.composite
def dbs_with_repeated_rows(draw, max_rows: int = 40) -> TransactionDb:
    """A small_dbs() database's rows drawn with repeats, in drawn order.

    A row drawn twice is the same tuple object both times; see unshared.
    """
    db = draw(small_dbs())
    if not db.n:
        return db
    picks = draw(st.lists(st.integers(0, db.n - 1), max_size=max_rows))
    return TransactionDb(db.catalog, tuple(db.transactions[i] for i in picks))


def unshared(db: TransactionDb) -> TransactionDb:
    """The same database with every non-empty transaction a tuple object of its own."""
    return TransactionDb(db.catalog, tuple(tuple(list(t)) for t in db.transactions))


def render_rows(db: TransactionDb) -> str:
    """Each transaction's labels written by csv.writer, one row at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for transaction in db.transactions:
        writer.writerow(db.catalog.labels_of(transaction))
    return buffer.getvalue()


def written(write, *args) -> str:
    """The text that write(*args, out) writes to a fresh io.StringIO out."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


@st.composite
def dbs_with_threshold(draw, max_items: int = 8, max_transactions: int = 25):
    """A database plus a threshold spanning under-, at-, and over-subscribed."""
    db = draw(small_dbs(max_items=max_items, max_transactions=max_transactions))
    threshold = draw(st.integers(min_value=1, max_value=max(db.n + 1, 2)))
    return db, threshold
