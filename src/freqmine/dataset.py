"""Transaction databases: CSV ingestion, label interning, and survey recoding.

A transaction is a set of items. Items are interned strings: every distinct
label (after whitespace normalization and case folding) gets a dense integer
handle, and itemsets are sorted tuples of those handles. All mining code
downstream works on handles only; labels come back into play when rendering
output.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import CsvParseError, SchemaError, ValidationError

ItemId = int
Itemset = tuple[ItemId, ...]

_WS_RUN = re.compile(r"\s+")

AGE_BUCKETS = ("Under 18", "18-24", "25-34", "Above 35")
DEFAULT_MISSING_AGE_LABEL = "Don't remember"


def normalize_label(raw: str) -> str:
    """Identity key for a label: trimmed, inner whitespace collapsed, case folded."""
    return _WS_RUN.sub(" ", raw.strip()).casefold()


AliasMap = dict[str, str]

# What ItemCatalog.resolve returns for a label that is blank or aliases to blank.
DROPPED: ItemId = -1


class ItemCatalog:
    """Interned item labels with dense integer handles.

    The display label keeps the first-seen trimmed spelling; lookups go
    through normalize_label, so later spellings differing only in case or
    whitespace map to the same handle. The catalog's aliases, keyed by
    normalized raw label, are applied to each spelling before interning,
    once and without chaining. Each raw spelling is normalized once and its
    outcome remembered.
    """

    def __init__(self, aliases: AliasMap | None = None) -> None:
        self._labels: list[str] = []
        self._handles: dict[str, ItemId] = {}
        self._by_spelling: dict[str, ItemId] = {}
        self._aliases = aliases or {}

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemCatalog):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self) -> str:
        return f"ItemCatalog({len(self._labels)} items)"

    def resolve(self, raw: str) -> ItemId:
        """Handle for raw after its alias, adding it if new; DROPPED if either is blank."""
        handle = self._by_spelling.get(raw)
        if handle is None:
            handle = self._by_spelling[raw] = self._add(raw)
        return handle

    def _add(self, raw: str) -> ItemId:
        label = raw
        key = normalize_label(label)
        if key and key in self._aliases:
            label = self._aliases[key]
            key = normalize_label(label)
        if not key:
            return DROPPED
        handle = self._handles.get(key)
        if handle is None:
            handle = self._handles[key] = len(self._labels)
            self._labels.append(label.strip())
        return handle

    def intern(self, raw: str) -> ItemId:
        """Return the handle for raw, adding it to the catalog if new."""
        handle = self.resolve(raw)
        if handle == DROPPED:
            raise ValidationError("cannot intern an empty label")
        return handle

    def lookup(self, label: str) -> ItemId | None:
        """Handle for a label if it is known, else None. Normalizes first."""
        return self._handles.get(normalize_label(label))

    def label(self, item: ItemId) -> str:
        return self._labels[item]

    def labels_of(self, itemset: Itemset) -> tuple[str, ...]:
        return tuple(self._labels[i] for i in itemset)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)


@dataclass(frozen=True)
class TransactionDb:
    """An immutable transaction database over one catalog.

    Transactions are sorted tuples of handles with no duplicates; empty
    transactions are legal and count toward n.
    """

    catalog: ItemCatalog
    transactions: tuple[Itemset, ...]

    @property
    def n(self) -> int:
        """Number of transactions, empty ones included."""
        return len(self.transactions)


# CsvRows hands the text to csv.reader in pieces of about this many
# characters, so only one piece is ever copied at a time.
_PIECE_CHARS = 1 << 16


def _pieces(content: str) -> Iterator[str]:
    """content cut just after a "\n" every _PIECE_CHARS characters or so."""
    start = 0
    while start < len(content):
        end = content.find("\n", start + _PIECE_CHARS - 1) + 1 or len(content)
        yield content[start:end]
        start = end


class CsvRows:
    """Rows of CSV text; a quoting error raises CsvParseError naming its line.

    The reader takes the lines of one piece of the text at a time, as
    io.StringIO would split them, so no second copy of the whole text is
    made.
    """

    def __init__(self, content: str) -> None:
        lines = itertools.chain.from_iterable(map(io.StringIO, _pieces(content)))
        self._reader = csv.reader(lines, strict=True)

    @property
    def line_num(self) -> int:
        """Physical line on which the last row read ended."""
        return self._reader.line_num

    def __iter__(self) -> Iterator[list[str]]:
        try:
            yield from self._reader
        except csv.Error as exc:
            raise CsvParseError(f"line {self.line_num}: {exc}") from exc


def parse_alias_csv(content: str) -> AliasMap:
    """Read a raw_label,canonical_label CSV into a map keyed by normalized raw label.

    Blank lines are skipped. Extra columns are ignored. A row with fewer than
    two fields raises ValidationError.
    """
    aliases: AliasMap = {}
    rows = CsvRows(content)
    for row in rows:
        if not any(field.strip() for field in row):
            continue
        if len(row) < 2:
            raise ValidationError(
                f"alias line {rows.line_num}: expected raw_label,canonical_label"
            )
        aliases[normalize_label(row[0])] = row[1].strip()
    return aliases


def _intern_labels(
    catalog: ItemCatalog, raw_labels: list[str], shared: dict[Itemset, Itemset]
) -> Itemset:
    """Resolve, dedupe, and sort one row's worth of labels; dropped ones left out.

    shared holds the first tuple made for each distinct itemset of one parse,
    so equal rows return the same object and the database keeps one copy.
    """
    seen = set(map(catalog.resolve, raw_labels))
    seen.discard(DROPPED)
    itemset = tuple(sorted(seen))
    return shared.setdefault(itemset, itemset)


def parse_transactions(content: str, aliases: AliasMap | None = None) -> TransactionDb:
    """Parse one-transaction-per-row CSV into an interned database.

    Every field is an item label. Blank fields are skipped, duplicates within
    a row collapse to one item, and rows may have differing field counts. An
    empty row becomes an empty transaction and still counts toward n. Quoting
    errors raise CsvParseError with the offending line number.
    """
    catalog = ItemCatalog(aliases)
    shared: dict[Itemset, Itemset] = {}
    transactions = [_intern_labels(catalog, row, shared) for row in CsvRows(content)]
    return TransactionDb(catalog, tuple(transactions))


class _LineEcho:
    """A csv.writer target whose write returns the row's text, which writerow passes on."""

    def write(self, line: str) -> str:
        return line


def serialize_transactions(db: TransactionDb) -> str:
    """Render the database back to CSV, one row per transaction, labels in handle order.

    Each distinct transaction is rendered once; equal ones reuse its line.
    """
    label = db.catalog.labels.__getitem__
    render = csv.writer(_LineEcho(), lineterminator="\n").writerow
    lines: dict[Itemset, str] = {}
    rows: list[str] = []
    for transaction in db.transactions:
        line = lines.get(transaction)
        if line is None:
            line = lines[transaction] = render(map(label, transaction))
        rows.append(line)
    return "".join(rows)


def item_frequencies(db: TransactionDb) -> dict[ItemId, int]:
    """Count, per item, the number of transactions containing it.

    Presence counts, not multiplicity; transactions are already duplicate-free.
    Items never seen are absent from the result.
    """
    counts: dict[ItemId, int] = {}
    for transaction in db.transactions:
        for item in transaction:
            counts[item] = counts.get(item, 0) + 1
    return counts


def bucket_age(age: int | None, missing_label: str = DEFAULT_MISSING_AGE_LABEL) -> str:
    """Map an age in years onto its bucket label.

    None means the age was not given and maps to missing_label. Buckets:
    under 18, 18-24, 25-34, and 35 or older. Negative ages are rejected.
    """
    if age is None:
        return missing_label
    if age < 0:
        raise ValidationError(f"negative age: {age}")
    if age < 18:
        return AGE_BUCKETS[0]
    if age <= 24:
        return AGE_BUCKETS[1]
    if age <= 34:
        return AGE_BUCKETS[2]
    return AGE_BUCKETS[3]


@dataclass(frozen=True)
class SurveySchema:
    """Column layout of a survey export.

    multiselect_delimiter separates the impact answers inside one cell; it
    must be a single character other than the comma so it cannot collide
    with the CSV field separator.
    """

    age_column: str = "age"
    impact_column: str = "impacts"
    multiselect_delimiter: str = ";"
    missing_age_label: str = DEFAULT_MISSING_AGE_LABEL

    def __post_init__(self) -> None:
        if len(self.multiselect_delimiter) != 1 or self.multiselect_delimiter == ",":
            raise ValidationError(
                "multiselect delimiter must be a single character other than ','"
            )


def _parse_age(cell: str, missing_key: str) -> int | None:
    """Age in years, or None for a blank cell or one matching the normalized marker."""
    text = cell.strip()
    if not text:
        return None
    if normalize_label(text) == missing_key:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"survey age is not an integer: {cell!r}") from None


def parse_survey(
    content: str, schema: SurveySchema, aliases: AliasMap | None = None
) -> TransactionDb:
    """Recode a survey export into transactions.

    Each response row becomes one transaction holding its age-bucket item plus
    every impact selected in the multiselect cell. The first row must be a
    header naming both schema columns; a missing column raises SchemaError.
    Missing or marker-valued ages recode to the missing-age bucket; a
    non-integer age raises ValidationError, as does a negative one.
    """
    rows = iter(CsvRows(content))
    header = next(rows, None)
    if header is None:
        raise SchemaError("survey file has no header row")
    positions = {name.strip(): index for index, name in enumerate(header)}
    for column in (schema.age_column, schema.impact_column):
        if column not in positions:
            raise SchemaError(f"missing survey column: {column!r}")
    age_at = positions[schema.age_column]
    impact_at = positions[schema.impact_column]

    missing_key = normalize_label(schema.missing_age_label)
    catalog = ItemCatalog(aliases)
    transactions: list[Itemset] = []
    shared: dict[Itemset, Itemset] = {}
    # Bucket label of each distinct age cell; a bad cell raises before it is stored.
    buckets: dict[str, str] = {}
    for row in rows:
        age_cell = row[age_at] if age_at < len(row) else ""
        impact_cell = row[impact_at] if impact_at < len(row) else ""
        bucket = buckets.get(age_cell)
        if bucket is None:
            age = _parse_age(age_cell, missing_key)
            bucket = buckets[age_cell] = bucket_age(age, schema.missing_age_label)
        labels = [bucket]
        labels.extend(impact_cell.split(schema.multiselect_delimiter))
        transactions.append(_intern_labels(catalog, labels, shared))
    return TransactionDb(catalog, tuple(transactions))
