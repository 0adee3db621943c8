"""Transaction databases: CSV ingestion, label interning, and survey recoding.

A transaction is a set of items. Items are interned strings: every distinct
label (after whitespace normalization and case folding) gets a dense integer
handle, and itemsets are sorted tuples of those handles. All mining code
downstream works on handles only; labels come back into play when rendering
output. Work done once per distinct key (a label spelling, an age cell, a
transaction to render) is remembered in one kind of memo, _Memo.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import ceil
from typing import Any, Callable, Iterator, TextIO, TypeVar

from .errors import CsvParseError, SchemaError, ValidationError

ItemId = int
Itemset = tuple[ItemId, ...]

_WS_RUN = re.compile(r"\s+")

AGE_BUCKETS = ("Under 18", "18-24", "25-34", "Above 35")
DEFAULT_MISSING_AGE_LABEL = "Don't remember"


def normalize_label(raw: str) -> str:
    """Identity key for a label: trimmed, inner whitespace collapsed, case folded."""
    return _WS_RUN.sub(" ", raw.strip()).casefold()


def ascii_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits with surrounding whitespace.

    Anything else raises ValueError, though int() reads "1_0" and "١٠" as 10.
    """
    if text.isascii() and "_" not in text:
        return int(text)
    raise ValueError(f"not an integer: {text!r}")


_AGE_BUCKET_KEYS = frozenset(map(normalize_label, AGE_BUCKETS))


AliasMap = dict[str, str]

# What ItemCatalog.resolve returns for a label that is blank or aliases to blank.
DROPPED: ItemId = -1

T = TypeVar("T")


class _Memo(dict[Any, T]):
    """A dict that computes, stores and returns compute(key) for a missing key.

    Map its bound __getitem__: a key already stored is found without a call
    into Python. A key whose compute raises is not stored.
    """

    def __init__(self, compute: Callable[[Any], T]) -> None:
        self._compute = compute

    def __missing__(self, key: Any) -> T:
        return self.setdefault(key, self._compute(key))


class ItemCatalog:
    """Interned item labels with dense integer handles.

    The display label keeps the first-seen trimmed spelling; lookups go
    through normalize_label, so later spellings differing only in case or
    whitespace map to the same handle. The catalog's aliases, keyed by
    normalized raw label, are applied to each spelling before interning,
    once and without chaining. resolve(raw), a _Memo's __getitem__, gives
    raw's handle after its alias, adding it if new, or DROPPED if either is
    blank; the memo holds the catalog's lists, not the catalog itself.
    """

    def __init__(self, aliases: AliasMap | None = None) -> None:
        self._labels: list[str] = []
        self._handles: dict[str, ItemId] = {}
        self._aliases = aliases or {}
        add = partial(self._add, self._labels, self._handles, self._aliases)
        self.resolve = _Memo(add).__getitem__

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemCatalog):
            return NotImplemented
        return self._labels == other._labels

    def __repr__(self) -> str:
        return f"ItemCatalog({len(self._labels)} items)"

    @staticmethod
    def _add(labels: list[str], handles: dict[str, ItemId], aliases: AliasMap, raw: str) -> ItemId:
        label = raw
        key = normalize_label(label)
        if key and key in aliases:
            label = aliases[key]
            key = normalize_label(label)
        if not key:
            return DROPPED
        handle = handles.get(key)
        if handle is None:
            handle = handles[key] = len(labels)
            labels.append(label.strip())
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

    def label_ranks(self) -> list[int]:
        """rank[h] is handle h's position in display-label order.

        Display labels are unique, so comparing two itemsets' rank tuples
        orders them as comparing their label tuples does.
        """
        labels = self._labels
        rank = [0] * len(labels)
        for position, handle in enumerate(sorted(range(len(labels)), key=labels.__getitem__)):
            rank[handle] = position
        return rank

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


def support_threshold(min_support: int | None, min_support_frac: Fraction | None, n: int) -> int:
    """min_support if given, else min_support_frac of n, rounded up and at least 1."""
    if min_support is not None:
        return min_support
    return max(1, ceil(min_support_frac * n))


# CsvRows hands the text to csv.reader in pieces of about this many
# characters, so only one piece is ever copied at a time.
_PIECE_CHARS = 1 << 16

# A line end as io.StringIO(newline="") finds it; "\r\n" is one.
_LINE_END = re.compile(r"\r\n?|\n")

_BOM = "\ufeff"

# CsvRows.converted() gives up its memo once lookups that missed outnumber
# those that hit by this many: on text whose lines are mostly distinct the
# memo only costs time and memory.
_MEMO_GIVE_UP_LEAD = 1024


def _pieces(content: str) -> Iterator[str]:
    """content after one leading _BOM, cut just after a line end every
    _PIECE_CHARS characters or so."""
    start = int(content.startswith(_BOM))
    while start < len(content):
        found = _LINE_END.search(content, start + _PIECE_CHARS - 1)
        end = found.end() if found else len(content)
        yield content[start:end]
        start = end


class CsvRows:
    """Rows of CSV text or of an open text file; a quoting error raises
    CsvParseError naming its line.

    Lines end at "\r", "\n" or "\r\n" and are not translated, as the csv
    module asks of a file opened with newline="". One leading U+FEFF, a
    byte order mark, is dropped. A file is read line by line, and whole
    text one piece at a time, so no second copy of the whole text is made.
    Read the rows once, either by iterating, which reads every line with
    one csv.reader, or through converted(), which builds its own.
    """

    def __init__(self, source: str | TextIO) -> None:
        if isinstance(source, str):
            self._lines = itertools.chain.from_iterable(
                io.StringIO(piece, newline="") for piece in _pieces(source)
            )
        else:
            lines = iter(source)
            first = next(lines, "").removeprefix(_BOM)
            self._lines = itertools.chain((first,) if first else (), lines)
        self._reader = csv.reader(self._lines, strict=True)
        # Lines that the current reader did not read: those read before it
        # was built, and those that converted()'s memo answered.
        self._offset = 0

    @property
    def line_num(self) -> int:
        """Physical line on which the last row read ended."""
        return self._reader.line_num + self._offset

    def __iter__(self) -> Iterator[list[str]]:
        try:
            yield from self._reader
        except csv.Error as exc:
            raise CsvParseError(f"line {self.line_num}: {exc}") from exc

    def converted(self, convert: Callable[[list[str]], T]) -> Iterator[T]:
        """convert(row) for each row, computed once per distinct one-line row.

        Each physical line is looked up in a memo, local to this call, before
        it is handed to this call's reader. A line whose row ended on that
        same line stores its value there, and a later equal line yields that
        value without being read. A line that starts a row spanning several
        lines is never stored, and the reader takes the lines that continue
        such a row straight from the text, never looked up. Lines answered by
        the memo still count toward line_num.

        Once the lookups that missed outnumber those that hit by
        _MEMO_GIVE_UP_LEAD, the memo is dropped and a plain reader reads the
        remaining rows, each converted as it comes.
        """
        memo: dict[str, T] = {}
        missing = object()
        lines = self._lines
        handed: list[str] = []

        def next_line() -> str:
            # The text running out raises StopIteration, which ends the reader's input.
            return handed.pop() if handed else next(lines)

        reader = self._reader = csv.reader(iter(next_line, None), strict=True)
        misses = 0
        try:
            for line in lines:
                value = memo.get(line, missing)
                if value is not missing:
                    self._offset += 1
                    yield value
                    continue
                start = reader.line_num
                handed.append(line)
                value = convert(next(reader))
                if reader.line_num == start + 1:
                    memo[line] = value
                yield value
                misses += 1
                # Until the memo is dropped, _offset counts the lookups that hit.
                if misses - self._offset == _MEMO_GIVE_UP_LEAD:
                    del memo
                    self._offset += reader.line_num
                    self._reader = csv.reader(lines, strict=True)
                    yield from map(convert, self._reader)
                    return
        except csv.Error as exc:
            raise CsvParseError(f"line {self.line_num}: {exc}") from exc


def parse_alias_csv(source: str | TextIO) -> AliasMap:
    """Read a raw_label,canonical_label CSV into a map keyed by normalized raw label.

    source is the text or a file opened with newline="" (see CsvRows).
    Blank lines are skipped. Extra columns are ignored. A row with fewer than
    two fields raises ValidationError.
    """
    aliases: AliasMap = {}
    rows = CsvRows(source)
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


def parse_transactions(content: str | TextIO, aliases: AliasMap | None = None) -> TransactionDb:
    """Parse one-transaction-per-row CSV into an interned database.

    content is the text or a file opened with newline="" (see CsvRows).
    Every field is an item label. Blank fields are skipped, duplicates within
    a row collapse to one item, and rows may have differing field counts. An
    empty row becomes an empty transaction and still counts toward n. Quoting
    errors raise CsvParseError with the offending line number.

    Each distinct row is parsed and resolved once: a memo, local to this
    call and keyed by the physical line with its line end, gives a line
    already read as a complete one-line row that row's shared itemset (see
    CsvRows.converted). A line that starts a multi-line quoted cell is never
    stored, since the same line can start different rows, and the lines
    that continue such a row are parsed as part of it. The memo holds one
    string per distinct line and is freed on return, or as soon as its
    misses outnumber its hits by _MEMO_GIVE_UP_LEAD; the rows after that
    are each parsed, and equal ones still share one tuple.
    """
    catalog = ItemCatalog(aliases)
    shared: dict[Itemset, Itemset] = {}
    transactions = CsvRows(content).converted(
        lambda row: _intern_labels(catalog, row, shared)
    )
    return TransactionDb(catalog, tuple(transactions))


# serialize_transactions joins this many lines into each write.
_WRITE_BLOCK = 4096


class _LineEcho:
    """A csv.writer target whose write returns the row's text, which writerow passes on."""

    def write(self, line: str) -> str:
        return line


def serialize_transactions(db: TransactionDb, out: TextIO) -> None:
    """Write the database to out as CSV, one row per transaction, labels in handle order.

    Each distinct transaction is rendered once; equal ones reuse its line.
    The lines go to out _WRITE_BLOCK at a time, one write per block, since a
    tall database repeats a few short lines and one write per line would
    cost more than rendering them.
    """
    label = db.catalog.labels.__getitem__
    render = csv.writer(_LineEcho(), lineterminator="\n").writerow
    line_of = _Memo(lambda transaction: render(map(label, transaction))).__getitem__
    transactions = db.transactions
    for start in range(0, len(transactions), _WRITE_BLOCK):
        out.write("".join(map(line_of, transactions[start : start + _WRITE_BLOCK])))


def item_frequencies(
    db: TransactionDb, folded: Counter[Itemset] | None = None
) -> dict[ItemId, int]:
    """Count, per item, the number of transactions containing it.

    Presence counts, not multiplicity; transactions are already duplicate-free.
    Items never seen are absent from the result. Equal transactions are
    counted together and each distinct one is walked once; items keep the
    order in which the transactions first name them. folded, when given,
    must be Counter(db.transactions), so a caller that needs that fold
    itself builds it once.
    """
    if folded is None:
        folded = Counter(db.transactions)
    counts: dict[ItemId, int] = {}
    for transaction, times in folded.items():
        for item in transaction:
            counts[item] = counts.get(item, 0) + times
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
    with the CSV field separator. The age and impact columns must differ, and
    missing_age_label must not be blank or name an age bucket once
    normalized, or a missing age would drop out of its row or merge with a
    given one.
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
        if self.age_column == self.impact_column:
            raise ValidationError(f"age and impact columns are both {self.age_column!r}")
        missing = normalize_label(self.missing_age_label)
        if not missing:
            raise ValidationError("missing-age label is blank")
        if missing in _AGE_BUCKET_KEYS:
            raise ValidationError(
                f"missing-age label {self.missing_age_label!r} names an age bucket"
            )


def _parse_age(cell: str, missing_key: str) -> int | None:
    """Age in years, or None for a blank cell or one matching the normalized marker."""
    text = cell.strip()
    if not text:
        return None
    if normalize_label(text) == missing_key:
        return None
    try:
        return ascii_int(text)
    except ValueError:
        raise ValidationError(f"survey age is not an integer: {cell!r}") from None


def parse_survey(
    content: str | TextIO, schema: SurveySchema, aliases: AliasMap | None = None
) -> TransactionDb:
    """Recode a survey export into transactions.

    content is the text or a file opened with newline="" (see CsvRows).
    Each response row becomes one transaction holding its age-bucket item plus
    every impact selected in the multiselect cell. A row whose cells are all
    blank, such as an empty line, is skipped, before the header as after it.
    The first other row must be a header naming each schema column once; a
    column it lacks or names twice raises SchemaError, while other columns
    may share a name. Missing or marker-valued ages recode to the
    missing-age bucket; an age that is not an optional sign and ASCII digits
    raises ValidationError, as does a negative one.
    """
    rows = iter(CsvRows(content))
    header = next((row for row in rows if any(map(str.strip, row))), None)
    if header is None:
        raise SchemaError("survey file has no header row")
    names = [name.strip() for name in header]
    for column in (schema.age_column, schema.impact_column):
        if names.count(column) != 1:
            problem = "repeated" if column in names else "missing"
            raise SchemaError(f"{problem} survey column: {column!r}")
    age_at = names.index(schema.age_column)
    impact_at = names.index(schema.impact_column)

    missing_key = normalize_label(schema.missing_age_label)
    catalog = ItemCatalog(aliases)
    transactions: list[Itemset] = []
    shared: dict[Itemset, Itemset] = {}
    # Bucket label of each distinct age cell; a bad cell raises before it is stored.
    bucket_of = _Memo(
        lambda cell: bucket_age(_parse_age(cell, missing_key), schema.missing_age_label)
    ).__getitem__
    for row in rows:
        age_cell = row[age_at] if age_at < len(row) else ""
        impact_cell = row[impact_at] if impact_at < len(row) else ""
        # Only a row with both of these cells blank pays for the full check.
        if not (age_cell.strip() or impact_cell.strip()) and not any(map(str.strip, row)):
            continue
        labels = [bucket_of(age_cell)]
        labels.extend(impact_cell.split(schema.multiselect_delimiter))
        transactions.append(_intern_labels(catalog, labels, shared))
    return TransactionDb(catalog, tuple(transactions))
