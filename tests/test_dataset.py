"""Ingestion, interning, and survey recoding."""

from __future__ import annotations

import csv
import gc
import io
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import conftest
from freqmine import dataset
from freqmine.apriori import read_support_csv
from freqmine.dataset import (
    CsvRows,
    ItemCatalog,
    SurveySchema,
    bucket_age,
    item_frequencies,
    normalize_label,
    parse_alias_csv,
    parse_survey,
    parse_transactions,
    serialize_transactions,
)
from freqmine.errors import CsvParseError, SchemaError, ValidationError


def test_db5_parse_shape(db5):
    assert db5.catalog.labels == ("a", "b", "c", "d")
    assert db5.transactions == ((0, 1, 2), (0, 1), (0, 2), (1, 2), (0, 1, 2, 3))
    assert db5.n == 5


def test_interning_merges_case_and_whitespace_variants():
    db = parse_transactions("Anxiety , anxiety\n")
    assert db.n == 1
    assert db.transactions == ((0,),)
    # Display label keeps the first-seen trimmed spelling.
    assert db.catalog.labels == ("Anxiety",)


def test_inner_whitespace_collapses_for_identity_only():
    db = parse_transactions("ongoing  fears\nOngoing fears\n")
    assert len(db.catalog) == 1
    # Identity folds the spellings together; display keeps the first one.
    assert db.catalog.label(0) == "ongoing  fears"
    assert db.catalog.lookup("ONGOING FEARS") == 0


def test_blank_fields_are_skipped():
    db = parse_transactions("a,,b\n ,  ,\n")
    assert db.transactions == ((0, 1), ())


def test_empty_rows_count_toward_n():
    db = parse_transactions("a\n\nb\n")
    assert db.n == 3
    assert db.transactions[1] == ()


def test_duplicate_items_in_row_collapse():
    db = parse_transactions("a,b,a,B\n")
    assert db.transactions == ((0, 1),)


def test_catalog_lookup_and_bounds():
    catalog = ItemCatalog()
    a = catalog.intern("Alpha")
    assert catalog.lookup(" ALPHA ") == a
    assert catalog.lookup("missing") is None
    assert catalog.labels_of((a,)) == ("Alpha",)
    with pytest.raises(ValidationError):
        catalog.intern("   ")


def test_repeated_spellings_return_one_handle_and_keep_the_first_label():
    catalog = ItemCatalog()
    fears = catalog.intern(" Ongoing Fears")
    anxiety = catalog.intern("Anxiety")
    for _ in range(2):
        assert catalog.intern(" Ongoing Fears") == fears
        assert catalog.intern("ongoing   FEARS ") == fears
        assert catalog.intern("ANXIETY") == anxiety
        assert catalog.intern("Anxiety") == anxiety
    assert catalog.labels == ("Ongoing Fears", "Anxiety")
    for _ in range(2):
        with pytest.raises(ValidationError):
            catalog.intern("   ")


def test_normalize_label():
    assert normalize_label("  Ongoing   Fears ") == "ongoing fears"


def test_unterminated_quote_raises_with_line_number():
    with pytest.raises(CsvParseError) as exc_info:
        parse_transactions('a,b\nc,"unterminated\n')
    assert "line" in str(exc_info.value)


def test_serialize_round_trips_quoted_labels():
    text = '"comma, label",plain\n"quote ""label"""\n'
    db = parse_transactions(text)
    again = parse_transactions(conftest.written(serialize_transactions, db))
    assert again == db


@settings(max_examples=100)
@given(conftest.small_dbs())
def test_serialize_parse_round_trip(db):
    """parse(serialize(db)) reproduces catalog, transactions, and n."""
    again = parse_transactions(conftest.written(serialize_transactions, db))
    assert again == db


def _one_object_per_distinct(transactions) -> bool:
    return len({id(t) for t in transactions}) == len(set(transactions))


@settings(max_examples=100)
@given(conftest.dbs_with_repeated_rows(), st.booleans())
def test_serialize_renders_each_row_as_csv_writer_does(db, separate):
    """One line per distinct transaction, reused for its repeats, quoting included."""
    if separate:
        db = conftest.unshared(db)
    assert conftest.written(serialize_transactions, db) == conftest.render_rows(db)


def test_serialize_repeated_quoted_rows():
    db = parse_transactions('"comma, label",x\n"quote ""label"""\nx,"comma, label"\ny,x\n')
    assert conftest.written(serialize_transactions, db) == (
        '"comma, label",x\n"quote ""label"""\n"comma, label",x\nx,y\n'
    )


@settings(max_examples=100)
@given(conftest.dbs_with_repeated_rows())
def test_parse_transactions_shares_one_tuple_per_distinct_itemset(db):
    parsed = parse_transactions(conftest.render_rows(db))
    assert parsed.n == db.n
    assert _one_object_per_distinct(parsed.transactions)


@settings(max_examples=100)
@given(conftest.dbs_with_repeated_rows(), st.data())
def test_parse_survey_shares_one_tuple_per_distinct_itemset(db, data):
    ages = data.draw(
        st.lists(st.sampled_from(["16", "17", "30", ""]), min_size=db.n, max_size=db.n)
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["age", "impacts"])
    for age, transaction in zip(ages, db.transactions):
        writer.writerow([age, ";".join(db.catalog.labels_of(transaction))])
    parsed = parse_survey(buffer.getvalue(), SurveySchema())
    # A row with a blank age and no impacts has only blank cells and is skipped.
    answered = sum(1 for age, transaction in zip(ages, db.transactions) if age or transaction)
    assert parsed.n == answered
    assert _one_object_per_distinct(parsed.transactions)


def test_item_frequencies_counts_presence(db5):
    counts = {db5.catalog.label(i): c for i, c in item_frequencies(db5).items()}
    assert counts == {"a": 4, "b": 4, "c": 4, "d": 1}


@settings(max_examples=100)
@given(conftest.dbs_with_repeated_rows())
def test_item_frequencies_counts_every_row_in_first_seen_order(db):
    expected: dict[int, int] = {}
    for transaction in db.transactions:
        for item in transaction:
            expected[item] = expected.get(item, 0) + 1
    assert list(item_frequencies(db).items()) == list(expected.items())


def test_item_frequencies_empty_db():
    assert item_frequencies(parse_transactions("")) == {}


@pytest.mark.parametrize(
    ("age", "bucket"),
    [
        (0, "Under 18"),
        (17, "Under 18"),
        (18, "18-24"),
        (24, "18-24"),
        (25, "25-34"),
        (34, "25-34"),
        (35, "Above 35"),
        (99, "Above 35"),
        (None, "Don't remember"),
    ],
)
def test_bucket_age_boundaries(age, bucket):
    assert bucket_age(age) == bucket


def test_bucket_age_custom_missing_label():
    assert bucket_age(None, missing_label="No answer") == "No answer"


def test_bucket_age_rejects_negative():
    with pytest.raises(ValidationError):
        bucket_age(-1)


SURVEY_SMALL = "age,impacts\n16,Anxiety;Intense fear\n20,Anxiety\n16,Anxiety\n"


def test_parse_survey_small_counts():
    db = parse_survey(SURVEY_SMALL, SurveySchema())
    counts = {db.catalog.label(i): c for i, c in item_frequencies(db).items()}
    assert counts == {"Anxiety": 3, "Under 18": 2, "Intense fear": 1, "18-24": 1}


def test_parse_survey_missing_column_names_it():
    with pytest.raises(SchemaError) as exc_info:
        parse_survey("age,stuff\n16,x\n", SurveySchema())
    assert "impacts" in str(exc_info.value)


@pytest.mark.parametrize("header, column", [("age,impacts,age", "age"), ("age,impacts,impacts", "impacts")])
def test_parse_survey_rejects_a_schema_column_named_twice(header, column):
    with pytest.raises(SchemaError) as exc_info:
        parse_survey(f"{header}\n12,x,40\n", SurveySchema())
    assert str(exc_info.value) == f"repeated survey column: {column!r}"
    # Other columns may share a name.
    db = parse_survey("note,age,note,impacts\na,12,b,x\n", SurveySchema())
    assert db.catalog.labels_of(db.transactions[0]) == ("Under 18", "x")


def test_parse_survey_no_header():
    with pytest.raises(SchemaError):
        parse_survey("", SurveySchema())


def test_parse_survey_non_integer_age():
    with pytest.raises(ValidationError):
        parse_survey("age,impacts\nteen,Anxiety\n", SurveySchema())


def test_parse_survey_negative_age():
    with pytest.raises(ValidationError):
        parse_survey("age,impacts\n-4,Anxiety\n", SurveySchema())


@pytest.mark.parametrize("cell", ["1_8", "\u0661\u0668"])
def test_parse_survey_rejects_an_age_int_would_misread(cell):
    # int() reads both as 18: one with a digit separator, one in Arabic-Indic digits.
    with pytest.raises(ValidationError, match="not an integer"):
        parse_survey(f"age,impacts\n{cell},Anxiety\n", SurveySchema())


def test_parse_survey_missing_age_variants():
    text = "age,impacts\n,Anxiety\nDon't remember,Anxiety\n  ,Anxiety\n"
    db = parse_survey(text, SurveySchema())
    label = "Don't remember"
    handle = db.catalog.lookup(label)
    assert all(handle in t for t in db.transactions)


def test_parse_survey_blank_impacts_leaves_bucket_only():
    db = parse_survey("age,impacts\n35,\n", SurveySchema())
    assert db.transactions == ((0,),)
    assert db.catalog.label(0) == "Above 35"


def test_parse_survey_skips_rows_of_blank_cells():
    text = "age,impacts\n\n16,Anxiety\n, \n\n20,\n\n\n"
    db = parse_survey(text, SurveySchema())
    assert db == parse_survey("age,impacts\n16,Anxiety\n20,\n", SurveySchema())
    assert db.catalog.labels == ("Under 18", "Anxiety", "18-24")
    # A blank age and impact with another cell filled in is still a response.
    db = parse_survey("age,impacts,comment\n , ,noted\n", SurveySchema())
    assert db.catalog.labels == ("Don't remember",)
    assert db.transactions == ((0,),)


def test_parse_survey_skips_blank_rows_before_the_header():
    db = parse_survey("\n , \nage,impacts\n16,Anxiety\n", SurveySchema())
    assert db == parse_survey("age,impacts\n16,Anxiety\n", SurveySchema())
    with pytest.raises(SchemaError, match="no header row"):
        parse_survey("\n,\n", SurveySchema())


def test_parse_survey_custom_schema_columns_and_delimiter():
    text = "years,effects,extra\n16,Anxiety|Intense fear,ignored\n"
    schema = SurveySchema(
        age_column="years", impact_column="effects", multiselect_delimiter="|"
    )
    db = parse_survey(text, schema)
    labels = sorted(db.catalog.labels_of(db.transactions[0]))
    assert labels == ["Anxiety", "Intense fear", "Under 18"]


@pytest.mark.parametrize("label", ["", "  ", "\t\n"])
def test_survey_schema_rejects_a_blank_missing_age_label(label):
    with pytest.raises(ValidationError, match="missing-age label is blank"):
        SurveySchema(missing_age_label=label)


@pytest.mark.parametrize("label", ["18-24", " under  18 ", "ABOVE 35"])
def test_survey_schema_rejects_a_missing_age_label_naming_a_bucket(label):
    with pytest.raises(ValidationError, match="names an age bucket"):
        SurveySchema(missing_age_label=label)


def test_survey_schema_rejects_one_column_for_age_and_impacts():
    with pytest.raises(ValidationError, match="age and impact columns are both 'impacts'"):
        SurveySchema(age_column="impacts")
    with pytest.raises(ValidationError, match="'x'"):
        SurveySchema(age_column="x", impact_column="x")


def test_survey_schema_rejects_bad_delimiter():
    with pytest.raises(ValidationError):
        SurveySchema(multiselect_delimiter=",")
    with pytest.raises(ValidationError):
        SurveySchema(multiselect_delimiter="::")


def test_parse_survey_exactly_one_bucket_per_transaction():
    text = (
        "age,impacts\n16,Anxiety\n20,Depressions;Anxiety\n,\n47,\n"
        "25,Anxiety\nDon't remember,Depressions\n"
    )
    db = parse_survey(text, SurveySchema())
    buckets = {"Under 18", "18-24", "25-34", "Above 35", "Don't remember"}
    bucket_ids = {i for i in range(len(db.catalog)) if db.catalog.label(i) in buckets}
    for transaction in db.transactions:
        assert len(bucket_ids.intersection(transaction)) == 1


def test_alias_csv_parse_and_application():
    aliases = parse_alias_csv("Panic attacks,Anxiety\nFear (intense),Intense fear\n")
    db = parse_transactions("panic  ATTACKS,b\nAnxiety\n", aliases)
    assert db.catalog.labels == ("Anxiety", "b")
    assert db.transactions == ((0, 1), (0,))


def test_alias_csv_applies_to_survey_impacts():
    aliases = parse_alias_csv("Panic attacks,Anxiety\n")
    db = parse_survey("age,impacts\n16,Panic attacks\n", SurveySchema(), aliases)
    labels = sorted(db.catalog.labels_of(db.transactions[0]))
    assert labels == ["Anxiety", "Under 18"]


def test_alias_csv_rejects_single_column_rows():
    with pytest.raises(ValidationError):
        parse_alias_csv("only-one-field\n")


def test_alias_csv_skips_blank_lines():
    aliases = parse_alias_csv("\n\nPanic,Anxiety\n\n")
    assert aliases == {"panic": "Anxiety"}


def test_alias_csv_quoting_error_names_the_line():
    with pytest.raises(CsvParseError, match="line 2"):
        parse_alias_csv('Panic,Anxiety\n"Fear,Intense fear\n')


def test_alias_to_blank_label_drops_the_label():
    aliases = parse_alias_csv("N/A, \n")
    db = parse_transactions("n/a,b\nN/A\n", aliases)
    assert db.catalog.labels == ("b",)
    assert db.transactions == ((0,), ())


def test_alias_with_blank_raw_label_leaves_blank_cells_dropped():
    aliases = parse_alias_csv(",Anxiety\n")
    db = parse_transactions("a,, \n,\n", aliases)
    assert db.catalog.labels == ("a",)
    assert db.transactions == ((0,), ())


def test_aliases_do_not_chain():
    aliases = parse_alias_csv("a,b\nb,c\n")
    db = parse_transactions("a\nb\n", aliases)
    assert db.catalog.labels == ("b", "c")
    assert db.transactions == ((0,), (1,))


def test_parse_without_aliases_does_not_inherit_aliases():
    parse_transactions("Panic\n", parse_alias_csv("Panic,Anxiety\n"))
    db = parse_transactions("Panic\n")
    assert db.catalog.labels == ("Panic",)


def test_alias_error_after_multiline_field_names_the_physical_line():
    content = 'Panic,"Anxiety\nand fear"\nlonely\n'
    with pytest.raises(ValidationError, match="alias line 3"):
        parse_alias_csv(content)


def test_survey_with_aliases_normalizes_each_spelling_once(monkeypatch):
    aliases = parse_alias_csv("Panic attacks,Anxiety\nFear (intense),Intense fear\n")
    calls = []

    def counting(raw):
        calls.append(raw)
        return normalize_label(raw)

    monkeypatch.setattr(dataset, "normalize_label", counting)
    ages = ("", "16", "don't  REMEMBER", "40", " 29 ")
    spellings = ("Panic attacks", "Anxiety;Fear (intense)", "panic  ATTACKS;", "Depressions")
    rows = [
        f"{ages[index % len(ages)]},{spellings[index % len(spellings)]}"
        for index in range(1000)
    ]
    db = parse_survey("age,impacts\n" + "\n".join(rows) + "\n", SurveySchema(), aliases)
    assert db.n == 1000
    assert db.catalog.labels == (
        "Don't remember",
        "Anxiety",
        "Under 18",
        "Intense fear",
        "Above 35",
        "Depressions",
        "25-34",
    )
    assert len(calls) <= 20


def test_memo_computes_once_per_key_and_stores_no_failure():
    calls = []

    def compute(key):
        calls.append(key)
        if key == "bad":
            raise ValidationError("bad key")
        return key.upper()

    get = dataset._Memo(compute).__getitem__
    assert list(map(get, ["a", "b", "a", "b", "a"])) == ["A", "B", "A", "B", "A"]
    for _ in range(2):
        with pytest.raises(ValidationError, match="bad key"):
            get("bad")
    assert get("a") == "A"
    assert calls == ["a", "b", "bad", "bad"]


def test_dropped_catalog_is_freed_by_reference_counting():
    """The resolve memo holds the catalog's lists, not the catalog: no cycle to collect."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        catalog = ItemCatalog(parse_alias_csv("Panic attacks,Anxiety\n"))
        resolved = [catalog.resolve(raw) for raw in ("Panic attacks", " ", "x", "anxiety")]
        assert resolved == [0, dataset.DROPPED, 1, 0]
        freed = weakref.ref(catalog)
        del catalog
        assert freed() is None
    finally:
        if enabled:
            gc.enable()


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='a,"\n\r\x0b\u2028\ufeff', max_size=30))
def test_csv_rows_read_like_csv_reader_over_stringio(content):
    _assert_reads_like_csv_reader_over_stringio(content)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet='a,"\n\r\x0b\u2028\ufeff', max_size=30))
def test_csv_rows_read_like_csv_reader_over_stringio_one_line_per_piece(content):
    """Quoted cells that span lines also span the cuts between pieces."""
    with mock.patch.object(dataset, "_PIECE_CHARS", 1):
        _assert_reads_like_csv_reader_over_stringio(content)


def _assert_reads_like_csv_reader_over_stringio(content):
    """CsvRows reads content as csv.reader does, after one leading U+FEFF."""
    reader = csv.reader(io.StringIO(content.removeprefix("\ufeff"), newline=""), strict=True)
    expected, expected_error = [], None
    try:
        expected.extend(reader)
    except csv.Error as exc:
        expected_error = f"line {reader.line_num}: {exc}"
    rows = CsvRows(content)
    got, error = [], None
    try:
        got.extend(rows)
    except CsvParseError as exc:
        error = str(exc)
    assert (got, error, rows.line_num) == (expected, expected_error, reader.line_num)


_BOM_PARSERS = {
    "parse_transactions": (parse_transactions, "a,b\na,c\n"),
    "parse_alias_csv": (parse_alias_csv, "a,Anxiety\n"),
    "parse_survey": (lambda source: parse_survey(source, SurveySchema()), "age,impacts\n20,a\n"),
    "read_support_csv": (read_support_csv, "itemset,support\na,3\n"),
}


@pytest.mark.parametrize("from_file", [False, True], ids=["text", "file"])
@pytest.mark.parametrize("parse, text", list(_BOM_PARSERS.values()), ids=list(_BOM_PARSERS))
def test_a_leading_byte_order_mark_does_not_change_what_is_parsed(parse, text, from_file, tmp_path):
    def parsed(content):
        if not from_file:
            return parse(content)
        path = tmp_path / "source.csv"
        path.write_text(content, encoding="utf-8", newline="")
        with open(path, encoding="utf-8", newline="") as handle:
            return parse(handle)

    assert parsed("\ufeff" + text) == parsed(text)


def test_bare_cr_line_ends_split_rows_and_quoted_line_breaks_stay():
    assert list(CsvRows('a,b\r"x\r\ny","p\rq"\rc')) == [
        ["a", "b"],
        ["x\r\ny", "p\rq"],
        ["c"],
    ]
    assert parse_transactions("a,b\rc\r") == parse_transactions("a,b\nc\n")


# Texts made of a few lines, each used any number of times, so that lines
# repeat as one-line rows, as parts of multi-line rows, and as both.
_TEXTS_OF_REPEATED_LINES = st.lists(
    st.text(alphabet='aA ,"\n\r', max_size=8), min_size=1, max_size=4
).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=12).map("".join))


@pytest.mark.parametrize("piece_chars", [dataset._PIECE_CHARS, 1])
@settings(max_examples=300, deadline=None)
@given(_TEXTS_OF_REPEATED_LINES)
@example('a\n"b\n')  # the text ends inside a quote while the memo is kept: line 2
def test_parse_transactions_reads_like_csv_reader_row_by_row(piece_chars, content):
    """The line memo changes nothing: transactions, labels, errors and their lines."""
    with mock.patch.object(dataset, "_PIECE_CHARS", piece_chars):
        try:
            db = parse_transactions(content)
        except CsvParseError as exc:
            got = (None, None, str(exc))
        else:
            got = (db.transactions, db.catalog.labels, None)
    assert got == _parse_row_by_row(content)


def _parse_row_by_row(content):
    """(transactions, labels, error) with csv.reader parsing every row of content."""
    catalog = ItemCatalog()
    reader = csv.reader(io.StringIO(content, newline=""), strict=True)
    transactions = []
    try:
        for row in reader:
            handles = set(map(catalog.resolve, row))
            handles.discard(dataset.DROPPED)
            transactions.append(tuple(sorted(handles)))
    except csv.Error as exc:
        return None, None, f"line {reader.line_num}: {exc}"
    return tuple(transactions), catalog.labels, None


def test_converted_calls_convert_once_per_distinct_one_line_row():
    calls = []

    def convert(row):
        calls.append(row)
        return len(calls)

    rows = CsvRows('a,b\nc\na,b\r\na,b\n"x\ny"\n"x\ny"\n')
    assert list(rows.converted(convert)) == [1, 2, 3, 1, 4, 5]
    assert calls == [["a", "b"], ["c"], ["a", "b"], ["x\ny"], ["x\ny"]]
    assert rows.line_num == 8


def test_converted_drops_its_memo_once_misses_lead_by_the_limit():
    calls = []

    def convert(row):
        calls.append(row)
        return len(calls)

    text = 'a\nb\na\nc\na\nd\ne\na\n"x\ny"\na\n'
    # Misses minus hits: a 1, b 2, a 1, c 2, a 1, d 2, e 3 -> dropped, and
    # the rows after it are each read and converted.
    with mock.patch.object(dataset, "_MEMO_GIVE_UP_LEAD", 3):
        rows = CsvRows(text)
        assert list(rows.converted(convert)) == [1, 2, 1, 3, 1, 4, 5, 6, 7, 8]
    assert calls == [["a"], ["b"], ["c"], ["d"], ["e"], ["a"], ["x\ny"], ["a"]]
    assert rows.line_num == 11


@pytest.mark.parametrize("piece_chars", [dataset._PIECE_CHARS, 1])
@pytest.mark.parametrize("give_up_lead", [1, 2])
@settings(max_examples=150, deadline=None)
@given(_TEXTS_OF_REPEATED_LINES)
@example('a\nb\n"c\n')  # the text ends inside a quote after the memo is dropped
# The line whose miss drops the memo, at a lead of 1 and of 2, starts a row
# of two lines; the error after that row names its physical line.
@example('"a\nb"\n"c"d\n')
@example('a\n"b\nc"\n"d"e\n')
def test_parse_transactions_reads_like_csv_reader_after_dropping_the_memo(
    give_up_lead, piece_chars, content
):
    """Dropping the line memo partway changes nothing either."""
    with mock.patch.object(dataset, "_PIECE_CHARS", piece_chars), mock.patch.object(
        dataset, "_MEMO_GIVE_UP_LEAD", give_up_lead
    ):
        try:
            db = parse_transactions(content)
        except CsvParseError as exc:
            got = (None, None, str(exc))
        else:
            got = (db.transactions, db.catalog.labels, None)
    assert got == _parse_row_by_row(content)


def test_line_starting_two_different_multiline_rows_gives_both():
    db = parse_transactions('a,"b\nc"\na,"b\nd"\n')
    assert db.catalog.labels == ("a", "b\nc", "b\nd")
    assert db.transactions == ((0, 1), (0, 2))


def test_quoting_error_after_memoized_lines_names_its_physical_line():
    content = 'a,b\na,"x\ny"\na,b\na,b\nc,"d"e\n'
    with pytest.raises(CsvParseError, match="^line 6: "):
        parse_transactions(content)


def test_parse_survey_quoting_error_in_header_names_the_line():
    with pytest.raises(CsvParseError, match="line 1"):
        parse_survey('age,"imp"acts\n16,Anxiety\n', SurveySchema())


def test_parse_survey_quoting_error_in_data_row_names_the_line():
    with pytest.raises(CsvParseError, match="line 3"):
        parse_survey('age,impacts\n16,Anxiety\n20,"Dep"ressions\n', SurveySchema())
