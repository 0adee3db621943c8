"""End-to-end command-line behavior: outputs, exit codes, error reporting."""

import csv
import io
import json

import pytest

from conftest import DATA_DIR, DB5_TEXT

from freqmine.cli import run_cli

DB5_FREQ_GOLDEN = "itemset,support\na,4\nb,4\nc,4\na|b,3\na|c,3\nb|c,3\n"

DB5_RULES_GOLDEN = (
    "antecedent,consequent,support,confidence,status\n"
    "a,b,3,0.75,Accepted\n"
    "b,a,3,0.75,Accepted\n"
    "a,c,3,0.75,Accepted\n"
    "c,a,3,0.75,Accepted\n"
    "b,c,3,0.75,Accepted\n"
    "c,b,3,0.75,Accepted\n"
)

RECODE_GOLDEN = (
    "Under 18,Anxiety,Intense fear\n"
    "Anxiety,18-24\n"
    "Under 18,Anxiety\n"
    "Don't remember,Depressions\n"
    "Anxiety,Don't remember,Depressions\n"
    "Above 35\n"
    "Anxiety,Above 35,Headaches\n"
    "18-24,Sleep disturbances\n"
    "Anxiety,25-34\n"
)


@pytest.fixture
def db5_file(tmp_path):
    path = tmp_path / "db5.csv"
    path.write_text(DB5_TEXT, encoding="utf-8")
    return str(path)


def test_mine_writes_frequent_csv(db5_file, capsys):
    assert run_cli(["mine", db5_file, "--min-support", "3"]) == 0
    assert capsys.readouterr().out == DB5_FREQ_GOLDEN


@pytest.mark.parametrize("algorithm", ["apriori", "fpgrowth", "bruteforce"])
def test_mine_algorithms_agree(db5_file, capsys, algorithm):
    code = run_cli(
        ["mine", db5_file, "--min-support", "3", "--algorithm", algorithm]
    )
    assert code == 0
    assert capsys.readouterr().out == DB5_FREQ_GOLDEN


def test_mine_fractional_threshold_rounds_up(db5_file, capsys):
    # ceil(3/5 of 5 transactions) = 3
    assert run_cli(["mine", db5_file, "--min-support-frac", "3/5"]) == 0
    assert capsys.readouterr().out == DB5_FREQ_GOLDEN


def test_mine_output_file_matches_stdout(db5_file, tmp_path, capsys):
    out = tmp_path / "freq.csv"
    assert run_cli(["mine", db5_file, "--min-support", "3", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    with open(out, encoding="utf-8", newline="") as handle:
        assert handle.read() == DB5_FREQ_GOLDEN


def test_mine_empty_input_yields_header_only(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    assert run_cli(["mine", str(path), "--min-support", "1"]) == 0
    assert capsys.readouterr().out == "itemset,support\n"


def test_mine_applies_alias_file(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    data.write_text("Panic attacks,nightmares\nPanic attacks\n", encoding="utf-8")
    assert run_cli(["mine", str(data), "--min-support", "1"]) == 0
    plain = capsys.readouterr().out
    assert "Panic attacks,2" in plain
    code = run_cli(
        [
            "mine",
            str(data),
            "--min-support",
            "1",
            "--alias-file",
            str(DATA_DIR / "label_aliases.csv"),
        ]
    )
    assert code == 0
    merged = capsys.readouterr().out
    assert "Anxiety,2" in merged and "Sleep disturbances,1" in merged
    assert "Panic" not in merged


def test_mine_missing_file_is_data_error(capsys):
    assert run_cli(["mine", "no-such-file.csv", "--min-support", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_mine_malformed_csv_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text('a,"b\n', encoding="utf-8")
    assert run_cli(["mine", str(path), "--min-support", "1"]) == 1
    assert "line" in capsys.readouterr().err


# Each source's rows read as transactions, as itemset,count rows and as
# raw,canonical aliases. The late bad byte follows 64 KiB of rows, so a file
# read line by line meets it only after rows were read.
NON_UTF8_SOURCES = {
    "at_start": b"\xff\xfe\x00junk",
    "after_64_kib": b"a,1\n" * (1 << 14) + b"b\xff,1\n",
}

NON_UTF8_COMMANDS = {
    "mine": lambda path, db5: ["mine", path, "--min-support", "1"],
    "rules": lambda path, db5: ["rules", "--support-csv", path, "--min-confidence", "0.5"],
    "alias_file": lambda path, db5: ["mine", db5, "--min-support", "1", "--alias-file", path],
}


@pytest.mark.parametrize("placement", NON_UTF8_SOURCES)
@pytest.mark.parametrize("command", NON_UTF8_COMMANDS)
def test_mine_rejects_non_utf8(command, placement, db5_file, tmp_path, capsys):
    path = tmp_path / "binary.csv"
    path.write_bytes(NON_UTF8_SOURCES[placement])
    assert run_cli(NON_UTF8_COMMANDS[command](str(path), db5_file)) == 1
    err = capsys.readouterr().err
    assert "UTF-8" in err and str(path) in err


def test_mine_ignores_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("a,b\na\n", encoding="utf-8-sig")
    assert run_cli(["mine", str(path), "--min-support", "1"]) == 0
    assert capsys.readouterr().out == "itemset,support\na,2\nb,1\na|b,1\n"


def test_mine_alias_file_ignores_byte_order_mark(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    data.write_text("Panic attacks\n", encoding="utf-8")
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("Panic attacks,Anxiety\n", encoding="utf-8-sig")
    code = run_cli(
        ["mine", str(data), "--min-support", "1", "--alias-file", str(aliases)]
    )
    assert code == 0
    assert capsys.readouterr().out == "itemset,support\nAnxiety,1\n"


def test_mine_requires_a_threshold(db5_file, capsys):
    assert run_cli(["mine", db5_file]) == 2


@pytest.mark.parametrize("value", ["0", "-1/2", "abc", "3/2"])
def test_mine_rejects_bad_fraction(db5_file, value, capsys):
    assert run_cli(["mine", db5_file, "--min-support-frac", value]) == 2


@pytest.mark.parametrize("value", ["0", "-3"])
def test_mine_rejects_non_positive_support(db5_file, value, capsys):
    assert run_cli(["mine", db5_file, "--min-support", value]) == 2
    assert "--min-support" in capsys.readouterr().err


def test_rules_from_transactions(db5_file, capsys):
    code = run_cli(
        ["rules", db5_file, "--min-support", "3", "--min-confidence", "0.75"]
    )
    assert code == 0
    assert capsys.readouterr().out == DB5_RULES_GOLDEN


def test_rules_from_support_csv(tmp_path, capsys):
    table = tmp_path / "supports.csv"
    table.write_text(DB5_FREQ_GOLDEN, encoding="utf-8")
    code = run_cli(
        ["rules", "--support-csv", str(table), "--min-confidence", "0.75"]
    )
    assert code == 0
    assert capsys.readouterr().out == DB5_RULES_GOLDEN


def test_rules_support_csv_may_be_its_own_output(tmp_path):
    """The support CSV is read to the end before the output file opens."""
    table = tmp_path / "supports.csv"
    # Identical duplicate rows collapse; they make the table span many reads.
    table.write_text(DB5_FREQ_GOLDEN + "a,4\n" * 20000, encoding="utf-8")
    argv = ["rules", "--support-csv", str(table), "--min-confidence", "0.75"]
    assert run_cli(argv + ["--output", str(table)]) == 0
    assert table.read_bytes() == DB5_RULES_GOLDEN.encode("utf-8")


def test_rules_support_csv_ignores_byte_order_mark(tmp_path, capsys):
    table = tmp_path / "supports.csv"
    table.write_text(DB5_FREQ_GOLDEN, encoding="utf-8-sig")
    code = run_cli(
        ["rules", "--support-csv", str(table), "--min-confidence", "0.75"]
    )
    assert code == 0
    assert capsys.readouterr().out == DB5_RULES_GOLDEN


@pytest.mark.parametrize("blank", ["\n", "\r\n", " , \n"], ids=["lf", "crlf", "blank_cells"])
def test_rules_support_csv_header_may_follow_blank_rows(blank, tmp_path, capsys):
    table = tmp_path / "supports.csv"
    table.write_bytes((blank * 2 + DB5_FREQ_GOLDEN).encode("utf-8"))
    code = run_cli(
        ["rules", "--support-csv", str(table), "--min-confidence", "0.75"]
    )
    assert code == 0
    assert capsys.readouterr().out == DB5_RULES_GOLDEN


def test_rules_boundary_is_exact(db5_file, capsys):
    # 0.75 is accepted at confidence 3/4; one step above rejects everything
    code = run_cli(
        ["rules", db5_file, "--min-support", "3", "--min-confidence", "76/100"]
    )
    assert code == 0
    assert capsys.readouterr().out == "antecedent,consequent,support,confidence,status\n"


def test_rules_include_rejected(db5_file, capsys):
    code = run_cli(
        [
            "rules",
            db5_file,
            "--min-support",
            "3",
            "--min-confidence",
            "0.76",
            "--include-rejected",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("Rejected") == 6 and "Accepted" not in out


def test_rules_refuses_two_sources(db5_file, tmp_path, capsys):
    table = tmp_path / "supports.csv"
    table.write_text(DB5_FREQ_GOLDEN, encoding="utf-8")
    code = run_cli(
        [
            "rules",
            db5_file,
            "--support-csv",
            str(table),
            "--min-confidence",
            "0.5",
        ]
    )
    assert code == 2
    assert "not both" in capsys.readouterr().err


def test_rules_names_the_missing_source(capsys):
    assert run_cli(["rules", "--min-confidence", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "neither was given" in err and "not both" not in err


def test_rules_from_transactions_needs_threshold(db5_file, capsys):
    assert run_cli(["rules", db5_file, "--min-confidence", "0.5"]) == 2
    assert "min-support" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.2", "-0.1", "x"])
def test_rules_rejects_out_of_range_confidence(db5_file, value):
    assert run_cli(["rules", db5_file, "--min-support", "3", "--min-confidence", value]) == 2


def test_fraction_options_name_their_ranges(db5_file, capsys):
    """--min-support-frac excludes 0 and --min-confidence allows it; each says so."""
    assert run_cli(["mine", db5_file, "--min-support-frac", "0"]) == 2
    assert "argument --min-support-frac: must be in (0, 1]" in capsys.readouterr().err
    assert run_cli(["mine", db5_file, "--min-support-frac", "1/0"]) == 2
    assert "argument --min-support-frac: not a number: '1/0'" in capsys.readouterr().err
    confidence = ["rules", db5_file, "--min-support", "3", "--min-confidence"]
    assert run_cli([*confidence, "3/2"]) == 2
    assert "argument --min-confidence: must be in [0, 1]" in capsys.readouterr().err
    assert run_cli([*confidence, "0"]) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_rules_rejects_non_positive_support(db5_file, value, capsys):
    code = run_cli(
        ["rules", db5_file, "--min-support", value, "--min-confidence", "0.5"]
    )
    assert code == 2
    assert "--min-support" in capsys.readouterr().err


def test_rules_requires_confidence(db5_file):
    assert run_cli(["rules", db5_file, "--min-support", "3"]) == 2


def test_rules_support_csv_closure_violation(tmp_path, capsys):
    table = tmp_path / "gap.csv"
    table.write_text("itemset,count\na|b,3\na,4\n", encoding="utf-8")
    assert run_cli(["rules", "--support-csv", str(table), "--min-confidence", "0.5"]) == 1
    assert "b" in capsys.readouterr().err


def test_rules_support_csv_antecedent_below_union_support(tmp_path, capsys):
    table = tmp_path / "range.csv"
    table.write_text("a,2\nb,3\nc,3\na|b,3\na|c,3\nb|c,3\na|b|c,3\n", encoding="utf-8")
    argv = ["rules", "--support-csv", str(table), "--min-confidence", "1"]
    assert run_cli(argv) == 1
    assert "confidence counts out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option",
    [
        ["--min-support", "3"],
        ["--min-support-frac", "0.5"],
        ["--alias-file", "/nonexistent/aliases.csv"],
        ["--algorithm", "fpgrowth"],
    ],
)
def test_rules_support_csv_refuses_mining_options(option, tmp_path, capsys):
    table = tmp_path / "supports.csv"
    table.write_text(DB5_FREQ_GOLDEN, encoding="utf-8")
    argv = ["rules", "--support-csv", str(table), "--min-confidence", "0.5", *option]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert option[0] in captured.err and captured.out == ""


def test_rules_support_csv_conflicting_duplicate(tmp_path, capsys):
    table = tmp_path / "dup.csv"
    table.write_text("a,4\na,5\n", encoding="utf-8")
    assert run_cli(["rules", "--support-csv", str(table), "--min-confidence", "0.5"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["mine"], ["rules", "--min-confidence", "0.5"]],
    ids=["mine", "rules"],
)
def test_label_containing_the_joiner_is_refused(argv, tmp_path, capsys):
    # Written as x|y|z, the pair {x|y, z} would read back as three items.
    path = tmp_path / "pipes.csv"
    path.write_text("x|y,z\nx|y,z\nx|y\nz\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    command, *options = argv
    assert run_cli([command, str(path), "--min-support", "2", "--output", str(out), *options]) == 1
    captured = capsys.readouterr()
    assert "'x|y'" in captured.err and captured.out == ""
    assert not out.exists()


def test_recode_survey(capsys):
    assert run_cli(["recode", str(DATA_DIR / "survey_sample.csv")]) == 0
    assert capsys.readouterr().out == RECODE_GOLDEN


def test_recode_skips_blank_lines(tmp_path, capsys):
    """A copy of the survey sample with a blank line after every line recodes the same."""
    path = tmp_path / "spaced.csv"
    path.write_bytes((DATA_DIR / "survey_sample.csv").read_bytes().replace(b"\n", b"\n\n"))
    assert run_cli(["recode", str(path)]) == 0
    assert capsys.readouterr().out == RECODE_GOLDEN


def test_recode_skips_a_blank_first_line(tmp_path, capsys):
    """A blank line before the header is skipped, as blank lines after it are."""
    path = tmp_path / "late_header.csv"
    path.write_bytes(b"\n" + (DATA_DIR / "survey_sample.csv").read_bytes())
    assert run_cli(["recode", str(path)]) == 0
    assert capsys.readouterr().out == RECODE_GOLDEN


def test_recode_ignores_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "survey.csv"
    path.write_text("age,impacts\n20,Anxiety\n", encoding="utf-8-sig")
    assert run_cli(["recode", str(path)]) == 0
    assert capsys.readouterr().out == "18-24,Anxiety\n"


LINE_ENDING_VARIANTS = {
    "lf": lambda data: data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "bom_crlf": lambda data: b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"),
    "cr": lambda data: data.replace(b"\n", b"\r"),
}


@pytest.mark.parametrize(
    "command, source",
    [
        (["recode"], "survey_sample.csv"),
        (["mine", "--min-support", "2"], "survey_sample.csv"),
        (
            ["rules", "--min-confidence", "0.4", "--include-rejected", "--support-csv"],
            "impacts_support_a.csv",
        ),
    ],
    ids=["recode", "mine", "rules"],
)
def test_line_endings_and_byte_order_mark_do_not_change_output(tmp_path, command, source):
    """CRLF, BOM+CRLF and bare-CR copies of an LF source write the LF output.

    The survey sample is read whole, and the support CSV line by line.
    """
    data = (DATA_DIR / source).read_bytes()
    assert b"\r" not in data
    name, *options = command
    outputs = {}
    for variant, convert in LINE_ENDING_VARIANTS.items():
        copy = tmp_path / f"{variant}.csv"
        copy.write_bytes(convert(data))
        output = tmp_path / f"{variant}.out"
        assert run_cli([name, *options, str(copy), "--output", str(output)]) == 0
        outputs[variant] = output.read_bytes()
    assert outputs["lf"]
    assert outputs["crlf"] == outputs["lf"]
    assert outputs["bom_crlf"] == outputs["lf"]
    assert outputs["cr"] == outputs["lf"]


def test_recode_custom_columns_and_delimiter(tmp_path, capsys):
    path = tmp_path / "survey.csv"
    path.write_text("years,effects\n20,Anxiety|Panic\n", encoding="utf-8")
    code = run_cli(
        [
            "recode",
            str(path),
            "--age-column",
            "years",
            "--impact-column",
            "effects",
            "--delimiter",
            "|",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == "18-24,Anxiety,Panic\n"


def test_recode_custom_missing_age_label(tmp_path, capsys):
    path = tmp_path / "survey.csv"
    path.write_text("age,impacts\n,Depressions\n", encoding="utf-8")
    code = run_cli(["recode", str(path), "--missing-age-label", "Unknown age"])
    assert code == 0
    assert capsys.readouterr().out == "Unknown age,Depressions\n"


def test_recode_applies_alias_file(tmp_path, capsys):
    path = tmp_path / "survey.csv"
    path.write_text("age,impacts\n16,Panic attacks;nightmares\n", encoding="utf-8")
    code = run_cli(
        ["recode", str(path), "--alias-file", str(DATA_DIR / "label_aliases.csv")]
    )
    assert code == 0
    assert capsys.readouterr().out == "Under 18,Anxiety,Sleep disturbances\n"


def test_recode_aliased_survey_fixture(capsys):
    """Alias, case and whitespace variants, blank and marker ages, a two-line comment."""
    code = run_cli(
        [
            "recode",
            str(DATA_DIR / "survey_aliased.csv"),
            "--alias-file",
            str(DATA_DIR / "label_aliases.csv"),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "Under 18,Anxiety,Sleep disturbances\n"
        "Anxiety,18-24,Intense fear\n"
        "Anxiety,Sleep disturbances,Don't remember\n"
        "Intense fear,Don't remember,Depressions\n"
        "Anxiety,Above 35\n"
        "Anxiety,Don't remember,Depressions\n"
        "25-34\n"
        "Under 18,Anxiety,Sleep disturbances\n"
    )


def test_recode_missing_column_names_it(tmp_path, capsys):
    path = tmp_path / "survey.csv"
    path.write_text("age,impacts\n20,Anxiety\n", encoding="utf-8")
    assert run_cli(["recode", str(path), "--impact-column", "nope"]) == 1
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("header, column", [("age,impacts,age", "age"), ("age,impacts,impacts", "impacts")])
def test_recode_rejects_a_schema_column_named_twice(header, column, tmp_path, capsys):
    path = tmp_path / "survey.csv"
    path.write_text(f"{header}\n12,x,40\n", encoding="utf-8")
    out = tmp_path / "recoded.csv"
    assert run_cli(["recode", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: repeated survey column: {column!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("delimiter", [",", "ab", ""])
def test_recode_rejects_bad_delimiter(tmp_path, delimiter):
    path = tmp_path / "survey.csv"
    path.write_text("age,impacts\n20,Anxiety\n", encoding="utf-8")
    assert run_cli(["recode", str(path), "--delimiter", delimiter]) == 2


def test_recode_rejects_negative_age(tmp_path, capsys):
    path = tmp_path / "survey.csv"
    path.write_text("age,impacts\n-3,Anxiety\n", encoding="utf-8")
    assert run_cli(["recode", str(path)]) == 1


def _refused_recode(tmp_path, capsys, text, *options):
    """recode's stderr for text and options, checking it exits 1 and writes no file."""
    path = tmp_path / "survey.csv"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "recoded.csv"
    assert run_cli(["recode", str(path), *options, "--output", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


def test_recode_rejects_a_blank_missing_age_label(tmp_path, capsys):
    err = _refused_recode(tmp_path, capsys, "age,impacts\n,Anxiety\n", "--missing-age-label", "")
    assert err == "error: missing-age label is blank\n"


def test_recode_rejects_a_missing_age_label_naming_a_bucket(tmp_path, capsys):
    text = "age,impacts\n,Anxiety\n20,Anxiety\n"
    err = _refused_recode(tmp_path, capsys, text, "--missing-age-label", "18-24")
    assert err == "error: missing-age label '18-24' names an age bucket\n"


def test_recode_rejects_one_column_for_age_and_impacts(tmp_path, capsys):
    text = "age,impacts\n20,Anxiety\n"
    err = _refused_recode(tmp_path, capsys, text, "--age-column", "impacts")
    assert err == "error: age and impact columns are both 'impacts'\n"


@pytest.mark.parametrize("cell", ["1_8", "\u0661\u0668"])
def test_recode_rejects_an_age_int_would_misread(cell, tmp_path, capsys):
    err = _refused_recode(tmp_path, capsys, f"age,impacts\n20,Anxiety\n{cell},Anxiety\n")
    assert err == f"error: survey age is not an integer: {cell!r}\n"


def test_check_reports_agreement(capsys):
    assert run_cli(["check", "--cases", "5", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "ok: 5 cases agree across all miners\n"


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_check_rejects_non_positive_cases(cases, capsys):
    assert run_cli(["check", "--cases", cases]) == 2
    assert capsys.readouterr().out == ""


def test_check_mismatch_exits_three(monkeypatch, capsys):
    import freqmine.cli as cli

    monkeypatch.setattr(cli, "_find_mismatch", lambda db, t, c: "forced disagreement")
    assert run_cli(["check", "--cases", "1"]) == 3
    err = capsys.readouterr().err
    assert "mismatch in case 0" in err
    assert "forced disagreement" in err
    assert "min_support=" in err


def test_check_covers_support_csv_route(monkeypatch, capsys):
    import freqmine.cli as cli

    real_read = cli.read_support_csv

    def read_dropping_last_row(content):
        lines = content.splitlines(keepends=True)
        return real_read("".join(lines[:-1]) if len(lines) > 1 else content)

    monkeypatch.setattr(cli, "read_support_csv", read_dropping_last_row)
    assert run_cli(["check", "--cases", "5", "--seed", "1"]) == 3
    assert "support CSV" in capsys.readouterr().err


def _drop_one_itemset(mine):
    def dropping(db, threshold, *rest):
        freq = mine(db, threshold, *rest)
        freq.support.pop(max(freq.support, default=None), None)
        return freq

    return dropping


def _drop_last_rule(generate):
    def dropping(*args, **kwargs):
        return generate(*args, **kwargs)[:-1]

    return dropping


@pytest.mark.parametrize(
    "name, drop, reason",
    [
        ("apriori_mine", _drop_one_itemset, "apriori disagrees with brute force"),
        ("fpgrowth_mine", _drop_one_itemset, "fpgrowth disagrees with brute force"),
        ("generate_rules", _drop_last_rule, "generate_rules disagrees with brute-force"),
    ],
)
def test_check_reports_each_disagreement(name, drop, reason, monkeypatch, capsys):
    import freqmine.cli as cli

    monkeypatch.setattr(cli, name, drop(getattr(cli, name)))
    assert run_cli(["check", "--cases", "5", "--seed", "1"]) == 3
    assert reason in capsys.readouterr().err


def test_check_shrinks_by_rerunning_only_the_failing_comparison(monkeypatch):
    import freqmine.cli as cli

    real_read = cli.read_support_csv
    real_rules = cli.brute_force_rules
    calls = []

    def read_dropping_last_row(content):
        lines = content.splitlines(keepends=True)
        return real_read("".join(lines[:-1]) if len(lines) > 1 else content)

    def counting_rules(*args, **kwargs):
        calls.append(args)
        return real_rules(*args, **kwargs)

    monkeypatch.setattr(cli, "read_support_csv", read_dropping_last_row)
    monkeypatch.setattr(cli, "brute_force_rules", counting_rules)
    failure = cli.run_check(0, 5)
    assert failure is not None and "support CSV" in failure
    # One recount per passing case before the failing one; shrinking the
    # support-CSV failure never reaches the rule recount.
    assert len(calls) == 2


def test_check_wide_cases_reach_the_pair_array(monkeypatch):
    from freqmine import apriori, cli

    real_pairs = apriori.frequent_pairs
    routes = {"random": [], "wide": []}

    def spy(folded, items, *args):
        pairs = real_pairs(folded, items, *args)
        case = "wide" if len(items) >= cli._WIDE_MIN_FREQUENT else "random"
        routes[case].append(pairs is not None)
        return pairs

    monkeypatch.setattr(apriori, "frequent_pairs", spy)
    assert run_cli(["check", "--cases", "20", "--seed", "1"]) == 0
    assert routes["wide"] == [True, True]
    # The random cases hold at most 10 items; some are sparse enough too.
    assert True in routes["random"]


def test_check_wide_cases_catch_a_pair_array_fault(monkeypatch, capsys):
    from freqmine import apriori

    real_pairs = apriori.frequent_pairs

    def dropping_last_pair(*args):
        pairs = real_pairs(*args)
        if pairs:
            pairs.pop(max(pairs))
        return pairs

    monkeypatch.setattr(apriori, "frequent_pairs", dropping_last_pair)
    assert run_cli(["check", "--cases", "5", "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "mismatch in wide case 0: apriori and fpgrowth disagree" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--cases", "abc"],
        ["mine", "in.csv", "--min-support", "abc"],
    ],
)
def test_non_integer_counts_are_usage_errors(argv, capsys):
    assert run_cli(argv) == 2
    assert "not an integer" in capsys.readouterr().err


def test_bench_csv_report(capsys):
    code = run_cli(
        [
            "bench",
            "--transactions",
            "40",
            "--items",
            "6",
            "--mean-len",
            "2.5",
            "--seed",
            "2",
            "--axis",
            "min_support",
            "--values",
            "3,2",
            "--reps",
            "1",
        ]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["axis_value"] for row in rows] == ["2", "2", "3", "3"]
    assert {row["algorithm"] for row in rows} == {"apriori", "fpgrowth"}
    for value in ("2", "3"):
        counts = {r["n_frequent"] for r in rows if r["axis_value"] == value}
        assert len(counts) == 1


def test_bench_json_report(capsys):
    code = run_cli(
        [
            "bench",
            "--transactions",
            "30",
            "--items",
            "5",
            "--mean-len",
            "2.0",
            "--axis",
            "n_transactions",
            "--values",
            "30,60",
            "--reps",
            "1",
            "--min-support",
            "2",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["axis"] == "n_transactions"
    assert payload["config"]["min_support"] == 2
    assert len(payload["rows"]) == 4


def test_bench_threshold_axis_refuses_fixed_threshold(capsys):
    code = run_cli(
        ["bench", "--axis", "min_support", "--values", "2", "--min-support", "3"]
    )
    assert code == 2
    assert "do not also fix" in capsys.readouterr().err


def test_bench_shape_axis_needs_threshold(capsys):
    assert run_cli(["bench", "--axis", "mean_len", "--values", "2,3"]) == 2


def test_bench_rejects_non_numeric_values(capsys):
    code = run_cli(
        ["bench", "--axis", "min_support", "--values", "a,b"]
    )
    assert code == 2


def test_bench_values_read_exponent_notation(capsys):
    argv = ["bench", "--items", "5", "--mean-len", "2", "--axis", "n_transactions"]
    argv += ["--values", "1e2", "--min-support", "2", "--reps", "1", "--format", "json"]
    assert run_cli(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["values"] == [100]
    assert {row["axis_value"] for row in payload["rows"]} == {100}


@pytest.mark.parametrize(
    "value, separate",
    [
        pytest.param(value, separate, id=value + ("-separate" if separate else ""))
        for value in ("nan", "inf", "-inf", "1e999")
        for separate in (False, True)
    ],
)
def test_bench_values_reject_non_finite_numbers(value, separate, capsys):
    values = ["--values", value] if separate else [f"--values={value}"]
    argv = ["bench", "--axis", "n_transactions", *values, "--min-support", "2"]
    assert run_cli(argv) == 2
    assert f"not a finite number: {value!r}" in capsys.readouterr().err


def test_bench_values_skip_empty_parts(capsys):
    argv = ["bench", "--transactions", "20", "--items", "4", "--mean-len", "2"]
    argv += ["--axis", "min_support", "--reps", "1", "--format", "json"]
    assert run_cli(argv + ["--values", "2,,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["values"] == [2, 3]
    assert run_cli(argv + ["--values", ","]) == 2
    assert "comma-separated list" in capsys.readouterr().err


def test_bench_non_integer_item_count_is_data_error(capsys):
    code = run_cli(
        ["bench", "--axis", "n_items", "--values", "4.5", "--min-support", "2"]
    )
    assert code == 1
    assert "n_items must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_bench_rejects_non_positive_reps(reps, capsys):
    code = run_cli(
        ["bench", "--axis", "min_support", "--values", "2", "--reps", reps]
    )
    assert code == 2
    assert "--reps" in capsys.readouterr().err


def test_bench_invalid_shape_is_data_error(capsys):
    code = run_cli(
        [
            "bench",
            "--items",
            "8",
            "--mean-len",
            "9",
            "--axis",
            "min_support",
            "--values",
            "2",
            "--reps",
            "1",
        ]
    )
    assert code == 1
    assert "mean_len" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, message", [("--mean-len", "mean_len must be > 0"), ("--skew", "skew must be >= 0")]
)
def test_bench_nan_shape_is_data_error(option, message, capsys):
    argv = ["bench", option, "nan", "--axis", "n_transactions", "--values", "50"]
    assert run_cli(argv + ["--min-support", "2", "--reps", "1"]) == 1
    assert message in capsys.readouterr().err


def test_version_and_help_exit_zero(capsys):
    assert run_cli(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "freqmine 0.1.0"
    assert run_cli(["--help"]) == 0
    assert run_cli(["mine", "--help"]) == 0


def test_unknown_subcommand_is_usage_error():
    assert run_cli(["frobnicate"]) == 2
    assert run_cli([]) == 2
