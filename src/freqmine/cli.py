"""Command-line front end.

Subcommands: mine (frequent itemsets from a transaction CSV), rules
(association rules from transactions or a precomputed support table), recode
(survey export to transactions), check (randomized cross-validation of the
miners against the brute-force reference), and bench (synthetic sweeps).

Exit codes: 0 success, 1 data or validation error, 2 usage error, 3 check
found a mismatch.
"""

from __future__ import annotations

import argparse
import io
import random
import string
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import ceil, isfinite
from typing import Callable, Iterator, TextIO

from . import __version__
from .apriori import (
    FrequentItemsets,
    apriori_mine,
    check_joinable,
    read_support_csv,
    write_frequent_csv,
)
from .bench import AXES, SynthParams, emit_report, sweep
from .dataset import (
    ItemCatalog,
    SurveySchema,
    TransactionDb,
    ascii_int,
    item_frequencies,
    parse_alias_csv,
    parse_survey,
    parse_transactions,
    serialize_transactions,
    support_threshold,
)
from .errors import MiningError, ValidationError
from .fpgrowth import fpgrowth_mine
from .oracle import brute_force_frequent, brute_force_rules
from .rules import ACCEPTED, generate_rules, write_rules_csv

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_CHECK_MISMATCH = 3

_ALGORITHMS = ("apriori", "fpgrowth", "bruteforce")


@contextmanager
def _opened_input(path: str) -> Iterator[TextIO]:
    """path as UTF-8 text, line ends untranslated; CsvRows drops a byte order mark.

    A byte that is not UTF-8 raises ValidationError naming path, also when
    it is met on a later line of a file read line by line.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid UTF-8 ({exc})") from None


def _read_text(path: str) -> str:
    # Transaction and survey files are read whole: perfbench/trace_cli.py
    # counts the bytes that parse_transactions and parse_survey read by
    # encoding the text they are given.
    with _opened_input(path) as handle:
        return handle.read()


@contextmanager
def _opened_output(path: str | None) -> Iterator[TextIO]:
    """The --output file, opened for writing and closed after, or stdout.

    Open it only once every refusal has run, so that a refused command
    leaves no file behind.
    """
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        yield handle


def _unit_fraction(allow_zero: bool) -> Callable[[str], Fraction]:
    """An argparse type: an exact fraction in [0, 1], or in (0, 1] without allow_zero."""
    interval = "[0, 1]" if allow_zero else "(0, 1]"

    def parse(text: str) -> Fraction:
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        if not 0 <= value <= 1 or (value == 0 and not allow_zero):
            raise argparse.ArgumentTypeError(f"must be in {interval}")
        return value

    return parse


def _integer(text: str) -> int:
    try:
        return ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _single_noncomma_char(text: str) -> str:
    if len(text) != 1 or text == ",":
        raise argparse.ArgumentTypeError("must be one character other than ','")
    return text


def _axis_values(text: str) -> list[float | int]:
    values: list[float | int] = []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(int(part))
        except ValueError:
            try:
                value = float(part)
            except ValueError:
                raise argparse.ArgumentTypeError(f"not a number: {part!r}") from None
            if not isfinite(value):
                raise argparse.ArgumentTypeError(f"not a finite number: {part!r}")
            values.append(value)
    if not values:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return values


def _add_support_options(parser: argparse.ArgumentParser, required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument(
        "--min-support", type=_positive_int, metavar="N",
        help="absolute support threshold (transaction count)",
    )
    group.add_argument(
        "--min-support-frac", type=_unit_fraction(allow_zero=False), metavar="F",
        help="support threshold as a fraction of the database size, rounded up",
    )


def _load_aliases(args: argparse.Namespace):
    if args.alias_file is None:
        return None
    with _opened_input(args.alias_file) as source:
        return parse_alias_csv(source)


def _mine_db(db: TransactionDb, threshold: int, algorithm: str):
    if algorithm == "apriori":
        return apriori_mine(db, threshold)
    if algorithm == "fpgrowth":
        return fpgrowth_mine(db, threshold)
    return brute_force_frequent(db, threshold)


def _cmd_mine(args: argparse.Namespace) -> int:
    db = parse_transactions(_read_text(args.input), _load_aliases(args))
    threshold = support_threshold(args.min_support, args.min_support_frac, db.n)
    freq = _mine_db(db, threshold, args.algorithm)
    # The writer refuses such a label too, but only once the output is open.
    check_joinable(db.catalog)
    with _opened_output(args.output) as out:
        write_frequent_csv(freq, db.catalog, out)
    return EXIT_OK


def _cmd_rules(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.support_csv is None):
        given = "neither was given" if args.input is None else "not both"
        print(
            f"error: give either a transaction CSV or --support-csv, {given}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.input is not None:
        if args.min_support is None and args.min_support_frac is None:
            print(
                "error: mining from transactions needs --min-support or "
                "--min-support-frac",
                file=sys.stderr,
            )
            return EXIT_USAGE
        db = parse_transactions(_read_text(args.input), _load_aliases(args))
        threshold = support_threshold(args.min_support, args.min_support_frac, db.n)
        freq = _mine_db(db, threshold, args.algorithm or "apriori")
        catalog = db.catalog
    else:
        for option, value in (
            ("--algorithm", args.algorithm),
            ("--min-support", args.min_support),
            ("--min-support-frac", args.min_support_frac),
            ("--alias-file", args.alias_file),
        ):
            if value is not None:
                print(
                    f"error: {option} does not apply to --support-csv, "
                    "whose itemsets are already mined",
                    file=sys.stderr,
                )
                return EXIT_USAGE
        # Read to the end and closed before the output opens, which may be
        # the same file.
        with _opened_input(args.support_csv) as source:
            freq, catalog = read_support_csv(source)
    ruleset = generate_rules(freq, catalog, args.min_confidence, args.include_rejected)
    check_joinable(catalog)
    with _opened_output(args.output) as out:
        write_rules_csv(ruleset, catalog, out)
    return EXIT_OK


def _cmd_recode(args: argparse.Namespace) -> int:
    schema = SurveySchema(
        age_column=args.age_column,
        impact_column=args.impact_column,
        multiselect_delimiter=args.delimiter,
        missing_age_label=args.missing_age_label,
    )
    db = parse_survey(_read_text(args.input), schema, _load_aliases(args))
    with _opened_output(args.output) as out:
        serialize_transactions(db, out)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    failure = run_check(args.seed, args.cases)
    if failure is None:
        with _opened_output(args.output) as out:
            out.write(f"ok: {args.cases} cases agree across all miners\n")
        return EXIT_OK
    print(failure, file=sys.stderr)
    return EXIT_CHECK_MISMATCH


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.axis == "min_support":
        if args.min_support is not None or args.min_support_frac is not None:
            print(
                "error: --axis min_support sweeps the threshold; do not also fix one",
                file=sys.stderr,
            )
            return EXIT_USAGE
    elif args.min_support is None and args.min_support_frac is None:
        print(
            "error: this axis needs --min-support or --min-support-frac",
            file=sys.stderr,
        )
        return EXIT_USAGE
    base = SynthParams(
        n_transactions=args.transactions,
        n_items=args.items,
        mean_len=args.mean_len,
        skew=args.skew,
        seed=args.seed,
    )
    report = sweep(
        base,
        args.axis,
        args.values,
        repetitions=args.reps,
        min_support=args.min_support,
        min_support_frac=args.min_support_frac,
    )
    with _opened_output(args.output) as out:
        out.write(emit_report(report, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Randomized cross-check of the miners against the brute-force reference.

_CHECK_LABELS = string.ascii_lowercase
# Wide cases keep at least this many items frequent: too many for brute
# force, on rows short enough that Apriori counts their pairs in one array.
_WIDE_MIN_FREQUENT = 46
_CASES_PER_WIDE_CASE = 10


def _random_case(rng: random.Random) -> tuple[TransactionDb, int, Fraction]:
    n_items = rng.randint(1, 10)
    # Cubing biases toward small databases so 1000 cases stay fast while
    # occasionally exercising a couple hundred transactions.
    n_transactions = int((rng.random() ** 3) * 120)
    dense = rng.random() < 0.08
    catalog = ItemCatalog()
    for index in range(n_items):
        catalog.intern(_CHECK_LABELS[index])
    transactions = []
    for _ in range(n_transactions):
        if dense:
            length = rng.randint(max(1, n_items - 2), n_items)
        else:
            length = min(rng.randint(0, n_items), rng.randint(0, n_items))
        transactions.append(tuple(sorted(rng.sample(range(n_items), length))))
    db = TransactionDb(catalog, tuple(transactions))
    threshold = rng.randint(1, max(2, n_transactions // 2 + 1))
    confidence = Fraction(rng.randint(0, 20), 20)
    return db, threshold, confidence


def _wide_case(rng: random.Random) -> tuple[TransactionDb, int]:
    """Short rows over many items, some repeated, at a threshold that keeps
    at least _WIDE_MIN_FREQUENT items frequent."""
    n_items = rng.randint(_WIDE_MIN_FREQUENT, 80)
    catalog = ItemCatalog()
    for index in range(n_items):
        catalog.intern(f"i{index:02d}")
    items = list(range(n_items))
    rng.shuffle(items)
    transactions = [tuple(sorted(items[i : i + 4])) for i in range(0, n_items, 4)]
    for _ in range(rng.randint(40, 200)):
        if rng.random() < 0.3:
            transactions.append(rng.choice(transactions))
        else:
            transactions.append(tuple(sorted(rng.sample(items, rng.randint(1, 6)))))
    rng.shuffle(transactions)
    db = TransactionDb(catalog, tuple(transactions))
    counts = sorted(item_frequencies(db).values(), reverse=True)
    return db, rng.randint(1, counts[_WIDE_MIN_FREQUENT - 1])


def _miners_disagree(db: TransactionDb, threshold: int) -> bool:
    return apriori_mine(db, threshold).support != fpgrowth_mine(db, threshold).support


def _written(write: Callable[..., None], *args) -> str:
    """The text that write(*args, out) writes to a fresh io.StringIO out."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


def _comparisons(
    db: TransactionDb, threshold: int, confidence: Fraction
) -> Iterator[tuple[str, bool]]:
    """(reason, differs) per cross-check, cheapest first, each run on demand."""
    reference = brute_force_frequent(db, threshold)
    levelwise = apriori_mine(db, threshold)
    yield (
        "apriori disagrees with brute force on frequent itemsets",
        levelwise.support != reference.support,
    )
    yield (
        "fpgrowth disagrees with brute force on frequent itemsets",
        fpgrowth_mine(db, threshold).support != reference.support,
    )
    table = _written(write_frequent_csv, levelwise, db.catalog)
    yield (
        "the support CSV does not round-trip the apriori itemsets",
        _support_by_labels(*read_support_csv(table))
        != _support_by_labels(levelwise, db.catalog),
    )
    recount = brute_force_rules(db, threshold, confidence, include_rejected=True)
    yield (
        "generate_rules disagrees with brute-force rule recounting "
        "(rejected rules included)",
        generate_rules(levelwise, db.catalog, confidence, include_rejected=True)
        != recount,
    )
    # Without rejected rules generate_rules prunes antecedents, so compare
    # that route too, against the accepted part of the same recount.
    yield (
        "generate_rules disagrees with brute-force rule recounting "
        "(accepted rules only)",
        generate_rules(levelwise, db.catalog, confidence)
        != [rule for rule in recount if rule.status == ACCEPTED],
    )


def _find_mismatch(db: TransactionDb, threshold: int, confidence: Fraction) -> str | None:
    """The reason of the first comparison that fails, or None."""
    return next(
        (reason for reason, differs in _comparisons(db, threshold, confidence) if differs),
        None,
    )


def _support_by_labels(
    freq: FrequentItemsets, catalog: ItemCatalog
) -> dict[frozenset[str], int]:
    return {
        frozenset(catalog.labels_of(itemset)): count
        for itemset, count in freq.support.items()
    }


def _shrink(
    db: TransactionDb, still_fails: Callable[[TransactionDb], bool]
) -> TransactionDb:
    """Greedy minimization: drop any transaction whose removal keeps it failing."""
    transactions = list(db.transactions)
    changed = True
    while changed:
        changed = False
        for index in range(len(transactions) - 1, -1, -1):
            candidate = TransactionDb(
                db.catalog, tuple(transactions[:index] + transactions[index + 1 :])
            )
            if still_fails(candidate):
                del transactions[index]
                changed = True
    return TransactionDb(db.catalog, tuple(transactions))


def run_check(seed: int, cases: int) -> str | None:
    """Cross-validate the miners on random databases; None means all agreed.

    Then one wide case per _CASES_PER_WIDE_CASE cases, drawn from a
    generator of their own, compares Apriori with FP-Growth on more items
    than brute force takes. On a mismatch, returns a report containing the
    minimized database and the parameters that reproduce it.
    """
    rng = random.Random(seed)
    for case_index in range(cases):
        db, threshold, confidence = _random_case(rng)
        reason = _find_mismatch(db, threshold, confidence)
        if reason is None:
            continue

        def still_fails(candidate: TransactionDb) -> bool:
            comparisons = _comparisons(candidate, threshold, confidence)
            return next((differs for name, differs in comparisons if name == reason), False)

        small = _shrink(db, still_fails)
        return (
            f"mismatch in case {case_index}: {reason}\n"
            f"min_support={threshold} min_confidence={confidence}\n"
            f"transactions ({small.n} rows):\n{_written(serialize_transactions, small)}"
        )
    wide_rng = random.Random(f"wide {seed}")
    for wide_index in range(ceil(cases / _CASES_PER_WIDE_CASE)):
        db, threshold = _wide_case(wide_rng)
        if not _miners_disagree(db, threshold):
            continue
        small = _shrink(db, lambda candidate: _miners_disagree(candidate, threshold))
        return (
            f"mismatch in wide case {wide_index}: "
            "apriori and fpgrowth disagree on frequent itemsets\n"
            f"min_support={threshold}\n"
            f"transactions ({small.n} rows):\n{_written(serialize_transactions, small)}"
        )
    return None


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqmine",
        description="Frequent-itemset and association-rule mining toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser("mine", help="mine frequent itemsets from a transaction CSV")
    mine.add_argument("input", help="transaction CSV, one transaction per row")
    mine.add_argument("--algorithm", choices=_ALGORITHMS, default="apriori")
    _add_support_options(mine, required=True)
    mine.add_argument("--alias-file", help="raw_label,canonical_label CSV", default=None)
    mine.add_argument("--output", default=None, help="write here instead of stdout")
    mine.set_defaults(func=_cmd_mine)

    rules = commands.add_parser(
        "rules", help="generate association rules from transactions or support counts"
    )
    rules.add_argument(
        "input", nargs="?", default=None, help="transaction CSV (omit with --support-csv)"
    )
    rules.add_argument(
        "--support-csv",
        default=None,
        help="precomputed itemset,count CSV with '|'-joined labels",
    )
    rules.add_argument(
        "--min-confidence", type=_unit_fraction(allow_zero=True), required=True, metavar="C",
        help="acceptance threshold; parsed exactly, so 0.40 means 2/5",
    )
    rules.add_argument(
        "--include-rejected", action="store_true",
        help="also emit rules below the confidence threshold",
    )
    rules.add_argument(
        "--algorithm", choices=_ALGORITHMS, default=None,
        help="miner for a transaction CSV (default: apriori)",
    )
    _add_support_options(rules, required=False)
    rules.add_argument("--alias-file", default=None)
    rules.add_argument("--output", default=None)
    rules.set_defaults(func=_cmd_rules)

    recode = commands.add_parser(
        "recode", help="recode a survey export into a transaction CSV"
    )
    recode.add_argument("input", help="survey CSV with a header row")
    recode.add_argument("--age-column", default="age")
    recode.add_argument("--impact-column", default="impacts")
    recode.add_argument(
        "--delimiter", type=_single_noncomma_char, default=";",
        help="separator inside the multiselect cell",
    )
    recode.add_argument("--missing-age-label", default="Don't remember")
    recode.add_argument("--alias-file", default=None)
    recode.add_argument("--output", default=None)
    recode.set_defaults(func=_cmd_recode)

    check = commands.add_parser(
        "check", help="cross-validate the miners against the brute-force reference"
    )
    check.add_argument("--seed", type=_integer, default=0)
    check.add_argument("--cases", type=_positive_int, default=100)
    check.add_argument("--output", default=None)
    check.set_defaults(func=_cmd_check)

    bench = commands.add_parser("bench", help="benchmark the miners on synthetic data")
    bench.add_argument("--transactions", type=_integer, default=1000)
    bench.add_argument("--items", type=_integer, default=50)
    bench.add_argument("--mean-len", type=float, default=5.0)
    bench.add_argument("--skew", type=float, default=1.0)
    bench.add_argument("--seed", type=_integer, default=0)
    bench.add_argument("--axis", choices=AXES, required=True)
    bench.add_argument(
        "--values", type=_axis_values, required=True,
        help="comma-separated axis values, e.g. 200,400,800",
    )
    bench.add_argument("--reps", type=_positive_int, default=5)
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_support_options(bench, required=False)
    bench.add_argument("--output", default=None)
    bench.set_defaults(func=_cmd_bench)

    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """argv with "--values X" given as "--values=X" where X starts with one '-'.

    argparse takes a lone argument such as -inf or -1e2 for an option and
    refuses it with "expected one argument"; attached, it reaches
    _axis_values, whose message names it.
    """
    attached: list[str] = []
    for token in argv:
        if attached[-1:] == ["--values"] and token[:1] == "-" and token[:2] != "--":
            attached[-1] += f"={token}"
        else:
            attached.append(token)
    return attached


def run_cli(argv: list[str]) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help/--version.
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (MiningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
