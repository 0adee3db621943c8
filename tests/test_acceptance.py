"""Acceptance gate: seven end-to-end criteria with pinned tolerances.

Each criterion is one test, so a verbose run prints one pass/fail line per
criterion. Tolerances and time limits are module constants; every numeric
fixture value is frozen here rather than recomputed from the code under test.
"""

import time
from fractions import Fraction

import conftest
from conftest import DATA_DIR

from freqmine.apriori import AprioriStats, apriori_mine, read_support_csv, threshold_singletons
from freqmine.bench import APRIORI, FPGROWTH, SynthParams, generate_synthetic, sweep
from freqmine.cli import run_check
from freqmine.dataset import parse_transactions, serialize_transactions
from freqmine.fpgrowth import (
    build_fptree,
    conditional_pattern_base,
    dump_tree,
    fpgrowth_mine,
)
from freqmine.rules import generate_rules, write_rules_csv
from freqmine.apriori import write_frequent_csv

CONFIDENCE_ABS_TOL = 1e-12
THRESHOLD_TIME_LIMIT_S = 0.001  # criterion 1
RULE_FIXTURE_TIME_LIMIT_S = 0.010  # criteria 2 and 3, each
EQUIVALENCE_TIME_LIMIT_S = 60.0  # criterion 4
TRACE_TIME_LIMIT_S = 0.001  # criterion 5
PERFORMANCE_TIME_LIMIT_S = 300.0  # criterion 6

# Survey attribute support counts (total 2100 respondents), and the subset
# that survives the published threshold of 200.
ATTRIBUTE_COUNTS = {
    "Anxiety": 1060,
    "Intense fear": 618,
    "Ongoing fears": 860,
    "Ongoing guilt feeling": 168,
    "Depressions": 837,
    "Sleep disturbances or Nightmares": 420,
    "Avoidance behaviors": 84,
    "Headaches": 168,
    "Disrupted work life": 419,
    "Face difficulties with communication": 309,
    "intimacy and enjoyment of social activities": 287,
    "Degradation of performances in study or work": 508,
    "Under 18": 1169,
    "18-24": 577,
    "25-34": 180,
    "Above 35": 154,
    "Don't remember": 220,
}
KEPT_ATTRIBUTES = {
    "Anxiety",
    "Intense fear",
    "Ongoing fears",
    "Depressions",
    "Sleep disturbances or Nightmares",
    "Disrupted work life",
    "Face difficulties with communication",
    "intimacy and enjoyment of social activities",
    "Degradation of performances in study or work",
    "Under 18",
    "18-24",
    "Don't remember",
}

# Published rule rows reproducible from the levelwise support fixture.
LEVELWISE_RULE_ROWS = [
    (("Ongoing fears",), ("Under 18",), 0.6918604651162791),
    (("Intense fear",), ("Anxiety",), 0.6763754045307443),
    (("Anxiety",), ("Under 18",), 0.6028301886792453),
    (("Ongoing fears",), ("Anxiety",), 0.5883720930232558),
    (
        ("intimacy and enjoyment of social activities",),
        ("Face difficulties with communication",),
        1.0,
    ),
]

# Every confidence printed alongside the prefix-tree miner's support counts.
TREE_RULE_ROWS = [
    (("Anxiety", "Depressions"), ("Under 18",), 0.6470588235294118),
    (("Anxiety", "Under 18"), ("Depressions",), 0.5789473684210527),
    (("Depressions", "Under 18"), ("Anxiety",), 0.6111111111111112),
    (("Anxiety",), ("Under 18",), 0.5428571428571428),
    (("Under 18",), ("Anxiety",), 0.40425531914893614),
    (("Intense fear",), ("Anxiety",), 0.5263157894736842),
    (("Intense fear",), ("Under 18",), 0.631578947368421),
    (("Depressions",), ("Under 18",), 0.5806451612903226),
    (("Anxiety",), ("Depressions",), 0.4857142857142857),
    (("Depressions",), ("Anxiety",), 0.5483870967741935),
    (
        ("Face difficulties with communication",),
        ("Intimacy and enjoyment of social activities",),
        0.7142857142857143,
    ),
    (("Ongoing fears",), ("Under 18",), 0.5185185185185185),
    (("Ongoing fears",), ("Anxiety",), 0.4074074074074074),
]

DB5_TEXT = "a,b,c\na,b\na,c\nb,c\na,b,c,d\n"
DB5_SUPPORT = {
    ("a",): 4,
    ("b",): 4,
    ("c",): 4,
    ("a", "b"): 3,
    ("a", "c"): 3,
    ("b", "c"): 3,
}
DB5_TREE_DUMP = "a:4\n  b:3\n    c:2\n  c:1\nb:1\n  c:1\n"

# Dense operating point for the wall-time ordering claim: 30 items, mean
# transaction length 12, skew 0.5, 20000 transactions, threshold 1% of n.
DENSE_PARAMS = SynthParams(20000, 30, 12.0, 0.5, 0)
DENSE_MIN_SUPPORT = 200
WALL_REPETITIONS = 5

# Work-counter growth points: same density family at a smaller size.
GROWTH_N = 2000
GROWTH_MIN_SUPPORT = 20
GROWTH_MEAN_LENS = (6.0, 9.0, 12.0)
NODE_GROWTH_MARGIN = 1.15


def _report(criterion: int, description: str) -> None:
    print(f"criterion {criterion}: PASS - {description}")


def _labelled_rules(path):
    freq, catalog = read_support_csv(path.read_text(encoding="utf-8"))
    rules = generate_rules(freq, catalog, Fraction(2, 5))
    table = {}
    for rule in rules:
        key = (
            tuple(sorted(catalog.labels_of(rule.antecedent))),
            tuple(sorted(catalog.labels_of(rule.consequent))),
        )
        table[key] = rule
    return freq, catalog, table


def test_criterion_1_attribute_thresholding():
    counts = dict(enumerate(ATTRIBUTE_COUNTS.values()))
    labels = list(ATTRIBUTE_COUNTS)
    threshold_singletons(counts, 200)  # warm the path before timing
    started = time.perf_counter()
    kept = threshold_singletons(counts, 200)
    elapsed = time.perf_counter() - started
    kept_labels = {labels[item] for (item,) in kept}
    assert kept_labels == KEPT_ATTRIBUTES
    assert len(kept) == 12
    assert elapsed < THRESHOLD_TIME_LIMIT_S
    _report(1, "17 attribute counts at threshold 200 keep exactly the 12 published")


def test_criterion_2_levelwise_rule_reproduction():
    started = time.perf_counter()
    _, _, table = _labelled_rules(DATA_DIR / "impacts_support_a.csv")
    elapsed = time.perf_counter() - started
    for antecedent, consequent, confidence in LEVELWISE_RULE_ROWS:
        rule = table[(tuple(sorted(antecedent)), tuple(sorted(consequent)))]
        assert abs(rule.confidence - confidence) <= CONFIDENCE_ABS_TOL
        assert rule.status == "Accepted"
    assert elapsed < RULE_FIXTURE_TIME_LIMIT_S
    _report(2, "five published rule confidences reproduced to 1e-12, all Accepted")


def test_criterion_3_tree_rule_reproduction():
    started = time.perf_counter()
    freq, catalog, table = _labelled_rules(DATA_DIR / "impacts_support_b.csv")
    elapsed = time.perf_counter() - started
    for antecedent, consequent, confidence in TREE_RULE_ROWS:
        rule = table[(tuple(sorted(antecedent)), tuple(sorted(consequent)))]
        assert abs(rule.confidence - confidence) <= CONFIDENCE_ABS_TOL
        assert rule.status == "Accepted"
        # the unprinted union counts are recoverable: confidence times the
        # antecedent support must land on the integer in the fixture
        antecedent_handles = tuple(sorted(catalog.lookup(label) for label in antecedent))
        recovered = confidence * freq.support[antecedent_handles]
        assert abs(recovered - round(recovered)) < 1e-6
        assert round(recovered) == rule.support
    boundary = table[(("Under 18",), ("Anxiety",))]
    assert repr(boundary.confidence) == "0.40425531914893614"
    assert elapsed < RULE_FIXTURE_TIME_LIMIT_S
    _report(3, "all thirteen printed confidences reproduced to 1e-12, counts integral")


def test_criterion_4_cross_algorithm_equivalence():
    started = time.perf_counter()
    failure = run_check(seed=0, cases=1000)
    elapsed = time.perf_counter() - started
    assert failure is None, failure
    assert elapsed < EQUIVALENCE_TIME_LIMIT_S
    _report(4, "1000 random databases: both miners and rule routes match brute force")


def test_criterion_5_known_db_golden_trace():
    db = parse_transactions(DB5_TEXT)
    handle_c = db.catalog.lookup("c")
    apriori_mine(db, 3)
    build_fptree(db, 3)  # warm the path before timing
    started = time.perf_counter()
    freq = apriori_mine(db, 3)
    tree, _ = build_fptree(db, 3)
    base = conditional_pattern_base(tree, handle_c)
    mirrored = fpgrowth_mine(db, 3)
    elapsed = time.perf_counter() - started
    labelled = {db.catalog.labels_of(k): v for k, v in freq.support.items()}
    assert labelled == DB5_SUPPORT
    assert mirrored.support == freq.support
    assert tree.node_count == 6
    assert dump_tree(tree) == DB5_TREE_DUMP
    paths = [(db.catalog.labels_of(path), count) for path, count in base]
    assert paths == [(("a", "b"), 2), (("a",), 1), (("b",), 1)]
    assert elapsed < TRACE_TIME_LIMIT_S
    _report(5, "six itemsets, six-node tree, conditional base read off exactly")


def test_criterion_6_performance_ordering_and_growth():
    started = time.perf_counter()
    report = sweep(
        DENSE_PARAMS, "min_support", [DENSE_MIN_SUPPORT], repetitions=WALL_REPETITIONS
    )
    by_algorithm = {row.algorithm: row for row in report.rows}
    apriori_row = by_algorithm[APRIORI]
    fpgrowth_row = by_algorithm[FPGROWTH]
    assert apriori_row.rep_count == WALL_REPETITIONS
    assert fpgrowth_row.n_frequent == apriori_row.n_frequent
    assert fpgrowth_row.wall_ns_median <= apriori_row.wall_ns_median

    candidate_work = []
    node_counts = []
    volumes = []
    for mean_len in GROWTH_MEAN_LENS:
        db = generate_synthetic(
            SynthParams(GROWTH_N, 30, mean_len, 0.5, 0)
        )
        stats = AprioriStats()
        apriori_mine(db, GROWTH_MIN_SUPPORT, stats)
        candidate_work.append(stats.candidates_tested)
        tree, _ = build_fptree(db, GROWTH_MIN_SUPPORT)
        node_counts.append(tree.node_count)
        volumes.append(sum(len(t) for t in db.transactions))
    # superlinear: candidates tested per unit of mean length keep rising
    per_unit = [work / m for work, m in zip(candidate_work, GROWTH_MEAN_LENS)]
    assert per_unit[0] < per_unit[1] < per_unit[2]
    # at most linear in item volume: the tree never exceeds the volume, and
    # node growth tracks volume growth within a fixed margin
    assert all(nodes <= volume for nodes, volume in zip(node_counts, volumes))
    node_ratio = node_counts[-1] / node_counts[0]
    volume_ratio = volumes[-1] / volumes[0]
    assert node_ratio <= volume_ratio * NODE_GROWTH_MARGIN

    elapsed = time.perf_counter() - started
    assert elapsed < PERFORMANCE_TIME_LIMIT_S
    fpgrowth_s = fpgrowth_row.wall_ns_median / 1e9
    apriori_s = apriori_row.wall_ns_median / 1e9
    _report(
        6,
        "prefix-tree miner at or below levelwise wall time; growth shapes hold "
        f"(medians: FP-Growth {fpgrowth_s:.2f} s, Apriori {apriori_s:.2f} s, "
        f"Apriori/FP-Growth {apriori_s / fpgrowth_s:.2f})",
    )


def test_criterion_7_byte_identical_determinism():
    params = SynthParams(500, 20, 4.0, 1.0, 9)
    first_db = generate_synthetic(params)
    second_db = generate_synthetic(params)
    assert conftest.written(serialize_transactions, first_db) == conftest.written(
        serialize_transactions, second_db
    )

    db = parse_transactions(DB5_TEXT)
    mined = [
        conftest.written(write_frequent_csv, apriori_mine(db, 3), db.catalog) for _ in range(2)
    ]
    assert mined[0] == mined[1]

    rulesets = [
        conftest.written(
            write_rules_csv,
            generate_rules(apriori_mine(db, 3), db.catalog, Fraction(3, 4)),
            db.catalog,
        )
        for _ in range(2)
    ]
    assert rulesets[0] == rulesets[1]

    base = SynthParams(80, 10, 3.0, 1.0, 4)
    reports = [sweep(base, "min_support", [2, 3], repetitions=2) for _ in range(2)]
    stripped = [
        [
            (
                row.axis,
                row.axis_value,
                row.algorithm,
                row.rep_count,
                row.mem_proxy_bytes,
                row.n_frequent,
                row.work_counter,
            )
            for row in report.rows
        ]
        for report in reports
    ]
    assert stripped[0] == stripped[1]
    assert reports[0].config == reports[1].config
    _report(7, "databases, mining and rule CSVs, and report rows repeat byte-for-byte")
