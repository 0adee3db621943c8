"""Benchmark harness: synthetic generation, trials, sweeps, report formats."""

import hashlib
import json
import statistics

import pytest

import conftest
from freqmine import bench
from freqmine.bench import (
    APRIORI,
    CSV_COLUMNS,
    FPGROWTH,
    BenchReport,
    SynthParams,
    TrialMeasurement,
    emit_report,
    generate_synthetic,
    run_trial,
    summarize,
    sweep,
)
from freqmine.dataset import parse_transactions, serialize_transactions
from freqmine.errors import ValidationError


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_transactions": -1},
        {"n_items": 0},
        {"mean_len": 0.0},
        {"mean_len": -2.0},
        {"mean_len": 9.0, "n_items": 8},
        {"skew": -0.1},
        {"skew": float("nan")},
    ],
)
def test_synth_params_rejects_bad_shapes(kwargs):
    base = dict(n_transactions=10, n_items=8, mean_len=3.0, skew=1.0, seed=0)
    base.update(kwargs)
    with pytest.raises(ValidationError):
        SynthParams(**base)


def test_generate_synthetic_is_deterministic():
    params = SynthParams(200, 12, 4.0, 1.0, 42)
    first = generate_synthetic(params)
    second = generate_synthetic(params)
    assert first.transactions == second.transactions
    assert first.catalog.labels == second.catalog.labels


def test_generate_synthetic_seed_changes_output():
    a = generate_synthetic(SynthParams(200, 12, 4.0, 1.0, 0))
    b = generate_synthetic(SynthParams(200, 12, 4.0, 1.0, 1))
    assert a.transactions != b.transactions


def test_generate_synthetic_empty():
    db = generate_synthetic(SynthParams(0, 5, 2.0, 0.0, 0))
    assert db.n == 0
    assert len(db.catalog) == 5


def test_generate_synthetic_reference_point_shape():
    # 1000 transactions over 50 items, mean length 5: the realized mean must
    # sit in [4, 6] and every length within [1, 50].
    db = generate_synthetic(SynthParams(1000, 50, 5.0, 1.0, 0))
    lengths = [len(t) for t in db.transactions]
    assert all(1 <= length <= 50 for length in lengths)
    assert 4.0 <= statistics.mean(lengths) <= 6.0


def test_generate_synthetic_items_distinct_and_sorted():
    db = generate_synthetic(SynthParams(300, 9, 4.0, 1.5, 3))
    for transaction in db.transactions:
        assert list(transaction) == sorted(set(transaction))


def test_generate_synthetic_labels_follow_handle_order():
    db = generate_synthetic(SynthParams(1, 12, 2.0, 0.0, 0))
    labels = list(db.catalog.labels)
    assert labels == sorted(labels)
    assert labels[0] == "i00" and labels[-1] == "i11"


def test_generate_synthetic_length_clamped_to_item_count():
    db = generate_synthetic(SynthParams(80, 3, 3.0, 0.0, 1))
    assert all(1 <= len(t) <= 3 for t in db.transactions)


# Heavy skew over a small pool exhausts _sample_distinct's rejection budget,
# so the rest of each draw bisects the unchosen items' running weights. Each
# database's serialize_transactions output is pinned by its SHA-256 prefix,
# so equal params must give the same database on every Python version.
FALLBACK_DIGESTS = {
    SynthParams(20, 30, 20.0, 40.0, 0): "0c08b3c10fbdf326",
    SynthParams(200, 12, 6.0, float("inf"), 3): "6ff2efff3fdf8825",
    SynthParams(500, 8, 5.0, 6.0, 7): "d09b255d4774a9c2",
}


@pytest.mark.parametrize(
    "params",
    [
        # mean_len above 500 takes _poisson's normal approximation.
        SynthParams(3, 1000, 600.0, 1.0, 0),
        *FALLBACK_DIGESTS,
    ],
)
def test_generate_synthetic_fallback_draws(params):
    db = generate_synthetic(params)
    assert db == generate_synthetic(params)
    assert db.n == params.n_transactions
    for transaction in db.transactions:
        assert list(transaction) == sorted(set(transaction))
        assert 1 <= len(transaction) <= params.n_items
    if params in FALLBACK_DIGESTS:
        text = conftest.written(serialize_transactions, db)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == FALLBACK_DIGESTS[params]


def test_generate_synthetic_skew_prefers_low_ranks():
    db = generate_synthetic(SynthParams(1000, 50, 5.0, 1.0, 0))
    freq = [0] * 50
    for transaction in db.transactions:
        for item in transaction:
            freq[item] += 1
    assert freq[0] > freq[-1]


def test_run_trial_levelwise_on_known_db(db5):
    trial = run_trial(db5, 3, APRIORI)
    assert trial.n_frequent == 6
    assert trial.work_counter == 8
    # peak level footprint: 4 singletons at 56 + 8 bytes each
    assert trial.mem_proxy_bytes == 256
    assert trial.wall_ns > 0


def test_run_trial_fpgrowth_on_known_db(db5):
    trial = run_trial(db5, 3, FPGROWTH)
    assert trial.n_frequent == 6
    assert trial.work_counter == 10
    # peak of nine live nodes (main tree plus largest conditional tree)
    assert trial.mem_proxy_bytes == 9 * 160
    assert trial.wall_ns > 0


def test_run_trial_unknown_algorithm(db5):
    with pytest.raises(ValidationError):
        run_trial(db5, 3, "eclat")


def test_run_trial_empty_db():
    db = generate_synthetic(SynthParams(0, 4, 2.0, 0.0, 0))
    assert run_trial(db, 1, APRIORI).n_frequent == 0
    assert run_trial(db, 1, FPGROWTH).n_frequent == 0


def test_run_trial_non_timing_fields_repeat_exactly(db5):
    trials = [run_trial(db5, 3, FPGROWTH) for _ in range(3)]
    keys = {
        (t.algorithm, t.mem_proxy_bytes, t.n_frequent, t.work_counter) for t in trials
    }
    assert len(keys) == 1


def _trial(wall: int) -> TrialMeasurement:
    return TrialMeasurement(APRIORI, wall, 100, 7, 9)


def test_summarize_takes_median_wall():
    row = summarize("min_support", 3, [_trial(5), _trial(1), _trial(3)])
    assert row.wall_ns_median == 3
    assert row.rep_count == 3
    assert (row.n_frequent, row.work_counter, row.mem_proxy_bytes) == (7, 9, 100)


def test_summarize_even_count_interpolates():
    row = summarize("min_support", 3, [_trial(1), _trial(2), _trial(3), _trial(10)])
    assert row.wall_ns_median == 2.5


def test_summarize_rejects_empty():
    with pytest.raises(ValidationError):
        summarize("min_support", 3, [])


BASE = SynthParams(60, 8, 3.0, 1.0, 5)


def test_sweep_rejects_unknown_axis():
    with pytest.raises(ValidationError, match="axis"):
        sweep(BASE, "bogus", [1], repetitions=1)


def test_sweep_rejects_empty_values():
    with pytest.raises(ValidationError, match="value"):
        sweep(BASE, "min_support", [], repetitions=1)


def test_sweep_rejects_zero_repetitions():
    with pytest.raises(ValidationError, match="repetitions"):
        sweep(BASE, "min_support", [2], repetitions=0)


def test_sweep_threshold_axis_refuses_fixed_threshold():
    with pytest.raises(ValidationError, match="threshold"):
        sweep(BASE, "min_support", [2], repetitions=1, min_support=3)


def test_sweep_shape_axis_requires_exactly_one_threshold():
    with pytest.raises(ValidationError, match="exactly one"):
        sweep(BASE, "n_transactions", [100], repetitions=1)
    from fractions import Fraction

    with pytest.raises(ValidationError, match="exactly one"):
        sweep(
            BASE,
            "n_transactions",
            [100],
            repetitions=1,
            min_support=2,
            min_support_frac=Fraction(1, 20),
        )


def test_sweep_names_offending_axis_value():
    with pytest.raises(ValidationError, match="100.0"):
        sweep(BASE, "mean_len", [100.0], repetitions=1, min_support=2)
    with pytest.raises(ValidationError, match="min_support must be an integer"):
        sweep(BASE, "min_support", [2.5], repetitions=1)


@pytest.mark.parametrize(
    "axis, values, threshold",
    [
        ("min_support", [5, 7.5], None),
        ("min_support", [5, float("inf")], None),
        ("min_support", [5, float("nan")], None),
        ("n_transactions", [100, 150.5], 3),
        ("n_transactions", [100, float("inf")], 3),
        ("mean_len", [2, 50], 3),
    ],
)
def test_sweep_rejects_a_bad_value_before_any_trial(monkeypatch, axis, values, threshold):
    calls = []
    real_run_trial = bench.run_trial

    def counted_run_trial(*args):
        calls.append(args)
        return real_run_trial(*args)

    monkeypatch.setattr(bench, "run_trial", counted_run_trial)
    with pytest.raises(ValidationError, match="axis value"):
        sweep(SynthParams(200, 30, 4.0, 0.5, 0), axis, values, 2, min_support=threshold)
    assert len(calls) == 0


def test_sweep_threshold_axis_rows_ordered_and_consistent():
    report = sweep(BASE, "min_support", [6, 3], repetitions=2)
    assert [row.axis_value for row in report.rows] == [3, 3, 6, 6]
    assert [row.algorithm for row in report.rows] == [APRIORI, FPGROWTH] * 2
    by_value = {}
    for row in report.rows:
        by_value.setdefault(row.axis_value, set()).add(row.n_frequent)
        assert row.rep_count == 2
    # both algorithms agree, and raising the threshold can only shrink output
    assert all(len(found) == 1 for found in by_value.values())
    assert by_value[3].pop() >= by_value[6].pop()


def test_sweep_size_axis_work_is_non_decreasing():
    base = SynthParams(1000, 30, 5.0, 1.0, 11)
    report = sweep(
        base, "n_transactions", [1000, 2000, 4000], repetitions=1, min_support=50
    )
    for algorithm in (APRIORI, FPGROWTH):
        work = [row.work_counter for row in report.rows if row.algorithm == algorithm]
        assert work == sorted(work)
    for value in (1000, 2000, 4000):
        found = {row.n_frequent for row in report.rows if row.axis_value == value}
        assert len(found) == 1


def test_sweep_fractional_threshold_scales_with_db():
    from fractions import Fraction

    report = sweep(
        BASE, "n_transactions", [40, 80], repetitions=1, min_support_frac=Fraction(1, 10)
    )
    assert report.config["min_support_frac"] == "1/10"
    assert [row.axis_value for row in report.rows] == [40, 40, 80, 80]


def test_sweep_non_timing_output_is_reproducible():
    def fingerprint(report: BenchReport):
        return report.config, [
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

    first = sweep(BASE, "min_support", [2, 4], repetitions=2)
    second = sweep(BASE, "min_support", [2, 4], repetitions=2)
    assert fingerprint(first) == fingerprint(second)


def test_emit_csv_header_is_pinned():
    text = emit_report(BenchReport({}, []), "csv")
    assert text == "axis,axis_value,algorithm,rep_count,wall_ns_median,mem_proxy_bytes,n_frequent,work_counter\n"
    assert tuple(text.rstrip("\n").split(",")) == CSV_COLUMNS


def test_report_rejects_unknown_format():
    with pytest.raises(ValidationError):
        emit_report(BenchReport({}, []), "xml")


def test_single_trial_report_row_for_known_db(db5):
    row = summarize("min_support", 3, [run_trial(db5, 3, APRIORI)])
    line = emit_report(BenchReport({}, [row]), "csv").splitlines()[1]
    fields = line.split(",")
    assert fields[0:4] == ["min_support", "3", "apriori", "1"]
    assert fields[-2:] == ["6", "8"]


def test_report_non_timing_output_is_pinned(db5):
    rows = [
        summarize("min_support", 3, [run_trial(db5, 3, algorithm)])
        for algorithm in (APRIORI, FPGROWTH)
    ]
    lines = emit_report(BenchReport({}, rows), "csv").splitlines()
    wall = CSV_COLUMNS.index("wall_ns_median")
    masked = [line.split(",") for line in lines]
    for fields in masked[1:]:
        fields[wall] = "*"
    assert masked == [
        list(CSV_COLUMNS),
        ["min_support", "3", "apriori", "1", "*", "256", "6", "8"],
        ["min_support", "3", "fpgrowth", "1", "*", "1440", "6", "10"],
    ]
    json_rows = json.loads(emit_report(BenchReport({}, rows), "json"))["rows"]
    for record in json_rows:
        assert set(record) == set(CSV_COLUMNS)
        assert isinstance(record.pop("wall_ns_median"), int)
    assert json_rows == [
        {
            "axis": "min_support",
            "axis_value": 3,
            "algorithm": algorithm,
            "rep_count": 1,
            "mem_proxy_bytes": mem,
            "n_frequent": 6,
            "work_counter": work,
        }
        for algorithm, mem, work in ((APRIORI, 256, 8), (FPGROWTH, 1440, 10))
    ]


def test_report_json_config_is_pinned():
    from fractions import Fraction

    report = sweep(
        BASE,
        "n_transactions",
        [80, 40],
        repetitions=1,
        min_support_frac=Fraction(1, 10),
    )
    assert json.loads(emit_report(report, "json"))["config"] == {
        "axis": "n_transactions",
        "values": [40, 80],
        "repetitions": 1,
        "n_transactions": 60,
        "n_items": 8,
        "mean_len": 3.0,
        "skew": 1.0,
        "seed": 5,
        "min_support": None,
        "min_support_frac": "1/10",
    }
