"""Synthetic transaction generation and the miner comparison harness.

Workloads are reproducible: given the same parameters, the generated database
is byte-identical across runs and platforms. Trials measure wall time plus
deterministic work and memory proxies, so the timing columns are the only
ones that vary between repeated runs.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import random
import statistics
import time
from bisect import bisect_right
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .apriori import AprioriStats, apriori_mine
from .dataset import ItemCatalog, TransactionDb, support_threshold
from .errors import ValidationError
from .fpgrowth import TreeStats, fpgrowth_mine

APRIORI = "apriori"
FPGROWTH = "fpgrowth"
# Each algorithm's miner and the stats class whose counters run_trial reports.
MINERS = {APRIORI: (apriori_mine, AprioriStats), FPGROWTH: (fpgrowth_mine, TreeStats)}

AXES = ("min_support", "n_transactions", "mean_len", "n_items")


@dataclass(frozen=True)
class SynthParams:
    """Synthetic workload shape.

    mean_len is the Poisson mean of transaction lengths before clamping to
    [1, n_items]. skew shapes the item popularity law: rank r is drawn with
    weight (r + 1) ** -skew, so 0 means uniform.
    """

    n_transactions: int
    n_items: int
    mean_len: float
    skew: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_transactions < 0:
            raise ValidationError(f"n_transactions must be >= 0, got {self.n_transactions}")
        if self.n_items < 1:
            raise ValidationError(f"n_items must be >= 1, got {self.n_items}")
        if not self.mean_len > 0:
            raise ValidationError(f"mean_len must be > 0, got {self.mean_len}")
        if self.mean_len > self.n_items:
            raise ValidationError(
                f"mean_len must be <= n_items, got {self.mean_len} > {self.n_items}"
            )
        if not self.skew >= 0:
            raise ValidationError(f"skew must be >= 0, got {self.skew}")


def _poisson(rng: random.Random, lam: float) -> int:
    """Poisson sample via the product-of-uniforms method.

    For large means the product underflows, so a normal approximation built
    from twelve uniforms takes over; both consume only rng.random().
    """
    if lam > 500:
        z = sum(rng.random() for _ in range(12)) - 6.0
        return max(0, round(lam + math.sqrt(lam) * z))
    limit = math.exp(-lam)
    k = 0
    product = 1.0
    while True:
        product *= rng.random()
        if product <= limit:
            return k
        k += 1


def _sample_distinct(
    rng: random.Random, weights: Sequence[float], cumulative: Sequence[float], count: int
) -> list[int]:
    """Draw `count` distinct indices by weight.

    Rejection sampling against the cumulative weights, with a bounded number
    of attempts; if collisions exhaust the budget (tiny pools, heavy skew),
    each remaining index is drawn by bisecting the running weights of the
    unchosen indices, so the draw always terminates. No draw totals with
    sum(), which compensates from Python 3.12 on and so differs by version.
    """
    n = len(weights)
    if count >= n:
        return list(range(n))
    total = cumulative[-1]
    chosen: set[int] = set()
    attempts = 0
    budget = 32 * count + 100
    while len(chosen) < count and attempts < budget:
        index = bisect_right(cumulative, rng.random() * total)
        chosen.add(min(index, n - 1))
        attempts += 1
    if len(chosen) < count:
        remaining = [i for i in range(n) if i not in chosen]
        while len(chosen) < count:
            running = list(accumulate(weights[i] for i in remaining))
            index = bisect_right(running, rng.random() * running[-1])
            chosen.add(remaining.pop(min(index, len(remaining) - 1)))
    return sorted(chosen)


def generate_synthetic(params: SynthParams) -> TransactionDb:
    """Deterministic synthetic database for the given parameters.

    Only random.Random.random() is consumed, the one generator method whose
    stream is guaranteed stable across Python versions, so equal params give
    an identical database anywhere. Labels are zero-padded so label order
    equals handle order.
    """
    rng = random.Random(params.seed)
    catalog = ItemCatalog()
    width = len(str(params.n_items - 1)) if params.n_items > 1 else 1
    for k in range(params.n_items):
        catalog.intern(f"i{k:0{width}d}")
    weights = [(rank + 1) ** -params.skew for rank in range(params.n_items)]
    cumulative = list(accumulate(weights))
    transactions = []
    for _ in range(params.n_transactions):
        length = min(max(_poisson(rng, params.mean_len), 1), params.n_items)
        transactions.append(tuple(_sample_distinct(rng, weights, cumulative, length)))
    return TransactionDb(catalog, tuple(transactions))


@dataclass
class TrialMeasurement:
    """One mining run: wall time plus deterministic work and memory proxies.

    mem_proxy_bytes is the platform-independent model figure.
    """

    algorithm: str
    wall_ns: int
    mem_proxy_bytes: int
    n_frequent: int
    work_counter: int


def run_trial(db: TransactionDb, min_support: int, algorithm: str) -> TrialMeasurement:
    """Mine once and measure.

    The work counter and memory proxy are read from the miner's own stats
    object (AprioriStats or TreeStats). The cyclic collector is paused while
    the clock runs (as timeit does) so collector pauses don't land in one
    trial's wall time; everything the trial allocated is collected after the
    clock stops.
    """
    if algorithm not in MINERS:
        raise ValidationError(f"unknown algorithm: {algorithm!r}")
    mine, make_stats = MINERS[algorithm]
    stats = make_stats()
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter_ns()
        freq = mine(db, min_support, stats)
        wall = time.perf_counter_ns() - started
    finally:
        if collector_was_on:
            gc.enable()
    n_frequent = len(freq.support)
    del freq
    gc.collect()
    return TrialMeasurement(
        algorithm, wall, stats.mem_proxy_bytes, n_frequent, stats.work_counter
    )


@dataclass
class ReportRow:
    """One (axis value, algorithm) aggregate: median wall time over reps.

    The fields, in order, are the report's CSV columns and JSON row keys.
    """

    axis: str
    axis_value: float | int
    algorithm: str
    rep_count: int
    wall_ns_median: float | int
    mem_proxy_bytes: int
    n_frequent: int
    work_counter: int


CSV_COLUMNS = tuple(column.name for column in fields(ReportRow))


@dataclass
class BenchReport:
    """Sweep output: the configuration echo plus one row per (value, algorithm)."""

    config: dict
    rows: list[ReportRow] = field(default_factory=list)


def summarize(
    axis: str, axis_value: float | int, trials: list[TrialMeasurement]
) -> ReportRow:
    """Collapse repeated trials of one algorithm into a report row.

    Wall time takes the median; the deterministic fields are identical across
    repetitions by construction, so the first trial supplies them.
    """
    if not trials:
        raise ValidationError("summarize requires at least one trial")
    first = trials[0]
    wall = statistics.median(trial.wall_ns for trial in trials)
    return ReportRow(
        axis,
        axis_value,
        first.algorithm,
        len(trials),
        wall,
        first.mem_proxy_bytes,
        first.n_frequent,
        first.work_counter,
    )


def _is_integral(value: float | int) -> bool:
    """True for an int or a finite float with no fractional part."""
    return not isinstance(value, float) or value.is_integer()


def _axis_params(base: SynthParams, axis: str, value: float | int) -> SynthParams:
    if axis in ("n_transactions", "n_items"):
        if not _is_integral(value):
            raise ValidationError(f"axis value {value!r}: {axis} must be an integer")
        value = int(value)
    try:
        return replace(base, **{axis: value})
    except ValidationError as exc:
        raise ValidationError(f"axis value {value!r}: {exc}") from exc


def sweep(
    base: SynthParams,
    axis: str,
    values: Sequence[float | int],
    repetitions: int = 5,
    min_support: int | None = None,
    min_support_frac: Fraction | None = None,
) -> BenchReport:
    """Run both miners at every axis value; rows are ordered by axis value.

    Sweeping min_support reuses one generated database and treats the values
    as thresholds; sweeping a shape parameter regenerates the database per
    value and fixes the threshold, given either absolutely or as a fraction
    of the database size (rounded up).
    """
    if axis not in AXES:
        raise ValidationError(f"unknown sweep axis: {axis!r}")
    if not values:
        raise ValidationError("sweep requires at least one axis value")
    if repetitions < 1:
        raise ValidationError(f"repetitions must be >= 1, got {repetitions}")
    if axis == "min_support":
        if min_support is not None or min_support_frac is not None:
            raise ValidationError(
                "min_support is the swept axis; do not also fix a threshold"
            )
    elif (min_support is None) == (min_support_frac is None):
        raise ValidationError(
            "exactly one of min_support or min_support_frac is required"
        )

    ordered = sorted(values)
    config = {
        "axis": axis,
        "values": ordered,
        "repetitions": repetitions,
        **asdict(base),
        "min_support": min_support,
        "min_support_frac": str(min_support_frac) if min_support_frac is not None else None,
    }
    # Every value is checked before the first trial runs.
    if axis == "min_support":
        for value in ordered:
            if not _is_integral(value) or value < 1:
                raise ValidationError(
                    f"axis value {value!r}: min_support must be an integer >= 1"
                )
        shared_db = generate_synthetic(base)
    else:
        shapes = {value: _axis_params(base, axis, value) for value in ordered}
    rows: list[ReportRow] = []
    for value in ordered:
        if axis == "min_support":
            db, threshold = shared_db, int(value)
        else:
            db = generate_synthetic(shapes[value])
            threshold = support_threshold(min_support, min_support_frac, db.n)
        for algorithm in MINERS:
            trials = [run_trial(db, threshold, algorithm) for _ in range(repetitions)]
            rows.append(summarize(axis, value, trials))
    return BenchReport(config, rows)


def emit_report(report: BenchReport, fmt: str = "csv") -> str:
    """Render a report as CSV (rows only) or JSON (config echo plus rows)."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(row) for row in report.rows)
        return buffer.getvalue()
    if fmt == "json":
        payload = {
            "config": report.config,
            "rows": [asdict(row) for row in report.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    raise ValidationError(f"unknown report format: {fmt!r}")

