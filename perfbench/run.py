"""Benchmark of freqmine's recode -> mine -> rules pipeline, run as a user runs it.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each round runs the workload's four
steps in order: `recode`, `mine --algorithm apriori`, `mine --algorithm
fpgrowth`, and `rules --support-csv` on the Apriori itemset CSV. Each
command runs in its own `python3 -m freqmine.cli` process, started by
launch.py. Short steps run several times per round (REPEATS). Rounds
repeat until S seconds have passed; at least one round runs. Every command
is one operation, and one that exits non-zero has failed.

This process, the launcher, the commands and gauge.py all run on one CPU.
The gauge runs beside every command and tells how fast that CPU ran while
the command ran. Every time the benchmark reports is CPU time so scaled:
CPU seconds times GAUGE_SLICE_S over the gauge's CPU seconds per slice in
the same interval.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: set-up time (the median of SETUP_REPEATS generations
of the inputs) and each step's time and peak RSS, medians over all of the
step's runs. With --trace 1 every command runs under trace_cli.py, and the
object holds the per-layer metrics instead. In both modes the outputs
of the last round are checked by checks.py, and every run of a step must
write the same output as the step's first run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parent.parent
TRACE_CLI = Path(__file__).resolve().parent / "trace_cli.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# Times are reported as they would read on a CPU where one gauge slice
# takes this many CPU seconds. The shared machine's CPU speed changes by up
# to a factor of two within seconds, and a command's CPU time with it.
GAUGE_SLICE_S = 0.0002

WORKLOADS = {
    # Criterion 6's dense shape at 300, not 200: deep itemsets load Apriori's
    # prune and count, FP-Growth's projection and the 2^k rule splits.
    "dense": gen.Baskets(
        transactions=20000, items=30, mean_len=12.0, skew=0.5,
        min_support=300, min_confidence="0.9",
    ),
    # A wide catalog with shallow itemsets: Apriori's level-2 candidates and
    # level-3 join, FP-Growth's top-level tree build, light rules.
    "sparse_wide": gen.Baskets(
        transactions=20000, items=1000, mean_len=10.0, skew=1.0,
        min_support=20, min_confidence="0.5",
    ),
    # The paper's own pipeline: a tall, narrow survey export where parsing
    # and recoding dominate and mining and rules are almost free.
    "survey": gen.Survey(
        respondents=200000, min_support_frac="2/21", min_confidence="0.40"
    ),
}

STEPS = ("recode", "mine_apriori", "mine_fpgrowth", "rules")
OUTPUTS = ("recoded.csv", "freq_apriori.csv", "freq_fpgrowth.csv", "rules.csv")

# Runs of each step per round, in STEPS order. A step that takes under about
# two seconds runs several times, so that its median is not one sample taken
# during a burst of load from elsewhere on the machine.
REPEATS = {"dense": (4, 1, 1, 1), "sparse_wide": (4, 1, 1, 2), "survey": (1, 1, 1, 8)}

# Per-layer metrics in report order. A span is the CPU time inside calls to
# the function, nested spans included, scaled like every other time and
# summed over the round's commands.
SPANS = (
    "dataset.parse_survey", "dataset.serialize", "dataset.parse_transactions",
    "dataset.item_frequencies", "apriori.mine", "apriori.join", "apriori.prune",
    "apriori.count", "apriori.write_frequent", "apriori.read_support",
    "fpgrowth.mine", "fpgrowth.build", "fpgrowth.rank_copy", "fpgrowth.project",
    "rules.generate", "rules.write",
)
COUNTS = {
    "dataset.bytes": "bytes", "dataset.transactions": "count", "dataset.items": "count",
    "apriori.levels": "count", "apriori.joined": "count", "apriori.counted": "count",
    "apriori.frequent": "count", "fpgrowth.tree_nodes": "count",
    "fpgrowth.nodes_created": "count", "fpgrowth.peak_alive_nodes": "count",
    "fpgrowth.projections": "count", "rules.splits": "count", "rules.emitted": "count",
}
# Counts that are a size, not work: the round reports the largest.
SIZES = ("dataset.items", "fpgrowth.peak_alive_nodes")
# ratio name -> (numerator count, denominator count)
YIELDS = {
    "apriori.prune_yield": ("apriori.counted", "apriori.joined"),
    "apriori.count_yield": ("apriori.frequent_multi", "apriori.counted"),
    "fpgrowth.projection_yield": ("fpgrowth.nonempty_projections", "fpgrowth.projections"),
    "rules.yield": ("rules.emitted", "rules.splits"),
}
LAYER_UNITS = {
    **{f"{name}_s": "s" for name in SPANS},
    **COUNTS,
    **{name: "ratio" for name in YIELDS},
    "cli.self_s": "s",
    **{f"cli.{step}_traced_s": "s" for step in STEPS},
}


@dataclass
class Step:
    """One command's outcome as its parent process saw it."""

    ok: bool
    cpu_s: float
    peak_bytes: int
    scale: float  # gauge_scale while the command ran
    trace: dict | None

    @property
    def time_s(self) -> float:
        return self.cpu_s * self.scale


def commands(spec, inputs: gen.Inputs, work: Path) -> list[list[str]]:
    """The four freqmine argument lists of one round, in STEPS order."""
    recoded, freq_apriori, freq_fpgrowth, rules = (work / name for name in OUTPUTS)
    recode = ["recode", str(inputs.export), "--output", str(recoded)]
    if inputs.aliases is not None:
        recode += ["--alias-file", str(inputs.aliases)]
    source = str(inputs.transactions or recoded)
    mine = [
        ["mine", source, "--algorithm", algorithm, *spec.support_args(), "--output", str(out)]
        for algorithm, out in (("apriori", freq_apriori), ("fpgrowth", freq_fpgrowth))
    ]
    rule = [
        "rules", "--support-csv", str(freq_apriori),
        "--min-confidence", spec.min_confidence, "--output", str(rules),
    ]
    return [recode, *mine, rule]


def start_launcher() -> subprocess.Popen:
    """The process that starts every command; closing it waits for it to end."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(LAUNCH)], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )


def gauge_scale(slices: int, gauge_cpu_ns: int) -> float:
    """GAUGE_SLICE_S over the gauge's CPU seconds per slice."""
    return GAUGE_SLICE_S * slices / (gauge_cpu_ns / 1e9)


def gauge_reading(launcher: subprocess.Popen) -> list[int]:
    """The gauge's slices and CPU ns so far."""
    launcher.stdin.write("null\n")
    launcher.stdin.flush()
    return json.loads(launcher.stdout.readline())


def run_step(
    launcher: subprocess.Popen, argv: list[str], work: Path, name: str, traced: bool
) -> Step:
    """Run one command through the launcher; its rusage is that process's own."""
    trace_path = work / f"{name}.trace.json"
    if traced:
        program = [sys.executable, str(TRACE_CLI), str(trace_path)]
    else:
        program = [sys.executable, "-m", "freqmine.cli"]
    stderr_path = work / f"{name}.stderr"
    launcher.stdin.write(json.dumps([[*program, *argv], str(stderr_path)]) + "\n")
    launcher.stdin.flush()
    code, cpu_ns, peak_bytes, slices, gauge_cpu_ns = json.loads(launcher.stdout.readline())
    ok = code == 0
    if not ok:
        sys.stderr.write(f"{name} exited {code}: {argv}\n")
        sys.stderr.write(stderr_path.read_text(errors="replace")[-2000:])
    trace = json.loads(trace_path.read_text()) if traced and ok else None
    return Step(ok, cpu_ns / 1e9, peak_bytes, gauge_scale(slices, gauge_cpu_ns), trace)


def step_figures(step: Step) -> dict[str, float]:
    """Span seconds, counts and uncovered time of one traced command."""
    trace = step.trace or {"spans_ns": {}, "counts": {}, "covered_ns": 0, "hook_ns": 0}
    figures = {f"{name}_s": ns / 1e9 * step.scale for name, ns in trace["spans_ns"].items()}
    figures.update(trace["counts"])
    uncovered_s = step.cpu_s - (trace["covered_ns"] + trace["hook_ns"]) / 1e9
    figures["cli.self_s"] = uncovered_s * step.scale
    return figures


def layer_metrics(round_steps: list[list[Step]]) -> dict[str, float]:
    """Per-layer figures of one traced round: each step's median run, combined."""
    totals: dict[str, float] = {}
    for name, runs in zip(STEPS, round_steps):
        per_run = [step_figures(step) for step in runs]
        for key in set().union(*per_run):
            pick = statistics.median if key.endswith("_s") else statistics.median_low
            value = pick(figures.get(key, 0) for figures in per_run)
            combine = max if key in SIZES else (lambda a, b: a + b)
            totals[key] = combine(totals.get(key, 0), value)
        totals[f"cli.{name}_traced_s"] = statistics.median(step.time_s for step in runs)
    for name, (top, bottom) in YIELDS.items():
        totals[name] = totals.get(top, 0) / totals[bottom] if totals.get(bottom) else 0.0
    return {name: totals.get(name, 0) for name in LAYER_UNITS}


def check_outputs(spec, inputs: gen.Inputs, work: Path, seed: int) -> list[str]:
    """All output checks on the last round's files."""
    recoded, freq_apriori, freq_fpgrowth, rules = (work / name for name in OUTPUTS)
    problems = checks.check_recode(inputs.recoded, recoded)
    index = checks.Index(inputs.rows)
    threshold = spec.threshold(len(inputs.rows))
    support, mining_problems = checks.check_mining(
        index, threshold, freq_apriori, freq_fpgrowth, seed
    )
    problems += mining_problems
    problems += checks.check_rules(index, support, rules, Fraction(spec.min_confidence))
    if isinstance(spec, gen.Survey):
        buckets = [bucket for bucket, _ in gen.AGE_MIX]
        problems += checks.check_survey_exact(index, inputs.rows, buckets, threshold, support)
    return problems


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "freqmine" / "cli.py").is_file():
        print(f"error: no freqmine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # The launcher starts before this process holds any input; see launch.py.
        with start_launcher() as launcher:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                before = gauge_reading(launcher)
                started = time.process_time()
                inputs = spec.generate(args.seed, work)
                cpu_s = time.process_time() - started
                after = gauge_reading(launcher)
                setup_times.append(cpu_s * gauge_scale(after[0] - before[0], after[1] - before[1]))

            argvs = commands(spec, inputs, work)
            rounds: list[list[list[Step]]] = []
            problems: list[str] = []
            first_digests: dict[str, str] = {}
            deadline = time.perf_counter() + args.seconds
            while True:
                round_steps = []
                for name, argv, repeat, output in zip(
                    STEPS, argvs, REPEATS[args.workload], OUTPUTS
                ):
                    runs = []
                    for _ in range(repeat):
                        runs.append(run_step(launcher, argv, work, name, args.trace == 1))
                        written = digest(work / output)
                        if first_digests.setdefault(name, written) != written:
                            problems.append(
                                f"{name} run {len(runs)} of round {len(rounds) + 1} "
                                f"wrote other output than its first run"
                            )
                    round_steps.append(runs)
                rounds.append(round_steps)
                if time.perf_counter() >= deadline:
                    break
        try:
            problems += check_outputs(spec, inputs, work, args.seed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"outputs could not be checked: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        per_round = [layer_metrics(round_steps) for round_steps in rounds]
        metrics = {
            name: {"value": statistics.median(r[name] for r in per_round), "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
        for position, name in enumerate(STEPS):
            steps = [step for round_steps in rounds for step in round_steps[position]]
            metrics[f"{name}_s"] = {
                "value": statistics.median(s.time_s for s in steps), "unit": "s"
            }
            metrics[f"{name}_peak_bytes"] = {
                "value": statistics.median(s.peak_bytes for s in steps), "unit": "bytes"
            }
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    every_step = [step for round_steps in rounds for runs in round_steps for step in runs]
    attempted = len(every_step)
    failed = sum(not step.ok for step in every_step)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
        f"{attempted} commands, {failed} failed; a gauge slice took "
        f"{GAUGE_SLICE_S / statistics.median(s.scale for s in every_step) * 1e3:.3f} CPU ms "
        f"(median over commands)",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
