"""Run one freqmine command with spans around the calls into each layer.

Usage: python3 perfbench/trace_cli.py TRACE_JSON freqmine-arguments...

Each public function a layer offers is replaced, where its caller looks it
up, by a wrapper that adds the call's CPU time to a span total and counts
the work it was given or returned. The program's files are not edited. The
span totals, the counts and the time covered by outermost spans are written
to TRACE_JSON as JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from freqmine import apriori, cli, fpgrowth  # noqa: E402


class Tracer:
    """Span totals in ns and counts, keyed by layer metric name.

    covered_ns is the time inside outermost spans; hook_ns is the time the
    wrappers spend counting outside any span. Neither is charged to the
    command's own code.
    """

    def __init__(self) -> None:
        self.spans: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.covered_ns = 0
        self.hook_ns = 0
        self._depth = 0

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def wrap(self, name, function, before=None, after=None):
        """function with a span named name; before(args) and after(result) count work."""

        def traced(*args, **kwargs):
            if before is not None:
                self._hook(before, args)
            self._depth += 1
            started = time.process_time_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.process_time_ns() - started
                self._depth -= 1
                self.spans[name] = self.spans.get(name, 0) + elapsed
                if self._depth == 0:
                    self.covered_ns += elapsed
            if after is not None:
                self._hook(after, (result,))
            return result

        return traced

    def _hook(self, hook, args) -> None:
        """Run a counting hook; inside a span its time is already covered."""
        started = time.process_time_ns()
        hook(*args)
        if self._depth == 0:
            self.hook_ns += time.process_time_ns() - started


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its caller looks it up."""
    add = tracer.add

    def parsed(text, *_):
        add("dataset.bytes", len(text.encode("utf-8")))

    def database(db):
        add("dataset.transactions", db.n)
        tracer.peak("dataset.items", len(db.catalog))

    for name in ("parse_transactions", "parse_survey"):
        setattr(cli, name, tracer.wrap(f"dataset.{name}", getattr(cli, name), parsed, database))
    cli.serialize_transactions = tracer.wrap("dataset.serialize", cli.serialize_transactions)
    for module in (apriori, fpgrowth):
        module.item_frequencies = tracer.wrap(
            "dataset.item_frequencies", module.item_frequencies
        )

    def mined(freq):
        add("apriori.frequent", len(freq.support))
        add("apriori.frequent_multi", sum(len(s) > 1 for s in freq.support))
        add("apriori.levels", 1)

    def counted(tallies):
        add("apriori.counted", len(tallies))
        add("apriori.levels", 1)

    cli.apriori_mine = tracer.wrap("apriori.mine", cli.apriori_mine, after=mined)
    apriori.join_candidates = tracer.wrap(
        "apriori.join", apriori.join_candidates,
        after=lambda joined: add("apriori.joined", len(joined)),
    )
    apriori.prune_candidates = tracer.wrap("apriori.prune", apriori.prune_candidates)
    apriori.count_support = tracer.wrap("apriori.count", apriori.count_support, after=counted)
    cli.write_frequent_csv = tracer.wrap("apriori.write_frequent", cli.write_frequent_csv)
    cli.read_support_csv = tracer.wrap("apriori.read_support", cli.read_support_csv)

    def mine_with_stats(db, min_support):
        stats = fpgrowth.TreeStats()
        freq = fpgrowth.fpgrowth_mine(db, min_support, stats)
        add("fpgrowth.nodes_created", stats.nodes_created)
        tracer.peak("fpgrowth.peak_alive_nodes", stats.peak_alive_nodes)
        return freq

    def projected(subtree):
        add("fpgrowth.projections", 1)
        add("fpgrowth.nonempty_projections", int(subtree.node_count > 0))

    cli.fpgrowth_mine = tracer.wrap("fpgrowth.mine", mine_with_stats)
    fpgrowth.build_fptree = tracer.wrap(
        "fpgrowth.build", fpgrowth.build_fptree,
        after=lambda result: add("fpgrowth.tree_nodes", result[0].node_count),
    )
    ranked = fpgrowth.RankedTree
    ranked.from_fptree = classmethod(
        tracer.wrap("fpgrowth.rank_copy", ranked.from_fptree.__func__)
    )
    ranked.project = tracer.wrap("fpgrowth.project", ranked.project, after=projected)

    def splits(freq, *_):
        add("rules.splits", sum(2 ** len(itemset) - 2 for itemset in freq.support))

    cli.generate_rules = tracer.wrap(
        "rules.generate", cli.generate_rules, splits, lambda out: add("rules.emitted", len(out))
    )
    cli.write_rules_csv = tracer.wrap("rules.write", cli.write_rules_csv)


def main(argv: list[str]) -> int:
    trace_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = cli.run_cli(command)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "spans_ns": tracer.spans,
                "counts": tracer.counts,
                "covered_ns": tracer.covered_ns,
                "hook_ns": tracer.hook_ns,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
