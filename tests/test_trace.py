"""The benchmark's tracer still finds every layer it wraps.

perfbench/trace_cli.py wraps each layer's functions by name where their
callers look them up. A refactor that calls a layer under another name
makes that layer's figures read zero without failing anything, so these
tests run the tracer and check span names, never durations.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, DB5_TEXT

from freqmine import apriori
from freqmine.dataset import parse_transactions
from freqmine.fpgrowth import TreeStats, fpgrowth_mine

TRACE_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "trace_cli.py"

DB5_SUPPORT_CSV = "itemset,support\na,4\nb,4\nc,4\na|b,3\na|c,3\nb|c,3\n"

# At support 1 every item is frequent but {c, d} is not, so from size 3 on
# the join leaves out a,c,d and b,c,d.
WIDE_TEXT = "a,b,c\na,d\nb,d\n"

COMMANDS = {
    # Apriori prunes only candidates of size 4 and up, which db5 never makes;
    # the wide fixture at support 3 does, and counts its pairs in one array.
    "mine_apriori": (
        [
            "mine", str(DATA_DIR / "wide_baskets.csv"),
            "--min-support", "3", "--algorithm", "apriori",
        ],
        {
            "dataset.parse_transactions",
            "dataset.item_frequencies",
            "apriori.mine",
            "apriori.join",
            "apriori.prune",
            "apriori.count",
            "apriori.write_frequent",
        },
    ),
    "mine_fpgrowth": (
        ["mine", "{db5}", "--min-support", "3", "--algorithm", "fpgrowth"],
        {
            "dataset.parse_transactions",
            "dataset.item_frequencies",
            "fpgrowth.mine",
            "fpgrowth.build",
            "fpgrowth.rank_copy",
            "fpgrowth.project",
            "apriori.write_frequent",
        },
    ),
    "rules": (
        ["rules", "--support-csv", "{support}", "--min-confidence", "0.5"],
        {"apriori.read_support", "rules.generate", "rules.write"},
    ),
    "recode": (
        ["recode", str(DATA_DIR / "survey_sample.csv")],
        {"dataset.parse_survey", "dataset.serialize"},
    ),
}


def _trace(tmp_path: Path, argv: list[str]) -> dict:
    db5 = tmp_path / "db5.csv"
    db5.write_text(DB5_TEXT, encoding="utf-8")
    support = tmp_path / "support.csv"
    support.write_text(DB5_SUPPORT_CSV, encoding="utf-8")
    wide = tmp_path / "wide.csv"
    wide.write_text(WIDE_TEXT, encoding="utf-8")
    argv = [arg.format(db5=db5, support=support, wide=wide) for arg in argv]
    trace = tmp_path / "trace.json"
    result = subprocess.run(
        [sys.executable, str(TRACE_CLI), str(trace), *argv, "--output", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(trace.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_trace_has_every_layer_span(command, tmp_path):
    argv, spans = COMMANDS[command]
    trace = _trace(tmp_path, argv)
    assert spans <= set(trace["spans_ns"])


def test_trace_tree_counters_match_the_miner(tmp_path):
    trace = _trace(tmp_path, COMMANDS["mine_fpgrowth"][0])
    stats = TreeStats()
    fpgrowth_mine(parse_transactions(DB5_TEXT), 3, stats)
    assert trace["counts"]["fpgrowth.nodes_created"] == stats.nodes_created
    assert trace["counts"]["fpgrowth.peak_alive_nodes"] == stats.peak_alive_nodes


def test_trace_counts_one_projection_per_itemset(tmp_path):
    # _mine calls FPTree.project once per frequent itemset, so a projection
    # made some other way fails here instead of making the metric read low.
    trace = _trace(tmp_path, COMMANDS["mine_fpgrowth"][0])
    mined = fpgrowth_mine(parse_transactions(DB5_TEXT), 3)
    assert trace["counts"]["fpgrowth.projections"] == len(mined.support) == 6


def test_trace_counts_the_filtered_join(tmp_path, monkeypatch):
    # The tracer must wrap the join that apriori_mine calls with its partners
    # filter; the same mine run in-process gives the total it should count.
    trace = _trace(
        tmp_path, ["mine", "{wide}", "--min-support", "1", "--algorithm", "apriori"]
    )
    db = parse_transactions(WIDE_TEXT)
    joined = {"filtered": 0, "unfiltered": 0}
    join = apriori.join_candidates

    def counting_join(level, partners=None):
        joined["filtered"] += len(join(level, partners))
        joined["unfiltered"] += len(join(level))
        return join(level, partners)

    monkeypatch.setattr(apriori, "join_candidates", counting_join)
    apriori.apriori_mine(db, 1)
    # Level 2 is counted in the pair array, so only size 3 is joined.
    assert joined == {"filtered": 2, "unfiltered": 4}
    assert trace["counts"]["apriori.joined"] == joined["filtered"]
