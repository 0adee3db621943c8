"""Self-test of the output checks: planted faults must be caught.

Usage: python3 perfbench/selftest.py

Runs the four commands of a small basket workload and a small survey once,
shows that the checks pass on the program's real outputs, then plants one
fault at a time in a copy of those outputs and shows that the checks report
it: a dropped itemset, an off-by-one support, a wrong rule confidence, a
missing rule, a mis-bucketed age, and the two miners disagreeing.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import unittest
from pathlib import Path

import gen
import run

BASKETS = gen.Baskets(
    transactions=600, items=12, mean_len=5.0, skew=0.5, min_support=30, min_confidence="0.6"
)
SURVEY = gen.Survey(respondents=3000, min_support_frac="2/21", min_confidence="0.40")
SEED = 7


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def write_rows(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


class PlantedFaults(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.root = run.WORK_ROOT / f"selftest-{os.getpid()}"
        shutil.rmtree(cls.root, ignore_errors=True)
        cls.addClassCleanup(shutil.rmtree, cls.root, ignore_errors=True)
        cls.runs = {}
        with run.start_launcher() as launcher:
            for name, spec in (("baskets", BASKETS), ("survey", SURVEY)):
                work = cls.root / name
                work.mkdir(parents=True)
                inputs = spec.generate(SEED, work)
                for step, argv in zip(run.STEPS, run.commands(spec, inputs, work)):
                    if not run.run_step(launcher, argv, work, step, traced=False).ok:
                        raise RuntimeError(f"{name}: {step} failed")
                cls.runs[name] = (spec, inputs, work)

    def problems_with(self, name: str, plant) -> list[str]:
        """Checks on a copy of one workload's outputs after plant(copy) edits it."""
        spec, inputs, work = self.runs[name]
        copy = self.root / f"{name}-{self.id().rsplit('.', 1)[-1]}"
        shutil.copytree(work, copy)
        plant(copy)
        return run.check_outputs(spec, inputs, copy, SEED)

    def assertCaught(self, problems: list[str], expected: str) -> None:
        self.assertTrue(
            any(expected in problem for problem in problems),
            f"expected a problem mentioning {expected!r}, got {problems!r}",
        )

    def edit_both_itemset_csvs(self, work: Path, edit) -> None:
        for name in ("freq_apriori.csv", "freq_fpgrowth.csv"):
            rows = read_rows(work / name)
            edit(rows)
            write_rows(work / name, rows)

    def test_real_outputs_pass(self) -> None:
        for name in self.runs:
            with self.subTest(workload=name):
                self.assertEqual(self.problems_with(name, lambda work: None), [])

    def test_dropped_itemset(self) -> None:
        def drop_largest(rows):
            largest = max(rows[1:], key=lambda row: row[0].count("|"))
            self.assertGreaterEqual(largest[0].count("|"), 2)
            rows.remove(largest)

        problems = self.problems_with(
            "baskets", lambda work: self.edit_both_itemset_csvs(work, drop_largest)
        )
        self.assertCaught(problems, "is frequent but not reported")

    def test_dropped_pair(self) -> None:
        def drop_pair(rows):
            rows.remove(next(row for row in rows if row[0].count("|") == 1))

        problems = self.problems_with(
            "baskets", lambda work: self.edit_both_itemset_csvs(work, drop_pair)
        )
        self.assertCaught(problems, "pair supports differ")

    def test_off_by_one_support(self) -> None:
        def bump_largest(rows):
            largest = max(rows[1:], key=lambda row: row[0].count("|"))
            largest[1] = str(int(largest[1]) + 1)

        problems = self.problems_with(
            "baskets", lambda work: self.edit_both_itemset_csvs(work, bump_largest)
        )
        self.assertCaught(problems, "recounted")

    def test_off_by_one_survey_support(self) -> None:
        def lower_last(rows):
            rows[-1][1] = str(int(rows[-1][1]) - 1)

        problems = self.problems_with(
            "survey", lambda work: self.edit_both_itemset_csvs(work, lower_last)
        )
        self.assertCaught(problems, "exact survey enumeration")

    def test_miners_disagree(self) -> None:
        def reorder(work):
            rows = read_rows(work / "freq_fpgrowth.csv")
            rows[1], rows[2] = rows[2], rows[1]
            write_rows(work / "freq_fpgrowth.csv", rows)

        self.assertCaught(self.problems_with("baskets", reorder), "CSVs differ")

    def test_wrong_rule_confidence(self) -> None:
        def skew_confidence(work):
            rows = read_rows(work / "rules.csv")
            rows[1][3] = repr(float(rows[1][3]) * (1 - 1e-9))
            write_rows(work / "rules.csv", rows)

        self.assertCaught(self.problems_with("baskets", skew_confidence), "confidence")

    def test_missing_rule(self) -> None:
        def drop_rule(work):
            rows = read_rows(work / "rules.csv")
            del rows[-1]
            write_rows(work / "rules.csv", rows)

        self.assertCaught(self.problems_with("survey", drop_rule), "splits qualify")

    def test_misbucketed_age(self) -> None:
        def rebucket(work):
            rows = read_rows(work / "recoded.csv")
            row = next(row for row in rows if "18-24" in row)
            row[row.index("18-24")] = "25-34"
            write_rows(work / "recoded.csv", rows)

        self.assertCaught(self.problems_with("survey", rebucket), "recoded row")


if __name__ == "__main__":
    if not (run.ROOT / "src" / "freqmine" / "cli.py").is_file():
        sys.exit(f"error: no freqmine sources under {run.ROOT / 'src'}")
    unittest.main(verbosity=2)
