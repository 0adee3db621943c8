"""Seeded inputs for the benchmark workloads.

The generators here are the benchmark's own, so no change to the program can
change a workload. Only random.Random.random() is drawn from, the one method
whose stream Python keeps stable across versions: a seed gives the same files
anywhere.

Each generator writes its files into a work directory and returns an Inputs
record: the canonical rows it drew (what mining must count) and the rows that
`freqmine recode` must produce, in label form.
"""

from __future__ import annotations

import csv
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

# The paper's survey: 2100 respondents, impact counts as published, and the
# age mix (the age counts sum to 2300 in the paper; they are used as weights).
PAPER_RESPONDENTS = 2100
IMPACT_COUNTS = {
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
}
MISSING_AGE = "Don't remember"
AGE_MIX = (
    ("Under 18", 1169),
    ("18-24", 577),
    ("25-34", 180),
    ("Above 35", 154),
    (MISSING_AGE, 220),
)
AGE_YEARS = {
    "Under 18": (11, 17),
    "18-24": (18, 24),
    "25-34": (25, 34),
    "Above 35": (35, 74),
}
# Raw spellings that only the alias file maps onto a canonical label.
ALIASES = {
    "Panic attacks": "Anxiety",
    "Fear (intense)": "Intense fear",
    "Nightmares": "Sleep disturbances or Nightmares",
    "Trouble sleeping": "Sleep disturbances or Nightmares",
    "Work disruption": "Disrupted work life",
    "Trouble communicating": "Face difficulties with communication",
}
_ALIASES_OF: dict[str, list[str]] = {}
for _raw, _canonical in ALIASES.items():
    _ALIASES_OF.setdefault(_canonical, []).append(_raw)

_CHANNELS = ("web", "phone", "paper, scanned")
_WORDS = (
    "school", "home", "news", "sirens", "family", "sleep", "work", "friends",
    "night", "shelter", "online", "classes", "noise", "city", "moved", "alone",
)


@dataclass(frozen=True)
class Inputs:
    """Files written for one workload and the rows they were drawn from.

    rows are the canonical transactions that mining counts; recoded are the
    canonical rows `recode` must produce from export, one per respondent.
    """

    export: Path
    aliases: Path | None
    transactions: Path | None
    rows: list[tuple[str, ...]]
    recoded: list[tuple[str, ...]]


class _Draw:
    """Draws built on random.Random.random() alone."""

    def __init__(self, seed: int) -> None:
        self.random = random.Random(seed).random

    def below(self, n: int) -> int:
        return min(int(self.random() * n), n - 1)

    def between(self, low: int, high: int) -> int:
        return low + self.below(high - low + 1)

    def weighted(self, cumulative: list[float]) -> int:
        """An index drawn with probability proportional to its weight."""
        point = self.random() * cumulative[-1]
        return bisect_right(cumulative, point, 0, len(cumulative) - 1)

    def poisson(self, mean: float) -> int:
        limit = math.exp(-mean)
        count = 0
        product = self.random()
        while product > limit:
            count += 1
            product *= self.random()
        return count

    def shuffle(self, values: list) -> None:
        for i in range(len(values) - 1, 0, -1):
            j = self.below(i + 1)
            values[i], values[j] = values[j], values[i]


_AGE_CUMULATIVE = list(accumulate(weight for _, weight in AGE_MIX))


def _age_cell(draw: _Draw) -> tuple[str, str]:
    """An age cell and the bucket it must recode to."""
    bucket = AGE_MIX[draw.weighted(_AGE_CUMULATIVE)][0]
    if bucket == MISSING_AGE:
        return ("", " Don't remember", "don't  remember")[draw.below(3)], bucket
    low, high = AGE_YEARS[bucket]
    age = str(draw.between(low, high))
    return (f" {age}" if draw.random() < 0.05 else age), bucket


@dataclass(frozen=True)
class Baskets:
    """Synthetic market baskets: Poisson lengths, Zipf-like item popularity.

    Item k is drawn with weight (k + 1) ** -skew, without repeats in a row.
    The same rows are also written as a survey export (an age column and a
    ';'-joined multiselect of the row's items) for the `recode` step.
    """

    transactions: int
    items: int
    mean_len: float
    skew: float
    min_support: int
    min_confidence: str

    def support_args(self) -> list[str]:
        return ["--min-support", str(self.min_support)]

    def threshold(self, n: int) -> int:
        return self.min_support

    def generate(self, seed: int, work: Path) -> Inputs:
        draw = _Draw(seed)
        width = len(str(self.items - 1))
        labels = [f"i{k:0{width}d}" for k in range(self.items)]
        cumulative = list(accumulate((k + 1) ** -self.skew for k in range(self.items)))
        rows: list[tuple[str, ...]] = []
        recoded: list[tuple[str, ...]] = []
        transactions = work / "transactions.csv"
        export = work / "export.csv"
        with open(transactions, "w", newline="") as tx_file, open(
            export, "w", newline=""
        ) as export_file:
            tx_writer = csv.writer(tx_file, lineterminator="\n")
            export_writer = csv.writer(export_file, lineterminator="\n")
            export_writer.writerow(("id", "age", "impacts"))
            for tid in range(self.transactions):
                length = min(max(draw.poisson(self.mean_len), 1), self.items)
                chosen: set[int] = set()
                while len(chosen) < length:
                    chosen.add(draw.weighted(cumulative))
                order = list(chosen)
                draw.shuffle(order)
                row = [labels[k] for k in order]
                tx_writer.writerow(row)
                age, bucket = _age_cell(draw)
                export_writer.writerow((tid, age, ";".join(row)))
                rows.append(tuple(row))
                recoded.append((bucket, *row))
        return Inputs(export, None, transactions, rows, recoded)


@dataclass(frozen=True)
class Survey:
    """A survey export shaped like the paper's, scaled to `respondents` rows.

    Each impact is selected with its published rate, independently, and each
    respondent has one age from the published mix. The export carries the
    quirks of a real one: blank and marker ages, labels differing only in
    case or whitespace, raw labels that only the alias file resolves, empty
    and repeated multiselect entries, and quoted free-text columns holding
    commas, quotes, semicolons and line breaks. The first respondent names
    every impact in its canonical spelling, so first-seen display labels are
    canonical.
    """

    respondents: int
    min_support_frac: str
    min_confidence: str

    def support_args(self) -> list[str]:
        return ["--min-support-frac", self.min_support_frac]

    def threshold(self, n: int) -> int:
        frac = Fraction(self.min_support_frac)
        return max(1, -(-frac.numerator * n // frac.denominator))

    def generate(self, seed: int, work: Path) -> Inputs:
        draw = _Draw(seed)
        selections, cumulative = _impact_selections()
        aliases = work / "aliases.csv"
        with open(aliases, "w", newline="") as alias_file:
            writer = csv.writer(alias_file, lineterminator="\n")
            for raw, canonical in ALIASES.items():
                writer.writerow((raw, canonical))
        comments = [_comment(draw) for _ in range(64)]
        rows: list[tuple[str, ...]] = []
        export = work / "survey.csv"
        with open(export, "w", newline="") as export_file:
            writer = csv.writer(export_file)
            writer.writerow(("respondent", "age", "comment", " impacts ", "channel"))
            for respondent in range(self.respondents):
                if respondent == 0:
                    age, bucket = "16", "Under 18"
                    chosen = list(IMPACT_COUNTS)
                    cells = list(chosen)
                else:
                    age, bucket = _age_cell(draw)
                    chosen = selections[draw.weighted(cumulative)]
                    cells = [_spelling(draw, label) for label in chosen]
                    if cells and draw.random() < 0.03:
                        cells.append(_spelling(draw, chosen[draw.below(len(chosen))]))
                    if draw.random() < 0.03:
                        cells.append(" ")
                    draw.shuffle(cells)
                joiner = "; " if draw.random() < 0.1 else ";"
                writer.writerow(
                    (
                        respondent,
                        age,
                        comments[draw.below(len(comments))],
                        joiner.join(cells),
                        _CHANNELS[draw.below(len(_CHANNELS))],
                    )
                )
                rows.append((bucket, *chosen))
        return Inputs(export, aliases, None, rows, rows)


def _impact_selections() -> tuple[list[tuple[str, ...]], list[float]]:
    """Every subset of the impacts with the cumulative probability of choosing it.

    Each impact is chosen independently at its published rate, so one draw
    against this table picks a respondent's whole selection.
    """
    selections: list[tuple[str, ...]] = [()]
    weights = [1.0]
    for label, count in IMPACT_COUNTS.items():
        rate = count / PAPER_RESPONDENTS
        selections += [(*chosen, label) for chosen in selections]
        weights = [w * (1 - rate) for w in weights] + [w * rate for w in weights]
    return selections, list(accumulate(weights))


def _spelling(draw: _Draw, label: str) -> str:
    """The label as a respondent's export might spell it."""
    roll = draw.random()
    if roll < 0.80:
        return label
    if roll < 0.85:
        return label.lower()
    if roll < 0.88:
        return label.upper()
    if roll < 0.93:
        return f"  {label.replace(' ', '  ')} "
    raws = _ALIASES_OF.get(label)
    if raws is None:
        return label.swapcase()
    raw = raws[draw.below(len(raws))]
    return raw if draw.random() < 0.7 else raw.lower()


def _comment(draw: _Draw) -> str:
    words = [_WORDS[draw.below(len(_WORDS))] for _ in range(draw.between(0, 9))]
    text = " ".join(words)
    roll = draw.random()
    if roll < 0.3:
        text = text.replace(" ", ", ", 1)
    elif roll < 0.4:
        text = f'"{text}"; said so'
    elif roll < 0.45:
        text = text.replace(" ", "\n", 1)
    return text

