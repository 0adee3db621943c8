"""Measure how fast the CPU runs the program's kind of work while a command runs.

Usage: python3 perfbench/gauge.py NICE

The gauge repeats one fixed slice of work, forever, at niceness NICE. Each
line on stdin asks for a reading. At the end of the slice under way it
writes one line: the slices completed so far and its own CPU time in ns.
It exits when stdin closes.

launch.py pins the gauge and every command to one CPU. There the two share
the CPU in turns of a few milliseconds, so the gauge's CPU time per slice,
between the readings taken before and after a command, is the speed of that
CPU during that command. A slice is work of the program's own kind: it
parses forty lines of a survey-like CSV export with the csv module, folds
the case and spaces of every cell, and writes the rows back out as CSV.
Its text is fixed: it imports nothing from freqmine and draws its rows
from a fixed linear congruential generator.
"""

from __future__ import annotations

import csv
import io
import os
import select
import sys
import time

ROWS = 12000
ITEMS = 300
ROW_DRAWS = 10
SLICE_LINES = 40


def fixed_lines() -> list[str]:
    """Survey-like CSV lines: item labels, a quoted free-text cell, a code."""
    state = 12345
    lines = []
    for number in range(ROWS):
        row = set()
        for _ in range(ROW_DRAWS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            row.add(state % ITEMS)
        labels = ",".join(f" Item {item}" for item in sorted(row))
        lines.append(f'{labels},"note {number}, seen",{number % 7}')
    return lines


def main(nice: int) -> int:
    os.nice(nice)
    lines = fixed_lines()
    chunks = [
        "\n".join(lines[start:start + SLICE_LINES]) for start in range(0, ROWS, SLICE_LINES)
    ]
    poller = select.poll()
    poller.register(sys.stdin, select.POLLIN)
    slices = 0
    while True:
        out = io.StringIO()
        writer = csv.writer(out)
        for record in csv.reader(io.StringIO(chunks[slices % len(chunks)])):
            writer.writerow([cell.strip().lower() for cell in record])
        slices += 1
        if poller.poll(0):
            if not sys.stdin.readline():
                return 0
            print(slices, time.process_time_ns(), flush=True)


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
