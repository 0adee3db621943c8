"""Start the benchmark's commands from a process that never held its inputs.

On Linux, exec carries the peak RSS of the address space it replaces into
the new program's ru_maxrss. A command's rusage therefore reads no lower
than the peak of the process that started it. run.py holds the generated
rows, so it starts this launcher before it generates anything, and the
launcher starts every command.

The launcher also starts gauge.py, which runs beside every command on the
same CPU (run.py pins itself, and so all its descendants, to one CPU).

Each line on stdin is JSON. `null` asks for a gauge reading, and one JSON
line goes to stdout: [gauge_slices, gauge_cpu_ns], both counted since the
gauge started. A list [argv, stderr_path] runs that command to its end,
and the line written is [exit_code, cpu_ns, peak_rss_bytes, gauge_slices,
gauge_cpu_ns]: cpu_ns is the command's user plus system CPU time, and the
gauge figures are those of the command's run alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GAUGE = Path(__file__).resolve().parent / "gauge.py"
# The gauge's niceness: beside a command at niceness 0 it gets about a
# seventh of the CPU (weight 172 against 1024), enough for a reading even
# while a 0.1-s command runs.
GAUGE_NICE = 8


def main() -> int:
    with subprocess.Popen(
        [sys.executable, str(GAUGE), str(GAUGE_NICE)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as gauge:

        def reading() -> list[int]:
            gauge.stdin.write("\n")
            gauge.stdin.flush()
            return [int(field) for field in gauge.stdout.readline().split()]

        for line in sys.stdin:
            request = json.loads(line)
            if request is None:
                print(json.dumps(reading()), flush=True)
                continue
            argv, stderr_path = request
            with open(stderr_path, "wb") as errors:
                before = reading()
                child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=errors)
                _, status, usage = os.wait4(child.pid, 0)
                after = reading()
            child.returncode = os.waitstatus_to_exitcode(status)
            cpu_ns = round((usage.ru_utime + usage.ru_stime) * 1e9)
            figures = [child.returncode, cpu_ns, usage.ru_maxrss * 1024]
            figures += [end - start for start, end in zip(before, after)]
            print(json.dumps(figures), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
