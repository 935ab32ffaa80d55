"""Render the benchmark history: raw JSON lines -> CSV -> table.

::

    python3 bench_e2e/history.py csv [--out FILE]      # raw -> CSV
    python3 bench_e2e/history.py table [--csv FILE]    # CSV -> table

The raw history is ``bench_e2e/history/e2e.jsonl``: one line per
recorded run (``run.py --record``).  The table gives, per workload,
trace mode and metric, the number of runs and the median with its
quartiles over the most recent ``LAST`` runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import statistics
import sys
from typing import Dict, List

HISTORY = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "history", "e2e.jsonl")
#: Most recent runs per row of the table: one set of ten seeds.
LAST = 10
FIELDS = ["recorded_at", "workload", "seed", "trace", "seconds", "correct",
          "attempted", "failed", "metric", "value", "unit"]


def raw_rows(path: str) -> List[Dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def to_csv(rows: List[Dict], out) -> None:
    """One CSV row per (run, metric)."""
    writer = csv.DictWriter(out, fieldnames=FIELDS)
    writer.writeheader()
    for row in rows:
        for metric, entry in sorted(row["metrics"].items()):
            writer.writerow({
                "recorded_at": row.get("recorded_at", ""),
                "workload": row["workload"],
                "seed": row["seed"],
                "trace": row["trace"],
                "seconds": row.get("seconds", ""),
                "correct": row["correct"],
                "attempted": row["attempted"],
                "failed": row["failed"],
                "metric": metric,
                "value": entry["value"],
                "unit": entry["unit"],
            })


def table(csv_text: str) -> str:
    groups: Dict[tuple, List[float]] = {}
    units: Dict[tuple, str] = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        key = (row["workload"], row["trace"], row["metric"])
        groups.setdefault(key, []).append(float(row["value"]))
        units[key] = row["unit"]
    lines = ["%-24s %-5s %-32s %4s %12s %12s %12s %s" % (
        "workload", "trace", "metric", "runs", "q1", "median", "q3", "unit")]
    for key in sorted(groups):
        values = groups[key][-LAST:]
        q1, median, q3 = (statistics.quantiles(values, n=4)
                          if len(values) > 1 else [values[0]] * 3)
        lines.append("%-24s %-5s %-32s %4d %12.6g %12.6g %12.6g %s" % (
            key[0], key[1], key[2], len(values), q1, median, q3,
            units[key]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("step", choices=("csv", "table"))
    parser.add_argument("--out", help="CSV file to write (default: stdout)")
    parser.add_argument("--csv", help="CSV to render (default: build it "
                        "from the raw history)")
    args = parser.parse_args(argv)

    if args.step == "csv":
        rows = raw_rows(HISTORY)
        if args.out:
            with open(args.out, "w", newline="", encoding="utf-8") as out:
                to_csv(rows, out)
        else:
            to_csv(rows, sys.stdout)
        return 0
    if args.csv:
        with open(args.csv, encoding="utf-8") as handle:
            text = handle.read()
    else:
        buffer = io.StringIO()
        to_csv(raw_rows(HISTORY), buffer)
        text = buffer.getvalue()
    print(table(text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
