"""Benchmark-suite helpers: result capture for EXPERIMENTS.md."""

import json
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Machine-readable results land at the repository root, where CI jobs
#: and tooling expect ``BENCH_*.json`` (the results/ subdirectory is
#: only for rendered tables and is not scanned).
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Benchmarks time production paths against the reference
# implementations kept as test oracles (``tests/oracles/``).
if REPO_ROOT not in sys.path:
    sys.path.append(REPO_ROOT)


def save_result(name: str, text: str) -> None:
    """Persist a rendered figure table for later inspection."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w",
              encoding="utf-8") as handle:
        handle.write(text + "\n")


def save_json(name: str, payload: dict) -> str:
    """Persist machine-readable benchmark output (``BENCH_<name>.json``).

    CI jobs and tooling read these instead of scraping the rendered
    tables; the file goes to the repo root (not benchmarks/results/)
    so a bare ``ls BENCH_*.json`` finds it.  Returns the path written.
    """
    path = os.path.join(REPO_ROOT, "BENCH_%s.json" % name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
