"""Check that two traced runs of one seed reproduce every count exactly.

::

    python3 bench_e2e/determinism.py --workload cold_o4_mcad1 --seed 1

Runs ``run.py --trace 1`` twice, each for ``BENCHMARK.json``'s
``run_seconds``, and compares ``vm_cycles``,
``code_instrs``, ``naim_peak_bytes`` and every ``*.runs``, ``*.calls``,
``*.changed_ratio`` and ``llo.spilled`` value.  Any drift is reported
and the exit code is 1; nothing is averaged.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from layers import is_exact_count  # noqa: E402


def run_seconds() -> int:
    """The measuring time the benchmark's runs use."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def traced_counts(workload: str, seed: int, seconds: int) -> Dict:
    output = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.splitlines()
    counts = {}
    for line in output:
        if line.startswith("determinism: "):
            for field in line.split()[1:]:
                name, value = field.split("=")
                counts[name] = int(value)
    result = json.loads(output[-1])
    for name, entry in result["metrics"].items():
        if is_exact_count(name):
            counts[name] = entry["value"]
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    seconds = run_seconds()
    first = traced_counts(args.workload, args.seed, seconds)
    second = traced_counts(args.workload, args.seed, seconds)
    drift = sorted(name for name in set(first) | set(second)
                   if first.get(name) != second.get(name))
    for name in drift:
        print("drift: %s %r != %r" % (name, first.get(name),
                                       second.get(name)))
    print("%s seed %d: %d counts compared, %d drifted"
          % (args.workload, args.seed, len(first), len(drift)))
    return 1 if drift or not first else 0


if __name__ == "__main__":
    sys.exit(main())
