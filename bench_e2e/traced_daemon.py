"""Run the build daemon with the benchmark's span tracing installed.

Usage: ``python bench_e2e/traced_daemon.py --trace-dir DIR --root DIR
--socket PATH``.  Serves like ``python -m repro.serve run`` and, once
the daemon has shut down, writes its spans to
``DIR/spans-<pid>.jsonl``.  ``repro`` must be importable (the
benchmark puts ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402  (after the path set-up above)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--socket", required=True)
    args = parser.parse_args(argv)

    from repro.serve.daemon import run_daemon

    recorder = tracing.Recorder(args.trace_dir)
    installation = tracing.install(recorder)
    try:
        return run_daemon(socket_path=args.socket, state_root=args.root)
    finally:
        installation.undo()
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
