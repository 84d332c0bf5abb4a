"""Rewrite ``golden.json`` from the current code.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regen.py

It runs every entry of ``tests/test_golden.py``'s ``RUNS`` and prints each
entry whose hashes changed, with its headline and the output files that moved.
List those in ``CHANGES.md`` with the reason the outputs moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import GOLDEN, RUNS, changed_files, run_golden  # noqa: E402


def main() -> int:
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else {}
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(RUNS):
            work = Path(tmp) / name
            work.mkdir()
            runs[name] = run_golden(name, work)
            if old.get(name) != runs[name]:
                moved = changed_files(old.get(name, {"files": {}}), runs[name])
                print(f"changed: {name} {runs[name]['headline']}")
                print(f"  files: {', '.join(moved) or 'none (headline only)'}")
    if runs["profile-workers-1"] != runs["profile-workers-2"]:
        print("profile outputs depend on the worker count", file=sys.stderr)
        return 1
    GOLDEN.write_text(
        json.dumps({"numpy": np.__version__, "runs": runs}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
