"""Record the fig4 render digests the benchmark's output check compares to.

Usage, from the repository root::

    python3 perfbench/record_golden.py

Runs the fig4 pass of ``fig4-medium`` once for each of the seeds 0-99 and
writes the SHA-256 of each rendered report to ``perfbench/golden.json``.  ``fig4-spill``
renders the same report (only the router's row cache differs), so one
table serves both workloads.  Record it at the commit whose outputs every
later commit must reproduce; seeds without a digest fall back to the
sampled scalar-resolver check alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    table = workloads.load_golden()
    env = workloads.environment()
    for seed in range(100):
        workloads.fresh_router(env)
        _, text = workloads.fig4_pass(env, seed)
        table[str(seed)] = workloads.digest(text)
        print(f"seed {seed}: {table[str(seed)][:16]}", flush=True)
    ordered = dict(sorted(table.items(), key=lambda item: int(item[0])))
    workloads.GOLDEN_PATH.write_text(
        json.dumps({"fig4_render_sha256": ordered}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
