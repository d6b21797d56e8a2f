"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload mobility --seeds 0-9

Runs ``run.py`` once per seed (``--trace 0``, ``run_seconds`` from
``BENCHMARK.json``) and prints, per metric, the median, the quartile
spread ``(Q3 - Q1) / median`` and that spread as a share of the metric's
bound.  A steady benchmark keeps every spread but ``setup_s`` below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seeds_of(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False, timeout=600,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout + proc.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        print(f"{metric['name']}: median {median:.6g} spread {spread:.4f} "
              f"= {spread / metric['bound']:.2f} of bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
