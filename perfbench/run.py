"""DMap benchmark: one workload per invocation, metrics on the last line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4-medium --seed 0 --seconds 15 --trace 0

Workloads: ``fig4-medium``, ``fig4-spill``, ``mobility``, ``live-mixed``
(see ``BENCHMARK.json`` for why each exists).  ``--trace 0`` measures the
end-to-end metrics with the program untouched; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics instead.

The first run builds the substrate's topology archive under
``.perfbench_cache/`` at the repository root; set-up times are measured
against the warm archive.  Human-readable lines (provenance, each metric
with its unit and sample count, each output check) precede the final JSON
line.  The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("fig4-medium", "fig4-spill", "mobility", "live-mixed")


def units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args: argparse.Namespace, cache_warm: bool) -> Dict[str, object]:
    import numpy
    import scipy
    from repro.obs.manifest import current_git_sha

    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": current_git_sha(),
        "source_sha256": source_digest(),
        "topology_cache_warm": cache_warm,
        "n_jobs": 1,
        "substrate": f"{workloads.SUBSTRATE.name} ({workloads.SUBSTRATE.n_as} ASs, seed {workloads.SUBSTRATE_SEED})",
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(outcome) -> Dict[str, Tuple[float, int]]:
    """Metric -> (value, sample count)."""
    lat = outcome.latencies_ms
    rates = outcome.rates()
    return {
        "setup_s": (statistics.median(outcome.setup_s), len(outcome.setup_s)),
        "ops_per_s": (statistics.median(rates), len(rates)),
        "p50_ms": (percentile(lat, 50), len(lat)),
        "p99_ms": (percentile(lat, 99), len(lat)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def report(outcome, args: argparse.Namespace) -> Dict[str, Dict[str, object]]:
    """Print the human-readable lines; return the JSON ``metrics`` object."""
    print("provenance " + json.dumps(outcome.provenance, sort_keys=True))
    for check in outcome.checks:
        print(f"check {check.name}: {'ok' if check.ok else 'FAILED'} ({check.detail})")
    metrics: Dict[str, Dict[str, object]] = {}
    if args.trace:
        layer_units = units("per_layer")
        for name, value in outcome.layers.items():
            unit = layer_units[name]
            print(f"layer {name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        return metrics
    e2e_units = units("end_to_end")
    for name, (value, n) in end_to_end(outcome).items():
        unit = e2e_units[name]
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
        metrics[name] = {"value": value, "unit": unit}
    fail_frac = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    for name, value, unit, n in [("fail_frac", fail_frac, "ratio", outcome.attempted)] + outcome.notes:
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    return metrics


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cache_warm = workloads.cache_is_warm()
    if not cache_warm:
        start = time.perf_counter()
        workloads.environment()
        print(f"built topology archive in {time.perf_counter() - start:.1f} s")
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    outcome.provenance = provenance(args, cache_warm)
    metrics = report(outcome, args)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
