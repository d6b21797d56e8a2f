"""Command-line driver: ``python -m repro.experiments <experiment> [opts]``.

Examples::

    python -m repro.experiments fig4
    python -m repro.experiments table1 --scale medium
    python -m repro.experiments all --scale small
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from . import (
    baselines_compare,
    fig4_response_time,
    fig5_churn,
    fig6_load,
    fig7_analytical,
    rehash_probe,
    storage_overhead,
    table1_stats,
)

EXPERIMENTS: Dict[str, Callable[[Optional[str]], object]] = {
    "fig4": fig4_response_time.main,
    "table1": table1_stats.main,
    "fig5": fig5_churn.main,
    "fig6": fig6_load.main,
    "fig7": fig7_analytical.main,
    "overhead": storage_overhead.main,
    "rehash": rehash_probe.main,
    "baselines": baselines_compare.main,
}

ALIASES = {
    "e1": "fig4",
    "e2": "table1",
    "e3": "fig5",
    "e4": "fig6",
    "e5": "fig7",
    "e6": "overhead",
    "e7": "rehash",
    "e8": "baselines",
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="one of: %s, or 'all'" % ", ".join(sorted(EXPERIMENTS)),
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=["small", "medium", "paper"],
        help="substrate/workload scale (default: REPRO_SCALE env var or small)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=["scalar", "fastpath"],
        help="execution engine for fig4/fig6 (default: scalar for fig4, "
        "fastpath for fig6)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the fastpath shard runner (fig4 with "
        "--engine fastpath only; default 1, 0 = all cores)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write per-query JSONL traces (plus a run manifest) there "
        "(fig4 only; forces --jobs 1); summarize later with "
        "'python -m repro.obs summarize-traces PATH'",
    )
    args = parser.parse_args(argv)
    name = ALIASES.get(args.experiment, args.experiment)
    if name != "all" and name not in EXPERIMENTS:
        parser.error(f"unknown experiment {args.experiment!r}")
    if args.trace is not None and name != "fig4":
        parser.error("--trace is only supported by fig4")
    if args.jobs is not None and (name != "fig4" or args.engine != "fastpath"):
        parser.error("--jobs is only supported by fig4 --engine fastpath")
    if args.engine is not None and name not in ("fig4", "fig6"):
        parser.error(f"--engine is not supported by {name!r}")
    if args.jobs == 0:
        from ..fastpath.runner import default_jobs

        args.jobs = default_jobs()
    if name == "all":
        for key in EXPERIMENTS:
            print(f"=== {key} ===")
            EXPERIMENTS[key](args.scale)
            print()
        return 0
    if name == "fig4":
        fig4_response_time.main(
            args.scale,
            engine=args.engine or "scalar",
            n_jobs=args.jobs or 1,
            trace_path=args.trace,
        )
    elif name == "fig6":
        fig6_load.main(args.scale, engine=args.engine or "fastpath")
    else:
        EXPERIMENTS[name](args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
