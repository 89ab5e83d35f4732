#!/usr/bin/env python3
"""Run the full experiment on a config and print a one-page summary.

With the default ``--config configs/desk.json``, equivalent to:

    vnfplace generate --config configs/desk.json
    vnfplace optimize --config configs/desk.json
    vnfplace compare  --config configs/desk.json

followed by a summary read from ``pipeline_report.json`` and
``comparison.json``. Any config runs the same way, ``configs/medium.json``
too. ``--workers`` reaches ``generate`` only, and the exit code is the
first failing stage's.
"""

import argparse
import json
import os
import sys

from vnfplace import cli
from vnfplace.config import load_run_config

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=os.path.join(REPO_ROOT, "configs", "desk.json"))
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--skip-generate", action="store_true",
                    help="run only optimize and compare, on an earlier generate's "
                         "datasets and split")
    args = ap.parse_args(argv)

    common = ["--config", args.config]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    stages = [] if args.skip_generate else [["generate"]]
    if not args.skip_generate and args.workers is not None:
        stages[0] += ["--workers", str(args.workers)]
    stages += [["optimize"], ["compare"]]
    for stage in stages:
        rc = cli.main(stage + common)
        if rc != 0:
            return rc

    out = load_run_config(args.config).output_dir
    with open(os.path.join(out, "pipeline_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
        comparison = json.load(fh)

    print(f"\n=== experiment summary ({out}) ===")
    a1, a2 = report["functional_range"]
    print(f"stage 1: fold trees grew to depths {report['stage1']['fold_depths']}, "
          f"PSO picked depth {report['stage1']['best_h']} "
          f"(regret {report['stage1']['regret']:.3g} over the exact objective curve)")
    print(f"stage 2: functional range [{a1}, {a2}], optimal depth h* = {report['h_star']}")
    print(f"stage 3: final tree depth {report['model_depth']}, "
          f"{report['model_nodes']} nodes")
    print("\nheld-out comparison:")
    for s in comparison["strategies"]:
        delay = "n/a" if s["mean_cp_delay"] is None else f"{s['mean_cp_delay']:.1f} us"
        print(f"  {s['name']:>15}: invalid rate {s['ip_rate']:.3f}, "
              f"mean path delay {delay}  ({s['n_rows']} rows)")
    wt = comparison["win_table"]
    print(f"\nwin table over {wt['compared_cells']} (row, path) cells: "
          + ", ".join(f"{k}={v}" for k, v in wt["wins"].items())
          + f", ties={wt['ties']}")
    nodes = comparison["node_counts"]
    print(f"tree node counts: baseline {nodes['baseline_tree']}, optimized "
          f"{nodes['optimized_tree']}; baseline_equals_optimized = "
          f"{comparison['baseline_equals_optimized']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
