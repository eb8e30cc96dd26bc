#!/usr/bin/env python3
"""Run the default FedAvg-vs-RESFL comparison and print the summary.

Usage: python3 scripts/run_baselines.py [--config PATH] [--out DIR]
"""

import argparse
import json
import pathlib
import sys

from resfl_sim.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "default.cfg"))
    ap.add_argument("--out", default="out/baselines")
    args = ap.parse_args()

    rc = cli_main(["run", "--config", args.config, "--out", args.out])
    if rc != 0:
        return rc
    summary = json.loads((pathlib.Path(args.out) / "summary").read_text())
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
