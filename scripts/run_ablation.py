#!/usr/bin/env python3
"""Sweep the loss coefficients (lambda1, lambda_adv) and print sweep.csv.

Usage: python3 scripts/run_ablation.py [--config PATH] [--out DIR]
"""

import argparse
import pathlib
import sys

from resfl_sim.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "default.cfg"))
    ap.add_argument("--out", default="out/ablation")
    args = ap.parse_args()

    rc = cli_main(["sweep", "--config", args.config, "--out", args.out])
    if rc != 0:
        return rc
    print((pathlib.Path(args.out) / "sweep.csv").read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
