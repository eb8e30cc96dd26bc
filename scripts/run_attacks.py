#!/usr/bin/env python3
"""Run the four-attack harness (MIA, AIA, Byzantine, poisoning).

Usage: python3 scripts/run_attacks.py [--config PATH] [--out DIR] [--kind NAME]
"""

import argparse
import pathlib
import sys

from resfl_sim.attacks import ATTACK_KINDS
from resfl_sim.cli import main as cli_main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(ROOT / "configs" / "default.cfg"))
    ap.add_argument("--out", default="out/attacks")
    ap.add_argument("--kind", choices=ATTACK_KINDS, default=None)
    args = ap.parse_args()

    argv = ["attack", "--config", args.config, "--out", args.out]
    if args.kind:
        argv += ["--kind", args.kind]
    rc = cli_main(argv)
    if rc != 0:
        return rc
    print((pathlib.Path(args.out) / "attacks.csv").read_text(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
