#!/usr/bin/env python3
"""Regenerate the three experiment tables on the default 20-seed suite.

Produces, under the output directory:

* ablation.md / ablation.csv   none vs sparse vs sparse+ofs, with sign tests
* design.md / design.csv       dense vs sparse vs delaying vs sparse+ofs
* sweep.md / sweep.csv         one-at-a-time epsilon and capacity sweep

Takes a few minutes; seeds run one after another.
"""

import argparse
import sys
from pathlib import Path

from sasmot.cli import main as cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("runs/tables"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n-seeds", type=int, default=20)
    args = parser.parse_args()

    common = ["--out", str(args.out), "--seed", str(args.seed),
              "--n-seeds", str(args.n_seeds)]
    for command in ("ablate", "design", "sweep"):
        code = cli([command, *common])
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
