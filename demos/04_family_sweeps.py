#!/usr/bin/env python3
"""Discord across the mu-parameterized state families.

Re-creates the data behind the standard curves: discord and its
decomposition as a function of the mixing parameter for Werner-GHZ,
Werner-W, Bell-mixture, and the non-convexity witness family.  Each
family's CSV is written into demos/out/ by `mdiscord sweep` itself, and the
discord bars are read back from that file.

Uses a lighter optimizer grid than the CLI default so the whole script runs
in well under a minute; pass --full for default settings.
"""

import csv
import sys
from pathlib import Path

from mdiscord import cli, states

POINTS = 11
OUT_DIR = Path(__file__).parent / "out"

grid = [] if "--full" in sys.argv else ["--grid-points", "4"]
OUT_DIR.mkdir(exist_ok=True)

for family in states.MU_FAMILIES:
    path = OUT_DIR / f"{family}.csv"
    argv = ["sweep", "--family", family, "--points", str(POINTS), "--out", str(path)]
    if cli.main(argv + grid) != 0:
        sys.exit(f"mdiscord sweep failed for {family}")
    print(f"{family}:")
    with path.open(newline="") as f:
        for row in csv.DictReader(f):
            mu, value = float(row["mu"]), float(row["D"])
            bar = "#" * int(round(40 * value / 1.5))
            print(f"  mu={mu:.2f}  D={value:7.4f}  {bar}")
    print(f"  -> {path}\n")

print("Notable features: Werner-GHZ discord vanishes only at mu=0; the")
print("Werner-W monogamy column swaps sign near mu=0.92; the Bell mixture")
print("stays pinned at the bipartite value 1 at both endpoints; and the")
print("witness family is nonzero strictly inside (0,1) although both of its")
print("endpoints are zero-discord product states (non-convexity).")
