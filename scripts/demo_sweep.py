"""End-to-end demo on the bundled 9-row Age/ZIP sample.

Writes the sample as CSV, runs the epsilon sweep for k = 2, 3, 4, and
prints the regime table plus the minimal generalization for each k.

Usage: python3 scripts/demo_sweep.py [outdir]
"""

import sys
import tempfile
from pathlib import Path

from anonytope.anonymity import (compute_regimes, generalize_table,
                                 minimal_epsilon)
from anonytope.cli import RunConfig, ingest_csv
from anonytope.geometry import normalize_dataset

AGES = [25, 22, 24, 43, 52, 38, 47, 36, 32]
ZIPS = [47677, 47602, 47678, 47905, 47909, 47906, 47605, 47673, 47607]


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="anonytope_demo_"))
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "sample.csv"
    lines = ["Age,ZIP"] + [f"{a},{z}" for a, z in zip(AGES, ZIPS)]
    csv_path.write_text("\n".join(lines) + "\n")

    table = ingest_csv(csv_path,
                       RunConfig(input=str(csv_path), quasi=["Age", "ZIP"]))
    data = normalize_dataset(table)

    for k in (2, 3, 4):
        print(f"\nk = {k}")
        for r in compute_regimes(data, k):
            hi = f"{r.eps_hi:.6f}" if r.eps_hi is not None else "inf"
            print(f"  eps in [{r.eps_lo:.6f}, {hi}): "
                  f"{r.n_classes} classes {r.classes}")
        regime = minimal_epsilon(data, k)
        gen = generalize_table(table, regime)
        print(f"  smallest-eps generalization (eps = {regime.eps_lo:.6f}):")
        for row in gen.rows:
            print("    " + ", ".join(f"[{lo:g}-{hi:g}]" for lo, hi in row))
    print(f"\nartifacts in {outdir}")


if __name__ == "__main__":
    main()
