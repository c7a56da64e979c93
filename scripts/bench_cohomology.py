"""Wall time and peak RSS of ``anonytope barcode --dim-cap 2`` at scale.

Each run is a fresh interpreter on N seeded uniform rows in [0, 1]^2
(``random.Random(N)``), for N in 100, 200 and 228 (the last just under
the simplex budget).  Wall time is spawn to exit; peak RSS is the run's
own VmHWM, read by the run as it exits.  Several source trees can be
measured in one call, their runs interleaved so that drift in the
machine's speed falls on all of them alike; each figure is the median
of ``--repeat`` runs.

    python3 scripts/bench_cohomology.py --side change=src \\
        --side parent=../parent/src --out BENCH_cohomology.json

Writes one JSON object: the python and numpy versions, ``nproc``, and
per side and N the median and every run's wall time and peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (100, 200, 228)
ROOT = Path(__file__).resolve().parent.parent
# runs the CLI as the console script does, then leaves the process's
# peak RSS (VmHWM, in KiB) as the last line of stderr
RUN = """import sys
from anonytope.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as f:
        print(next(ln.split()[1] for ln in f if ln.startswith("VmHWM")),
              file=sys.stderr)
sys.exit(code)
"""


def write_rows(path: Path, n: int) -> None:
    rng = random.Random(n)
    path.write_text("x,y\n" + "".join(
        f"{rng.random()!r},{rng.random()!r}\n" for _ in range(n)))


def run_once(src: Path, csv: Path, out: Path) -> tuple[float, float]:
    """(wall seconds, peak RSS in MiB) of one barcode run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", RUN, "barcode", "--input", str(csv),
         "--quasi", "x", "y", "--dim-cap", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"barcode failed on {csv.name}:\n{proc.stderr}")
    return wall, int(proc.stderr.split()[-1]) / 1024


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", action="append", metavar="LABEL=SRC",
                        help="a source tree to measure (default: "
                             "this checkout's src)")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path,
                        default=ROOT / "BENCH_cohomology.json")
    args = parser.parse_args()
    sides = dict(s.split("=", 1) for s in args.side or
                 [f"worktree={ROOT / 'src'}"])
    runs = {label: {n: [] for n in SIZES} for label in sides}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for n in SIZES:
            write_rows(tmp / f"uniform{n}.csv", n)
        for _ in range(args.repeat):
            for n in SIZES:
                for label, src in sides.items():
                    wall, rss = run_once(Path(src).resolve(),
                                         tmp / f"uniform{n}.csv",
                                         tmp / "out")
                    runs[label][n].append((wall, rss))
                    print(f"{label} N={n}: {wall:.2f} s, {rss:.1f} MiB",
                          flush=True)
    doc = {
        "command": "anonytope barcode --dim-cap 2 on N uniform 2D rows, "
                   "random.Random(N)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeat": args.repeat,
        "results": {label: {str(n): {
            "wall_s": round(statistics.median(w for w, _ in r), 3),
            "peak_rss_mib": round(statistics.median(m for _, m in r), 1),
            "runs": [[round(w, 3), round(m, 1)] for w, m in r]}
            for n, r in by_n.items()} for label, by_n in runs.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
