"""Wall time and peak RSS of the merge tree, the regime table, the
filtration and its reduction at scale, and of the fixed cost that every
CLI answer pays.

Every run is a fresh interpreter on seeded uniform rows in [0, 1]^d
(``random.Random(N * 10 + d)``), but for the categorical case.  The
fixed-cost cases, each run ``FIXED_REPEAT`` times:

- the bare interpreter, then ``import numpy`` with OpenBLAS's default
  thread pool and with ``OPENBLAS_NUM_THREADS=1``, ``import yaml`` and
  ``import anonytope.cli``;
- ``sweep --k 2 3 5 --format json svg``, ``check --k 2 --eps 0.1`` and
  ``barcode --dim-cap 2`` on N = 26 rows in d = 2, the size of a
  ``perfbench`` sweep;
- the same sweep in-process, OpenBLAS pinned to one thread: the time of
  ``import numpy``, of the package's numeric modules after it, and of
  ``main`` once both are loaded;
- ``lattice-sweep --k 5`` with ``--strategy exhaustive`` and with the
  default ``lower_then_upper`` on the 500-row table of three balanced
  trees that ``perfbench/gen.py``'s ``categorical_table(1, 0, 500)``
  writes, its trees file in the plain ``--trees`` layout; there the
  lower chain fails, so ``lower_then_upper`` sweeps both chains and
  builds both chains' H0 bars.

The cases at scale, each run ``--repeat`` times:

- ``check --k 2 --eps 0.01`` and ``anonymize --k 2`` on N = 1,000, 5,000
  and 20,000 rows in d = 2, which read the merge tree alone;
- ``sweep --k 2 3 --dim-cap 1`` on N = 1,000, 5,000 and 20,000 rows in
  d = 2: every k's regimes and the H0 barcode, with no simplex built;
- ``anonymize --k 1`` on N = 1,000 rows in d = 2 and d = 5, the run that
  needs the radius of every component the merge tree forms;
- in-process ``compute_regimes`` for k = 1, 2, 3, 5, classes included,
  on N = 2,000 rows in d = 2 and N = 1,000 rows in d = 5, read by
  ``ingest_csv`` and min-max scaled by ``normalize_dataset`` as the CLI
  does, timed after the merge tree is built (its build time is recorded
  apart);
- in-process ``check_k_anonymity`` at k = 1 and eps = 0.013 on the same
  N = 2,000 rows in d = 2, read and timed the same way: there the first
  component, of 29 rows, fails the ball test, so the check needs the
  balls of its 28 merges alone;
- ``barcode --dim-cap 2`` on N = 100, 200 and 228 rows in d = 2 (the
  last just under the simplex budget), the H1 reduction;
- ``barcode --dim-cap 3`` on N = 48 rows in d = 3: 194,580 tetrahedra,
  each born at its circumradius or with its latest facet, from one
  batched Gram solve per 65,536 tetrahedra;
- in-process ``min_enclosing_ball`` of all N = 5,000 rows in d = 5 and
  of all N = 20,000 rows in d = 2, read and scaled as the CLI does,
  timed after the imports and the read.

Wall time is spawn to exit; peak RSS is the run's own VmHWM, read by the
run as it exits.  A command that exits 2 has given its verdict
("infeasible") and is timed like one that exits 0; one that exits 1
refused the input, and its ``error:`` line is recorded instead of
figures.  Each run starts without the caller's ``OPENBLAS_NUM_THREADS``
and ``PYTHONDONTWRITEBYTECODE``, and each source tree is byte-compiled
before the first run, so neither the shell it is started from nor a
tree's old ``__pycache__`` can bias it.  Several source trees
can be measured in one call, their runs interleaved, and the side that
goes first alternating, so that drift in the machine's speed falls on
all of them alike; each figure is the median of its case's runs.

    python3 scripts/bench_regimes.py --side change=src \\
        --side parent=../parent/src --out BENCH_regimes.json

Writes one JSON object: the python and numpy versions, the BLAS numpy
was built with, ``nproc``, and per side and case the median and every
run's figures.
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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
# the benchmark's categorical tables
from gen import categorical_table  # noqa: E402

# leaves the process's peak RSS (VmHWM, in KiB) as the last line of
# stderr
PEAK = """import sys
with open("/proc/self/status") as f:
    print(next(ln.split()[1] for ln in f if ln.startswith("VmHWM")),
          file=sys.stderr)
"""
# runs the CLI as the console script does
CLI = """from anonytope.cli import main
code = main()
""" + PEAK + "sys.exit(code)\n"
# times import numpy, then the package's numeric modules, then one CLI
# answer with both loaded; prints the three
PHASES = """import sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter()
import anonytope.anonymity, anonytope.geometry, anonytope.homology
import anonytope.svg
from anonytope.cli import main
package_s = time.perf_counter()
code = main(sys.argv[1:])
print(numpy_s - start, package_s - numpy_s, time.perf_counter() - package_s)
sys.exit(code)
"""
# times the merge tree's build, then compute_regimes for every k on the
# same dataset, read as the CLI reads it; prints both and the regime count
REGIMES = """import sys, time
from anonytope.anonymity import compute_regimes
from anonytope.cli import ingest_csv
from anonytope.geometry import normalize_dataset
data = normalize_dataset(ingest_csv(sys.argv[1], sys.argv[2:]))
start = time.perf_counter()
data.merge_tree
built = time.perf_counter()
count = sum(len(compute_regimes(data, k)) for k in (1, 2, 3, 5))
print(built - start, time.perf_counter() - built, count)
"""
# times the merge tree's build, then one check at k = 1 and the given eps
# on the same dataset, which must fail at its first component; prints
# both times
CHECK = """import sys, time
from anonytope.anonymity import FAIL_NOT_SIMPLEX, check_k_anonymity
from anonytope.cli import ingest_csv
from anonytope.geometry import normalize_dataset
data = normalize_dataset(ingest_csv(sys.argv[1], sys.argv[3:]))
eps = float(sys.argv[2])
start = time.perf_counter()
tree = data.merge_tree
built = time.perf_counter()
verdict = check_k_anonymity(data, eps, 1)
checked = time.perf_counter()
# the first component, by first row, is the one holding row 1
kind, component = verdict.failure_reason
assert kind == FAIL_NOT_SIMPLEX and component[0] == 1, verdict
print(built - start, checked - built)
"""
# times min_enclosing_ball of every row, read as the CLI reads it;
# prints the time and the radius
MEB = """import sys, time
from anonytope.cli import ingest_csv
from anonytope.geometry import min_enclosing_ball, normalize_dataset
data = normalize_dataset(ingest_csv(sys.argv[1], sys.argv[2:]))
start = time.perf_counter()
radius = min_enclosing_ball(data.points).radius
print(time.perf_counter() - start, radius)
"""
PINNED = {"OPENBLAS_NUM_THREADS": "1"}
SWEEP = ["--k", "2", "3", "5", "--format", "json", "svg"]
# the quartiles of 31 runs of a 0.2-0.3 s answer lie 20-30 ms apart on
# 2 cores, so a 50 ms shift of the median shows
FIXED_REPEAT = 31
# (label, kind, N, d, arguments, environment): kind is a CLI subcommand,
# "import" (arguments: the modules), "phases" (arguments: the CLI's),
# None (compute_regimes in-process), "in_check" (check_k_anonymity
# in-process; arguments: the eps) or "meb" (min_enclosing_ball
# in-process)
FIXED_CASES = (
    ("interpreter", "import", 0, 0, [], {}),
    ("import_numpy_pool", "import", 0, 0, ["numpy"], {}),
    ("import_numpy_pinned", "import", 0, 0, ["numpy"], PINNED),
    ("import_yaml", "import", 0, 0, ["yaml"], {}),
    ("import_anonytope_cli", "import", 0, 0, ["anonytope.cli"], {}),
    ("sweep_k235_json_svg_n26_d2", "sweep", 26, 2, SWEEP, {}),
    ("check_k2_n26_d2", "check", 26, 2, ["--k", "2", "--eps", "0.1"], {}),
    ("barcode_cap2_n26_d2", "barcode", 26, 2, ["--dim-cap", "2"], {}),
    ("sweep_phases_n26_d2_pinned", "phases", 26, 2, ["sweep", *SWEEP],
     PINNED),
    # d counts the trees
    ("lattice_sweep_exhaustive_n500", "lattice-sweep", 500, 3,
     ["--k", "5", "--strategy", "exhaustive"], {}),
    ("lattice_sweep_lower_then_upper_n500", "lattice-sweep", 500, 3,
     ["--k", "5"], {}),
)
SCALE_CASES = tuple(case + ({},) for case in (
    *((f"{command}_k2_n{n}_d2", command, n, 2, ["--k", "2", *extra])
      for n in (1000, 5000, 20000)
      for command, extra in (("check", ["--eps", "0.01"]),
                             ("anonymize", []))),
    *((f"sweep_k23_cap1_n{n}_d2", "sweep", n, 2,
       ["--k", "2", "3", "--dim-cap", "1"]) for n in (1000, 5000, 20000)),
    ("anonymize_k1_n1000_d2", "anonymize", 1000, 2, ["--k", "1"]),
    ("anonymize_k1_n1000_d5", "anonymize", 1000, 5, ["--k", "1"]),
    ("compute_regimes_k1235_n2000_d2", None, 2000, 2, []),
    ("compute_regimes_k1235_n1000_d5", None, 1000, 5, []),
    ("check_in_process_k1_eps0.013_n2000_d2", "in_check", 2000, 2,
     ["0.013"]),
    *((f"barcode_cap2_n{n}_d2", "barcode", n, 2, ["--dim-cap", "2"])
      for n in (100, 200, 228)),
    ("barcode_cap3_n48_d3", "barcode", 48, 3, ["--dim-cap", "3"]),
    ("meb_n5000_d5", "meb", 5000, 5, []),
    ("meb_n20000_d2", "meb", 20000, 2, []),
))


def write_rows(path: Path, command: str, n: int, d: int) -> None:
    """The case's table, and for lattice-sweep its trees file beside it
    with the suffix .yaml."""
    if command == "lattice-sweep":
        table = categorical_table(1, 0, n)
        path.write_text(table.csv)
        path.with_suffix(".yaml").write_text(table.trees_yaml)
        return
    rng = random.Random(n * 10 + d)
    path.write_text(",".join(f"x{j}" for j in range(d)) + "\n" + "".join(
        ",".join(repr(rng.random()) for _ in range(d)) + "\n"
        for _ in range(n)))


def run_once(src: Path, case: tuple, csv: Path, out: Path) -> dict:
    """The figures of one run of a case."""
    _, command, _, d, extra, case_env = case
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(case_env)
    quasi = [f"x{j}" for j in range(d)]
    if command == "lattice-sweep":
        quasi = [f"c{j + 1}" for j in range(d)]
        extra = [*extra, "--trees", str(csv.with_suffix(".yaml"))]
    table = ["--input", str(csv), "--quasi", *quasi]
    if command is None:
        argv = [sys.executable, "-c", REGIMES, str(csv), *quasi]
    elif command == "in_check":
        argv = [sys.executable, "-c", CHECK, str(csv), *extra, *quasi]
    elif command == "meb":
        argv = [sys.executable, "-c", MEB, str(csv), *quasi]
    elif command == "import":
        argv = [sys.executable, "-c",
                "".join(f"import {m}\n" for m in extra) + PEAK]
    elif command == "phases":
        argv = [sys.executable, "-c", PHASES, *extra, *table,
                "--out", str(out)]
    else:
        argv = [sys.executable, "-c", CLI, command, *table, *extra,
                "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=1800)
    wall = time.perf_counter() - start
    # exit 1 with an error line is a refusal; a traceback also exits 1
    refusal = [ln for ln in proc.stderr.splitlines()
               if ln.startswith("error: ")]
    if proc.returncode == 1 and refusal:
        return {"refused": refusal[0]}
    if proc.returncode not in (0, 2):
        raise SystemExit(f"{case[0]} failed:\n{proc.stderr}")
    if command is None:
        tree_s, regimes_s, count = proc.stdout.split()
        return {"merge_tree_s": float(tree_s),
                "compute_regimes_s": float(regimes_s),
                "regimes": int(count)}
    if command == "in_check":
        tree_s, check_s = proc.stdout.split()
        return {"merge_tree_s": float(tree_s), "check_s": float(check_s)}
    if command == "meb":
        meb_s, radius = proc.stdout.split()
        return {"meb_s": float(meb_s), "radius": float(radius)}
    if command == "phases":
        numpy_s, package_s, main_s = proc.stdout.splitlines()[-1].split()
        return {"import_numpy_s": float(numpy_s),
                "import_package_s": float(package_s),
                "main_s": float(main_s)}
    return {"wall_s": wall, "exit": proc.returncode,
            "peak_rss_mib": int(proc.stderr.split()[-1]) / 1024}


def summary(by_run: list[dict]) -> dict:
    """The median of each figure over the runs of one case and side, and
    every run's figures; the error line of a refused case."""
    refused = [r["refused"] for r in by_run if "refused" in r]
    if refused:
        return {"refused": refused[0], "runs": by_run}
    rounded = [{key: significant(value) for key, value in r.items()}
               for r in by_run]
    return {**{key: significant(statistics.median(r[key] for r in by_run))
               for key in by_run[0]}, "runs": rounded}


def significant(value):
    """A float to 4 significant figures, so that a sub-millisecond time
    keeps as many digits as a long one; a count as it is."""
    return float(f"{value:.4g}") if isinstance(value, float) else value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--side", action="append", metavar="LABEL=SRC",
                        help="a source tree to measure (default: "
                             "this checkout's src)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs of each case at scale")
    parser.add_argument("--out", type=Path,
                        default=ROOT / "BENCH_regimes.json")
    args = parser.parse_args()
    sides = dict(s.split("=", 1) for s in args.side or
                 [f"worktree={ROOT / 'src'}"])
    cases = [(case, FIXED_REPEAT) for case in FIXED_CASES] + [
        (case, args.repeat) for case in SCALE_CASES]
    runs = {label: {case[0]: [] for case, _ in cases} for label in sides}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for case, _ in cases:
            if case[2]:
                write_rows(tmp / f"{case[0]}.csv", *case[1:4])
        for src in sides.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(Path(src).resolve())], check=True)
        for round_ in range(max(n for _, n in cases)):
            order = list(sides.items())[::-1 if round_ % 2 else 1]
            for case, repeat in cases:
                if round_ >= repeat:
                    continue
                for label, src in order:
                    got = run_once(Path(src).resolve(), case,
                                   tmp / f"{case[0]}.csv", tmp / "out")
                    runs[label][case[0]].append(got)
                    print(f"{label} {case[0]}: {got}", flush=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    doc = {
        "command": "scripts/bench_regimes.py: uniform rows in [0, 1]^d, "
                   "random.Random(N * 10 + d); lattice-sweep on "
                   "perfbench/gen.py categorical_table(1, 0, N)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "repeat": {"fixed_cost": FIXED_REPEAT, "at_scale": args.repeat},
        "results": {label: {name: summary(by_run)
                            for name, by_run in by_case.items()}
                    for label, by_case in runs.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
