"""Wall time and peak RSS of the fixed cost that every CLI answer pays,
and of each layer at scale, for one or more source trees.

Why each group of cases exists:

- The fixed-cost cases (``FIXED_CASES``, each run ``FIXED_REPEAT``
  times) split a small answer into what it pays before any package code
  runs, the interpreter and each import, and whole answers at the size
  of a ``perfbench`` workload: 26 numeric rows, and the 500-row
  categorical table of ``perfbench/gen.py``.  Most of such an answer is
  process start, so they show how much of a gated metric the package
  can move at all.  The ``phases`` cases split one answer in-process
  into the package's imports, ``main`` and ``exit_s``, the time from
  the report after ``main`` to the exit the parent sees, and time the
  import of numpy apart from them, wherever it happens; it is 0 when
  the answer does not load numpy.
- The crossover cases (``CROSSOVER_CASES``, each run
  ``CROSSOVER_REPEAT`` times) straddle the sizes below which a numeric
  command computes on Python floats and never imports numpy
  (``cli.FLOAT_ROWS`` rows, ``cli.FLOAT_CELLS`` cells, and
  ``cli.FLOAT_SIMPLICES`` simplices for a barcode): ``check``,
  ``anonymize`` and ``sweep --dim-cap 1`` at 50 to 800 rows in 2D and
  100 to 300 rows in 8D, and ``barcode --dim-cap 2`` at 50 to 80 rows
  (with the fixed 26-row and the 100-row case at scale), so that both
  sides of each crossover are timed.
- The cases at scale (``SCALE_CASES``, each run ``--repeat`` times)
  time each layer where its algorithm dominates: the merge tree alone
  (``check``, ``anonymize``), every k's regimes with no simplex built
  (``sweep --dim-cap 1``), every component's radius (``anonymize --k
  1``), the filtration and its reduction up to the simplex budget
  (``barcode``), and, in-process after the imports and the read,
  ``compute_regimes``, a ``check_k_anonymity`` that fails at its first
  component, and ``min_enclosing_ball`` of every row.

Every run is a fresh interpreter that executes ``PRELUDE`` and then the
snippet its kind names in ``SNIPPETS``, on seeded uniform rows in
[0, 1]^d (``random.Random(N * 10 + d)``) but for the categorical cases.
The in-process snippets read the table with ``csv`` into a
``NumericTable`` and scale it with ``normalize_dataset``, not with the
CLI's ``ingest_csv``, whose signature has changed, so that an older
tree can be measured against a newer one.  Each snippet prints its
figures as one JSON object on its last stdout line, with its peak RSS
(VmHWM) in MiB; the wall time, spawn to exit, and the exit code are
added to them.  A run that exits 2 has given its verdict
("infeasible") and counts like one that exits 0; one that exits 1 with
an ``error:`` line refused the input, and that line is recorded instead
of figures.  Any other run failed: its last stderr line and exit code
are recorded, the other runs go on, and the script exits 1 once the
file is written.

Each run starts without the caller's ``OPENBLAS_NUM_THREADS`` and
``PYTHONDONTWRITEBYTECODE``, and each source tree is byte-compiled
before the first run, so neither the shell it is started from nor a
tree's old ``__pycache__`` can bias it.  The sides' runs are
interleaved, the side that goes first alternating, so that drift in the
machine's speed falls on all of them alike; each figure is the median
of its case's runs.

    python3 scripts/bench_regimes.py --side parent=../parent/src \\
        --side change=src --repeat 5 --out BENCH_regimes.json

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

# the start of every snippet: read(path) reads and scales a table as the
# CLI does; report() prints the run's figures and its peak RSS (VmHWM)
# as one JSON object, formatted by hand because importing json would
# add to every run
PRELUDE = """import sys, time
def read(path):
    import csv
    from anonytope.geometry import NumericTable, normalize_dataset
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return normalize_dataset(
        NumericTable(header, [[float(v) for v in row] for row in rows]))
def report(**figures):
    with open("/proc/self/status") as f:
        kib = next(int(ln.split()[1]) for ln in f if ln.startswith("VmHWM"))
    figures["peak_rss_mib"] = kib / 1024
    print("{" + ", ".join(f'"{key}": {value!r}'
                          for key, value in figures.items()) + "}")
"""
# what each kind of run does after PRELUDE with its arguments: the CLI
# kinds take a subcommand and its flags, the in-process ones the table's
# path and then the case's arguments
SNIPPETS = {
    # imports the named modules
    "import": """for name in sys.argv[1:]:
    __import__(name)
report()
""",
    # runs the CLI as the console script does
    "cli": """from anonytope.cli import main
code = main()
report()
sys.exit(code)
""",
    # times the package's modules that the subcommand loads, then one CLI
    # answer with them loaded, and, apart from both, the import of numpy
    # wherever it happens, or 0 if the answer does not load it; stamps
    # time.monotonic() at report() for the parent's exit_s
    "phases": """import builtins
numpy_s = 0.0
load = builtins.__import__
def timed(name, *args, **kwargs):
    global numpy_s
    if name.partition(".")[0] != "numpy" or "numpy" in sys.modules:
        return load(name, *args, **kwargs)
    start = time.perf_counter()
    try:
        return load(name, *args, **kwargs)
    finally:
        numpy_s = time.perf_counter() - start
builtins.__import__ = timed
start = time.perf_counter()
if sys.argv[1] != "lattice-sweep":
    import anonytope.anonymity, anonytope.geometry, anonytope.homology
    import anonytope.svg
else:
    import anonytope.categorical
from anonytope.cli import main
package_s, before = time.perf_counter(), numpy_s
code = main()
report(import_numpy_s=numpy_s, import_package_s=package_s - start - before,
       main_s=time.perf_counter() - package_s - (numpy_s - before),
       reported_at=time.monotonic())
sys.exit(code)
""",
    # times the merge tree's build, then compute_regimes for every k on
    # the same dataset; counts the regimes
    "regimes": """from anonytope.anonymity import compute_regimes
data = read(sys.argv[1])
start = time.perf_counter()
data.merge_tree
built = time.perf_counter()
count = sum(len(compute_regimes(data, k)) for k in (1, 2, 3, 5))
report(merge_tree_s=built - start,
       compute_regimes_s=time.perf_counter() - built, regimes=count)
""",
    # times the merge tree's build, then one check at k = 1 and the given
    # eps on the same dataset, which must fail at its first component
    "in_check": """from anonytope.anonymity import (FAIL_NOT_SIMPLEX,
                                 check_k_anonymity)
data = read(sys.argv[1])
eps = float(sys.argv[2])
start = time.perf_counter()
data.merge_tree
built = time.perf_counter()
verdict = check_k_anonymity(data, eps, 1)
checked = time.perf_counter()
# the first component, by first row, is the one holding row 1
kind, component = verdict.failure_reason
assert kind == FAIL_NOT_SIMPLEX and component[0] == 1, verdict
report(merge_tree_s=built - start, check_s=checked - built)
""",
    # times min_enclosing_ball of every row
    "meb": """from anonytope.geometry import min_enclosing_ball
data = read(sys.argv[1])
start = time.perf_counter()
radius = min_enclosing_ball(data.points).radius
report(meb_s=time.perf_counter() - start, radius=float(radius))
""",
}
PINNED = {"OPENBLAS_NUM_THREADS": "1"}
SWEEP = ["--k", "2", "3", "5", "--format", "json", "svg"]
LATTICE = ["lattice-sweep", "--k", "5", "--strategy", "exhaustive"]
# the quartiles of 31 runs of a 0.2-0.3 s answer lie 20-30 ms apart on
# 2 cores, so a 50 ms shift of the median shows
FIXED_REPEAT = 31
# (label, kind, N, d, arguments, environment): kind names the snippet,
# and a CLI kind's arguments start with the subcommand; a table of N
# rows in d columns is written for every case with N > 0
FIXED_CASES = (
    ("interpreter", "import", 0, 0, [], {}),
    ("import_numpy_pool", "import", 0, 0, ["numpy"], {}),
    ("import_numpy_pinned", "import", 0, 0, ["numpy"], PINNED),
    ("import_yaml", "import", 0, 0, ["yaml"], {}),
    ("import_anonytope_cli", "import", 0, 0, ["anonytope.cli"], {}),
    ("sweep_k235_json_svg_n26_d2", "cli", 26, 2, ["sweep", *SWEEP], {}),
    ("check_k2_n26_d2", "cli", 26, 2,
     ["check", "--k", "2", "--eps", "0.1"], {}),
    ("barcode_cap2_n26_d2", "cli", 26, 2, ["barcode", "--dim-cap", "2"],
     {}),
    ("sweep_phases_n26_d2_pinned", "phases", 26, 2, ["sweep", *SWEEP],
     PINNED),
    # d counts the trees
    ("lattice_sweep_exhaustive_n500", "cli", 500, 3, LATTICE, {}),
    ("lattice_sweep_phases_exhaustive_n500", "phases", 500, 3, LATTICE, {}),
    ("lattice_sweep_lower_then_upper_n500", "cli", 500, 3,
     ["lattice-sweep", "--k", "5"], {}),
)
# the cases that straddle the crossovers of cli.FLOAT_ROWS, FLOAT_CELLS
# and FLOAT_SIMPLICES, each run CROSSOVER_REPEAT times: below them a
# command computes on Python floats and never imports numpy, above them
# on numpy, so each side of each crossover is timed
CROSSOVER_REPEAT = 11
CROSSOVER_CASES = tuple(case + ({},) for case in (
    *((f"{label}_n{n}_d{d}", "cli", n, d, args)
      for n, d in ((50, 2), (100, 2), (200, 2), (400, 2), (600, 2),
                   (800, 2), (100, 8), (200, 8), (300, 8))
      for label, args in (
          ("check_k2", ["check", "--k", "2", "--eps", "0.01"]),
          ("anonymize_k2", ["anonymize", "--k", "2"]),
          ("sweep_k23_cap1", ["sweep", "--k", "2", "3", "--dim-cap", "1"]))),
    *((f"barcode_cap2_n{n}_d2", "cli", n, 2, ["barcode", "--dim-cap", "2"])
      for n in (50, 60, 70, 80)),
))
SCALE_CASES = tuple(case + ({},) for case in (
    *((f"{command}_k2_n{n}_d2", "cli", n, 2, [command, "--k", "2", *extra])
      for n in (1000, 5000, 20000)
      for command, extra in (("check", ["--eps", "0.01"]),
                             ("anonymize", []))),
    *((f"sweep_k23_cap1_n{n}_d2", "cli", n, 2,
       ["sweep", "--k", "2", "3", "--dim-cap", "1"])
      for n in (1000, 5000, 20000)),
    ("anonymize_k1_n1000_d2", "cli", 1000, 2, ["anonymize", "--k", "1"]),
    ("anonymize_k1_n1000_d5", "cli", 1000, 5, ["anonymize", "--k", "1"]),
    ("compute_regimes_k1235_n2000_d2", "regimes", 2000, 2, []),
    ("compute_regimes_k1235_n1000_d5", "regimes", 1000, 5, []),
    ("check_in_process_k1_eps0.013_n2000_d2", "in_check", 2000, 2,
     ["0.013"]),
    *((f"barcode_cap2_n{n}_d2", "cli", n, 2, ["barcode", "--dim-cap", "2"])
      for n in (100, 200, 228)),
    ("barcode_cap3_n48_d3", "cli", 48, 3, ["barcode", "--dim-cap", "3"]),
    ("meb_n5000_d5", "meb", 5000, 5, []),
    ("meb_n20000_d2", "meb", 20000, 2, []),
))


def write_rows(path: Path, case: tuple) -> None:
    """The case's table, its header the quasi-identifier columns, and for
    lattice-sweep its trees file beside it with the suffix .yaml."""
    _, _, n, d, args, _ = case
    if args[:1] == ["lattice-sweep"]:
        table = categorical_table(1, 0, n)
        path.write_text(table.csv)
        path.with_suffix(".yaml").write_text(table.trees_yaml)
        return
    rng = random.Random(n * 10 + d)
    path.write_text(",".join(f"x{j}" for j in range(d)) + "\n" + "".join(
        ",".join(repr(rng.random()) for _ in range(d)) + "\n"
        for _ in range(n)))


def run_once(src: Path, case: tuple, csv: Path, out: Path) -> dict:
    """The figures of one run of a case: its wall time, exit code and
    what its snippet reports; or the error line of a refusal, or the
    last stderr line of a run that failed."""
    _, kind, n, _, args, case_env = case
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(case_env)
    if kind in ("cli", "phases"):
        quasi = csv.read_text().partition("\n")[0].split(",")
        args = [*args, "--input", str(csv), "--quasi", *quasi,
                "--out", str(out)]
        if csv.with_suffix(".yaml").exists():
            args += ["--trees", str(csv.with_suffix(".yaml"))]
    elif n:
        args = [str(csv), *args]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + SNIPPETS[kind], *args],
        capture_output=True, text=True, env=env, timeout=1800)
    wall = time.perf_counter() - start
    exited = time.monotonic()
    # exit 1 with an error line is a refusal; a traceback also exits 1
    refusal = [ln for ln in proc.stderr.splitlines()
               if ln.startswith("error: ")]
    if proc.returncode == 1 and refusal:
        return {"refused": refusal[0]}
    try:
        figures = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        figures = None
    if proc.returncode not in (0, 2) or not isinstance(figures, dict):
        stderr = proc.stderr.splitlines() or ["no figures on stdout"]
        return {"failed": stderr[-1], "exit": proc.returncode}
    if "reported_at" in figures:
        # the child's time.monotonic() reads the same clock on Linux
        figures["exit_s"] = exited - figures.pop("reported_at")
    return {"wall_s": wall, "exit": proc.returncode, **figures}


def summary(by_run: list[dict]) -> dict:
    """The median of each figure over the runs of one case and side, and
    every run's figures; the first line recorded of a refused or failed
    case."""
    for outcome in ("refused", "failed"):
        lines = [r[outcome] for r in by_run if outcome in r]
        if lines:
            return {outcome: lines[0], "runs": by_run}
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
        (case, CROSSOVER_REPEAT) for case in CROSSOVER_CASES] + [
        (case, args.repeat) for case in SCALE_CASES]
    runs = {label: {case[0]: [] for case, _ in cases} for label in sides}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for case, _ in cases:
            if case[2]:
                write_rows(tmp / f"{case[0]}.csv", case)
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
        "repeat": {"fixed_cost": FIXED_REPEAT,
                   "crossover": CROSSOVER_REPEAT, "at_scale": args.repeat},
        "results": {label: {name: summary(by_run)
                            for name, by_run in by_case.items()}
                    for label, by_case in runs.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    failed = [f"{label} {name}" for label, by_case in runs.items()
              for name, by_run in by_case.items()
              if any("failed" in r for r in by_run)]
    if failed:
        sys.exit(f"failed: {', '.join(failed)}")


if __name__ == "__main__":
    main()
