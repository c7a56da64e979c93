"""End-to-end benchmark of the anonytope CLI.

One closed-loop client keeps one answer outstanding: it writes a seeded
input, runs one ``anonytope`` subcommand in a fresh interpreter (a CLI
user pays for a fresh process on every command), waits for it to exit,
checks the output with ``checker`` (numpy only, independent of
anonytope), and starts the next, until ``--seconds`` have passed.
Input generation and checking are not timed, nor is a first warm-up
answer, which is checked like the others.

    python3 perfbench/run.py --workload sweep_clustered --seed 1 \\
        --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload

``BENCHMARK.json`` gates two workloads, ``sweep_clustered`` and
``lattice_exhaustive``, which between them reach every module.
``barcode_uniform`` and ``check_stream`` run only when named on the
command line (or with ``all``): on a small shared host the machine's
speed drifts in phases of about a minute, so a run must be about that
long to read steadily, and four such workloads do not fit the time a
full comparison may take.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median wall
time of a fresh interpreter running ``import anonytope.cli``, timed once
after every answer so that it spans the run like the answers do),
``answer_s`` (median wall time of one answer, spawn to exit) and
``peak_rss_mb`` (median over answers of each process's peak RSS); it
also prints the tail percentile of ``answer_s`` where ten samples lie
beyond it, and ``fail_ratio``.  ``--trace 1`` alternates plain and
traced answers (``tracing.py`` wraps the package's public functions)
and reports the per-layer metrics, with the traced/plain time ratio as
``trace.overhead_ratio``.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  An answer fails on an unexpected exit code,
a traceback, a timeout or a rejection by the checker.  Seeds:
``gen.DEV_SEED`` while writing a change, ``gen.HELDOUT_SEED`` to
re-check a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checker
import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PYTHON = sys.executable
# What the ``anonytope`` console script runs, plus a record of the
# process's own peak RSS (VmHWM): a child's rusage also counts the memory
# its parent had when it forked.
CLI = """import sys
from anonytope.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as f, open("peak_rss_kb", "w") as out:
        out.write(next(ln.split()[1] for ln in f if ln.startswith("VmHWM")))
sys.exit(code)
"""
TRACED_CLI = str(Path(__file__).resolve().parent / "tracing.py")
ANSWER_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or it cannot start)."""


@dataclass
class Answer:
    started_at: float                # time.perf_counter() at spawn
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    timed_out: bool
    traced: bool
    problems: list[str] = field(default_factory=list)
    kind: str | None = None          # check verdict, check_stream only
    undecided: bool = False
    layers: dict | None = None       # tracing.answer_totals, traced only
    self_test: list[str] | None = None  # corrupted outputs not rejected


def child_env() -> dict:
    """The CLI's environment: the sources on the path, the thread count
    left to its default, and bytecode caching on, as for an installed
    package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ANONYTOPE_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], cwd: Path, timeout: float = ANSWER_TIMEOUT_S):
    """Run argv to completion; returns (start, wall s, peak RSS MiB from
    rusage, exit code, stdout, stderr, timed out)."""
    fired = threading.Event()
    with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (t0, wall, usage.ru_maxrss / 1024.0, proc.returncode,
            (cwd / "stdout").read_text(errors="replace"),
            (cwd / "stderr").read_text(errors="replace"), fired.is_set())


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Job:
    """One answer's CLI arguments, its output check (answer, dir) ->
    problems, optionally a checker self-test (dir -> corrupted outputs
    not rejected), and the exit codes that are not failures."""

    args: list[str]
    check: Callable[[Answer, Path], list[str]]
    self_test: Callable[[Path], list[str]] | None = None
    ok_exit: tuple[int, ...] = (0,)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class SweepClustered:
    """The paper's headline call: exact regimes for k = 2, 3, 5 and the
    barcode, as JSON and SVG, of a fresh 26-row two-level clustered table
    per answer (so no cache of one input can help).  Dominated by three
    compute_regimes runs; the merge-tree sweep acts here."""

    ks = (2, 3, 5)
    rows = 26

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def make(self, i: int, d: Path) -> Job:
        inp = gen.clustered_table(self.seed, i, self.rows)
        (d / "in.csv").write_text(inp.csv)
        dist = checker.pairwise(checker.normalize(inp.points))

        def check(ans: Answer, d: Path):
            problems = checker.check_barcode(
                _read_json(d / "out" / "barcode.json"), dist)
            for k in self.ks:
                problems += checker.check_regimes(
                    _read_json(d / "out" / f"regimes_k{k}.json"), k, dist)
                problems += checker.check_svg(
                    (d / "out" / f"barcode_k{k}.svg").read_text())
            return problems

        def self_test(d: Path):
            return checker.self_test(d / "out" / "barcode.json", dist,
                                     d / "out" / "regimes_k2.json", 2)

        return Job(["sweep", "--input", "in.csv", "--quasi", *inp.quasi,
                    "--sensitive", "s", "--k", *map(str, self.ks),
                    "--format", "json", "svg", "--out", "out"],
                   check, self_test)


class BarcodeUniform:
    """Barcode only, no regime code: the dim_cap = 2 Cech filtration,
    reduction, JSON and SVG of 48 uniform rows in the unit cube (18,472
    simplices).  Filtration and reduction work acts here; check_stream
    and lattice_exhaustive must not move with it."""

    rows = 48

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def make(self, i: int, d: Path) -> Job:
        inp = gen.uniform_table(self.seed, i, self.rows, 3)
        (d / "in.csv").write_text(inp.csv)
        dist = checker.pairwise(checker.normalize(inp.points))

        def check(ans: Answer, d: Path):
            return (checker.check_barcode(
                        _read_json(d / "out" / "barcode.json"), dist)
                    + checker.check_svg(
                        (d / "out" / "barcode.svg").read_text()))

        def self_test(d: Path):
            return checker.self_test(d / "out" / "barcode.json", dist)

        return Job(["barcode", "--input", "in.csv", "--quasi", *inp.quasi,
                    "--dim-cap", "2", "--format", "json", "svg",
                    "--out", "out"], check, self_test)


class CheckStream:
    """Point queries against one fixed 300-row clustered table: k cycles
    over 2, 3, 5, 10 and eps is log-uniform on [1e-3, 1], giving achieved,
    component_too_small and component_not_simplex verdicts.  A change that
    speeds up the sweep but rebuilds it on every query loses here."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        inp = gen.clustered_table(seed, 0, 300)
        self.table = work / "table.csv"
        self.table.write_text(inp.csv)
        self.quasi = inp.quasi
        self.dim = inp.points.shape[1]
        self.dist = checker.pairwise(checker.normalize(inp.points))

    def make(self, i: int, d: Path) -> Job:
        k, eps = gen.check_query(self.seed, i)

        def check(ans: Answer, d: Path):
            problems, ans.kind, ans.undecided = checker.check_verdict(
                self.dist, self.dim, k, eps, ans.exit_code, ans.stdout,
                ans.stderr)
            return problems

        return Job(["check", "--input", str(self.table), "--quasi",
                    *self.quasi, "--k", str(k), "--eps", repr(eps)], check,
                   ok_exit=(0, 2))  # 2: not anonymous, if the checker agrees


class LatticeExhaustive:
    """Categorical only, no geometry: exhaustive search of the 60-node
    lattice of three balanced trees over a fresh 500-row table per
    answer, k cycling over 5, 20.  Encoding and pruning of the lattice
    search act here and nowhere else."""

    ks = (5, 20)
    rows = 500

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def make(self, i: int, d: Path) -> Job:
        inp = gen.categorical_table(self.seed, i, self.rows)
        (d / "in.csv").write_text(inp.csv)
        (d / "trees.yaml").write_text(inp.trees_yaml)
        k = self.ks[i % len(self.ks)]

        def check(ans: Answer, d: Path):
            return checker.check_lattice(
                _read_json(d / "out" / f"lattice_k{k}.json"), k, inp.codes,
                inp.branching)

        return Job(["lattice-sweep", "--input", "in.csv", "--quasi",
                    *inp.quasi, "--trees", "trees.yaml", "--k", str(k),
                    "--strategy", "exhaustive", "--out", "out"], check)


WORKLOADS = {
    "sweep_clustered": SweepClustered,
    "barcode_uniform": BarcodeUniform,
    "check_stream": CheckStream,
    "lattice_exhaustive": LatticeExhaustive,
}

END_TO_END = {"setup_s": "s", "answer_s": "s", "peak_rss_mb": "MiB"}


def _output_bytes(d: Path) -> tuple[int, int]:
    files = [p for p in (d / "out").rglob("*") if p.is_file()] \
        if (d / "out").is_dir() else []
    return (sum(p.stat().st_size for p in files),
            sum(p.stat().st_size for p in files if p.suffix == ".svg"))


def answer_once(wl, i: int, work: Path, traced: bool) -> Answer:
    """Run, time and check answer i; the first answer also runs the
    checker self-test on its outputs."""
    d = work / f"a{i}"
    d.mkdir()
    job = wl.make(i, d)
    prefix = str(d / "spans")
    argv = [PYTHON, TRACED_CLI, prefix, *job.args] if traced \
        else [PYTHON, "-c", CLI, *job.args]
    ans = Answer(*spawn(argv, d), traced=traced)
    own_peak = d / "peak_rss_kb"
    if own_peak.is_file():
        ans.rss_mb = int(own_peak.read_text()) / 1024.0
    if ans.timed_out:
        ans.problems.append(f"timed out after {ANSWER_TIMEOUT_S} s")
    elif "Traceback (most recent call last)" in ans.stderr:
        ans.problems.append("traceback: " + ans.stderr.strip()[-300:])
    elif ans.exit_code not in job.ok_exit:
        ans.problems.append(f"exit code {ans.exit_code}: "
                            + ans.stderr.strip()[-300:])
    else:
        try:
            ans.problems += job.check(ans, d)
        except Exception as exc:  # noqa: BLE001 - any unreadable output fails
            ans.problems.append(f"output rejected: {exc!r}")
    if traced and not ans.problems:
        ans.layers = tracing.answer_totals(prefix, ans.started_at)
        ans.layers["cli.output_bytes"], ans.layers["svg.bytes"] = \
            _output_bytes(d)
    if i == 0 and not ans.problems and job.self_test is not None:
        ans.self_test = job.self_test(d)
    shutil.rmtree(d)
    return ans


def time_import(work: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    _, wall, _, code, _, err, _ = spawn(
        [PYTHON, "-c", "import anonytope.cli"], work)
    if code != 0:
        raise BenchError("cannot import anonytope.cli: " + err.strip()[-500:])
    return wall


def tail_percentile(values: list[float]):
    """The highest of p99, p90, p75 with at least ten samples beyond it,
    as (p, value), or None."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        time_import(work)           # fills the bytecode cache, untimed
        wl = WORKLOADS[name](seed, work)
        # answer 0 warms the page cache and the bytecode of the modules
        # the CLI imports lazily; it is checked but not timed
        answers: list[Answer] = [answer_once(wl, 0, work, False)]
        setup: list[float] = []
        start = time.perf_counter()
        while (len(answers) < (3 if trace else 2)
               or time.perf_counter() - start < seconds):
            i = len(answers)
            answers.append(answer_once(wl, i, work, trace and i % 2 == 1))
            if not trace:
                setup.append(time_import(work))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return summarize(name, seed, trace, setup, answers, elapsed)


def summarize(name, seed, trace, setup, answers, elapsed) -> dict:
    self_test = answers[0].self_test
    failed = [a for a in answers if a.problems]
    timed = answers[1:]             # answer 0 is the untimed warm-up
    plain = [a.wall_s for a in timed if not a.traced]
    lines = [f"workload {name} seed {seed} trace {int(trace)}: "
             f"{len(timed)} timed answers in {elapsed:.1f} s after one "
             f"warm-up, {len(failed)} of {len(answers)} failed"]
    for a in failed[:5]:
        lines.append("  FAILED: " + "; ".join(a.problems)[:400])
    if self_test is not None:
        lines.append("  checker self-test: " + (
            "corrupted outputs rejected" if not self_test else
            "NOT rejected: " + ", ".join(self_test)))
    kinds = [a.kind for a in answers if a.kind]
    if kinds:
        mix = {k: kinds.count(k) for k in sorted(set(kinds))}
        lines.append("  verdict mix: " + ", ".join(
            f"{k} {v} ({v / len(kinds):.0%})" for k, v in mix.items())
            + f"; undecided by the MEB bounds: "
            f"{sum(a.undecided for a in answers)}")
    metrics = {}
    if not trace:
        # peak RSS depends on the input (the barcode's reduced columns),
        # so the median over a run's inputs is steadier than the largest
        rss = [a.rss_mb for a in timed]
        metrics = {
            "setup_s": statistics.median(setup),
            "answer_s": statistics.median(plain),
            "peak_rss_mb": statistics.median(rss),
        }
        tail = tail_percentile(plain)
        lines += [
            f"  setup_s        {metrics['setup_s']:.6g} s "
            f"(median of {len(setup)})",
            f"  answer_s       {metrics['answer_s']:.6g} s "
            f"(median of {len(plain)}; mean {statistics.fmean(plain):.6g} s, "
            f"fastest {min(plain):.6g} s)",
            f"  answer_s_p{tail[0]:<4} {tail[1]:.6g} s" if tail else
            f"  (no tail percentile of answer_s: {len(plain)} samples "
            f"leave fewer than 10 beyond p75)",
            f"  peak_rss_mb    {metrics['peak_rss_mb']:.6g} MiB (median of "
            f"{len(rss)}; largest {max(rss):.6g} MiB)",
        ]
    else:
        traced = [a for a in timed if a.traced and a.layers is not None]
        if traced:
            metrics = tracing.layer_metrics(
                [a.layers for a in traced], [a.wall_s for a in traced],
                plain)
        for key, value in metrics.items():
            lines.append(f"  {key:<44} {value:.6g} {tracing.PER_LAYER[key]}")
    lines.append(f"  fail_ratio     {len(failed) / len(answers):.6g} 1 "
                 f"({len(failed)} of {len(answers)} answers failed)")
    correct = not failed and not self_test and bool(metrics)
    return {
        "lines": lines,
        "result": {
            "correct": correct,
            "attempted": len(answers),
            "failed": len(failed),
            "metrics": {k: {"value": v,
                            "unit": END_TO_END.get(k) or tracing.PER_LAYER[k]}
                        for k, v in metrics.items()},
        },
    }


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"nproc {os.cpu_count()}, cpu {cpu}, ANONYTOPE_THREADS unset")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=gen.DEV_SEED)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "anonytope" / "cli.py").is_file():
        print(f"error: no anonytope sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(environment())
    results = {}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds,
                               bool(args.trace))
            print("\n".join(out["lines"]), flush=True)
            results[name] = out["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
