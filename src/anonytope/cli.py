"""Command-line front end: CSV in, regime reports / barcodes / anonymized
tables out.

Subcommands: sweep, check, anonymize, barcode, lattice-sweep.  Exit codes:
0 success, 1 input error, 2 the requested k is infeasible.

Each subcommand imports the modules it needs when it runs: the numeric
ones (and numpy) for sweep, check, anonymize and barcode, the
categorical one for lattice-sweep, and PyYAML only to read a ``--config``
file or a ``--trees`` file outside the plain layout of
``categorical.load_trees``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .errors import (STRATEGY_EXHAUSTIVE, STRATEGY_LOWER_THEN_UPPER,
                     ContractViolation, FiltrationSizeError, IngestionError,
                     InfeasibleError, TreeDefinitionError, open_utf8,
                     read_yaml)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2


class RunConfig:
    """The settings of one run, one field per CLI flag.  A plain class:
    ``dataclasses`` would import ``inspect``, which costs a numpy-free
    ``lattice-sweep`` more than its lattice search."""

    def __init__(self, input: str = "", quasi: list[str] | None = None,
                 identifiers: list[str] | None = None,
                 sensitive: list[str] | None = None,
                 k: list[int] | None = None, eps: float | None = None,
                 dim_cap: int = 2, trees: str | None = None,
                 strategy: str = STRATEGY_LOWER_THEN_UPPER, out: str = ".",
                 formats: list[str] | None = None):
        self.input = input
        self.quasi = [] if quasi is None else quasi
        self.identifiers = [] if identifiers is None else identifiers
        self.sensitive = [] if sensitive is None else sensitive
        self.k = [2] if k is None else k
        self.eps = eps
        self.dim_cap = dim_cap
        self.trees = trees
        self.strategy = strategy
        self.out = out
        self.formats = ["json"] if formats is None else formats

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        return "RunConfig(" + ", ".join(
            f"{name}={value!r}" for name, value in vars(self).items()) + ")"

    def validate(self):
        if not self.quasi:
            raise IngestionError("quasi-identifier column set is empty")
        for name in self.quasi:
            if self.quasi.count(name) > 1:
                raise IngestionError(f"column {name!r} is named twice in "
                                     f"--quasi")
        if any(k < 1 for k in self.k):
            raise IngestionError("k must be >= 1")

    def quasi_columns(self) -> list[str]:
        """The quasi-identifiers of every subcommand: the --quasi columns
        that --identifiers and --sensitive leave, in --quasi order."""
        others = self.identifiers + self.sensitive
        return [name for name in self.quasi if name not in others]


def ingest_csv(path, config: RunConfig, categorical: bool = False):
    """Parse the CSV into a NumericTable of its quasi-identifier columns
    (config.quasi_columns()) in header order, or, if categorical, a list
    of string tuples over them in --quasi order.  Only their cells are
    read: a column that --identifiers or --sensitive leaves out may
    hold anything."""
    try:
        with open_utf8(path, newline="") as fh:
            records = [r for r in csv.reader(fh) if r]  # blank lines skipped
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from None
    if not records:
        raise IngestionError(f"{path}: empty file, no header row")
    header = [h.strip() for h in records[0]]
    for name in header:
        if header.count(name) > 1:
            raise IngestionError(f"{path}: column {name!r} is named twice "
                                 f"in the header")
    for i, record in enumerate(records[1:], start=1):
        if len(record) != len(header):
            raise IngestionError(f"row {i} has {len(record)} fields, "
                                 f"header has {len(header)}")
    if len(records) == 1:
        raise IngestionError(f"{path}: no data rows")
    for name in config.quasi + config.identifiers + config.sensitive:
        if name not in header:
            raise IngestionError(f"column {name!r} not found in {path}")
    # the quasi-identifier cells of each row, in --quasi order, and
    # where they stand in the header
    quasi = config.quasi_columns()
    if not quasi:
        raise IngestionError("no quasi-identifier columns declared")
    at = [header.index(name) for name in quasi]
    cells = [[record[j].strip() for j in at] for record in records[1:]]
    if categorical:
        return [tuple(row) for row in cells]

    from .geometry import NumericTable
    values = []
    for i, row in enumerate(cells, start=1):
        values.append(parsed := [])
        for name, v in zip(quasi, row):
            try:
                parsed.append(float(v))
            except ValueError:
                raise IngestionError(f"row {i}, column {name!r}: cannot "
                                     f"parse {v!r} as a number") from None
    # the table keeps its columns in header order
    cols = sorted(range(len(quasi)), key=at.__getitem__)
    return NumericTable([quasi[c] for c in cols],
                        [[row[c] for c in cols] for row in values])


def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _fmt_interval(lo: float, hi: float) -> str:
    if lo == hi:
        return _fmt_value(lo)
    return f"[{_fmt_value(lo)}-{_fmt_value(hi)}]"


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(text, encoding="utf-8")
    return target


def _one_k(config: RunConfig, command: str) -> int:
    if len(config.k) != 1:
        raise IngestionError(
            f"{command} takes one --k value, got "
            + " ".join(map(str, config.k)))
    return config.k[0]


def cmd_sweep(config: RunConfig) -> int:
    from .anonymity import compute_regimes, regime_report
    from .geometry import normalize_dataset
    from .homology import barcode, barcode_json
    from .svg import render_barcode_svg

    table = ingest_csv(config.input, config)
    data = normalize_dataset(table)
    out_dir = Path(config.out)

    # first, so a table over the simplex budget is refused before any
    # regime is computed
    bars = barcode(data, config.dim_cap)
    bc_json = barcode_json(bars, data.n_points)
    results = [(k, compute_regimes(data, k)) for k in config.k]

    status = EXIT_OK
    for k, regimes in results:
        report = regime_report(k, regimes)
        if "json" in config.formats:
            path = _write(out_dir, f"regimes_k{k}.json",
                          json.dumps(report, indent=2) + "\n")
            print(f"wrote {path}")
        if "svg" in config.formats:
            svg = render_barcode_svg(bars, regimes, k)
            path = _write(out_dir, f"barcode_k{k}.svg", svg)
            print(f"wrote {path}")
        if not regimes:
            print(f"k={k}: no feasible generalization", file=sys.stderr)
            status = EXIT_INFEASIBLE
        else:
            spans = ", ".join(
                f"[{r.eps_lo:.6g}, "
                f"{'inf' if r.eps_hi is None else format(r.eps_hi, '.6g')})"
                f" with {r.n_classes} classes" for r in regimes)
            print(f"k={k}: {len(regimes)} regime(s): {spans}")
    if "json" in config.formats:
        path = _write(out_dir, "barcode.json",
                      json.dumps(bc_json, indent=2) + "\n")
        print(f"wrote {path}")
    return status


def cmd_check(config: RunConfig) -> int:
    from .anonymity import check_k_anonymity
    from .geometry import normalize_dataset

    k = _one_k(config, "check")
    table = ingest_csv(config.input, config)
    data = normalize_dataset(table)
    if config.eps is None:
        raise IngestionError("check requires --eps")
    # first, so a bad eps is an input error even when k exceeds the rows
    verdict = check_k_anonymity(data, config.eps, k)
    if k > data.n_points:
        print(f"k exceeds row count ({k} > {data.n_points})",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    if verdict.achieved:
        print(f"{k}-anonymous at eps={config.eps:.6g} with "
              f"{len(verdict.classes)} classes: "
              + " ".join(str(list(c)) for c in verdict.classes))
        return EXIT_OK
    kind, rows = verdict.failure_reason
    shown = ", ".join(map(str, rows[:10])) + (", ..." if rows[10:] else "")
    print(f"not {k}-anonymous at eps={config.eps:.6g}: {kind} [{shown}] "
          f"(size {len(rows)})", file=sys.stderr)
    return EXIT_INFEASIBLE


def cmd_anonymize(config: RunConfig) -> int:
    from .anonymity import compute_regimes, generalize_table, minimal_epsilon
    from .geometry import normalize_dataset

    k = _one_k(config, "anonymize")
    table = ingest_csv(config.input, config)
    data = normalize_dataset(table)
    try:
        regime = minimal_epsilon(data, k)
    except InfeasibleError as exc:
        # only k > N is infeasible, and every k <= N has the all-rows
        # regime, so the nearest achievable k is N
        near = compute_regimes(data, data.n_points)[0]
        print(f"{exc}\nnearest achievable: {data.n_points}-anonymity at "
              f"eps >= {near.eps_lo:.6g} with {near.n_classes} classes",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    gen = generalize_table(table, regime)
    lines = [",".join(gen.qi_names)]
    for row in gen.rows:
        lines.append(",".join(_fmt_interval(lo, hi) for lo, hi in row))
    text = "\n".join(lines) + "\n"
    path = _write(Path(config.out), f"anonymized_k{k}.csv", text)
    print(f"wrote {path} (eps={regime.eps_lo:.6g}, "
          f"{regime.n_classes} classes)")
    return EXIT_OK


def cmd_barcode(config: RunConfig) -> int:
    from .geometry import normalize_dataset
    from .homology import barcode, barcode_json
    from .svg import render_barcode_svg

    table = ingest_csv(config.input, config)
    data = normalize_dataset(table)
    bars = barcode(data, config.dim_cap)
    out_dir = Path(config.out)
    if "json" in config.formats:
        path = _write(out_dir, "barcode.json",
                      json.dumps(barcode_json(bars, data.n_points),
                                 indent=2) + "\n")
        print(f"wrote {path}")
    if "svg" in config.formats:
        svg = render_barcode_svg(bars, None, None)
        path = _write(out_dir, "barcode.svg", svg)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_lattice_sweep(config: RunConfig) -> int:
    from .categorical import chain_report_json, lattice_search, load_trees

    k = _one_k(config, "lattice-sweep")
    if not config.trees:
        raise IngestionError("lattice-sweep requires --trees")
    # trees are matched to the quasi-identifiers by name, in --quasi order
    by_name = {str(tree.attribute): tree
               for tree in load_trees(config.trees)}
    quasi = config.quasi_columns()
    for name in quasi:
        if name not in by_name:
            raise IngestionError(
                f"no tree for --quasi column {name!r} in {config.trees}; "
                f"its trees are " + ", ".join(map(repr, by_name)))
    trees = [by_name[name] for name in quasi]
    rows = ingest_csv(config.input, config, categorical=True)
    result = lattice_search(rows, trees, k, config.strategy)
    out_dir = Path(config.out)
    payload = {
        "k": k,
        "strategy": config.strategy,
        "nodes": [list(n) for n in result.nodes],
        "upper_chain_skipped": result.upper_chain_skipped,
        "note": result.note,
        "chains": [chain_report_json(r) for r in result.reports],
    }
    path = _write(out_dir, f"lattice_k{k}.json",
                  json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    if result.nodes:
        print(f"k={k}: achieved at levels "
              + ", ".join(str(list(n)) for n in result.nodes))
        return EXIT_OK
    print(result.note, file=sys.stderr)
    return EXIT_INFEASIBLE


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as an input error instead of exiting with 2,
    which means "infeasible" here."""

    def error(self, message):
        raise IngestionError(f"{self.prog}: {message}")


def _add_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", help="input CSV path")
    sp.add_argument("--quasi", nargs="+",
                    help="quasi-identifier column names")
    sp.add_argument("--identifiers", nargs="*", default=None)
    sp.add_argument("--sensitive", nargs="*", default=None)
    sp.add_argument("--k", nargs="+", type=int)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--dim-cap", type=int, dest="dim_cap")
    sp.add_argument("--trees", help="tree definition YAML")
    sp.add_argument("--strategy",
                    choices=[STRATEGY_LOWER_THEN_UPPER, STRATEGY_EXHAUSTIVE])
    sp.add_argument("--out", help="output directory")
    sp.add_argument("--format", nargs="+", dest="formats",
                    choices=["json", "csv", "svg"])


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="anonytope",
        description="k-anonymity tradeoff analysis via anonymity complexes")
    p.add_argument("command", choices=list(_COMMANDS))
    p.add_argument("--config", help="YAML file mirroring all flags")
    _add_flags(p)
    return p


def _config_file_args(path) -> dict:
    """The YAML file's values, each key read as the flag of that name
    (``dim_cap`` or ``dim-cap``) with the flag's own type, nargs and
    choices."""
    spec = read_yaml(path) or {}
    if not isinstance(spec, dict):
        raise IngestionError(f"{path}: expected a mapping of flags to values")
    argv = []
    for key, value in spec.items():
        if not isinstance(value, list):
            value = [] if value is None else [value]
        argv += ["--" + str(key).replace("_", "-"), *map(str, value)]
    parser = _Parser(prog=str(path), add_help=False)
    _add_flags(parser)
    return vars(parser.parse_args(argv))


# each subcommand and the --format values it writes
_COMMANDS = {
    "sweep": (cmd_sweep, ("json", "svg")),
    "check": (cmd_check, ()),
    "anonymize": (cmd_anonymize, ("csv",)),
    "barcode": (cmd_barcode, ("json", "svg")),
    "lattice-sweep": (cmd_lattice_sweep, ("json",)),
}


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    file_values = _config_file_args(args.config) if args.config else {}
    for values in (file_values, vars(args)):    # flags override the file
        for key, value in values.items():
            if key not in ("config", "command") and value is not None:
                setattr(config, key, value)
    if not config.input:
        raise IngestionError("no input file given (--input)")
    config.validate()
    # only a --format given by flag or file: the default, json, is not
    # what check or anonymize writes
    if args.formats is not None or file_values.get("formats") is not None:
        writes = _COMMANDS[args.command][1]
        unwritten = " ".join(f for f in config.formats if f not in writes)
        if unwritten:
            what = "--format " + " or ".join(writes) if writes else "no file"
            raise IngestionError(f"{args.command} writes {what}, "
                                 f"not {unwritten}")
    return config


def main(argv=None) -> int:
    # before numpy loads, or OpenBLAS starts nproc - 1 busy-waiting workers
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _parser().parse_args(argv)
        config = build_config(args)
        return _COMMANDS[args.command][0](config)
    except (IngestionError, ContractViolation, TreeDefinitionError,
            FiltrationSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
