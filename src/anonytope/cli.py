"""Command-line front end: CSV in, regime reports / barcodes / anonymized
tables out.

Subcommands: sweep, check, anonymize, barcode, lattice-sweep.  Exit codes:
0 success, 1 input error, 2 the requested k is infeasible.

This is the one module that writes files, and the one home of their
JSON shapes: the library layers return plain records (regimes, a tuple
of bars, chain reports), and the commands below lay them out as
``regimes_k*.json``, ``barcode.json`` and ``lattice_k*.json``, and
write them beside the SVG that ``svg`` renders and the anonymized CSV.

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


def _quasi_columns(quasi, identifiers, sensitive) -> list[str]:
    """The quasi-identifiers of every subcommand: the --quasi columns
    that --identifiers and --sensitive leave, in --quasi order."""
    return [name for name in quasi if name not in (*identifiers, *sensitive)]


def ingest_csv(path, quasi, identifiers=(), sensitive=(),
               categorical: bool = False):
    """Parse the CSV into a NumericTable of its quasi-identifier columns
    (the ``quasi`` names less ``identifiers`` and ``sensitive``) in header
    order, or, if categorical, a list of string tuples over them in
    ``quasi`` order.  Every named column must exist, but only the
    quasi-identifiers' cells are read: the others may hold anything."""
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
    for name in (*quasi, *identifiers, *sensitive):
        if name not in header:
            raise IngestionError(f"column {name!r} not found in {path}")
    # the quasi-identifier cells of each row, in --quasi order, and
    # where they stand in the header
    quasi = _quasi_columns(quasi, identifiers, sensitive)
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


def _write_json(out_dir: Path, name: str, doc: dict) -> None:
    # json writes a tuple as an array, so records go in as they are
    path = _write(out_dir, name, json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


def _bar_json(bar) -> dict:
    """A bar's shape, numeric or categorical: death null for the
    infinite bar, weight steps [at, size] pairs, null above H0."""
    return {"dim": bar.dim, "birth": bar.birth, "death": bar.death,
            "weight_steps": bar.weight_steps}


def _write_barcode_json(out_dir: Path, bars, n_points: int) -> None:
    _write_json(out_dir, "barcode.json",
                {"bars": [_bar_json(b) for b in bars], "n_points": n_points})


def _chain_json(report) -> dict:
    """A chain of lattice_k*.json: its steps, then its H0 bars over path
    position."""
    steps = [{"levels": step.node, "n_classes": len(step.classes),
              "k_anonymous": step.k_anonymous, "classes": step.classes}
             for step in report.steps]
    return {"k": report.k, "steps": steps,
            "h0_bars": [_bar_json(b) for b in report.h0_bars]}


def cmd_sweep(config: argparse.Namespace) -> int:
    from .anonymity import compute_regimes
    from .geometry import normalize_dataset
    from .homology import barcode
    from .svg import render_barcode_svg

    data = normalize_dataset(ingest_csv(
        config.input, config.quasi, config.identifiers, config.sensitive))
    out_dir = Path(config.out)

    # first, so a table over the simplex budget is refused before any
    # regime is computed
    bars = barcode(data, config.dim_cap)
    results = [(k, compute_regimes(data, k)) for k in config.k]

    status = EXIT_OK
    for k, regimes in results:
        if "json" in config.formats:
            _write_json(out_dir, f"regimes_k{k}.json", {"k": k, "regimes": [
                {"eps_lo": r.eps_lo, "eps_hi": r.eps_hi,
                 "n_classes": r.n_classes, "classes": r.classes}
                for r in regimes]})
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
        _write_barcode_json(out_dir, bars, data.n_points)
    return status


def cmd_check(config: argparse.Namespace) -> int:
    from .anonymity import check_k_anonymity
    from .geometry import normalize_dataset

    k = config.k[0]
    data = normalize_dataset(ingest_csv(
        config.input, config.quasi, config.identifiers, config.sensitive))
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


def cmd_anonymize(config: argparse.Namespace) -> int:
    from .anonymity import compute_regimes, generalize_table, minimal_epsilon
    from .geometry import normalize_dataset

    k = config.k[0]
    table = ingest_csv(config.input, config.quasi, config.identifiers,
                       config.sensitive)
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


def cmd_barcode(config: argparse.Namespace) -> int:
    from .geometry import normalize_dataset
    from .homology import barcode
    from .svg import render_barcode_svg

    data = normalize_dataset(ingest_csv(
        config.input, config.quasi, config.identifiers, config.sensitive))
    bars = barcode(data, config.dim_cap)
    out_dir = Path(config.out)
    if "json" in config.formats:
        _write_barcode_json(out_dir, bars, data.n_points)
    if "svg" in config.formats:
        svg = render_barcode_svg(bars, None, None)
        path = _write(out_dir, "barcode.svg", svg)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_lattice_sweep(config: argparse.Namespace) -> int:
    from .categorical import lattice_search, load_trees

    k = config.k[0]
    if not config.trees:
        raise IngestionError("lattice-sweep requires --trees")
    # trees are matched to the quasi-identifiers by name, in --quasi order
    by_name = {str(tree.attribute): tree
               for tree in load_trees(config.trees)}
    quasi = _quasi_columns(config.quasi, config.identifiers,
                           config.sensitive)
    for name in quasi:
        if name not in by_name:
            raise IngestionError(
                f"no tree for --quasi column {name!r} in {config.trees}; "
                f"its trees are " + ", ".join(map(repr, by_name)))
    trees = [by_name[name] for name in quasi]
    rows = ingest_csv(config.input, config.quasi, config.identifiers,
                      config.sensitive, categorical=True)
    result = lattice_search(rows, trees, k, config.strategy)
    _write_json(Path(config.out), f"lattice_k{k}.json", {
        "k": k, "strategy": config.strategy, "nodes": result.nodes,
        "upper_chain_skipped": result.upper_chain_skipped,
        "note": result.note,
        "chains": [_chain_json(report) for report in result.reports]})
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
    sp.add_argument("--input", default="", help="input CSV path")
    sp.add_argument("--quasi", nargs="+", default=[],
                    help="quasi-identifier column names")
    sp.add_argument("--identifiers", nargs="*", default=[])
    sp.add_argument("--sensitive", nargs="*", default=[])
    sp.add_argument("--k", nargs="+", type=int, default=[2])
    sp.add_argument("--eps", type=float)
    sp.add_argument("--dim-cap", type=int, dest="dim_cap", default=2)
    sp.add_argument("--trees", help="tree definition YAML")
    sp.add_argument("--strategy", default=STRATEGY_LOWER_THEN_UPPER,
                    choices=[STRATEGY_LOWER_THEN_UPPER, STRATEGY_EXHAUSTIVE])
    sp.add_argument("--out", default=".", help="output directory")
    # None: not given, so build_config does not check it
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


def _config_file_args(path) -> argparse.Namespace:
    """The flags the YAML file gives, over every other flag's default:
    each key is read as the flag of that name (``dim_cap`` or
    ``dim-cap``), with the flag's own type, nargs and choices."""
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
    return parser.parse_args(argv)


# each subcommand and the --format values it writes
_COMMANDS = {
    "sweep": (cmd_sweep, ("json", "svg")),
    "check": (cmd_check, ()),
    "anonymize": (cmd_anonymize, ("csv",)),
    "barcode": (cmd_barcode, ("json", "svg")),
    "lattice-sweep": (cmd_lattice_sweep, ("json",)),
}


def build_config(argv=None) -> argparse.Namespace:
    """The run's configuration: the flags of argv, over the values of
    its --config file, over each flag's default.  argparse sets a default
    only where the namespace it fills has no value yet, so argv parsed
    into the file's namespace keeps every value that argv does not give."""
    parser = _parser()
    config = parser.parse_args(argv)
    if config.config:
        config = parser.parse_args(argv, _config_file_args(config.config))
    if not config.input:
        raise IngestionError("no input file given (--input)")
    if not config.quasi:
        raise IngestionError("quasi-identifier column set is empty")
    for name in config.quasi:
        if config.quasi.count(name) > 1:
            raise IngestionError(f"column {name!r} is named twice in "
                                 f"--quasi")
    if any(k < 1 for k in config.k):
        raise IngestionError("k must be >= 1")
    # the default, json, is not what check or anonymize writes
    if config.formats is None:
        config.formats = ["json"]
    else:
        writes = _COMMANDS[config.command][1]
        unwritten = " ".join(f for f in config.formats if f not in writes)
        if unwritten:
            what = "--format " + " or ".join(writes) if writes else "no file"
            raise IngestionError(f"{config.command} writes {what}, "
                                 f"not {unwritten}")
    # these commands answer one k; a second one must not be dropped
    if len(config.k) > 1 and config.command not in ("sweep", "barcode"):
        raise IngestionError(f"{config.command} takes one --k value, got "
                             + " ".join(map(str, config.k)))
    for k in config.k:
        if config.k.count(k) > 1:
            raise IngestionError(f"k={k} is named twice in --k")
    return config


def main(argv=None) -> int:
    # before numpy loads, or OpenBLAS starts nproc - 1 busy-waiting workers
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        config = build_config(argv)
        return _COMMANDS[config.command][0](config)
    except (IngestionError, ContractViolation, TreeDefinitionError,
            FiltrationSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
