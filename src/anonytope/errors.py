"""Exception types shared across the package, the readers that report an
undecodable or unparsable input file as one of them, and the choice
strings of the CLI's ``--strategy``.

Loading this module imports neither numpy nor PyYAML (``read_yaml``
imports PyYAML when called), so the CLI can load it before it knows
which subcommand runs.
"""

from contextlib import contextmanager

# lattice_search strategies
STRATEGY_LOWER_THEN_UPPER = "lower_then_upper"
STRATEGY_EXHAUSTIVE = "exhaustive"


class ContractViolation(ValueError):
    """An operation was called with arguments outside its contract."""


class IngestionError(ValueError):
    """Input data could not be parsed or validated."""


class FiltrationSizeError(RuntimeError):
    """The requested filtration would exceed the simplex budget."""


class InfeasibleError(RuntimeError):
    """No generalization radius achieves the requested anonymity."""


class TreeDefinitionError(ValueError):
    """A generalization tree definition violates its invariants."""


@contextmanager
def open_utf8(path, newline=None):
    """Open a text file for reading, less a leading UTF-8 byte-order
    mark, which spreadsheet tools write; bytes in it that are not UTF-8
    are an IngestionError naming the file, not a UnicodeDecodeError."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"{path}: not valid UTF-8 ({exc.reason})") from None


def read_yaml(path):
    """The YAML document in a UTF-8 file, parsed by yaml.safe_load.  A
    YAML error is an IngestionError on one line: path, line, column and
    problem, where PyYAML's own message spans several lines; so is a
    document nested deeper than PyYAML's recursive parser can go."""
    import yaml

    with open_utf8(path) as fh:
        try:
            return yaml.safe_load(fh)
        except RecursionError:
            raise IngestionError(f"{path}: nested too deeply to "
                                 f"parse") from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is None:
                message = " ".join(str(exc).split())
            else:
                context = f" ({exc.context})" if exc.context else ""
                message = (f"{mark.name}: line {mark.line + 1}, column "
                           f"{mark.column + 1}: {exc.problem}{context}")
            raise IngestionError(message) from None
