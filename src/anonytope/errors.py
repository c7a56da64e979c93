"""Exception types shared across the package, and the text reader that
reports an undecodable input file as one of them."""

from contextlib import contextmanager


class ContractViolation(ValueError):
    """An operation was called with arguments outside its contract."""


class IngestionError(ValueError):
    """Input data could not be parsed or validated."""


class FiltrationSizeError(RuntimeError):
    """The requested filtration would exceed the simplex budget, or the
    table's row pairs the pairwise budget."""


class InfeasibleError(RuntimeError):
    """No generalization radius achieves the requested anonymity."""


class TreeDefinitionError(ValueError):
    """A generalization tree definition violates its invariants."""


@contextmanager
def open_utf8(path, newline=None):
    """Open a text file for reading; bytes in it that are not UTF-8 are
    an IngestionError naming the file, not a UnicodeDecodeError."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"{path}: not valid UTF-8 ({exc.reason})") from None
