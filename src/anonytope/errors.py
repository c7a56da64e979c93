"""Exception types shared across the package."""


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
