"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed textual input (numbers, quaternions, matrices)."""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class BudgetError(RuntimeError):
    """An enumeration exceeded its budget of generator-search units."""
