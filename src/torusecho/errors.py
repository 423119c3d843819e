"""Exception types shared across the package.

An argument rule is a `*_problem` function in the module that owns the
argument: it returns None, or a (kind, message) problem whose kind is
InvalidInputError or, beyond a cost guard, CapacityError. Every integer
count goes through `dynamics.count_problem`, with its owner's ceiling.
"""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class CapacityError(RuntimeError):
    """A request exceeds a hard cost guard (problem size, orbit length)."""


class ConfigValidationError(ValueError):
    """An experiment config is invalid; carries every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def raise_problem(problem) -> None:
    """Raise a rule's (kind, message) problem; None passes."""
    if problem is not None:
        kind, message = problem
        raise kind(message)
