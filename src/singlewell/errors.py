"""Exception types shared across the package."""

__all__ = ["InvariantError", "NumericsError"]


class InvariantError(Exception):
    """A physical or structural invariant of the model is violated."""


class NumericsError(Exception):
    """A numerical routine failed or produced a corrupted result."""
