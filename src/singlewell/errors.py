"""`NumericsError` marks a numerical failure; refused input is a plain `ValueError`, raised where
it enters; a failed sweep point is a `sweeps.SweepPointError`, naming the point and chaining its
cause. The CLI reads its exit code off the type of the outermost exception."""

__all__ = ["NumericsError"]


class NumericsError(Exception):
    """A numerical routine failed or produced a corrupted result."""
