"""The package's one exception type. Refused input is a plain `ValueError`, raised
where it enters; `NumericsError` marks a numerical failure. The CLI reads its
exit code off the type of the outermost exception."""

__all__ = ["NumericsError"]


class NumericsError(Exception):
    """A numerical routine failed or produced a corrupted result."""
