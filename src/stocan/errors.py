"""Exception types shared across the package."""


class StocanError(Exception):
    """Base class for all package errors."""


class ValidationError(StocanError):
    """Invalid input data. ``path`` names the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class CapacityError(StocanError):
    """An exhaustive computation would exceed its enumeration guard."""
