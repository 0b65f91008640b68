"""Exceptions shared across the lab; exit codes match the CLI contract."""


class LabError(Exception):
    """Base class; carries the CLI exit code."""

    exit_code = 1


class InputError(LabError):
    """Invalid argument, malformed file, or unsupported regime."""

    exit_code = 2


def json_int(val, what: str) -> int:
    """val as a plain int; JSON true/false and every non-integer are refused."""
    if isinstance(val, bool) or not isinstance(val, int):
        raise InputError(f"{what} must be an integer, got {val!r}")
    return val


class CapExceeded(LabError):
    """A configured enumeration/size cap would be exceeded.

    The message always states the computed size so the caller can judge
    whether raising the cap is reasonable.
    """

    exit_code = 3

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


class SurveyViolation(LabError):
    """A proven inequality failed on a survey instance (an implementation bug)."""

    exit_code = 1

    def __init__(self, message, seed=None, check=None):
        super().__init__(message)
        self.seed = seed
        self.check = check
