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


def _power(cap: int, base: int, k: int):
    """base^k, or None once k passes the cap's bit length, where base >= 2
    gives base^k >= 2^k > cap without taking the power (k = 1 is base)."""
    return base ** k if k <= max(cap.bit_length(), 1) else None


def within_cap(cap: int, base: int, k: int = 1) -> bool:
    """base^k <= cap, by the rule of `capped`."""
    size = _power(cap, base, k)
    return size is not None and size <= cap


def capped(what: str, cap: int, base: int, k: int = 1) -> int:
    """base^k, or CapExceeded stating the size of `what` (None past the
    cap's bit length), before anything of that size is built."""
    size = _power(cap, base, k)
    if size is None or size > cap:
        shown = base if k == 1 else f"{base}^{k}"
        raise CapExceeded(f"{what}: {shown}, cap is {cap}", size=size)
    return size


class SurveyViolation(LabError):
    """A proven inequality failed on a survey instance (an implementation bug)."""

    exit_code = 1

    def __init__(self, message, seed=None, check=None):
        super().__init__(message)
        self.seed = seed
        self.check = check
