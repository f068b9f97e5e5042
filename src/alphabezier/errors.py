"""Exception types shared across the library, and the one count check."""

import math
import operator


class ArgumentError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """A parameter lies outside the interval it must belong to."""


class SingularPointError(ArithmeticError):
    """Curvature was requested at a point where the first derivative vanishes."""


class SolveError(RuntimeError):
    """A linear system could not be solved to the required accuracy."""


class ValidationError(ValueError):
    """A CLI job configuration failed validation."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _check_count(name: str, value, lo: int, hi: float = math.inf) -> int:
    """``value`` as a Python int in lo..hi; Python and numpy integers pass, and bool,
    floats, strings or a value out of range raise ArgumentError naming ``name``."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or not lo <= n <= hi:
        wanted = (f"an integer in {lo}..{hi}" if hi < math.inf else
                  "a positive integer" if lo == 1 else f"an integer of at least {lo}")
        raise ArgumentError(f"{name} must be {wanted}, got {value!r}")
    return n
