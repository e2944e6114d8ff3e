"""Exception types shared across the package, and the argument checks that
raise them: each rule on an argument is checked by one function here."""

import numpy as np


class GswfError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(GswfError, ValueError):
    """An input violates a documented precondition or invariant."""


class CapacityError(GswfError, ValueError):
    """A request exceeds a configured size ceiling (arity, budget, memory)."""


class HypothesisViolation(GswfError, ValueError):
    """A verification check was invoked outside the hypothesis it assumes."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _shown(value) -> str:
    """``repr(value)``, but an int past Python's int-to-str digit limit by its bit length."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (list, tuple)):  # shown as a list
            return f"[{', '.join(map(_shown, value))}]"
        return f"{'-' if value < 0 else ''}<int of {value.bit_length()} bits>"


def float_array(name: str, value) -> np.ndarray:
    """``value`` as a new float64 array; ValidationError for an int too large for a float."""
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValidationError(f"{name} must lie within the float range, got {_shown(value)}") from None


def check_count(name: str, value, low: int = 1, high: int | None = None) -> None:
    """Refuse a count or seed that is not an integer of at least ``low``
    with ValidationError, and one above ``high`` with CapacityError."""
    if not is_integer(value) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {_shown(value)}")
    if high is not None and value > high:
        # int(): the message shows a numpy count as its str, 11, not np.int64(11)
        raise CapacityError(f"{name} limited to {high}, got {_shown(int(value))}")


def check_range(name: str, value, low: int, high: int) -> None:
    """Refuse a value that is not an integer (a bool is not one) in ``low..high``."""
    if not is_integer(value) or not low <= value <= high:
        raise ValidationError(f"{name} must be an integer in {low}..{high}, got {_shown(value)}")


def check_odd(name: str, value) -> None:
    """Refuse an arity that is not an odd integer >= 1, as majority needs."""
    if not is_integer(value) or value < 1 or value % 2 == 0:
        raise ValidationError(f"{name} must be an odd integer >= 1, got {_shown(value)}")


def check_unit(name: str, x) -> None:
    """Refuse a noise or correlation parameter outside ``[-1, 1]`` (NaN too)."""
    if not -1.0 <= x <= 1.0:
        raise ValidationError(f"{name} must lie in [-1, 1], got {_shown(x)}")


def check_open_unit(name: str, x) -> None:
    """Refuse a value outside the open interval ``(0, 1)`` (NaN too)."""
    if not 0.0 < x < 1.0:
        raise ValidationError(f"{name} must be in (0, 1), got {_shown(x)}")


def check_below_half(name: str, x) -> None:
    """Refuse a fraction outside the open interval ``(0, 1/2)`` (NaN and None too)."""
    if x is None or not 0.0 < x < 0.5:
        raise ValidationError(f"{name} must lie strictly between 0 and 1/2, got {_shown(x)}")


def check_same_arity(*ns) -> None:
    """Refuse arities ``ns`` that are not all equal: one triple's rules share one electorate."""
    if len(set(ns)) > 1:
        raise ValidationError(f"arities differ: {', '.join(map(str, ns))}")


def check_objective(objective: str) -> bool:
    """Refuse an objective other than ``min_w`` and ``max_w``; True for ``max_w``."""
    if objective not in ("min_w", "max_w"):
        raise ValidationError(f"objective must be min_w or max_w, got {_shown(objective)}")
    return objective == "max_w"
