"""Small argument-validation helpers with consistent error messages.

Hot loops never call these; they guard public API boundaries only, per the
"make it work reliably, then optimise the bottleneck" workflow.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_positive",
    "check_positive_finite",
    "check_nonnegative",
    "check_limit",
    "check_fraction",
    "check_index",
    "check_integer",
    "check_probability_vector",
]


def check_integer(name: str, value) -> int:
    """Validate an integral scalar kwarg and return it as plain ``int``.

    Accepts Python ``int``, NumPy integers and integral floats
    (``2.0 -> 2``); rejects booleans (``True`` silently becoming ``1``
    is precisely the hazard) and non-integral values with a
    ``ValueError`` naming the offending argument — the guard against the
    ``int(...)`` coercions on public kwargs that used to truncate
    ``2.9 -> 2`` silently.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_positive(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_positive_finite(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` is a finite float ``> 0``.

    For rates and scales: a NaN rate turns every clock into NaN and an
    infinite one collapses every clock to 0, both without a word.
    """
    try:
        ok = math.isfinite(value) and value > 0
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def check_nonnegative(name: str, value) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_limit(name: str, value) -> float:
    """Resolve an optional step/round/tick budget kwarg to a float.

    ``None`` means no limit (``inf``); anything else must be ``>= 0``.
    A NaN budget would otherwise make every ``count > budget`` guard
    false and run unbounded without a word.
    """
    if value is None:
        return float("inf")
    limit = float(value)
    check_nonnegative(name, limit)
    return limit


def check_fraction(name: str, value, *, inclusive: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` lies in (0, 1) (or [0, 1])."""
    if inclusive:
        ok = 0.0 <= value <= 1.0
        rng = "[0, 1]"
    else:
        ok = 0.0 < value < 1.0
        rng = "(0, 1)"
    if not ok:
        raise ValueError(f"{name} must be in {rng}, got {value!r}")


def check_index(name: str, value, n: int) -> int:
    """Validate a vertex/particle index against size ``n`` and return it as int."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    idx = int(value)
    if idx != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= idx < n:
        raise ValueError(f"{name} must be in [0, {n}), got {idx}")
    return idx


def check_probability_vector(name: str, vec, *, atol: float = 1e-9) -> np.ndarray:
    """Validate that ``vec`` is a probability vector; return it as float array."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if np.any(arr < -atol):
        raise ValueError(f"{name} has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-9 * arr.size):
        raise ValueError(f"{name} must sum to 1, sums to {total}")
    return arr
