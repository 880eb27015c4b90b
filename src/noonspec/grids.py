"""The one uniform axis type, for frequencies and delays alike.

Units are fixed package-wide: ordinary frequency in THz, time in ps, so
that ``nu * t`` is dimensionless and no 2*pi bookkeeping is needed. A
frequency axis and a delay axis differ only in their unit, so both are a
:class:`UniformGrid`; ``FrequencyGrid`` and ``TimeGrid`` name the same
class where a signature wants to say which axis it expects.

Every quantity on an axis is a column with one entry per grid point, and
every series type checks its columns with one rule, :func:`_column`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUniformGridError


@dataclass(frozen=True)
class UniformGrid:
    """Uniform axis ``start + k*step`` for k in [0, count), in THz or ps."""

    start: float
    step: float
    count: int

    def __post_init__(self):
        if not np.isfinite(self.start):
            raise ValueError("grid start must be finite")
        if not (self.step > 0 and np.isfinite(self.step)):
            raise ValueError(f"grid step must be positive, got {self.step}")
        if int(self.count) != self.count or self.count < 2:
            raise ValueError(f"grid count must be an integer >= 2, got {self.count}")
        if not np.isfinite(self.stop):
            raise ValueError(f"grid points must be finite, the last is {self.stop}")
        # np.spacing overflows at the largest float; 2**1023 shares its binade
        if self.step < np.spacing(min(max(abs(self.start), abs(self.stop)), 2.0**1023)):
            # points this close round onto each other: the axis is degenerate
            raise ValueError(f"grid step {self.step} is below the float spacing of its points")

    @property
    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def stop(self) -> float:
        """Last grid point, ``start + (count-1)*step``."""
        return self.start + (self.count - 1) * self.step

    @property
    def window(self) -> float:
        """Total scanned span ``count*step``; 1/window is the transform resolution."""
        return self.count * self.step

    def index_of(self, x: float) -> int:
        """Index of the grid point nearest to ``x``."""
        return int(np.clip(round((x - self.start) / self.step), 0, self.count - 1))

    def __len__(self) -> int:
        return self.count


FrequencyGrid = UniformGrid
TimeGrid = UniformGrid


def _column(owner, field: str, shape: tuple, dtype=float, low=None, high=None) -> None:
    """Check ``owner.<field>`` and store it back as a read-only ``dtype`` copy.

    The column must have ``shape`` and finite values within ``[low, high]``;
    either bound may be None, a number or an array broadcast against the
    column. An integer ``dtype`` takes a float column only when every value
    is integral and at most 2**53 in magnitude. Every message names the
    owner's type and the field.
    """
    name = f"{type(owner).__name__} {field}"
    values = np.asarray(getattr(owner, field))
    if np.dtype(dtype).kind in "iu":
        if values.dtype.kind == "f" and np.all(
            (values == np.round(values)) & (np.abs(values) <= 2**53)
        ):
            values = values.astype(dtype)
        if values.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers")
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    object.__setattr__(owner, field, column)
    if column.shape != shape:
        raise ValueError(f"{name} needs one entry per grid point")
    if not np.all(np.isfinite(column)):
        raise ValueError(f"{name} must be finite")
    if low is not None and np.any(column < low):
        raise ValueError(f"{name} must be at least {_bound(low)}")
    if high is not None and np.any(column > high):
        raise ValueError(f"{name} must be at most {_bound(high)}")


def _bound(bound) -> str:
    return f"{bound:g}" if np.ndim(bound) == 0 else "its bound at each point"


def infer_grid(values) -> UniformGrid:
    """The uniform axis whose points are ``values``, as read from disk.

    Of three candidate steps (the endpoint step, its shortest decimal
    within the endpoints' rounding, the first difference) the first whose
    ``start + step*arange(n)`` reproduces ``values`` bit for bit is taken.
    Failing all three, :func:`_bisect_step` searches the float64 steps
    around the endpoint step for one that does. Failing that too, the
    endpoint step stands if every difference matches it to 1e-9 of
    max(step, 1). Raises ``NonUniformGridError`` for an uneven axis and
    ``ValueError`` for fewer than two points.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("axis needs at least two points")
    start, stop = float(values[0]), float(values[-1])
    step = (stop - start) / (n - 1)
    if step <= 0:
        raise NonUniformGridError("axis is not uniformly spaced")
    tol = 4 * np.finfo(float).eps * (abs(start) + abs(stop)) / (n - 1)
    decimals = (float(f"{step:.{digits}g}") for digits in range(1, 18))
    shortest = next((d for d in decimals if abs(d - step) <= tol), step)
    for candidate in dict.fromkeys((step, shortest, float(values[1]) - start)):
        if candidate > 0:
            grid = UniformGrid(start, candidate, n)
            if np.array_equal(grid.values, values):
                return grid
    grid = UniformGrid(start, step, n)  # rejects a non-finite start or step
    exact = _bisect_step(values, step)
    if exact is not None:
        return UniformGrid(start, exact, n)
    if not np.all(np.abs(np.diff(values) - step) <= 1e-9 * max(step, 1.0)):
        raise NonUniformGridError("axis is not uniformly spaced")
    return grid


def _bisect_step(values: np.ndarray, step: float) -> float | None:
    """A float64 step near ``step`` whose ``start + s*arange(n)`` is ``values``.

    Every point of ``start + s*arange(n)`` is correctly rounded, hence
    monotone in ``s``, so the steps that reproduce ``values`` form an
    interval: a point above its value means a smaller step, one below a
    larger, and both at once that no step reproduces the axis. The search
    bisects the float64 steps within ``128 + 2 max(|start|, |stop|) /
    (stop - start)`` ulps of ``step``, a bound on the endpoint step's
    rounding error: a narrow axis far from zero needs thousands of ulps.
    Returns None when none reproduces ``values``.
    """
    start, n = float(values[0]), values.size
    ramp = np.arange(n)
    reach = max(abs(start), abs(float(values[-1]))) / (float(values[-1]) - start)
    bits = int(np.float64(step).view(np.int64))
    infinity = int(np.float64(np.inf).view(np.int64))
    # offsets in ulps of step, kept to positive finite steps
    lo, hi = max(-128 - int(2 * reach), 1 - bits), min(128 + int(2 * reach), infinity - 1 - bits)
    while lo <= hi:
        mid = (lo + hi) // 2
        candidate = float(np.int64(bits + mid).view(np.float64))
        with np.errstate(over="ignore"):  # a point past the float range is above its value
            points = start + candidate * ramp
        above, below = np.any(points > values), np.any(points < values)
        if above == below:  # both, or neither when the axis holds a NaN
            return candidate if np.array_equal(points, values) else None
        if above:
            hi = mid - 1
        else:
            lo = mid + 1
    return None
