"""The one uniform axis type, for frequencies and delays alike.

Units are fixed package-wide: ordinary frequency in THz, time in ps, so
that ``nu * t`` is dimensionless and no 2*pi bookkeeping is needed. A
frequency axis and a delay axis differ only in their unit, so both are a
:class:`UniformGrid`; ``FrequencyGrid`` and ``TimeGrid`` name the same
class where a signature wants to say which axis it expects.
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


def infer_grid(values) -> UniformGrid:
    """The uniform axis whose points are ``values``, as read from disk.

    Of three candidate steps (the endpoint step, its shortest decimal
    within the endpoints' rounding, the first difference) the first whose
    ``start + step*arange(n)`` reproduces ``values`` bit for bit is taken.
    Failing all three, the endpoint step stands if every difference matches
    it to 1e-9 of max(step, 1). Raises ``NonUniformGridError`` for an
    uneven axis and ``ValueError`` for fewer than two points.
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
    if not np.all(np.abs(np.diff(values) - step) <= 1e-9 * max(step, 1.0)):
        raise NonUniformGridError("axis is not uniformly spaced")
    return grid
