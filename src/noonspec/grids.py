"""The one uniform axis type, for frequencies and delays alike.

Units are fixed package-wide: ordinary frequency in THz, time in ps, so
that ``nu * t`` is dimensionless and no 2*pi bookkeeping is needed. A
frequency axis and a delay axis differ only in their unit, so both are a
:class:`UniformGrid`; ``FrequencyGrid`` and ``TimeGrid`` name the same
class where a signature wants to say which axis it expects.

Point k of a grid is ``start + step*k`` rounded one way, and
:meth:`UniformGrid.points` is its one spelling: ``values`` is every
point, a grid called on a row range ``(lo, hi)`` is its points there, as
the CSV writer takes a column, and the synthesis' exact offsets of the
points from their ideal values (:func:`_off_grid`) round them in the
same order. No other module adds a grid's start to a multiple of its step.

Every quantity on an axis is a column with one entry per grid point, and
every series type checks its columns with one rule, :func:`_column`, whose
bounds are numbers: a quantity that is one number for the whole axis, as
the pairs sent per delay bin are, is stored as that number. Every scalar
integer input of the package (a grid count, pairs per bin, a seed, a
stream, a trial count, a repeat count, a chunk size) goes through one
rule too, :func:`_integer`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numerics import _blocks, _two_product
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
        object.__setattr__(self, "count", _integer(self.count, "grid count"))  # 5.0 is stored as 5
        if not 2 <= self.count < 2**63:
            raise ValueError(f"grid count must be an integer in [2, 2**63), got {self.count}")
        if not np.isfinite(self.stop):
            raise ValueError(f"grid points must be finite, the last is {self.stop}")
        # np.spacing overflows at the largest float; 2**1023 shares its binade
        if self.step < np.spacing(min(max(abs(self.start), abs(self.stop)), 2.0**1023)):
            # points this close round onto each other: the axis is degenerate
            raise ValueError(f"grid step {self.step} is below the float spacing of its points")

    def points(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Points ``lo`` to ``hi - 1`` (to the last when None), by the one
        rule for a point, :func:`_points`."""
        return _points(self.start, self.step, lo, self.count if hi is None else hi)

    values = property(points)
    __call__ = points  # a column of rows [lo, hi), as the CSV writer takes one

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


def _off_grid(grid, lo: int, hi: int) -> np.ndarray:
    """The points ``lo`` to ``hi - 1`` of ``grid``, as :meth:`UniformGrid.points`
    rounds them, minus their exact values start + i step, up to one
    rounding: the synthesis' first-order correction for the delays and
    lines it writes. The points are formed here in ``points``' order, so
    their bits are those of ``grid.points(lo, hi)``."""
    off, ideal_err = _two_product(np.arange(lo, hi, dtype=float), grid.step)
    v = off + grid.start
    d = v - grid.start
    z = d - v
    # v - start = d + d_err exactly, d_err = (v - (d - z)) - (start + z)
    np.subtract(d, off, out=off)
    d -= z
    v -= d
    z += grid.start
    v -= z
    off += v
    off -= ideal_err
    return off


def _points(start: float, step: float, lo: int, hi: int) -> np.ndarray:
    """The one rule for a grid point: the bits of ``start + step *
    np.arange(lo, hi)``, but one array held, float, scaled and shifted in
    place."""
    v = np.arange(lo, hi, dtype=float)
    v *= step
    v += start
    return v


FrequencyGrid = UniformGrid
TimeGrid = UniformGrid


def _column(owner, field: str, shape: tuple, dtype=float, low=None, high=None) -> None:
    """Check ``owner.<field>`` and store it back as a read-only ``dtype`` copy.

    An array that owns its data, has the column's dtype and is read-only
    is kept as it is, not copied: its maker has given it up, as the
    synthesis, ``correlation_trace`` and ``fourier_recover`` do, and a
    copy would double the peak memory of a long delay grid. A view is
    always copied.

    The column must have ``shape`` and finite values within ``[low, high]``;
    either bound may be None or a number. An integer ``dtype`` takes a
    float column only when every value is integral and at most 2**53 in
    magnitude. Every message names the owner's type and the field.
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
    given_up = values.flags.owndata and not values.flags.writeable and values.dtype == dtype
    column = values if given_up else np.array(values, dtype=dtype)
    column.setflags(write=False)
    object.__setattr__(owner, field, column)
    if column.shape != shape:
        raise ValueError(f"{name} needs one entry per grid point")
    if not np.all(np.isfinite(column)):
        raise ValueError(f"{name} must be finite")
    if low is not None and np.any(column < low):
        raise ValueError(f"{name} must be at least {low:g}")
    if high is not None and np.any(column > high):
        raise ValueError(f"{name} must be at most {high:g}")


def _integer(value, name: str) -> int:
    """``value`` as an int, the one rule for a scalar integer input.

    A Python or numpy integer of any size, or an integral float such as
    ``1024.0``, is taken; a bool (``True`` would pass as 1), a non-number,
    a fraction, NaN or an infinity raises ``ValueError`` naming ``name``
    and the value, or for an array its type and shape, so the message is
    one line. Range checks are the caller's, on the int this returns.
    """
    whole = isinstance(value, (float, np.floating)) and value.is_integer()
    if whole or isinstance(value, (int, np.integer)) and type(value) is not bool:
        return int(value)
    shape = getattr(value, "shape", ())
    got = f"{type(value).__name__} of shape {shape}" if shape else repr(value)
    raise ValueError(f"{name} must be an integer, got {got}")


def infer_grid(values) -> UniformGrid:
    """The uniform axis whose points are ``values``, as read from disk.

    Of three candidate steps (the endpoint step, its shortest decimal
    within the endpoints' rounding, the first difference) the first whose
    points reproduce ``values`` bit for bit is taken. Failing all three,
    :func:`_bisect_step` searches the float64 steps around the endpoint
    step for one that does. Failing that too, the endpoint step stands if
    every difference matches it to 1e-9 of max(step, 1). Raises
    ``NonUniformGridError`` for an uneven axis and ``ValueError`` for
    fewer than two points.

    Every path walks ``values`` a ``_blocks`` block at a time, a
    candidate's points made on the block's rows by the one rule for a
    point, so beside ``values``, which may be a strided column of the
    body just read, it holds a few block-sized arrays.
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
            if all(np.array_equal(grid.points(lo, hi), values[lo:hi]) for lo, hi in _blocks(n)):
                return grid
    grid = UniformGrid(start, step, n)  # rejects a non-finite start or step
    exact = _bisect_step(values, step)
    if exact is not None:
        return UniformGrid(start, exact, n)
    bound = 1e-9 * max(step, 1.0)
    for lo, hi in _blocks(n - 1):  # the differences, values[lo + 1 : hi + 1] - values[lo:hi]
        gaps = np.diff(values[lo : hi + 1])
        gaps -= step
        if not np.all(np.abs(gaps, out=gaps) <= bound):
            raise NonUniformGridError("axis is not uniformly spaced")
    return grid


def _bisect_step(values: np.ndarray, step: float) -> float | None:
    """A float64 step near ``step`` whose points are ``values``.

    Every point ``start + s*k`` is correctly rounded, hence monotone in
    ``s``, so the steps that reproduce ``values`` form an interval: a
    point above its value means a smaller step, one below a larger, and
    both at once that no step reproduces the axis. The search bisects the
    float64 steps within ``128 + 2 max(|start|, |stop|) / (stop - start)``
    ulps of ``step``, a bound on the endpoint step's rounding error: a
    narrow axis far from zero needs thousands of ulps. A candidate's
    points are :func:`_points`, the rule of :meth:`UniformGrid.points`,
    taken a block at a time; its last may run past the float range, which
    no grid allows, so none is made. Returns None when none reproduces
    ``values``.
    """
    start, n = float(values[0]), values.size
    reach = max(abs(start), abs(float(values[-1]))) / (float(values[-1]) - start)
    bits = int(np.float64(step).view(np.int64))
    infinity = int(np.float64(np.inf).view(np.int64))
    # offsets in ulps of step, kept to positive finite steps
    lo, hi = max(-128 - int(2 * reach), 1 - bits), min(128 + int(2 * reach), infinity - 1 - bits)
    while lo <= hi:
        mid = (lo + hi) // 2
        candidate = float(np.int64(bits + mid).view(np.float64))
        above = below = False
        equal = True
        for first, last in _blocks(n):
            with np.errstate(over="ignore"):  # a point past the float range is above its value
                points = _points(start, candidate, first, last)
            block = values[first:last]
            above |= bool(np.any(points > block))
            below |= bool(np.any(points < block))
            equal &= np.array_equal(points, block)
            if above and below:
                return None  # no step reproduces the axis
        if above == below:  # neither: equal, unless the axis holds a NaN
            return candidate if equal else None
        if above:
            hi = mid - 1
        else:
            lo = mid + 1
    return None
