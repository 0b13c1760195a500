"""Finite point patterns and the transformations applied to them.

Houses the affine centering/scaling of arrival times, interval and tail
(rare-type) counting, and the log map between the exponential-intensity
process and the homogeneous one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Normalization",
    "PointPattern",
    "h_transform",
]


@dataclass(frozen=True)
class Normalization:
    """The strictly increasing affine map x -> x/n - ln n - (r-1) ln ln n."""

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if self.r < 1:
            raise ValueError(f"need r >= 1, got r={self.r}")

    @property
    def shift(self) -> float:
        return math.log(self.n) + (self.r - 1) * math.log(math.log(self.n))

    def apply(self, x):
        return np.asarray(x, dtype=np.float64) / self.n - self.shift


@dataclass(frozen=True)
class PointPattern:
    """A finite multiset of real points, stored sorted ascending."""

    points: np.ndarray = field(default_factory=lambda: np.empty(0))

    @classmethod
    def from_values(cls, values) -> "PointPattern":
        pts = np.sort(np.asarray(values, dtype=np.float64))
        return cls(pts)

    @property
    def mass(self) -> int:
        return len(self.points)

    def count(self, a: float, b: float) -> int:
        """Number of points in the closed interval [a, b]; b may be +inf."""
        if a > b:
            raise ValueError(f"need a <= b, got [{a}, {b}]")
        lo = np.searchsorted(self.points, a, side="left")
        hi = np.searchsorted(self.points, b, side="right")
        return int(hi - lo)

    def count_from(self, x: float) -> int:
        """Number of points in [x, +inf)."""
        return self.mass - int(np.searchsorted(self.points, x, side="left"))


def h_transform(x, r: int):
    """-ln (r-1)! - ln x, mapping (0, inf) onto the real line."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0):
        raise ValueError("h is defined for strictly positive points only")
    return -math.lgamma(r) - np.log(x)
