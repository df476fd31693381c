"""Minimal dense tensor container shared by every algorithm in the package.

Feature maps are rank-3 (channels, height, width); kernel sets are rank-4.
Values are always 32-bit floats stored row-major, so element (c, h, w) of a
feature map lives at flat offset ``c*H*W + h*W + w``.  Tensors are immutable
once constructed and therefore safe to share across threads.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class DimensionError(ValueError):
    """A tensor was requested with a zero or negative extent."""


class ShapeError(ValueError):
    """Tensor shapes are inconsistent with the requested operation."""


class Tensor:
    """Dense float32 array with fixed extents.

    Wraps a C-contiguous ``numpy.ndarray`` and freezes it; all public
    operations in this package treat tensors as immutable values.
    """

    __slots__ = ("_array",)

    def __init__(self, values, dims: Sequence[int] | None = None):
        arr = np.asarray(values, dtype=np.float32)
        if dims is not None:
            arr = arr.reshape(tuple(dims))
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if min(arr.shape) < 1:
            raise DimensionError(f"all extents must be >= 1, got {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._array = arr

    @property
    def dims(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def data(self) -> np.ndarray:
        """Read-only numpy view of the element data."""
        return self._array

    @property
    def size(self) -> int:
        return self._array.size

    def flat(self) -> np.ndarray:
        """Row-major flat view; offset of (c, h, w) is c*H*W + h*W + w."""
        return self._array.reshape(-1)

    def tolist(self):
        return self._array.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.dims == other.dims and bool(np.array_equal(self._array, other._array))

    def __hash__(self):
        return hash((self.dims, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"Tensor(dims={self.dims})"


def zeros(dims: Iterable[int]) -> Tensor:
    """All-zero tensor with the given extents."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionError(f"all extents must be >= 1, got {dims}")
    return Tensor(np.zeros(dims, dtype=np.float32))


def max_abs_diff(a: Tensor, b: Tensor) -> float:
    """Largest element-wise absolute difference between two same-shaped tensors."""
    if a.dims != b.dims:
        raise ShapeError(f"dims mismatch: {a.dims} vs {b.dims}")
    return float(np.max(np.abs(a.data.astype(np.float64) - b.data.astype(np.float64))))
