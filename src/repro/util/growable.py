"""Amortized-doubling append buffers for streaming mutation paths.

``np.vstack``/``np.concatenate`` on every ``add`` copies the whole
array each call, so N small batches cost O(N^2) bytes moved — the
quadratic-append pattern that throttles write-heavy workloads. A
:class:`GrowableArray` keeps spare capacity and doubles it on
exhaustion, so N appended rows cost O(N) bytes amortized. The
``bytes_copied`` counter exists so regression tests can pin the
amortized bound instead of timing-based heuristics.
"""

from __future__ import annotations

import numpy as np

_MIN_CAPACITY = 8


class GrowableArray:
    """An append-only numpy buffer with amortized-doubling growth.

    The logical contents are the first ``len(self)`` rows of an
    over-allocated backing buffer; :attr:`view` exposes them as a
    zero-copy slice. Appends write into spare capacity and only
    reallocate (doubling) when it runs out, so the total bytes moved
    over any append sequence is linear in the final size.

    Args:
        row_shape: trailing shape of one row; ``()`` for 1-D buffers,
            ``(dim,)`` for matrices.
        dtype: numpy dtype of the elements.
        initial: optional array to adopt as the starting contents
            (copied once, sized exactly).
    """

    __slots__ = ("_buf", "_n", "bytes_copied")

    def __init__(
        self,
        row_shape: tuple[int, ...] = (),
        dtype: "np.dtype | type" = np.float32,
        initial: np.ndarray | None = None,
    ) -> None:
        #: Bytes moved by reallocation copies (not by the appends
        #: themselves); grows O(n) over n appended rows.
        self.bytes_copied = 0
        if initial is not None:
            initial = np.ascontiguousarray(initial, dtype=dtype)
            if initial.shape[1:] != tuple(row_shape):
                raise ValueError(
                    f"initial rows have shape {initial.shape[1:]}, "
                    f"expected {tuple(row_shape)}"
                )
            self._buf = initial.copy()
            self._n = initial.shape[0]
        else:
            self._buf = np.empty((0, *row_shape), dtype=dtype)
            self._n = 0

    @classmethod
    def adopt(cls, array: np.ndarray) -> "GrowableArray":
        """Copy an existing array in as the initial contents."""
        array = np.asarray(array)
        return cls(row_shape=array.shape[1:], dtype=array.dtype, initial=array)

    def __len__(self) -> int:
        return self._n

    @property
    def view(self) -> np.ndarray:
        """Zero-copy view of the logical contents (first ``len`` rows).

        The view aliases the backing buffer: in-place writes are seen
        by the owner, but it goes stale at the next reallocation —
        re-read :attr:`view` after any ``append``.
        """
        return self._buf[: self._n]

    @property
    def capacity(self) -> int:
        return self._buf.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes of the *logical* contents (capacity slack excluded)."""
        return int(self._n * self._buf.dtype.itemsize * _row_elems(self._buf))

    def append(self, block: np.ndarray) -> None:
        """Append ``block`` rows (or one scalar per row for 1-D buffers)."""
        block = np.asarray(block, dtype=self._buf.dtype)
        if block.ndim == self._buf.ndim - 1:
            block = block[None, ...]
        if block.shape[1:] != self._buf.shape[1:]:
            raise ValueError(
                f"appended rows have shape {block.shape[1:]}, "
                f"expected {self._buf.shape[1:]}"
            )
        needed = self._n + block.shape[0]
        if needed > self._buf.shape[0]:
            self._grow(needed)
        self._buf[self._n : needed] = block
        self._n = needed

    def _grow(self, needed: int) -> None:
        new_cap = max(needed, 2 * self._buf.shape[0], _MIN_CAPACITY)
        grown = np.empty(
            (new_cap, *self._buf.shape[1:]), dtype=self._buf.dtype
        )
        grown[: self._n] = self._buf[: self._n]
        self.bytes_copied += int(
            self._n * self._buf.dtype.itemsize * _row_elems(self._buf)
        )
        self._buf = grown


def _row_elems(buf: np.ndarray) -> int:
    n = 1
    for extent in buf.shape[1:]:
        n *= extent
    return n
