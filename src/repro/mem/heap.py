"""Flat byte-addressable memory with typed accessors.

The heap is the *functional* state of the simulated NVMM: an array of bytes
that workloads read and write through typed helpers.  Every access is
reported to an optional observer (the :class:`~repro.isa.recorder.TraceRecorder`
for timing traces and/or the :class:`~repro.pmem.domain.PersistenceDomain`
for crash semantics).

Addresses are plain Python ints.  Address 0 is reserved as the NULL pointer
and never handed out by the allocator.
"""

from __future__ import annotations

import mmap
from typing import List, Optional, Protocol

#: Cache-block size used throughout the reproduction (paper Table 2).
CACHE_BLOCK = 64


class MemoryObserver(Protocol):
    """Anything that wants to see loads/stores as they happen."""

    def load(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None: ...

    def store(self, addr: int, size: int = 8, meta: Optional[str] = None) -> None: ...


class NVMHeap:
    """A fixed-size byte-addressable memory region.

    Parameters
    ----------
    size:
        Region size in bytes.  Must be a multiple of :data:`CACHE_BLOCK`.

    The bytes live in a private anonymous mapping: its pages read as zero
    and take no memory until first written, so a heap costs what its
    structure fills, not its size.
    """

    def __init__(self, size: int = 1 << 24):
        if size <= 0 or size % CACHE_BLOCK:
            raise ValueError("heap size must be a positive multiple of the block size")
        self.size = size
        self._data = _zeroed(size)
        self._observers: List[MemoryObserver] = []

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def attach(self, observer: MemoryObserver) -> None:
        """Register an observer to be notified of every load/store."""
        self._observers.append(observer)

    def detach(self, observer: MemoryObserver) -> None:
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    # raw access (no observation) — used by persistence-domain snapshots
    # ------------------------------------------------------------------
    def raw_read(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return self._data[addr : addr + size]

    def raw_write(self, addr: int, payload: bytes) -> None:
        self._check(addr, len(payload))
        self._data[addr : addr + len(payload)] = payload

    # ------------------------------------------------------------------
    # typed accessors (observed)
    # ------------------------------------------------------------------
    def load_u64(self, addr: int, meta: Optional[str] = None) -> int:
        self._check(addr, 8)
        for obs in self._observers:
            obs.load(addr, 8, meta)
        return int.from_bytes(self._data[addr : addr + 8], "little")

    def store_u64(self, addr: int, value: int, meta: Optional[str] = None) -> None:
        # Data is written *before* observers run: an observer reacting to
        # the store (e.g. a crash tester forcing an eviction) must see the
        # post-store cache contents, like real write-back hardware would.
        self._check(addr, 8)
        self._data[addr : addr + 8] = (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        for obs in self._observers:
            obs.store(addr, 8, meta)

    def load_i64(self, addr: int, meta: Optional[str] = None) -> int:
        value = self.load_u64(addr, meta)
        return value - (1 << 64) if value >= (1 << 63) else value

    def store_i64(self, addr: int, value: int, meta: Optional[str] = None) -> None:
        self.store_u64(addr, value & 0xFFFFFFFFFFFFFFFF, meta)

    def load_bytes(self, addr: int, size: int, meta: Optional[str] = None) -> bytes:
        """Load *size* bytes, observed one machine word per 8 bytes."""
        self._check(addr, size)
        for offset in range(0, size, 8):
            chunk = min(8, size - offset)
            for obs in self._observers:
                obs.load(addr + offset, chunk, meta)
        return self._data[addr : addr + size]

    def store_bytes(self, addr: int, payload: bytes, meta: Optional[str] = None) -> None:
        """Store bytes, observed one machine word per 8 bytes.

        As with :meth:`store_u64`, the data lands before observers run.
        """
        size = len(payload)
        self._check(addr, size)
        self._data[addr : addr + size] = payload
        for offset in range(0, size, 8):
            chunk = min(8, size - offset)
            for obs in self._observers:
                obs.store(addr + offset, chunk, meta)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def block_of(self, addr: int) -> int:
        """Cache-block base address containing *addr*."""
        return addr & ~(CACHE_BLOCK - 1)

    def snapshot(self) -> bytes:
        """Full functional image (used by crash testing as ground truth)."""
        return self._data[:]

    def restore(self, image: bytes) -> None:
        """Overwrite the full functional image (crash rollback)."""
        if len(image) != self.size:
            raise ValueError("snapshot size mismatch")
        self._data[:] = image

    def truncate(self, end: int) -> None:
        """Keep only the image below *end*; the rest must be all zero.

        The heap is then a read-only snapshot: it must not be accessed
        again, only :meth:`clone`-d back to full size."""
        self._data = self._data[:end]

    def clone(self) -> "NVMHeap":
        """A fresh heap of the same size and image, without observers
        (zero above the end of a :meth:`truncate`-d image)."""
        heap = NVMHeap(self.size)
        heap._data[: len(self._data)] = self._data
        return heap

    @property
    def image_bytes(self) -> int:
        """Bytes of image this heap holds (less than ``size`` once
        truncated)."""
        return len(self._data)

    def _check(self, addr: int, size: int) -> None:
        if addr <= 0 or addr + size > self.size:
            raise IndexError(f"access [{addr:#x}, {addr + size:#x}) outside heap")


def _zeroed(size: int) -> mmap.mmap:
    """*size* writable zero bytes, private to this process: a forked
    child's stores must never reach its parent's heap."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, size)
