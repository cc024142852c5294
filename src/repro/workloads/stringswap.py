"""String Swap (SS) benchmark — paper §3.2.

An array of 256-byte strings.  An operation picks two random indices and
swaps the strings.  The transaction undo-logs both strings (8 cache blocks
of log payload) plus the index bookkeeping block; after the swap, eight
``clwb`` instructions persist the swapped strings (paper: "eight clwbs are
issued for logging entries and one clwb is for indexes. After the swap is
completed, another eight clwbs are issued along with pcommit").

String entry: 256 bytes = 4 cache blocks.  A separate metadata block holds
the array base and length (logged so the workload's bookkeeping is durable).
"""

from __future__ import annotations

import string
from typing import List, Optional

from repro.mem.heap import CACHE_BLOCK
from repro.workloads.base import OpResult, PersistentWorkload, Workbench

STRING_SIZE = 256

_ALPHABET = (string.ascii_letters + string.digits).encode()
#: Enough alphabet repeats that every rotation has STRING_SIZE bytes.
_REPEATED = _ALPHABET * (STRING_SIZE // len(_ALPHABET) + 2)


def initial_string(index: int) -> bytes:
    """The string the array holds at *index* before any swap: the
    alphabet rotated left by *index*, repeated to length."""
    start = index % len(_ALPHABET)
    return _REPEATED[start : start + STRING_SIZE]


class StringSwapWorkload(PersistentWorkload):
    """Swap random pairs in a persistent string array."""

    name = "String Swap"
    abbrev = "SS"

    def __init__(self, bench: Workbench, n_strings: int = 512):
        super().__init__(bench)
        if n_strings < 2:
            raise ValueError("need at least two strings to swap")
        self.n_strings = n_strings
        self._key_space = n_strings * n_strings
        self.meta = self._alloc_node()
        self.array = self.alloc.alloc(n_strings * STRING_SIZE)
        payloads = [initial_string(i) for i in range(n_strings)]
        self.heap.store_bytes(self.array, b"".join(payloads))
        self.heap.store_u64(self.meta + 0, self.array)
        self.heap.store_u64(self.meta + 8, n_strings)
        self.heap.store_u64(self.meta + 16, 0)  # swap counter
        #: model: index -> string bytes.
        self.model = dict(enumerate(payloads))

    def _entry(self, index: int) -> int:
        return self.array + index * STRING_SIZE

    def _read(self, index: int) -> bytes:
        with self.bench.untimed():
            return self.heap.load_bytes(self._entry(index), STRING_SIZE)

    # ------------------------------------------------------------------
    def operation(self, key: int) -> OpResult:
        key %= self._key_space
        i, j = key // self.n_strings, key % self.n_strings
        if i == j:
            j = (j + 1) % self.n_strings
        return self.swap(i, j)

    def swap(self, i: int, j: int) -> OpResult:
        tx, heap = self.tx, self.heap
        a, b = self._entry(i), self._entry(j)
        tx.begin()
        # Undo-log both strings (2 x 256B payload -> 8 blocks of clwb when
        # sealing) and the index/bookkeeping block.
        tx.log_range(a, STRING_SIZE)
        tx.log_range(b, STRING_SIZE)
        tx.log_block(self.meta)
        tx.seal()
        # The swap itself, via a stack buffer (untracked temporary).  Each
        # copy carries strcpy-style loop overhead (compare/advance per word).
        tmp = heap.load_bytes(a, STRING_SIZE, meta="str")
        self._compute(96)
        heap.store_bytes(a, heap.load_bytes(b, STRING_SIZE, meta="str"), meta="str")
        self._compute(96)
        heap.store_bytes(b, tmp, meta="str")
        self._compute(96)
        heap.store_u64(self.meta + 16, heap.load_u64(self.meta + 16) + 1)
        tx.flush(a, STRING_SIZE)  # 4 clwb
        tx.flush(b, STRING_SIZE)  # 4 clwb
        tx.flush(self.meta)
        tx.commit()
        self.model[i], self.model[j] = self.model[j], self.model[i]
        return OpResult(i * self.n_strings + j, swapped=True)

    # ------------------------------------------------------------------
    def strings(self) -> List[bytes]:
        return [self._read(i) for i in range(self.n_strings)]

    def check_invariants(self) -> Optional[str]:
        current = self.strings()
        for index, payload in enumerate(current):
            if payload != self.model[index]:
                return f"string {index} differs from model"
        if sorted(current) != sorted(self.model.values()):
            return "string multiset changed (corruption)"
        return None
