"""String Swap workload (repro.workloads.stringswap)."""

import hashlib
import io
import string
import sys

import pytest

from repro.isa.ops import Op
from repro.isa.serialize import dump_trace
from repro.workloads.base import Workbench
from repro.workloads.stringswap import StringSwapWorkload, initial_string

sys.path.insert(0, "tests")
from conftest import make_workload  # noqa: E402


class TestFunctional:
    def test_swap_exchanges_contents(self):
        ss = make_workload("SS")
        before_0, before_1 = ss._read(0), ss._read(1)
        ss.swap(0, 1)
        assert ss._read(0) == before_1
        assert ss._read(1) == before_0

    def test_double_swap_restores(self):
        ss = make_workload("SS")
        before = ss.strings()
        ss.swap(2, 5)
        ss.swap(2, 5)
        assert ss.strings() == before

    def test_multiset_preserved_under_random_ops(self):
        ss = make_workload("SS", seed=8)
        before = sorted(ss.strings())
        for _ in range(100):
            ss.random_operation()
        assert sorted(ss.strings()) == before

    def test_same_index_redirected(self):
        ss = make_workload("SS")
        result = ss.operation(0)  # would be swap(0, 0); redirected to (0, 1)
        assert result.swapped

    def test_needs_two_strings(self):
        with pytest.raises(ValueError):
            make_workload("SS", n_strings=1)

    def test_invariants_after_ops(self):
        ss = make_workload("SS", seed=2)
        for _ in range(60):
            ss.random_operation()
        assert ss.check_invariants() is None


class TestTraceShape:
    def test_clwb_count_matches_paper(self):
        """Paper §3.2: eight clwbs for the two logged strings (plus the
        bookkeeping block), then eight more for the swapped data."""
        ss = make_workload("SS")
        start = len(ss.bench.trace)
        ss.swap(0, 1)
        ops = [i.op for i in ss.bench.trace][start:]
        # 2 x 256B of log payload -> >= 8 blocks, 2 x 256B of data -> 8 more
        assert ops.count(Op.CLWB) >= 17
        assert ops.count(Op.PCOMMIT) == 4

    def test_swap_logs_both_strings(self):
        ss = make_workload("SS")
        ss.swap(0, 1)
        assert ss.tx.stats.bytes_logged >= 512


class TestInitialContents:
    """The array's initial strings, built by slicing a repeated alphabet,
    are pinned to the original per-byte rotation and heap image."""

    @pytest.mark.parametrize("index", [0, 1, 61, 62, 63, 255, 511, 8191])
    def test_payload_is_the_rotated_alphabet(self, index):
        alphabet = (string.ascii_letters + string.digits).encode()
        expected = bytes(alphabet[(index + j) % len(alphabet)] for j in range(256))
        assert initial_string(index) == expected

    def test_model_holds_the_stored_strings(self):
        ss = make_workload("SS", n_strings=70)
        assert ss.model == {i: initial_string(i) for i in range(70)}
        assert ss.strings() == [ss.model[i] for i in range(70)]

    def test_build_heap_and_trace_digests_are_pinned(self):
        bench = Workbench(heap_size=1 << 22, record=True, seed=3)
        StringSwapWorkload(bench, n_strings=512)
        heap = hashlib.sha256(bench.heap.snapshot()).hexdigest()
        buf = io.BytesIO()
        dump_trace(bench.trace, buf)
        trace = hashlib.sha256(buf.getvalue()).hexdigest()
        assert heap == (
            "7efaff647aa5d28a7bdf1bedc151063a2dbc6fcf2227160e74126cc2d8f05eda"
        )
        assert trace == (
            "9b790ba9bd04c1a54ad36ee437fcb97312b371db3625bf8db1bdb4131dc7be40"
        )
