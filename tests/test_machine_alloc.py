"""Machine facade and arena allocator tests."""

import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.alloc import Arena
from repro.cache.block import MESIState
from repro.cache.locality import check_operand_locality
from repro.errors import AddressError
from repro.params import PAGE_SIZE, sandybridge_8core


class TestArena:
    def test_block_alignment_default(self):
        arena = Arena(1 << 20)
        addr = arena.alloc(100)
        assert addr % 64 == 0

    def test_page_aligned(self):
        arena = Arena(1 << 20)
        arena.alloc(100)
        addr = arena.alloc_page_aligned(100)
        assert addr % PAGE_SIZE == 0

    def test_colocated_share_offset(self):
        arena = Arena(1 << 20)
        addrs = arena.alloc_colocated(6000, 3)
        assert len({a % PAGE_SIZE for a in addrs}) == 1
        # And they do not overlap.
        spans = sorted((a, a + 6000) for a in addrs)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_colocated_satisfy_all_levels(self):
        cfg = sandybridge_8core()
        arena = Arena(1 << 22)
        addrs = arena.alloc_colocated(4096, 3)
        for level in (cfg.l1d, cfg.l2, cfg.l3_slice):
            assert check_operand_locality(addrs, level)

    def test_exhaustion(self):
        arena = Arena(PAGE_SIZE)
        with pytest.raises(AddressError):
            arena.alloc(2 * PAGE_SIZE)

    def test_bad_args(self):
        arena = Arena(1 << 20)
        with pytest.raises(AddressError):
            arena.alloc(0)
        with pytest.raises(AddressError):
            arena.alloc(64, align=100)
        with pytest.raises(AddressError):
            arena.alloc_colocated(64, 0)

    def test_usage_tracking(self):
        arena = Arena(1 << 20)
        arena.alloc(128)
        assert arena.used >= 128
        assert arena.remaining <= (1 << 20) - 128

    def test_superpage_colocated_groups(self):
        """Section IV-C: within a superpage, 12-bit alignment suffices."""
        arena = Arena(8 << 20)
        sp = arena.alloc_superpage(2 << 20)
        addrs = sp.alloc_colocated(4096, 3)
        cfg = sandybridge_8core()
        for level in (cfg.l1d, cfg.l2, cfg.l3_slice):
            assert check_operand_locality(addrs, level)
        # All inside the one superpage.
        for addr in addrs:
            assert sp.base <= addr < sp.base + (2 << 20)

    def test_superpage_overflow_rejected(self):
        arena = Arena(8 << 20)
        sp = arena.alloc_superpage(16 * PAGE_SIZE)
        with pytest.raises(AddressError):
            sp.alloc_colocated(PAGE_SIZE, 32)

    def test_superpage_size_validation(self):
        arena = Arena(1 << 20)
        with pytest.raises(AddressError):
            arena.alloc_superpage(5000)


class TestMachineFacade:
    def test_load_peek_round_trip(self, machine, make_bytes):
        addr = machine.arena.alloc(256)
        data = make_bytes(256)
        machine.load(addr, data)
        assert machine.peek(addr, 256) == data

    def test_load_into_cached_block_rejected(self, machine, make_bytes):
        addr = machine.arena.alloc(64)
        machine.load(addr, make_bytes(64))
        machine.read(addr, 8)  # now cached
        with pytest.raises(AddressError):
            machine.load(addr, make_bytes(64))

    def test_write_read_through_caches(self, machine, make_bytes):
        addr = machine.arena.alloc(64)
        data = make_bytes(32)
        machine.write(addr, data)
        assert machine.read(addr, 32) == data

    def test_energy_snapshot_delta(self, machine, make_bytes):
        addr = machine.arena.alloc(64)
        machine.load(addr, make_bytes(64))
        snap = machine.snapshot_energy()
        machine.read(addr, 8)
        delta = machine.energy_since(snap)
        assert delta.total() > 0
        assert machine.ledger.total() >= delta.total()

    def test_total_energy_includes_static(self, machine):
        total = machine.total_energy(machine.snapshot_energy(), cycles=10_000)
        assert total.core_static > 0
        assert total.uncore_static > 0

    def test_touch_and_warm(self, machine, make_bytes):
        addr = machine.arena.alloc_page_aligned(256)
        machine.load(addr, make_bytes(256))
        machine.touch_range(addr, 256)
        assert machine.hierarchy.l1[0].contains(addr)
        machine.warm_l3(addr, 256)
        assert not machine.hierarchy.l1[0].contains(addr)
        slice_id = machine.hierarchy.home_slice(addr, 0)
        assert machine.hierarchy.l3[slice_id].contains(addr)

    def test_quickstart_docstring_example(self):
        """The module-docstring example must actually work."""
        m = ComputeCacheMachine()
        a, b, c = m.arena.alloc_colocated(4096, 3)
        m.load(a, bytes(4096))
        m.load(b, b"\xff" * 4096)
        res = m.cc(cc_ops.cc_or(a, b, c, 4096))
        assert res.used_inplace
        assert m.peek(c, 4096) == b"\xff" * 4096

    def test_multi_core_controllers_independent(self, machine, make_bytes):
        a0, c0 = machine.arena.alloc_colocated(128, 2)
        machine.load(a0, make_bytes(128))
        res0 = machine.cc(cc_ops.cc_copy(a0, c0, 128), core=0)
        res1 = machine.cc(cc_ops.cc_copy(a0, c0, 128), core=1)
        assert res0.cycles > 0 and res1.cycles > 0
        assert machine.controllers[0].stats.instructions == 1
        assert machine.controllers[1].stats.instructions == 1


class TestLoadCachedBlockGuard:
    """``load`` refuses a range with any block resident in a private cache
    of any core or in any L3 slice; each case fills one level only, so
    each check is exercised on its own."""

    def _guarded(self, machine, make_bytes, level_of):
        addr = machine.arena.alloc(3 * 64)
        machine.load(addr, make_bytes(3 * 64))
        block = addr + 64   # the middle block of the range
        level_of(block).fill(block, bytes(64), MESIState.EXCLUSIVE)
        before = machine.hierarchy.memory.read_block(addr)
        with pytest.raises(AddressError, match="cached block"):
            machine.load(addr, make_bytes(3 * 64))
        assert machine.hierarchy.memory.read_block(addr) == before

    def test_block_in_l1(self, machine, make_bytes):
        self._guarded(machine, make_bytes, lambda b: machine.hierarchy.l1[1])

    def test_block_in_l2(self, machine, make_bytes):
        self._guarded(machine, make_bytes, lambda b: machine.hierarchy.l2[1])

    def test_block_in_home_l3_slice(self, machine, make_bytes):
        hier = machine.hierarchy
        self._guarded(machine, make_bytes, lambda b: hier.l3[hier.home_slice(b)])

    def test_negative_address_rejected(self, machine):
        with pytest.raises(AddressError, match="negative address"):
            machine.load(-64, bytes(64))

    def test_stale_copy_in_old_home_slice(self, machine, make_bytes):
        """A re-homed page can leave blocks in its old slice; the guard asks
        every L3 slice, not only the page's current home."""
        hier = machine.hierarchy
        addr = machine.arena.alloc_page_aligned(2 * 64)
        machine.load(addr, make_bytes(2 * 64))
        machine.warm_l3(addr + 64, 64)
        old_home = hier.home_slice(addr)
        assert hier.l3[old_home].contains(addr + 64)
        hier.place_page(addr, 1 - old_home)
        before = hier.memory.peek(addr, 2 * 64)
        with pytest.raises(AddressError, match=f"cached block {addr + 64:#x}"):
            machine.load(addr, make_bytes(2 * 64))
        assert hier.memory.peek(addr, 2 * 64) == before
