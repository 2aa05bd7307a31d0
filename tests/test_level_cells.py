"""Level-wide packed cell storage.

Every sub-array of a packed cache level keeps its rows in a view of one
``(partition, row, byte)`` array owned by the level's geometry.  Whatever
path writes a row - a conventional block write through the cache level or
the sub-array, a key replication, a particle strike - must read back the
same bytes through the sub-array and through the level array, and the
level-wide batched kernel must compute on them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.cache.geometry import CacheGeometry
from repro.core.scrub import ScrubService
from repro.errors import AddressError
from repro.params import BLOCK_SIZE, small_test_machine


@pytest.fixture
def m():
    return ComputeCacheMachine(small_test_machine(), backend="packed")


def _l3_block(m, data: bytes):
    """An L3-resident block holding ``data``: ``(cache, addr, partition, row)``."""
    addr = m.arena.alloc_page_aligned(BLOCK_SIZE)
    m.load(addr, data)
    m.warm_l3(addr, BLOCK_SIZE)
    cache = m.hierarchy.l3[m.hierarchy.home_slice(addr)]
    _sub, row = cache.locate(addr)
    return cache, addr, cache.geometry.partition_of(addr), row


def _both_views(cache, partition: int, row: int) -> tuple[bytes, bytes]:
    sub = cache.geometry.subarrays[partition]
    return (cache.geometry.cells[partition, row].tobytes(),
            sub.cells.read_row_bytes(row))


def test_subarrays_are_views_of_one_level_array(m):
    h = m.hierarchy
    for cache in (*h.l1, *h.l2, *h.l3):
        geometry = cache.geometry
        cfg = cache.config
        assert geometry.cells.shape == (cfg.num_partitions,
                                        cfg.blocks_per_partition + 1, BLOCK_SIZE)
        for partition, sub in enumerate(geometry.subarrays):
            assert sub.cells.data.base is geometry.cells
            assert np.shares_memory(sub.cells.data, geometry.cells[partition])


@pytest.mark.parametrize("backend,underdrive", [("bitexact", True), ("packed", False)])
def test_bit_level_cells_have_no_level_array(backend, underdrive):
    """Bit-exact sub-arrays, including packed ones that fall back to the
    circuit model without word-line underdrive, keep their own cells."""
    geometry = CacheGeometry(small_test_machine().l3_slice, backend=backend,
                             wordline_underdrive=underdrive)
    assert geometry.cells is None
    assert {sub.backend for sub in geometry.subarrays} == {"bitexact"}


def test_cache_level_write_block_aliases(m, make_bytes):
    cache, addr, partition, row = _l3_block(m, make_bytes(BLOCK_SIZE))
    new = make_bytes(BLOCK_SIZE)
    cache.write_block(addr, new)
    assert _both_views(cache, partition, row) == (new, new)
    assert m.peek(addr, BLOCK_SIZE) == new


def test_subarray_write_block_aliases(m, make_bytes):
    cache, addr, partition, row = _l3_block(m, make_bytes(BLOCK_SIZE))
    new = make_bytes(BLOCK_SIZE)
    cache.geometry.subarrays[partition].write_block(row, new)
    assert _both_views(cache, partition, row) == (new, new)
    assert m.peek(addr, BLOCK_SIZE) == new


def test_write_key_aliases(m, make_bytes):
    geometry = m.hierarchy.l3[0].geometry
    key = make_bytes(BLOCK_SIZE)
    assert geometry.write_key(3, key) == geometry.key_row
    assert _both_views(m.hierarchy.l3[0], 3, geometry.key_row) == (key, key)


def test_deferred_key_write_counts_now_and_lands_on_flush(m, make_bytes):
    geometry = m.hierarchy.l3[0].geometry
    key = make_bytes(BLOCK_SIZE)
    pending: list[int] = []
    for partition in (1, 5):
        geometry.write_key(partition, key, pending)
    assert pending == [1, 5]
    assert geometry.subarrays[1].stats.writes == geometry.subarrays[5].stats.writes == 1
    assert geometry.cells[[1, 5], geometry.key_row].tobytes() == bytes(2 * BLOCK_SIZE)
    geometry.flush_keys(pending, key)
    assert pending == []
    for partition in (1, 5):
        assert _both_views(m.hierarchy.l3[0], partition, geometry.key_row) == (key, key)
    assert geometry.subarrays[1].stats.writes == 1


def test_strike_aliases_and_reaches_inplace_cmp(m, make_bytes):
    data = make_bytes(BLOCK_SIZE)
    a, b = m.arena.alloc_colocated(BLOCK_SIZE, 2)
    for addr in (a, b):
        m.load(addr, data)
        m.warm_l3(addr, BLOCK_SIZE)
    cache = m.hierarchy.l3[m.hierarchy.home_slice(a)]
    partition = cache.geometry.partition_of(a)
    _sub, row = cache.locate(a)
    bit = 5 * 64 + 3                          # byte 40: word 5
    ScrubService(cache).inject_strike(a, bit)
    struck = bytearray(data)
    struck[bit // 8] ^= 1 << (bit % 8)
    assert _both_views(cache, partition, row) == (bytes(struck), bytes(struck))
    res = m.cc(cc_ops.cc_cmp(a, b, BLOCK_SIZE))
    assert res.level == "L3" and res.inplace_ops == 1
    assert res.result == 0xFF & ~(1 << 5)


@pytest.mark.parametrize("partitions,rows", [
    ([0, 1], [0, 10_000]),          # row past the key row
    ([0, 1], [0, -1]),              # negative row: numpy would wrap it
    ([0, 99], [0, 1]),              # partition outside the level
])
def test_batched_out_of_range_index_raises(m, partitions, rows):
    geometry = m.hierarchy.l3[0].geometry
    with pytest.raises(AddressError):
        geometry.op_batch("xor", partitions, rows, [0, 1], [2, 3])
    with pytest.raises(AddressError):
        geometry.op_batch("xor", partitions, [0, 1], [0, 1], rows)
