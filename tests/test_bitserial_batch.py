"""Bit-exact bit-serial arithmetic as one bit-plane pass per batch.

Under the bit-exact backend a batch of ``add``/``mul``/``reduce`` items
stacks every item's bit planes into one matrix and runs the full-adder
loop, the shift-and-add or the per-plane popcount once over it.  These
tests check, for every op and element width and for batches of one to 64
items spread over the partitions of one level, that

* the results, every written row and every sub-array's
  :class:`~repro.sram.subarray.SubarrayStats` equal the same items issued
  one at a time on a twin level, and equal the packed backend;
* the results equal a numpy model of the elements, wraparound included;
* a batch of ``n`` multiplications runs the adder loop ``elem_bits``
  times, not ``n * elem_bits`` times.

The last section checks the batch contract both backends enforce: no item
may read a row an earlier item of the batch writes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import small_test_machine
from repro.cache.geometry import CacheGeometry
from repro.errors import AddressError
from repro.params import BLOCK_SIZE
from repro.sram import subarray as subarray_module

OPS = ("add", "mul", "reduce")
WIDTHS = (8, 16, 32)
BATCH_SIZES = (1, 2, 29, 64)
"""29 is one 1856-byte piece of 64-byte blocks; 64 puts eight items in
each of the small L3 slice's eight partitions."""


def _level(backend: str) -> CacheGeometry:
    return CacheGeometry(small_test_machine().l3_slice, backend=backend)


def _items(n: int, partitions: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """``(partitions, rows_a, rows_b, rows_dest)`` of ``n`` items, dealt
    round-robin over the level's partitions, three rows per item."""
    parts = [i % partitions for i in range(n)]
    slots = [i // partitions for i in range(n)]
    return (parts, [3 * s for s in slots], [3 * s + 1 for s in slots],
            [3 * s + 2 for s in slots])


def _operands(n: int, elem_bits: int, seed: int) -> list[tuple[bytes, bytes]]:
    """Item operands: item 0 wraps an addition (all-ones plus one per
    element), item 1 overflows a multiplication (all-ones squared), the
    rest are random."""
    rng = np.random.default_rng(seed)
    ones = b"\xff" * BLOCK_SIZE
    one = (1).to_bytes(elem_bits // 8, "little") * (BLOCK_SIZE * 8 // elem_bits)
    out = [(ones, one), (ones, ones)][:n]
    while len(out) < n:
        out.append((rng.bytes(BLOCK_SIZE), rng.bytes(BLOCK_SIZE)))
    return out


def _load(level: CacheGeometry, items, operands) -> None:
    parts, rows_a, rows_b, _ = items
    for p, ra, rb, (a, b) in zip(parts, rows_a, rows_b, operands):
        level.subarrays[p].write_block(ra, a)
        level.subarrays[p].write_block(rb, b)


def _expected(op: str, elem_bits: int, a: bytes, b: bytes):
    dtype = np.dtype(f"<u{elem_bits // 8}")
    x = np.frombuffer(a, dtype=dtype).astype(object)
    if op == "reduce":
        return int(sum(x)) & 0xFFFFFFFFFFFFFFFF
    y = np.frombuffer(b, dtype=dtype).astype(object)
    z = (x + y) if op == "add" else (x * y)
    return np.array([v % (1 << elem_bits) for v in z], dtype=dtype).tobytes()


def _rows(level: CacheGeometry) -> list[bytes]:
    """Every row of every sub-array, as bytes."""
    if level.cells is not None:
        return [level.cells[p].tobytes() for p in range(len(level.subarrays))]
    return [np.packbits(sub.cells.snapshot(), axis=1).tobytes()
            for sub in level.subarrays]


def _stats(level: CacheGeometry) -> list:
    return [sub.stats for sub in level.subarrays]


def _batch(level: CacheGeometry, op: str, items, elem_bits: int) -> list:
    parts, rows_a, rows_b, rows_dest = items
    if op == "reduce":
        return level.op_batch(op, parts, rows_a, elem_bits=elem_bits)
    return level.op_batch(op, parts, rows_a, rows_b, rows_dest, elem_bits=elem_bits)


def _one_at_a_time(level: CacheGeometry, op: str, items, elem_bits: int) -> list:
    out = []
    for p, ra, rb, rd in zip(*items):
        sub = level.subarrays[p]
        if op == "reduce":
            out.append(sub.op_reduce(ra, elem_bits=elem_bits))
        else:
            method = sub.op_add if op == "add" else sub.op_mul
            out.append(method(ra, rb, dest=rd, elem_bits=elem_bits))
    return out


@pytest.mark.parametrize("n", BATCH_SIZES)
@pytest.mark.parametrize("elem_bits", WIDTHS)
@pytest.mark.parametrize("op", OPS)
def test_batch_matches_one_at_a_time_and_packed(op, elem_bits, n):
    batched, twin, packed = _level("bitexact"), _level("bitexact"), _level("packed")
    items = _items(n, len(batched.subarrays))
    operands = _operands(n, elem_bits, seed=1000 * elem_bits + n)
    for level in (batched, twin, packed):
        _load(level, items, operands)

    got = _batch(batched, op, items, elem_bits)
    assert got == [_expected(op, elem_bits, a, b) for a, b in operands]
    assert _one_at_a_time(twin, op, items, elem_bits) == got
    assert _batch(packed, op, items, elem_bits) == got
    assert _rows(batched) == _rows(twin) == _rows(packed)
    assert _stats(batched) == _stats(twin) == _stats(packed)
    assert sum(s.compute_ops.get(op, 0) for s in _stats(batched)) == n


@pytest.mark.parametrize("elem_bits", WIDTHS)
def test_wraparound(elem_bits):
    """All-ones plus one wraps to zero, all-ones squared is one, and the
    sum of an all-ones row is every element at its maximum."""
    level = _level("bitexact")
    parts, rows_a, rows_b, rows_dest = _items(2, len(level.subarrays))
    _load(level, (parts, rows_a, rows_b, rows_dest), _operands(2, elem_bits, seed=0))
    n_elems = BLOCK_SIZE * 8 // elem_bits
    assert level.op_batch("add", parts[:1], rows_a[:1], rows_b[:1], rows_dest[:1],
                          elem_bits=elem_bits) == [bytes(BLOCK_SIZE)]
    assert level.op_batch("mul", parts[1:], rows_a[1:], rows_b[1:], rows_dest[1:],
                          elem_bits=elem_bits) == [
        (1).to_bytes(elem_bits // 8, "little") * n_elems]
    assert level.op_batch("reduce", parts, rows_a, elem_bits=elem_bits) == [
        n_elems * ((1 << elem_bits) - 1)] * 2


@pytest.mark.parametrize("elem_bits", WIDTHS)
def test_mul_batch_runs_the_adder_loop_once_per_plane(monkeypatch, elem_bits):
    level = _level("bitexact")
    items = _items(29, len(level.subarrays))
    _load(level, items, _operands(29, elem_bits, seed=7))
    calls = []
    adder = subarray_module._serial_add_planes

    def counted(a, b):
        calls.append(a.shape)
        return adder(a, b)

    monkeypatch.setattr(subarray_module, "_serial_add_planes", counted)
    _batch(level, "mul", items, elem_bits)
    n_elems = BLOCK_SIZE * 8 // elem_bits
    assert calls == [(29 * n_elems, elem_bits)] * elem_bits
    calls.clear()
    _batch(level, "add", items, elem_bits)
    assert calls == [(29 * n_elems, elem_bits)]


# -- the batch contract: no cross-item read-after-write ---------------------------


@pytest.mark.parametrize("backend", ("bitexact", "packed"))
@pytest.mark.parametrize("op", ("xor", "add"))
def test_cross_item_read_after_write_is_refused(backend, op):
    """Item 0 writes row 2, item 1 reads it: refused before any row is
    written or any op accounted, through the level and the sub-array."""
    level = _level(backend)
    _load(level, ([0, 0, 0], [0, 2, 4], [1, 3, 5], None),
          _operands(3, 16, seed=3))
    before = (_rows(level), [s.compute_ops.copy() for s in _stats(level)])
    with pytest.raises(AddressError, match="earlier item"):
        level.op_batch(op, [0, 0], [0, 2], [1, 3], [2, 4], elem_bits=16)
    with pytest.raises(AddressError, match="earlier item"):
        level.subarrays[0].op_batch(op, [0, 4], [1, 2], [2, 5], elem_bits=16)
    assert (_rows(level), [s.compute_ops for s in _stats(level)]) == before


@pytest.mark.parametrize("backend", ("bitexact", "packed"))
def test_in_place_and_write_after_read_stay_legal(backend):
    """An item may write its own source, a later item may write a row an
    earlier one read, and the same row number in another partition is a
    different row."""
    level = _level(backend)
    _load(level, ([0, 0, 1], [0, 2, 4], [1, 3, 5], None), _operands(3, 16, seed=4))
    level.op_batch("add", [0, 0], [0, 2], [1, 3], [0, 1], elem_bits=16)
    level.op_batch("xor", [0, 1], [2, 2], [3, 5], [2, 4])
    level.subarrays[0].op_batch("xor", [0, 1], [2, 2], [3, 0])
