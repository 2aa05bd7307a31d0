"""Operand-locality-aware cache geometry (Section IV-C, Figure 5).

The geometry maps an address to (set, bank, block partition) and a
(set, way) pair to a physical sub-array row:

* the block offset is the low ``offset_bits`` of the address;
* the *low* set-index bits select the bank, the next bits select the block
  partition within the bank (Figure 5(b));
* the remaining set-index bits select the row group inside the partition;
* **all ways of a set map to the same block partition** (Figure 5(a)), so
  operand locality never depends on run-time way choice.

Consequently two addresses map to the same block partition iff their low
``offset_bits + bank_bits + bp_bits`` address bits agree - the Table III
"minimum address bits match" rule that lets software guarantee operand
locality with page alignment alone.

Each block partition is realized by one :class:`~repro.sram.ComputeSubarray`
whose rows each hold one cache block; any two blocks of a partition can be
computed on in place.  Under the packed backend the partitions' cells are
views into one level-wide ``(partition, row, byte)`` array, so one gather /
kernel / scatter (:meth:`CacheGeometry.op_batch`) can compute in every
sub-array of the level at once, as the hardware does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AddressError
from ..params import CacheLevelConfig
from ..sram import ComputeSubarray, SubarrayOp, SubarrayTiming
from ..sram.subarray import BACKEND_PACKED, packed_batch, resolve_backend


@dataclass(frozen=True)
class AddressParts:
    """Decoded address fields for one cache level."""

    addr: int
    tag: int
    set_index: int
    offset: int
    bank: int
    bp: int
    row_group: int
    partition: int
    """Flat block-partition id: bank-major ordering."""


class CacheGeometry:
    """Address decoding plus the physical sub-array grid of one cache level."""

    def __init__(
        self,
        config: CacheLevelConfig,
        timing: SubarrayTiming | None = None,
        max_activated: int = 64,
        wordline_underdrive: bool = True,
        backend: str = "bitexact",
    ) -> None:
        self.config = config
        self.timing = timing or SubarrayTiming()
        self.backend = backend
        # Field masks/shifts, precomputed once: :meth:`locate` places every
        # conventional block access with them, and :meth:`decode` memoizes
        # the addresses the CC controller decodes (the config is frozen, so
        # decode is pure and the cache can never go stale).
        self._offset_mask = config.block_size - 1
        self._offset_bits = config.offset_bits
        self._set_mask = config.sets - 1
        self._tag_shift = config.offset_bits + config.set_index_bits
        self._bank_mask = config.banks - 1
        self._bp_shift = config.bank_bits
        self._bp_mask = config.bps_per_bank - 1
        self._rg_shift = config.bank_bits + config.bp_bits
        self._ways = config.ways
        self._bps_per_bank = config.bps_per_bank
        self._decode_cache: dict[int, AddressParts] = {}
        # One extra row per sub-array is reserved for cc_search key
        # replication: the key must share bit-lines with the data it is
        # compared against, so each block partition holds its own copy.
        self.key_row = config.blocks_per_partition
        self.rows = config.blocks_per_partition + 1
        """Rows of every sub-array: the data rows plus the key row."""
        # Packed sub-arrays store their cells in one level-wide array, each
        # sub-array over a view of its own partition.
        self.cells: np.ndarray | None = None
        if resolve_backend(backend, wordline_underdrive) == BACKEND_PACKED:
            self.cells = np.zeros(
                (config.num_partitions, self.rows, config.block_size), dtype=np.uint8)
        self.subarrays = [
            ComputeSubarray(
                rows=self.rows,
                cols=config.block_size * 8,
                timing=self.timing,
                max_activated=max_activated,
                wordline_underdrive=wordline_underdrive,
                backend=backend,
                storage=None if self.cells is None else self.cells[partition],
            )
            for partition in range(config.num_partitions)
        ]

    # -- address decode -------------------------------------------------------

    def decode(self, addr: int) -> AddressParts:
        """Split an address into tag/set/offset/bank/partition fields."""
        parts = self._decode_cache.get(addr)
        if parts is not None:
            return parts
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        set_index = (addr >> self._offset_bits) & self._set_mask
        bank, bp, partition = self._set_fields(set_index)
        parts = AddressParts(
            addr=addr,
            tag=addr >> self._tag_shift,
            set_index=set_index,
            offset=addr & self._offset_mask,
            bank=bank,
            bp=bp,
            row_group=set_index >> self._rg_shift,
            partition=partition,
        )
        self._decode_cache[addr] = parts
        return parts

    def _set_fields(self, set_index: int) -> tuple[int, int, int]:
        """``(bank, bp, flat partition)`` of a set, bank-major ordering."""
        bank = set_index & self._bank_mask
        bp = (set_index >> self._bp_shift) & self._bp_mask
        return bank, bp, bank * self._bps_per_bank + bp

    def partition_of(self, addr: int) -> int:
        """Flat block-partition id an address maps to."""
        return self.decode(addr).partition

    def row_of(self, set_index: int, way: int) -> int:
        """Physical sub-array row of (set, way).

        All ways of a set sit in consecutive rows of the set's partition,
        implementing the way->partition mapping of Figure 5(a).
        """
        if not 0 <= way < self._ways:
            raise AddressError(f"way {way} outside 0..{self._ways - 1}")
        return (set_index >> self._rg_shift) * self._ways + way

    def subarray_for(self, addr: int) -> ComputeSubarray:
        """The sub-array (block partition) holding an address."""
        return self.subarrays[self.partition_of(addr)]

    # -- physical data plane ----------------------------------------------------

    def locate(self, addr: int, way: int) -> tuple[ComputeSubarray, int]:
        """``(sub-array, row)`` of (addr's set, way) - the handle the CC
        controller uses to issue in-place operations.

        The same fields :meth:`decode` computes, without building or
        memoizing an :class:`AddressParts`: every conventional block access
        lands here.
        """
        if addr < 0:
            raise AddressError(f"negative address {addr:#x}")
        set_index = (addr >> self._offset_bits) & self._set_mask
        return (self.subarrays[self._set_fields(set_index)[2]],
                self.row_of(set_index, way))

    def read_data(self, addr: int, way: int) -> bytes:
        """Read the 64-byte block at (addr's set, way) from its sub-array."""
        sub, row = self.locate(addr, way)
        return sub.read_block(row)

    def write_data(self, addr: int, way: int, data: bytes) -> None:
        """Write a 64-byte block into (addr's set, way)'s sub-array row."""
        sub, row = self.locate(addr, way)
        sub.write_block(row, data)

    def write_key(self, partition: int, key: bytes,
                  pending: list[int] | None = None) -> int:
        """Replicate a search key into a partition's reserved key row.

        With ``pending`` and level-wide packed storage, the write is
        counted now and its partition appended to ``pending``;
        :meth:`flush_keys` then writes the data of every pending key row
        with one scatter.  Returns the key row index so the caller can
        issue the in-place search against it.
        """
        sub = self.subarrays[partition]
        if pending is None or self.cells is None:
            sub.write_block(self.key_row, key)
            return self.key_row
        if len(key) != self.config.block_size:
            raise AddressError(
                f"key of {len(key)} bytes does not fill a {sub.cols}-bit row"
            )
        sub._account(SubarrayOp.WRITE)
        pending.append(partition)
        return self.key_row

    def flush_keys(self, pending: list[int], key: bytes) -> None:
        """Write ``key`` into the key row of every partition in ``pending``
        (counted by :meth:`write_key`) and empty the list."""
        if pending:
            self.cells[pending, self.key_row] = np.frombuffer(key, dtype=np.uint8)
            pending.clear()

    # -- level-wide in-place compute ------------------------------------------------

    def op_batch(
        self,
        op: str,
        partitions: list[int],
        rows_a: list[int],
        rows_b: list[int] | None = None,
        rows_dest: list[int] | None = None,
        key_bytes: int = 64,
        lane_bits: int | None = None,
        elem_bits: int | None = None,
    ) -> list:
        """Issue one operation over ``(partition, row)`` tuples anywhere in
        this level.

        Item *i* computes in sub-array ``partitions[i]`` on rows
        ``rows_a[i]`` (and ``rows_b[i]``, writing ``rows_dest[i]``).  Under
        level-wide packed storage the whole batch is one gather, one
        kernel (:func:`~repro.sram.subarray.packed_batch`) and one
        scatter; under bit-exact each item runs the sub-array's per-row
        circuit path, in item order.  Either way each sub-array accounts
        its own items in item order, exactly as
        :meth:`ComputeSubarray.op_batch` would, and the results are the
        ones it documents.
        """
        if not rows_a:
            return []
        subarrays = self.subarrays
        if self.cells is None:
            return [
                subarrays[p].op_batch(
                    op, [rows_a[i]],
                    None if rows_b is None else [rows_b[i]],
                    None if rows_dest is None else [rows_dest[i]],
                    key_bytes=key_bytes, lane_bits=lane_bits, elem_bits=elem_bits,
                )[0]
                for i, p in enumerate(partitions)
            ]
        if len(partitions) != len(rows_a):
            raise AddressError(
                f"{len(partitions)} partitions for a batch of {len(rows_a)} ops")
        self._check_index(partitions, len(subarrays), "partition")
        for rows in (rows_a, rows_b, rows_dest):
            if rows is not None:
                self._check_index(rows, self.rows, "row")
        cells = self.cells
        a = cells[partitions, rows_a]
        b = cells[partitions, rows_b] if rows_b is not None else None
        out, results, steps = packed_batch(
            op, a, b, key_bytes=key_bytes, lane_bits=lane_bits, elem_bits=elem_bits,
        )
        if out is not None and rows_dest is not None:
            cells[partitions, rows_dest] = out
        for p in partitions:
            subarrays[p]._account(op, steps=steps)
        return results

    @staticmethod
    def _check_index(values: list[int], bound: int, what: str) -> None:
        """Reject an index outside ``0..bound-1`` (numpy would wrap a
        negative one silently)."""
        if min(values) < 0 or max(values) >= bound:
            bad = next(v for v in values if not 0 <= v < bound)
            raise AddressError(f"{what} {bad} outside array of {bound} {what}s")

    # -- reconstruction (for tests/debug) ---------------------------------------

    def rebuild_address(self, tag: int, set_index: int, offset: int = 0) -> int:
        """Inverse of :meth:`decode` (round-trip tested)."""
        cfg = self.config
        return (
            (tag << (cfg.offset_bits + cfg.set_index_bits))
            | (set_index << cfg.offset_bits)
            | offset
        )
