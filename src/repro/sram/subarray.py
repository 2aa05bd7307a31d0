"""The compute-capable SRAM sub-array (Sections II-B and IV-B).

A :class:`ComputeSubarray` composes the raw bit-cell array, the added dual
row decoder, and the reconfigurable sense amplifiers into the unit the CC
controller talks to.  Every row holds one cache block; all rows share
bit-lines, so any two rows of the same sub-array are in the same *block
partition* and can be operated on in place.

Supported in-place operations (all bit-exact):

=============  =====================================================
``read``       conventional differential read of one row
``write``      conventional write of one row
``and``        BL sensing over two activated rows
``nor``        BLB sensing over two activated rows
``or``         complement of ``nor``
``xor``        NOR of BL and BLB sense results
``not``        complement read driven to a destination row
``copy``       sense a row, feed the latch back onto the bit-lines
``buz``        reset the data latch, write zeros
``cmp``        per-word wired-NOR of the XOR result -> equality mask
``search``     ``cmp`` against a key previously written to a row
``clmul``      AND of two rows, XOR-reduction tree per lane
``add``        bit-serial element-wise addition (Neural Cache tier)
``mul``        bit-serial element-wise multiplication
``reduce``     bit-serial element-sum into a 64-bit accumulator
=============  =====================================================

Execution backends
------------------

Each sub-array runs one of two functional backends, selected at
construction (machine-wide via ``MachineConfig.backend``):

* ``"bitexact"`` - the circuit model above: bytes expand to per-bit bool
  arrays, word-lines activate, sense amps resolve rails.  Required for
  circuit-level experiments (disturb injection, sense/decoder counters);
  automatically forced when ``wordline_underdrive=False`` because the
  write-disturb physics only exists in the bit-level model.
* ``"packed"`` - vectorized numpy kernels over packed ``uint8`` rows
  (:mod:`repro.kernels`); no bit unpacking anywhere.  Proven bit-exact
  against the circuit model by the differential-equivalence harness.

Both backends drive the same :class:`SubarrayStats` and Table-V/VI-C
energy/delay accounting, so results, statistics, and energy totals are
backend-invariant.  Circuit diagnostics (sense-amp reconfiguration and
decoder counts) are only meaningful under ``bitexact``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bitops import bits_to_bytes, bytes_to_bits, word_equality_mask, xor_reduce_lanes
from ..errors import AddressError, ConfigError, ISAError
from ..kernels import (
    PackedCellArray,
    arith_rows,
    clmul_mask,
    equality_mask,
    logical_rows,
    pack_flags,
    reduce_rows,
)
from .bitcell import BitCellArray
from .decoder import DualRowDecoder
from .sense_amp import SenseAmpColumn, SenseMode
from .timing import SubarrayTiming, arith_steps

BACKEND_BITEXACT = "bitexact"
BACKEND_PACKED = "packed"
BACKENDS = (BACKEND_BITEXACT, BACKEND_PACKED)


def resolve_backend(backend: str, wordline_underdrive: bool) -> str:
    """The backend a sub-array runs: write-disturb physics only exists in
    the bit-level circuit model, so a full-swing (no word-line underdrive)
    experiment silently falls back from packed to it."""
    if backend == BACKEND_PACKED and not wordline_underdrive:
        return BACKEND_BITEXACT
    return backend


class SubarrayOp:
    """String constants naming sub-array operations."""

    READ = "read"
    WRITE = "write"
    AND = "and"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    NOT = "not"
    COPY = "copy"
    BUZ = "buz"
    CMP = "cmp"
    SEARCH = "search"
    CLMUL = "clmul"
    ADD = "add"
    MUL = "mul"
    REDUCE = "reduce"

    LOGICAL = frozenset({AND, OR, NOR, XOR})
    ARITH = frozenset({ADD, MUL, REDUCE})
    ALL = frozenset(
        {READ, WRITE, AND, OR, NOR, XOR, NOT, COPY, BUZ, CMP, SEARCH, CLMUL,
         ADD, MUL, REDUCE}
    )


_LOGICAL_BATCH_OPS = frozenset({SubarrayOp.AND, SubarrayOp.OR, SubarrayOp.NOR,
                                SubarrayOp.XOR, SubarrayOp.NOT, SubarrayOp.COPY,
                                SubarrayOp.BUZ})


@dataclass
class SubarrayStats:
    """Cycle and energy accounting for one sub-array."""

    reads: int = 0
    writes: int = 0
    compute_ops: dict[str, int] = field(default_factory=dict)
    energy_pj: float = 0.0
    busy_cycles: float = 0.0

    def record(self, op: str, energy: float, delay: float) -> None:
        if op == SubarrayOp.READ:
            self.reads += 1
        elif op == SubarrayOp.WRITE:
            self.writes += 1
        else:
            self.compute_ops[op] = self.compute_ops.get(op, 0) + 1
        self.energy_pj += energy
        self.busy_cycles += delay

    @property
    def total_compute_ops(self) -> int:
        return sum(self.compute_ops.values())


class ComputeSubarray:
    """One sub-array: ``rows`` cache blocks sharing ``cols`` bit-lines."""

    def __init__(
        self,
        rows: int,
        cols: int,
        timing: SubarrayTiming | None = None,
        max_activated: int = 64,
        wordline_underdrive: bool = True,
        backend: str = BACKEND_BITEXACT,
        storage: np.ndarray | None = None,
    ) -> None:
        if cols % 8:
            raise AddressError(f"sub-array width {cols} is not a whole number of bytes")
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown sub-array backend {backend!r}; expected one of {BACKENDS}"
            )
        backend = resolve_backend(backend, wordline_underdrive)
        self.rows = rows
        self.cols = cols
        self.backend = backend
        if backend == BACKEND_PACKED:
            # ``storage``: this sub-array's rows of a level-wide packed
            # array (see :class:`~repro.cache.geometry.CacheGeometry`).
            self.cells: PackedCellArray | BitCellArray = PackedCellArray(
                rows, cols, data=storage)
        else:
            self.cells = BitCellArray(
                rows, cols, max_activated=max_activated,
                wordline_underdrive=wordline_underdrive,
            )
        self.decoder = DualRowDecoder(rows)
        self.sense = SenseAmpColumn(cols)
        self.timing = timing or SubarrayTiming()
        self.stats = SubarrayStats()
        self._unit_cost: dict[str, tuple[float, float]] = {}
        """One-step ``(op_energy, op_delay)`` per op: the timing is frozen."""

    @property
    def is_packed(self) -> bool:
        return self.backend == BACKEND_PACKED

    # -- conventional access ------------------------------------------------

    def read_block(self, row: int) -> bytes:
        """Conventional differential read of one row (one cache block)."""
        if self.is_packed:
            data = self.cells.read_row_bytes(row)
            self._account(SubarrayOp.READ)
            return data
        wl = self.decoder.decode(row)
        self.sense.configure(SenseMode.DIFFERENTIAL)
        bl, blb = self.cells.activate(wl)
        bits = self.sense.sense_differential(bl, blb)
        self._account(SubarrayOp.READ)
        return bits_to_bytes(bits)

    def write_block(self, row: int, data: bytes) -> None:
        """Conventional write of one row."""
        if len(data) * 8 != self.cols:
            raise AddressError(
                f"block of {len(data)} bytes does not fill a {self.cols}-bit row"
            )
        if self.is_packed:
            self.cells.write_row_bytes(row, data)
            self._account(SubarrayOp.WRITE)
            return
        bits = bytes_to_bits(data)
        self.decoder.decode(row)
        self.cells.write_row(row, bits)
        self._account(SubarrayOp.WRITE)

    # -- in-place compute ---------------------------------------------------

    def _compute_sense(self, row_a: int, row_b: int) -> tuple[np.ndarray, np.ndarray]:
        """Dual activation with single-ended sensing; returns (AND, NOR)."""
        wl = self.decoder.decode(row_a, row_b)
        self.sense.configure(SenseMode.SINGLE_ENDED)
        bl, blb = self.cells.activate(wl)
        return self.sense.sense_single_ended(bl, blb)

    def _packed_rows(self, *rows: int) -> list[np.ndarray]:
        for row in rows:
            self.cells._check_row(row)
        return [self.cells.row(row) for row in rows]

    def op_and(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place AND of two rows; optionally written back to ``dest``."""
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.AND)
            return self._finish_packed(a & b, dest)
        and_bits, _ = self._compute_sense(row_a, row_b)
        self._account(SubarrayOp.AND)
        return self._finish(and_bits, dest)

    def op_nor(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place NOR of two rows (sensed on bit-line-bar)."""
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.NOR)
            return self._finish_packed(~(a | b), dest)
        _, nor_bits = self._compute_sense(row_a, row_b)
        self._account(SubarrayOp.NOR)
        return self._finish(nor_bits, dest)

    def op_or(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place OR: complement of the NOR sense result."""
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.OR)
            return self._finish_packed(a | b, dest)
        _, nor_bits = self._compute_sense(row_a, row_b)
        self._account(SubarrayOp.OR)
        return self._finish(~nor_bits, dest)

    def op_xor(self, row_a: int, row_b: int, dest: int | None = None) -> bytes:
        """In-place XOR: NOR of the BL (AND) and BLB (NOR) sense results."""
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.XOR)
            return self._finish_packed(a ^ b, dest)
        and_bits, nor_bits = self._compute_sense(row_a, row_b)
        xor_bits = ~(and_bits | nor_bits)
        self._account(SubarrayOp.XOR)
        return self._finish(xor_bits, dest)

    def op_not(self, row: int, dest: int | None = None) -> bytes:
        """Complement of one row, via BLB sensing of a single activation."""
        if self.is_packed:
            (a,) = self._packed_rows(row)
            self._account(SubarrayOp.NOT)
            return self._finish_packed(~a, dest)
        wl = self.decoder.decode(row)
        self.sense.configure(SenseMode.SINGLE_ENDED)
        bl, blb = self.cells.activate(wl)
        _, not_bits = self.sense.sense_single_ended(bl, blb)
        self._account(SubarrayOp.NOT)
        return self._finish(not_bits, dest)

    def op_copy(self, src: int, dest: int) -> bytes:
        """In-place copy via the sense-amp feedback path (Figure 4).

        The source row is sensed, the latched value is driven back onto the
        bit-lines, and the destination word-line is write-enabled.  The data
        never leaves the sub-array.
        """
        if self.is_packed:
            (a,) = self._packed_rows(src)
            self._account(SubarrayOp.COPY)
            return self._finish_packed(a.copy(), dest)
        wl = self.decoder.decode(src)
        self.sense.configure(SenseMode.DIFFERENTIAL)
        bl, blb = self.cells.activate(wl)
        self.sense.sense_differential(bl, blb)
        bits = self.sense.drive_back()
        self.cells.write_row(dest, bits)
        self._account(SubarrayOp.COPY)
        return bits_to_bytes(bits)

    def op_buz(self, dest: int) -> None:
        """In-place zeroing: reset the data latch, then write (cc_buz)."""
        if self.is_packed:
            self.cells._check_row(dest)
            self.cells.row(dest)[:] = 0
            self._account(SubarrayOp.BUZ)
            return
        self.sense.reset_latch()
        bits = self.sense.drive_back()
        self.decoder.decode(dest)
        self.cells.write_row(dest, bits)
        self._account(SubarrayOp.BUZ)

    def op_cmp(self, row_a: int, row_b: int, word_bits: int = 64) -> int:
        """Word-granular equality of two rows.

        The per-bit XOR results are combined per word with a wired-NOR;
        returns a mask with bit *i* set iff word *i* of the two rows match.
        """
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.CMP)
            return int(equality_mask(a, b, word_bits // 8)[0])
        and_bits, nor_bits = self._compute_sense(row_a, row_b)
        xor_bits = ~(and_bits | nor_bits)
        self._account(SubarrayOp.CMP)
        return word_equality_mask(xor_bits, word_bits)

    def op_search(self, data_row: int, key_row: int, key_bytes: int = 64) -> int:
        """Compare a data row against a replicated key row (cc_search).

        The key occupies ``key_bytes`` (the paper fixes 64); equality is
        reported at key granularity: bit *i* of the result is set iff the
        *i*-th key-sized chunk of the data row equals the key.
        """
        if self.is_packed:
            a, b = self._packed_rows(data_row, key_row)
            self._account(SubarrayOp.SEARCH)
            return int(equality_mask(a, b, key_bytes)[0])
        and_bits, nor_bits = self._compute_sense(data_row, key_row)
        xor_bits = ~(and_bits | nor_bits)
        self._account(SubarrayOp.SEARCH)
        return word_equality_mask(xor_bits, key_bytes * 8)

    # -- bit-serial arithmetic (Neural Cache tier) ----------------------------

    def _row_bit_planes(self, row: int, elem_bits: int) -> np.ndarray:
        """Row contents as ``(n_elems, elem_bits)`` bit planes, LSB first.

        This is the transposed (bit-serial) view the Neural Cache circuits
        operate on: column *k* is bit-plane *k* of every element.  Elements
        are little-endian within the row (element 0 lowest-addressed).
        """
        raw = np.frombuffer(bits_to_bytes(self.cells.read_row(row)), dtype=np.uint8)
        return (
            np.unpackbits(raw, bitorder="little").astype(bool).reshape(-1, elem_bits)
        )

    @staticmethod
    def _planes_to_bits(planes: np.ndarray) -> np.ndarray:
        """Bit planes back to the row's MSB-first bit layout."""
        raw = np.packbits(planes.astype(np.uint8).ravel(), bitorder="little")
        return np.unpackbits(raw).astype(bool)

    @staticmethod
    def _serial_add_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The bit-serial full-adder loop: one pass per bit plane.

        Each step computes sum and carry planes exactly as the bit-line
        logic does (``s = a ^ b ^ c``, ``c' = ab + c(a ^ b)``); the final
        carry is dropped (wraparound modulo ``2^w``).
        """
        out = np.zeros_like(a)
        carry = np.zeros(a.shape[0], dtype=bool)
        for k in range(a.shape[1]):
            ak, bk = a[:, k], b[:, k]
            axb = ak ^ bk
            out[:, k] = axb ^ carry
            carry = (ak & bk) | (carry & axb)
        return out

    @classmethod
    def _serial_mul_planes(cls, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bit-serial shift-and-add multiplication over bit planes.

        Partial product *k* is ``a`` shifted up *k* planes, predicated on
        bit plane *k* of ``b``, accumulated with the full-adder loop; all
        shifts and sums truncate at ``w`` planes (modulo ``2^w``).
        """
        acc = np.zeros_like(a)
        w = a.shape[1]
        for k in range(w):
            pp = np.zeros_like(a)
            pp[:, k:] = a[:, : w - k]
            pp &= b[:, k][:, None]
            acc = cls._serial_add_planes(acc, pp)
        return acc

    def op_add(self, row_a: int, row_b: int, dest: int | None = None,
               elem_bits: int = 8) -> bytes:
        """Element-wise bit-serial addition of two rows (cc_add)."""
        _check_elem_width(elem_bits, self.cols)
        steps = arith_steps(SubarrayOp.ADD, elem_bits)
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.ADD, steps=steps)
            return self._finish_packed(arith_rows("add", a, b, elem_bits)[0], dest)
        a = self._row_bit_planes(row_a, elem_bits)
        b = self._row_bit_planes(row_b, elem_bits)
        out = self._serial_add_planes(a, b)
        self._account(SubarrayOp.ADD, steps=steps)
        return self._finish(self._planes_to_bits(out), dest)

    def op_mul(self, row_a: int, row_b: int, dest: int | None = None,
               elem_bits: int = 8) -> bytes:
        """Element-wise bit-serial multiplication of two rows (cc_mul)."""
        _check_elem_width(elem_bits, self.cols)
        steps = arith_steps(SubarrayOp.MUL, elem_bits)
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.MUL, steps=steps)
            return self._finish_packed(arith_rows("mul", a, b, elem_bits)[0], dest)
        a = self._row_bit_planes(row_a, elem_bits)
        b = self._row_bit_planes(row_b, elem_bits)
        out = self._serial_mul_planes(a, b)
        self._account(SubarrayOp.MUL, steps=steps)
        return self._finish(self._planes_to_bits(out), dest)

    def op_reduce(self, row: int, elem_bits: int = 8) -> int:
        """Sum the row's elements modulo ``2^64`` (cc_reduce).

        Bit-exact reference: accumulate per bit plane
        (``sum_i e_i = sum_k 2^k * popcount(plane k)``), which is exactly
        what the log-depth reduction tree computes.
        """
        _check_elem_width(elem_bits, self.cols)
        n_elems = self.cols // elem_bits
        steps = arith_steps(SubarrayOp.REDUCE, elem_bits, n_elems)
        if self.is_packed:
            (a,) = self._packed_rows(row)
            self._account(SubarrayOp.REDUCE, steps=steps)
            return int(reduce_rows(a, elem_bits)[0])
        planes = self._row_bit_planes(row, elem_bits)
        total = 0
        for k in range(elem_bits):
            total += int(planes[:, k].sum()) << k
        self._account(SubarrayOp.REDUCE, steps=steps)
        return total & 0xFFFFFFFFFFFFFFFF

    def op_clmul(self, row_a: int, row_b: int, lane_bits: int) -> bytes:
        """Carry-less multiply: AND of two rows + XOR-reduction per lane.

        Each ``lane_bits``-wide lane reduces to a single parity bit
        (Table II: ``c_i = XOR_j (a[j] & b[j])``); the result is returned
        as packed bytes, one bit per lane, zero-padded to a whole byte.
        """
        if lane_bits not in (64, 128, 256):
            raise ISAError(f"cc_clmul lane width must be 64/128/256, got {lane_bits}")
        n_lanes = self.cols // lane_bits
        if self.is_packed:
            a, b = self._packed_rows(row_a, row_b)
            self._account(SubarrayOp.CLMUL)
            mask = int(clmul_mask(a, b, lane_bits)[0])
            return mask.to_bytes((n_lanes + 7) // 8, "little")
        and_bits, _ = self._compute_sense(row_a, row_b)
        lanes = xor_reduce_lanes(and_bits, lane_bits)
        self._account(SubarrayOp.CLMUL)
        mask = int(pack_flags(lanes)[0])
        return mask.to_bytes((lanes.size + 7) // 8, "little")

    # -- batched compute (one kernel call across many rows) ------------------

    def op_batch(
        self,
        op: str,
        rows_a: list[int],
        rows_b: list[int] | None = None,
        rows_dest: list[int] | None = None,
        word_bits: int = 64,
        key_bytes: int = 64,
        lane_bits: int | None = None,
        elem_bits: int | None = None,
    ) -> list:
        """Issue one operation over many row tuples of this sub-array.

        Under the packed backend the whole batch is one vectorized kernel
        call (gather packed rows, compute, scatter); under the bit-exact
        backend it degenerates to the per-row circuit operations.  Either
        way the per-operation accounting (:class:`SubarrayStats`, Table-V
        energy) is identical to issuing the rows one at a time, so timing
        and energy are batch- and backend-invariant.

        Returns a list with one entry per row tuple: result ``bytes`` for
        data-producing ops, ``int`` masks for ``cmp``/``search``, packed
        ``bytes`` for ``clmul``, ``int`` partial sums for ``reduce``, and
        ``None`` for ``buz``.
        """
        if not rows_a:
            return []
        if not self.is_packed:
            return [
                self._one_op(op, i, rows_a, rows_b, rows_dest,
                             word_bits, key_bytes, lane_bits, elem_bits)
                for i in range(len(rows_a))
            ]
        for rows in (rows_a, rows_b or (), rows_dest or ()):
            for row in rows:
                self.cells._check_row(row)
        a = self.cells.read_rows(rows_a)
        b = self.cells.read_rows(rows_b) if rows_b is not None else None
        out, results, steps = packed_batch(
            op, a, b, word_bits=word_bits, key_bytes=key_bytes,
            lane_bits=lane_bits, elem_bits=elem_bits,
        )
        if out is not None and rows_dest is not None:
            self.cells.write_rows(rows_dest, out)
        for _ in rows_a:
            self._account(op, steps=steps)
        return results

    def _one_op(self, op: str, i: int, rows_a, rows_b, rows_dest,
                word_bits: int, key_bytes: int, lane_bits: int | None,
                elem_bits: int | None = None):
        """One batch element via the per-row entry points (circuit path)."""
        a = rows_a[i]
        b = rows_b[i] if rows_b is not None else None
        dest = rows_dest[i] if rows_dest is not None else None
        if op in (SubarrayOp.AND, SubarrayOp.OR, SubarrayOp.NOR, SubarrayOp.XOR):
            method = {SubarrayOp.AND: self.op_and, SubarrayOp.OR: self.op_or,
                      SubarrayOp.NOR: self.op_nor, SubarrayOp.XOR: self.op_xor}[op]
            return method(a, b, dest=dest)
        if op == SubarrayOp.NOT:
            return self.op_not(a, dest=dest)
        if op == SubarrayOp.COPY:
            return self.op_copy(a, dest)
        if op == SubarrayOp.BUZ:
            return self.op_buz(dest if dest is not None else a)
        if op == SubarrayOp.CMP:
            return self.op_cmp(a, b, word_bits)
        if op == SubarrayOp.SEARCH:
            return self.op_search(a, b, key_bytes)
        if op == SubarrayOp.CLMUL:
            return self.op_clmul(a, b, lane_bits)
        if op == SubarrayOp.ADD:
            return self.op_add(a, b, dest=dest, elem_bits=elem_bits or 8)
        if op == SubarrayOp.MUL:
            return self.op_mul(a, b, dest=dest, elem_bits=elem_bits or 8)
        if op == SubarrayOp.REDUCE:
            return self.op_reduce(a, elem_bits=elem_bits or 8)
        raise ISAError(f"unknown batched sub-array operation {op!r}")

    # -- helpers ------------------------------------------------------------

    def _finish(self, bits: np.ndarray, dest: int | None) -> bytes:
        """Optionally write a compute result back to a destination row."""
        if dest is not None:
            self.sense.latch_value(bits)
            self.cells.write_row(dest, self.sense.drive_back())
        return bits_to_bytes(bits)

    def _finish_packed(self, packed: np.ndarray, dest: int | None) -> bytes:
        """Packed-backend twin of :meth:`_finish`."""
        if dest is not None:
            self.cells._check_row(dest)
            self.cells.data[dest] = packed
        return packed.tobytes()

    def _account(self, op: str, steps: int = 1) -> None:
        """Record one operation; ``steps`` scales the per-step cost of the
        bit-serial arithmetic ops (1 for every single-step operation)."""
        cost = self._unit_cost.get(op)
        if cost is None:
            cost = self._unit_cost[op] = (self.timing.op_energy(op),
                                          self.timing.op_delay(op))
        self.stats.record(op, steps * cost[0], steps * cost[1])


def _check_elem_width(elem_bits: int, cols: int) -> None:
    if elem_bits not in (8, 16, 32):
        raise ISAError(f"arithmetic element width must be 8/16/32, got {elem_bits}")
    if cols % elem_bits:
        raise ISAError(
            f"{cols}-bit row is not divisible into {elem_bits}-bit elements"
        )


def packed_batch(
    op: str,
    a: np.ndarray,
    b: np.ndarray | None,
    word_bits: int = 64,
    key_bytes: int = 64,
    lane_bits: int | None = None,
    elem_bits: int | None = None,
) -> tuple[np.ndarray | None, list, int]:
    """One packed kernel over gathered ``(n, row_bytes)`` operand rows.

    The compute step of every batched packed operation, whether its rows
    were gathered from one sub-array (:meth:`ComputeSubarray.op_batch`) or
    from a whole cache level
    (:meth:`~repro.cache.geometry.CacheGeometry.op_batch`).  Returns
    ``(out, results, steps)``: the rows to scatter into the destinations
    (``None`` when the op writes nothing), the per-row results
    :meth:`ComputeSubarray.op_batch` documents, and the bit-serial steps
    each row is accounted with (1 for every single-step operation).
    """
    cols = a.shape[1] * 8
    if op in _LOGICAL_BATCH_OPS:
        out = logical_rows(op, a, b)
        if op == SubarrayOp.BUZ:
            return out, [None] * len(out), 1
        return out, [row.tobytes() for row in out], 1
    if op == SubarrayOp.CMP:
        return None, equality_mask(a, b, word_bits // 8).tolist(), 1
    if op == SubarrayOp.SEARCH:
        return None, equality_mask(a, b, key_bytes).tolist(), 1
    if op == SubarrayOp.CLMUL:
        if lane_bits not in (64, 128, 256):
            raise ISAError(f"cc_clmul lane width must be 64/128/256, got {lane_bits}")
        nbytes = (cols // lane_bits + 7) // 8
        masks = clmul_mask(a, b, lane_bits).tolist()
        return None, [m.to_bytes(nbytes, "little") for m in masks], 1
    if op in (SubarrayOp.ADD, SubarrayOp.MUL):
        if elem_bits is None:
            raise ISAError(f"batched {op} needs an element width")
        _check_elem_width(elem_bits, cols)
        out = arith_rows(op, a, b, elem_bits)
        return out, [row.tobytes() for row in out], arith_steps(op, elem_bits)
    if op == SubarrayOp.REDUCE:
        if elem_bits is None:
            raise ISAError("batched reduce needs an element width")
        _check_elem_width(elem_bits, cols)
        sums = reduce_rows(a, elem_bits).tolist()
        return None, sums, arith_steps(op, elem_bits, cols // elem_bits)
    raise ISAError(f"unknown batched sub-array operation {op!r}")
