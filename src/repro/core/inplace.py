"""In-place execution of simple vector operations in cache sub-arrays.

Given a :class:`~repro.core.operation_table.BlockOperation` whose operands
are resident and pinned at a compute level, the executor locates each
operand's (sub-array, row), issues the bit-line operation, charges the
Table V energy, and returns any result bits (for CC-R operations) plus the
operation latency.

In-place execution requires all operands in the same block partition; the
executor asserts this (the controller should only route locality-satisfying
operations here) and raises :class:`OperandLocalityError` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bitops import popcount_mask
from ..cache.cache import CacheLevel
from ..energy.mcpat import charge_cc_arith, charge_cc_op
from ..errors import OperandLocalityError, ReproError
from ..params import BLOCK_SIZE
from ..sram.timing import ARITH_OPS, arith_steps
from .operation_table import BlockOperation, OpStatus


@dataclass(frozen=True)
class InPlaceOutcome:
    """Result of one in-place block operation."""

    result_bits: int
    result_bit_count: int
    latency: float
    partition: int
    result_data: bytes | None = None


class InPlaceExecutor:
    """Issues bit-line compute operations into a cache level's sub-arrays."""

    def __init__(self, inplace_latency: int = 14) -> None:
        self.inplace_latency = inplace_latency
        self.ops_executed = 0

    def op_latency(self, subop: str, elem_bits: int | None = None) -> int:
        """Latency of one in-place block op.

        The single-step ops take the fixed ``inplace_latency``; the
        bit-serial arithmetic ops add one cycle per bit-serial step on top
        of the same decode/sequencing overhead."""
        if subop in ARITH_OPS:
            if elem_bits is None:
                raise ReproError(f"{subop} needs an element width")
            n_elems = (BLOCK_SIZE * 8) // elem_bits
            return self.inplace_latency + arith_steps(subop, elem_bits, n_elems)
        return self.inplace_latency

    def _charge(self, level: CacheLevel, subop: str,
                elem_bits: int | None) -> None:
        """Table-V ledger charge for one in-place block op (step-scaled
        for the arithmetic tier)."""
        if subop in ARITH_OPS:
            n_elems = (BLOCK_SIZE * 8) // (elem_bits or 8)
            charge_cc_arith(level.ledger, level.name, subop, elem_bits or 8,
                            n_elems)
            return
        # Search's Table V energy (cmp + key write) is charged in two
        # parts: the compare here, the key-replication write by the
        # controller's key table (amortized across blocks sharing a
        # partition).
        charge_cc_op(level.ledger, level.name,
                     "cmp" if subop == "search" else subop)

    def execute(self, level: CacheLevel, op: BlockOperation) -> InPlaceOutcome:
        """Run one simple vector operation in place."""
        addrs = op.addresses
        partitions = {level.geometry.partition_of(a) for a in addrs}
        if len(partitions) != 1:
            raise OperandLocalityError(
                f"in-place {op.subarray_op} operands {['%#x' % a for a in addrs]} span "
                f"partitions {sorted(partitions)} of {level.name}"
            )
        partition = partitions.pop()
        handler = getattr(self, f"_op_{op.subarray_op}", None)
        if handler is None:
            raise ReproError(f"no in-place handler for {op.subarray_op!r}")
        outcome = handler(level, op, partition)
        self._charge(level, op.subarray_op, op.elem_bits)
        level.stats.cc_inplace_ops += 1
        self.ops_executed += 1
        if level.tracer is not None:
            level.tracer.emit(
                "subarray.op", level=level.name, unit=level.unit,
                opcode=op.subarray_op, partition=partition,
                addr=op.operands[0].addr, instr_id=op.instr_id,
                span=float(self.op_latency(op.subarray_op, op.elem_bits)),
            )
        return outcome

    def execute_batch(self, level: CacheLevel,
                      items: list[tuple[BlockOperation, tuple]]) -> None:
        """Run a batch of located simple vector operations of one cache
        level at once.

        ``items`` pairs each :class:`BlockOperation`, its ``partition``
        already set, with its located ``(row_a, row_b, row_dest)`` triple
        (unused slots ``None``).  The whole batch is a single level-wide
        :meth:`~repro.cache.geometry.CacheGeometry.op_batch` call - one
        gather/kernel/scatter under the packed backend; under bit-exact
        one bit-plane pass for the bit-serial arithmetic and the per-row
        circuit ops, in item order, for the rest - followed by per-op
        accounting in item order, identical to issuing the operations
        through :meth:`execute` one at a time in that order.  No item may
        read a row an earlier item writes (``op_batch`` raises
        :class:`~repro.errors.AddressError`); the controller's
        data-hazard check keeps such ops out of one batch.
        """
        if not items:
            return
        self._kernel(level, items)
        self.account_batch(level, items)

    # -- split seam for cross-instruction fusion (repro.core.stream) ---------------

    def account_batch(self, level: CacheLevel,
                      items: list[tuple[BlockOperation, tuple]]) -> None:
        """The controller-side half of :meth:`execute_batch`: Table-V
        charges, level stats, and ``subarray.op`` events for a group of
        located ops, *without* running the kernel.

        The stream scheduler calls this in canonical per-instruction order
        while deferring the actual sub-array kernels to a fused
        :meth:`kernel_batch` call, keeping the ledger and event stream
        bit-identical to one-at-a-time execution.  All emitted fields are
        known before the kernel runs (result bits are not part of them).
        """
        first = items[0][0]
        subop, elem_bits = first.subarray_op, first.elem_bits
        span = float(self.op_latency(subop, elem_bits))
        tracer = level.tracer
        for op, _rows in items:
            op.inplace = True
            op.status = OpStatus.ISSUED
            self._charge(level, subop, elem_bits)
            level.stats.cc_inplace_ops += 1
            self.ops_executed += 1
            if tracer is not None:
                tracer.emit(
                    "subarray.op", level=level.name, unit=level.unit,
                    opcode=subop, partition=op.partition,
                    addr=op.operands[0].addr, instr_id=op.instr_id,
                    span=span,
                )

    def kernel_batch(self, level: CacheLevel,
                     items: list[tuple[BlockOperation, tuple]]) -> None:
        """The kernel half of :meth:`execute_batch`: one level-wide
        :meth:`~repro.cache.geometry.CacheGeometry.op_batch` call over
        (possibly) many instructions' ops, assigning result bits per op.

        Sub-array accounting happens inside ``op_batch`` in item order, so
        as long as callers keep items in instruction order per sub-array
        the per-sub-array stats are bit-identical to sequential execution.
        Fused instructions touch disjoint blocks, so no item reads a row
        an earlier one writes, which ``op_batch`` refuses.
        """
        if items:
            self._kernel(level, items)

    def _kernel(self, level: CacheLevel,
                items: list[tuple[BlockOperation, tuple]]) -> None:
        first, (_, row_b, row_dest) = items[0]
        subop, lane_bits = first.subarray_op, first.lane_bits
        results = level.geometry.op_batch(
            subop,
            [op.partition for op, _rows in items],
            [rows[0] for _op, rows in items],
            [rows[1] for _op, rows in items] if row_b is not None else None,
            [rows[2] for _op, rows in items] if row_dest is not None else None,
            key_bytes=BLOCK_SIZE, lane_bits=lane_bits, elem_bits=first.elem_bits,
        )
        if subop == "cmp":
            for (op, _rows), mask in zip(items, results):
                op.result_bits, op.result_bit_count = mask, BLOCK_SIZE // 8
        elif subop == "search":
            for (op, _rows), mask in zip(items, results):
                op.result_bits, op.result_bit_count = mask & 1, 1
        elif subop == "clmul":
            lanes = (BLOCK_SIZE * 8) // (lane_bits or 64)
            for (op, _rows), packed in zip(items, results):
                bits = int.from_bytes(packed, "little") & ((1 << lanes) - 1)
                op.result_bits, op.result_bit_count = bits, lanes
        elif subop == "reduce":
            # The block-wide sum can exceed 64 result bits' packing
            # contract, so it rides result_bits raw (bit_count 0) and the
            # controller accumulates it CLMUL-style.
            for (op, _rows), total in zip(items, results):
                op.result_bits, op.result_bit_count = total, 0
        else:
            for op, _rows in items:
                op.result_bits, op.result_bit_count = 0, 0

    # -- per-op handlers ----------------------------------------------------------

    def _logical(self, level: CacheLevel, op: BlockOperation, partition: int,
                 method_name: str) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = [o for o in op.operands if not o.is_dest]
        dest = op.dest_operand
        if len(src) != 2 or dest is None:
            raise ReproError(f"{op.subarray_op} needs two sources and a destination")
        _, row_a = level.locate(src[0].addr)
        _, row_b = level.locate(src[1].addr)
        _, row_d = level.locate(dest.addr)
        method = getattr(sub, method_name)
        result = method(row_a, row_b, dest=row_d)
        return InPlaceOutcome(0, 0, self.inplace_latency, partition, result_data=result)

    def _op_and(self, level, op, partition):
        return self._logical(level, op, partition, "op_and")

    def _op_or(self, level, op, partition):
        return self._logical(level, op, partition, "op_or")

    def _op_xor(self, level, op, partition):
        return self._logical(level, op, partition, "op_xor")

    def _op_not(self, level: CacheLevel, op: BlockOperation, partition: int) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = op.source_operands
        dest = op.dest_operand
        if len(src) != 1 or dest is None:
            raise ReproError("not needs one source and a destination")
        _, row_s = level.locate(src[0].addr)
        _, row_d = level.locate(dest.addr)
        result = sub.op_not(row_s, dest=row_d)
        return InPlaceOutcome(0, 0, self.inplace_latency, partition, result_data=result)

    def _op_copy(self, level: CacheLevel, op: BlockOperation, partition: int) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = op.source_operands
        dest = op.dest_operand
        if len(src) != 1 or dest is None:
            raise ReproError("copy needs one source and a destination")
        _, row_s = level.locate(src[0].addr)
        _, row_d = level.locate(dest.addr)
        result = sub.op_copy(row_s, row_d)
        return InPlaceOutcome(0, 0, self.inplace_latency, partition, result_data=result)

    def _op_buz(self, level: CacheLevel, op: BlockOperation, partition: int) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        dest = op.dest_operand
        if dest is None:
            raise ReproError("buz needs a destination")
        _, row_d = level.locate(dest.addr)
        sub.op_buz(row_d)
        return InPlaceOutcome(0, 0, self.inplace_latency, partition,
                              result_data=bytes(BLOCK_SIZE))

    def _op_cmp(self, level: CacheLevel, op: BlockOperation, partition: int) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = op.source_operands
        if len(src) != 2:
            raise ReproError("cmp needs two sources")
        _, row_a = level.locate(src[0].addr)
        _, row_b = level.locate(src[1].addr)
        mask = sub.op_cmp(row_a, row_b)
        words = BLOCK_SIZE // 8
        return InPlaceOutcome(mask, words, self.inplace_latency, partition)

    def _op_search(self, level: CacheLevel, op: BlockOperation, partition: int) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = op.source_operands
        if len(src) != 1:
            raise ReproError("search block op needs the data source (key is in the key row)")
        _, row_data = level.locate(src[0].addr)
        mask = sub.op_search(row_data, level.geometry.key_row, key_bytes=BLOCK_SIZE)
        return InPlaceOutcome(mask & 1, 1, self.inplace_latency, partition)

    def _arith2(self, level: CacheLevel, op: BlockOperation, partition: int,
                method_name: str) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = [o for o in op.operands if not o.is_dest]
        dest = op.dest_operand
        if len(src) != 2 or dest is None:
            raise ReproError(f"{op.subarray_op} needs two sources and a destination")
        if op.elem_bits is None:
            raise ReproError(f"{op.subarray_op} needs an element width")
        _, row_a = level.locate(src[0].addr)
        _, row_b = level.locate(src[1].addr)
        _, row_d = level.locate(dest.addr)
        method = getattr(sub, method_name)
        result = method(row_a, row_b, dest=row_d, elem_bits=op.elem_bits)
        return InPlaceOutcome(0, 0, self.op_latency(op.subarray_op, op.elem_bits),
                              partition, result_data=result)

    def _op_add(self, level, op, partition):
        return self._arith2(level, op, partition, "op_add")

    def _op_mul(self, level, op, partition):
        return self._arith2(level, op, partition, "op_mul")

    def _op_reduce(self, level: CacheLevel, op: BlockOperation, partition: int) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = op.source_operands
        if len(src) != 1:
            raise ReproError("reduce needs one source")
        if op.elem_bits is None:
            raise ReproError("reduce needs an element width")
        _, row_s = level.locate(src[0].addr)
        total = sub.op_reduce(row_s, elem_bits=op.elem_bits)
        # bit_count stays 0: the 64-bit sum is carried raw in result_bits
        # (complete_op's little-endian packing contract tops out below it).
        return InPlaceOutcome(total, 0,
                              self.op_latency("reduce", op.elem_bits), partition)

    def _op_clmul(self, level: CacheLevel, op: BlockOperation, partition: int) -> InPlaceOutcome:
        sub = level.geometry.subarrays[partition]
        src = op.source_operands
        if op.lane_bits is None:
            raise ReproError("clmul needs a lane width")
        if len(src) == 1:
            # Broadcast variant: the second operand sits in the partition's
            # key row (replicated by the controller, BMM's A-row reuse).
            _, row_a = level.locate(src[0].addr)
            row_b = level.geometry.key_row
        elif len(src) == 2:
            _, row_a = level.locate(src[0].addr)
            _, row_b = level.locate(src[1].addr)
        else:
            raise ReproError("clmul needs one (broadcast) or two sources")
        packed = sub.op_clmul(row_a, row_b, op.lane_bits)
        lanes = (BLOCK_SIZE * 8) // op.lane_bits
        bits = int.from_bytes(packed, "little") & ((1 << lanes) - 1)
        return InPlaceOutcome(bits, lanes, self.inplace_latency, partition)


def mask_matches(mask: int) -> int:
    """Convenience: number of matching words/keys in a CC-R result mask."""
    return popcount_mask(mask)
