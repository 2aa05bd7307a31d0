"""The Compute Cache controller (Sections IV-D and IV-E).

One controller sits at each core's L1 and orchestrates CC instructions:

1. **Page-span check** - operands crossing a page raise a pipeline
   exception; the handler splits the instruction per page (IV-D).
2. **Decomposition** - the instruction is broken into *simple vector
   operations* whose operands span at most one cache block, tracked in the
   operation table; instruction-level metadata (result register, completion
   count) lives in the instruction table.
3. **Level selection** - compute at the highest cache level where *all*
   operands are resident; if any operand is uncached, compute at L3 (IV-E).
4. **Operand fetch + pinning** - missing operands are fetched to the
   compute level; dirty copies in skipped levels are written back through
   the existing writeback machinery; operand lines are pinned (and MRU-
   promoted).  A forwarded coherence request releases the pin; after
   ``pin_retry_limit`` failed attempts the operation is executed as RISC
   operations by the core (IV-E).
5. **Execution** - in place when operand locality holds (the geometry
   guarantees it for page-aligned operands), else near-place at the
   controller's logic unit.  Search keys are replicated into each data
   partition's key row, tracked by the key table so repeats are free.
6. **Completion** - per-op results merge into the instruction entry; the
   L1 controller notifies the core when the count completes.

Timing model: operand fetches overlap up to a fetch-MLP; in-place block
commands stream over the unreplicated H-tree address bus at
``commands_per_cycle`` and execute concurrently across partitions but
serially within one (a sub-array does one operation at a time); near-place
operations serialize through the single per-controller logic unit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

from ..bitops import chunk_range
from ..cache.hierarchy import L1, L2, L3, CacheHierarchy
from ..energy.accounting import Component
from ..energy.mcpat import charge_key_broadcast, charge_key_row_write, charge_transpose
from ..errors import PinnedLineError, ReproError
from ..params import BLOCK_SIZE, MachineConfig
from .exceptions import split_by_pages
from .inplace import InPlaceExecutor
from .instruction_table import InstructionTable
from .isa import CCInstruction, Opcode
from .key_table import KeyTable
from .nearplace import NearPlaceUnit
from .operation_table import BlockOperand, BlockOperation, OperationTable, OpStatus
from .transpose import TransposeUnit

LEVEL_ORDER = (L1, L2, L3)

MIXED_LEVEL = "mixed"
"""``CCResult.level`` of a page-split instruction whose pieces computed at
different cache levels."""

MEMO_CAPACITY = 4096
"""Entries kept in the controller's decode/level-selection memo tables
before they are dropped wholesale (a simple bound, not an LRU)."""

INSTRUCTION_OVERHEAD_CYCLES = 5
"""Controller cycles to decode/dispatch one CC instruction."""

FETCH_MLP = 8
"""Overlapped operand fetches the controller sustains (MSHR-bounded)."""

KEY_ROW = -1
"""Row-slot marker (see :meth:`ComputeCacheController._row_slots`): the
row is the partition's replicated key row, not a block operand's."""


@dataclass
class CCControllerStats:
    instructions: int = 0
    block_ops_inplace: int = 0
    block_ops_nearplace: int = 0
    block_ops_risc: int = 0
    key_replications: int = 0
    pin_retries: int = 0
    risc_fallbacks: int = 0
    page_splits: int = 0
    level_memo_hits: int = 0
    hazard_memo_hits: int = 0
    fetch_cycles: float = 0.0
    compute_cycles: float = 0.0
    transpose_blocks: int = 0
    transpose_cycles: float = 0.0
    fallback_reasons: dict[str, int] = field(default_factory=dict)
    """Block ops that missed in-place execution, keyed by why
    (``locality-miss``, ``pin-loss``, ``forced``)."""
    level_compute_cycles: dict[str, float] = field(default_factory=dict)
    """Compute makespan attributed to each cache level."""


@dataclass
class CCResult:
    """Outcome of one architectural CC instruction."""

    instr: CCInstruction
    result: int
    cycles: float
    level: str
    inplace_ops: int = 0
    nearplace_ops: int = 0
    risc_ops: int = 0
    fetch_cycles: float = 0.0
    compute_cycles: float = 0.0
    occupancy_cycles: float = 0.0
    """Cycles the controller (decode + the unreplicated command bus + any
    near-place logic-unit time) is busy.  The rest of ``cycles`` is
    sub-array work that overlaps with later, independent CC instructions
    targeting other partitions."""
    result_bytes: bytes = b""
    pieces: int = 1

    @property
    def used_inplace(self) -> bool:
        return self.inplace_ops > 0 and self.nearplace_ops == 0 and self.risc_ops == 0


class ComputeCacheController:
    """Per-core CC controller attached to the L1 cache."""

    def __init__(self, hierarchy: CacheHierarchy, core_id: int = 0,
                 config: MachineConfig | None = None) -> None:
        self.hierarchy = hierarchy
        self.core_id = core_id
        self.config = config or hierarchy.config
        cc = self.config.cc
        self.instruction_table = InstructionTable(capacity=8)
        self.operation_table = OperationTable(capacity=64)
        self.key_table = KeyTable(capacity=8)
        self.inplace = InPlaceExecutor(cc.inplace_latency)
        self.nearplace = NearPlaceUnit(cc.nearplace_latency)
        self.transpose = TransposeUnit(cc.transpose_latency)
        self.stats = CCControllerStats()
        self.tracer = hierarchy.tracer
        self.contention_hook: Callable[[int], bool] | None = None
        """Test hook: called with each pinned block address; returning True
        simulates a forwarded coherence request stealing the line."""
        self.fetch_fault_hook: Callable[[int], bool] | None = None
        """Fault-injection hook (:mod:`repro.faults`): called with each
        operand block address before it is pinned; returning True
        simulates an operand-fetch timeout, which drains into the same
        retry-then-RISC-fallback path as a lost pin."""
        self.reuse_policy = None
        """Optional :class:`~repro.core.reuse.ReuseAwarePolicy` refining
        level selection with reuse prediction (the paper's suggested
        future-work enhancement, Section IV-E)."""
        # Decode memoization.  Repeated instructions (streaming kernels
        # re-issue the same (opcode, operand-page) shapes constantly) skip
        # the residency probes of level selection while no fill/invalidate
        # has happened since the memo was recorded, and skip the hazard
        # analysis entirely (it is a pure function of the instruction,
        # the geometry, and the sticky page->slice map).  Both probes are
        # uncounted (no stats, energy, or events), so memoization is
        # observationally invisible.
        self._level_memo: dict[CCInstruction, tuple[int, str]] = {}
        self._hazard_memo: dict[tuple[CCInstruction, str], tuple[int, str | None]] = {}

    # -- public API -----------------------------------------------------------------

    def execute(self, instr: CCInstruction, force_level: str | None = None,
                force_nearplace: bool = False) -> CCResult:
        """Run one CC instruction to completion; returns its result."""
        pieces = split_by_pages(instr)
        if len(pieces) > 1:
            self.stats.page_splits += 1
        total = CCResult(instr=instr, result=0, cycles=0.0, level="", pieces=len(pieces))
        bits_filled = 0
        result_bytes = bytearray()
        for piece in pieces:
            res = self._execute_piece(piece, force_level, force_nearplace)
            total.cycles += res.cycles
            # Pieces of a page-split instruction may compute at different
            # levels; report "mixed" rather than whichever piece ran last.
            if not total.level:
                total.level = res.level
            elif total.level != res.level:
                total.level = MIXED_LEVEL
            total.inplace_ops += res.inplace_ops
            total.nearplace_ops += res.nearplace_ops
            total.risc_ops += res.risc_ops
            total.fetch_cycles += res.fetch_cycles
            total.compute_cycles += res.compute_cycles
            total.occupancy_cycles += res.occupancy_cycles
            if instr.opcode is Opcode.REDUCE:
                # Partial sums of a page-split reduce accumulate modulo
                # 2^64 — a shift-OR merge would corrupt them.
                total.result = (total.result + res.result) & ((1 << 64) - 1)
            elif instr.opcode.reads_only:
                width = res.instr.num_blocks * self._bits_per_block(instr)
                total.result |= res.result << bits_filled
                bits_filled += width
            result_bytes += res.result_bytes
        total.result_bytes = bytes(result_bytes)
        if instr.opcode is Opcode.CLMUL and total.result_bytes:
            # The packed inner-product bits are written once, contiguously,
            # at the architectural destination (pieces merely partition the
            # source blocks, not the result layout).
            self.hierarchy.write(self.core_id, instr.dest, total.result_bytes)
        self.stats.instructions += 1
        return total

    # -- decomposition ------------------------------------------------------------------

    def _bits_per_block(self, instr: CCInstruction) -> int:
        if instr.opcode is Opcode.CMP:
            return BLOCK_SIZE // 8
        if instr.opcode is Opcode.SEARCH:
            return 1
        return 0

    def _operand_bases(self, instr: CCInstruction) -> list[tuple[int, bool]]:
        """``(base address, is_dest)`` of each block operand, in the order
        every simple vector operation of ``instr`` lists its operands."""
        op = instr.opcode
        if op is Opcode.BUZ:
            return [(instr.src1, True)]
        if op in (Opcode.COPY, Opcode.NOT):
            return [(instr.src1, False), (instr.dest, True)]
        if op in (Opcode.SEARCH, Opcode.REDUCE) or \
                (op is Opcode.CLMUL and instr.broadcast_src2):
            return [(instr.src1, False)]
        if op in (Opcode.CMP, Opcode.CLMUL):
            return [(instr.src1, False), (instr.src2, False)]
        # and / or / xor / add / mul
        return [(instr.src1, False), (instr.src2, False), (instr.dest, True)]

    @staticmethod
    def _row_slots(instr: CCInstruction) -> tuple[int | None, int | None, int | None]:
        """Which block operand, by position in :meth:`_operand_bases`
        order, supplies each of a block op's ``(row_a, row_b, row_dest)``
        sub-array rows: :data:`KEY_ROW` for the key row, None if unused."""
        op = instr.opcode
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.ADD, Opcode.MUL):
            return (0, 1, 2)
        if op in (Opcode.NOT, Opcode.COPY):
            return (0, None, 1)
        if op is Opcode.BUZ:
            return (0, None, 0)
        if op is Opcode.REDUCE:
            return (0, None, None)
        if op is Opcode.SEARCH or instr.broadcast_src2:
            return (0, KEY_ROW, None)
        return (0, 1, None)  # cmp, two-source clmul

    @staticmethod
    def _pick_rows(slots: tuple, rows: list[int], key_row: int) -> tuple:
        """A block op's ``(row_a, row_b, row_dest)`` from its operands'
        rows and its :meth:`_row_slots`."""
        return tuple(None if slot is None else key_row if slot == KEY_ROW else rows[slot]
                     for slot in slots)

    def _overwrites_dest(self, instr: CCInstruction) -> bool:
        """Destination blocks that are fully overwritten skip their fetch."""
        return instr.opcode in (Opcode.COPY, Opcode.BUZ, Opcode.NOT,
                                Opcode.AND, Opcode.OR, Opcode.XOR,
                                Opcode.ADD, Opcode.MUL)

    def _select_level(self, instr: CCInstruction, force_level: str | None) -> str:
        if force_level is not None:
            if force_level not in LEVEL_ORDER:
                raise ReproError(f"unknown cache level {force_level!r}")
            return force_level
        memoizable = self.reuse_policy is None
        if memoizable:
            epoch = self.hierarchy.residency_epoch()
            hit = self._level_memo.get(instr)
            if hit is not None and hit[0] == epoch:
                self.stats.level_memo_hits += 1
                return hit[1]
        addrs = []
        for name, base in instr.operands().items():
            if name == "dest" and instr.opcode is Opcode.CLMUL:
                continue  # clmul's dest receives a scalar store, not blocks
            length = BLOCK_SIZE if (name == "src2" and instr.key_is_fixed_block) else instr.size
            addrs.extend(a for a, _ in chunk_range(base, length, BLOCK_SIZE))
        residency = self.hierarchy.probe_residency(self.core_id, addrs)
        chosen = L3
        for level in LEVEL_ORDER:
            if residency[level]:
                chosen = level
                break
        if self.reuse_policy is not None:
            chosen = self.reuse_policy.select(chosen, addrs)
        if memoizable:
            if len(self._level_memo) >= MEMO_CAPACITY:
                self._level_memo.clear()
            self._level_memo[instr] = (epoch, chosen)
        return chosen

    # -- execution of one page-local piece ---------------------------------------------------

    def _execute_piece(self, instr: CCInstruction, force_level: str | None,
                       force_nearplace: bool) -> CCResult:
        level = self._select_level(instr, force_level)
        entry = self.instruction_table.allocate(instr, total_ops=instr.num_blocks)
        entry.level = level
        opcode = instr.opcode
        subop = opcode.subarray_op
        skip_fetch = self._overwrites_dest(instr)
        slots = self._row_slots(instr)
        # Each operand of a page-local piece lies in one page, so its cache
        # at the compute level (its L3 home slice) is the same for every
        # block op: resolve it once.
        bases = self._operand_bases(instr)
        caches = [self.hierarchy.level_cache(level, self.core_id, base)
                  for base, _is_dest in bases]

        fetch_latencies: list[int] = []
        partition_load: dict[int, int] = {}
        inplace_ops = nearplace_ops = risc_ops = 0
        nearplace_cycles = 0.0
        clmul_bits: list[tuple[int, int]] = []
        reduce_sum = 0
        replications_before = self.stats.key_replications

        # Bit-serial layout conversion (arithmetic tier): every source
        # block not already transposed goes through the transpose unit
        # before the sub-arrays can compute on it.  Charged per
        # instruction regardless of the eventual in-place/near-place/RISC
        # outcome, so accounting is a pure function of the instruction
        # stream (backend- and dispatch-invariant).
        transpose_cycles = 0.0
        if instr.opcode.is_arith:
            ranges = [(instr.src1, instr.size)]
            if instr.src2 is not None:
                ranges.append((instr.src2, instr.size))
            blocks, transpose_cycles = self.transpose.convert(ranges)
            if blocks:
                cache = caches[0]
                charge_transpose(cache.ledger, cache.name, blocks)
                self.stats.transpose_blocks += blocks
                self.stats.transpose_cycles += transpose_cycles
                if self.tracer is not None:
                    self.tracer.emit(
                        "cc.transpose", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=entry.instr_id,
                        blocks=blocks, span=float(transpose_cycles),
                    )

        # Key staging for cc_search and broadcast cc_clmul: read the key
        # block once; replicate it per partition through the key table.
        key_data: bytes | None = None
        if instr.key_is_fixed_block:
            key_data, key_latency = self._stage_key(instr, level)
            if key_latency:
                fetch_latencies.append(key_latency)

        # Batched dispatch (phase A: fetch/pin/locate every block op; phase
        # B: one level-wide kernel call for the whole piece) whenever it is
        # provably equivalent to issuing the ops one at a time; otherwise
        # fall back to the sequential per-op loop.  Both execution backends
        # use the same dispatch, so statistics and energy are
        # backend-invariant.
        hazard = "forced-nearplace" if force_nearplace else self._batch_hazard(instr, level)
        batchable = hazard is None
        if self.tracer is not None:
            self.tracer.emit(
                "cc.dispatch", core=self.core_id, level=level,
                opcode=instr.opcode.value, instr_id=entry.instr_id,
                outcome="batched" if batchable else "sequential", reason=hazard,
            )
        batches: dict[int, list] = {}
        verify: list[tuple[BlockOperation, list]] = []
        key_rows: list[int] = []

        ops: list[BlockOperation] = []
        for idx in range(instr.num_blocks):
            off = idx * BLOCK_SIZE
            op = BlockOperation(
                instr_id=entry.instr_id,
                op_index=entry.generate_next(),
                subarray_op=subop,
                operands=[BlockOperand(base + off, is_dest=is_dest)
                          for base, is_dest in bases],
                lane_bits=instr.lane_bits,
                elem_bits=instr.elem_bits,
            )
            self.operation_table.allocate(op)
            ops.append(op)
            if batchable:
                self._stage_block_op(op, instr, level, caches, skip_fetch, slots,
                                     key_data, key_rows, fetch_latencies,
                                     partition_load, batches, verify)
            else:
                self._run_block_op(op, instr, level, caches, skip_fetch, key_data,
                                   force_nearplace, fetch_latencies, partition_load)
        if batchable:
            self._drain_batches(instr, level, caches, skip_fetch, key_data, key_rows,
                                batches, verify, fetch_latencies, partition_load)

        tracer = self.tracer
        inplace_span = float(self.inplace.op_latency(subop, instr.elem_bits))
        for op in ops:
            if op.status is OpStatus.FAILED:
                risc_ops += 1
                outcome, span = "risc-fallback", 0.0
            elif op.inplace:
                inplace_ops += 1
                outcome, span = "in-place", inplace_span
            else:
                nearplace_ops += 1
                nearplace_cycles += self.nearplace.nearplace_latency
                outcome, span = "near-place", float(self.nearplace.nearplace_latency)
            if op.fallback_reason is not None:
                self.stats.fallback_reasons[op.fallback_reason] = (
                    self.stats.fallback_reasons.get(op.fallback_reason, 0) + 1
                )
            if tracer is not None:
                tracer.emit(
                    "cc.block_op", core=self.core_id, level=level,
                    opcode=opcode.value, partition=op.partition,
                    addr=op.operands[0].addr, instr_id=entry.instr_id,
                    span=span, outcome=outcome, reason=op.fallback_reason,
                )
            if opcode is Opcode.CLMUL:
                clmul_bits.append((op.result_bits, op.result_bit_count))
                entry.complete_op()
            elif opcode is Opcode.REDUCE:
                # Block partial sums accumulate modulo 2^64 outside the
                # instruction entry: complete_op's bit-packing contract
                # (shift-OR of fixed-width fields) cannot express them.
                reduce_sum = (reduce_sum + op.result_bits) & ((1 << 64) - 1)
                entry.complete_op()
            else:
                entry.complete_op(op.result_bits, op.result_bit_count)
            op.status = OpStatus.DONE if op.status is not OpStatus.FAILED else op.status
            self.operation_table.retire(entry.instr_id, op.op_index)

        result_bytes = b""
        if instr.opcode is Opcode.CLMUL:
            result_bytes = self._pack_clmul_result(clmul_bits)

        fetch_cycles = self._fetch_makespan(fetch_latencies)
        compute_cycles = self._compute_makespan(level, partition_load, nearplace_cycles,
                                                inplace_span)
        notify = self.config.l1d.hit_latency  # L1 controller -> core completion
        cycles = (INSTRUCTION_OVERHEAD_CYCLES + fetch_cycles + transpose_cycles
                  + compute_cycles + notify)
        # Controller occupancy: decode + every block command down the
        # unreplicated address bus, plus any serial near-place logic-unit
        # time.  Key replication is a single broadcast command (the H-tree
        # fans it out to all target sub-arrays at once).  Sub-array
        # execution itself overlaps with later instructions.
        key_writes = self.stats.key_replications - replications_before
        commands = sum(partition_load.values()) + (1 if key_writes else 0) + risc_ops
        occupancy = (
            INSTRUCTION_OVERHEAD_CYCLES
            + self._issue_cycles(level, commands)
            + nearplace_cycles
        )

        self.stats.block_ops_inplace += inplace_ops
        self.stats.block_ops_nearplace += nearplace_ops
        self.stats.block_ops_risc += risc_ops
        self.stats.fetch_cycles += fetch_cycles
        self.stats.compute_cycles += compute_cycles
        self.stats.level_compute_cycles[level] = (
            self.stats.level_compute_cycles.get(level, 0.0) + compute_cycles
        )
        self.key_table.release(entry.instr_id)
        result = reduce_sum if instr.opcode is Opcode.REDUCE else entry.result_mask
        self.instruction_table.retire(entry.instr_id)
        # Layout tracking: arithmetic destinations come out bit-serial
        # (free); any other destination write reverts its blocks to
        # row-major, so the next arithmetic use pays the conversion again.
        if instr.opcode.is_arith:
            if instr.dest is not None:
                self.transpose.mark_bit_serial(instr.dest, instr.size)
        elif instr.opcode is Opcode.BUZ:
            self.transpose.invalidate(instr.src1, instr.size)
        elif instr.dest is not None:
            self.transpose.invalidate(instr.dest, instr.operand_length("dest"))
        if tracer is not None:
            # Per-piece cycle attribution: the emitted phase spans sum
            # exactly to this piece's latency (the profiler asserts it).
            for phase, span in (
                ("decode", float(INSTRUCTION_OVERHEAD_CYCLES)),
                ("operand-fetch", float(fetch_cycles)),
                ("transpose", float(transpose_cycles)),
                ("compute-inplace", float(compute_cycles - nearplace_cycles)),
                ("compute-nearplace", float(nearplace_cycles)),
                ("notify", float(notify)),
            ):
                if span:
                    tracer.emit(
                        "cc.attr", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=entry.instr_id,
                        phase=phase, span=span,
                    )
            if risc_ops == 0:
                instr_outcome = "in-place" if nearplace_ops == 0 else "near-place"
            else:
                instr_outcome = "risc-fallback" if inplace_ops == nearplace_ops == 0 else "mixed"
            tracer.emit(
                "cc.instruction", core=self.core_id, level=level,
                opcode=instr.opcode.value, instr_id=entry.instr_id,
                span=float(cycles), outcome=instr_outcome,
            )
        return CCResult(
            instr=instr, result=result, cycles=cycles, level=level,
            inplace_ops=inplace_ops, nearplace_ops=nearplace_ops, risc_ops=risc_ops,
            fetch_cycles=fetch_cycles, compute_cycles=compute_cycles,
            occupancy_cycles=occupancy, result_bytes=result_bytes,
        )

    # -- block-op lifecycle -------------------------------------------------------------------

    def _acquire_operands(self, op: BlockOperation, instr: CCInstruction, level: str,
                          caches: list, key_data: bytes | None, skip_fetch: bool,
                          fetch_latencies: list[int]) -> bool:
        """Fetch and pin every operand, retrying when a pin is lost.

        Returns True once all operands are pinned.  After exactly
        ``pin_retry_limit`` failed attempts the op is handed to the RISC
        fallback (starvation avoidance, Section IV-E) and False is
        returned.  Shared by the sequential and batched dispatch paths so
        retry accounting and fallback semantics cannot diverge.
        """
        attempts = 0
        while True:
            attempts += 1
            op.pin_attempts = attempts
            lost = self._prepare_and_pin(op, level, caches, skip_fetch, fetch_latencies)
            if not lost:
                if attempts > 1 and self.tracer is not None:
                    self.tracer.emit(
                        "fault.recover", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=op.instr_id,
                        addr=op.operands[0].addr, outcome="retried",
                        reason="pin-loss", span=float(attempts - 1),
                    )
                return True
            self.stats.pin_retries += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "cc.pin_retry", core=self.core_id, level=level,
                    opcode=instr.opcode.value, instr_id=op.instr_id,
                    addr=op.operands[0].addr,
                )
            if attempts >= self.config.cc.pin_retry_limit:
                self._unpin_all(op, caches)
                op.fallback_reason = "pin-loss"
                self._risc_fallback(op, instr, key_data)
                if self.tracer is not None:
                    self.tracer.emit(
                        "fault.recover", core=self.core_id, level=level,
                        opcode=instr.opcode.value, instr_id=op.instr_id,
                        addr=op.operands[0].addr, outcome="degraded-risc",
                        reason="pin-loss", span=float(attempts),
                    )
                return False

    def _run_block_op(self, op: BlockOperation, instr: CCInstruction, level: str,
                      caches: list, skip_fetch: bool, key_data: bytes | None,
                      force_nearplace: bool, fetch_latencies: list[int],
                      partition_load: dict[int, int]) -> None:
        """One block op start to finish: the sequential path, and the
        phase-B backstop for an op whose located rows moved."""
        if not self._acquire_operands(op, instr, level, caches, key_data, skip_fetch,
                                      fetch_latencies):
            return

        cache = caches[0]
        use_inplace = not force_nearplace and self._locality_holds(op, caches)
        try:
            if use_inplace:
                if instr.key_is_fixed_block:
                    self._replicate_key(
                        op, instr, level, cache,
                        cache.geometry.partition_of(op.operands[0].addr), key_data)
                outcome = self.inplace.execute(cache, op)
                op.partition = outcome.partition
                partition_load[outcome.partition] = partition_load.get(outcome.partition, 0) + 1
                op.inplace = True
            else:
                # Near-place handles any operand placement, including L3
                # operands homed on different NUCA slices.
                op.fallback_reason = "forced" if force_nearplace else "locality-miss"
                outcome = self.nearplace.execute(
                    lambda addr: self.hierarchy.level_cache(level, self.core_id, addr),
                    op, key_data=key_data,
                )
                op.inplace = False
            op.result_bits = outcome.result_bits
            op.result_bit_count = outcome.result_bit_count
            op.status = OpStatus.ISSUED
        finally:
            self._unpin_all(op, caches)

    # -- batched dispatch (phase A / phase B) ----------------------------------------------------

    def _batch_hazard(self, instr: CCInstruction, level: str) -> str | None:
        """Memoizing wrapper around :meth:`_batch_hazard_uncached`.

        The hazard verdict is a pure function of the instruction, the
        level's geometry, and the sticky page->slice map, so it is cached
        per ``(instr, level)`` and only invalidated by an explicit
        :meth:`~repro.cache.hierarchy.CacheHierarchy.place_page`.
        """
        key = (instr, level)
        epoch = self.hierarchy.page_map_epoch
        hit = self._hazard_memo.get(key)
        if hit is not None and hit[0] == epoch:
            self.stats.hazard_memo_hits += 1
            return hit[1]
        hazard = self._batch_hazard_uncached(instr, level)
        if len(self._hazard_memo) >= MEMO_CAPACITY:
            self._hazard_memo.clear()
        self._hazard_memo[key] = (epoch, hazard)
        return hazard

    def _batch_hazard_uncached(self, instr: CCInstruction, level: str) -> str | None:
        """Why batched dispatch is *not* provably equivalent to sequential
        (``"data-hazard"`` / ``"occupancy"``), or None when it is safe.

        Two conditions.  (1) No inter-op data hazard: a *shifted* overlap
        between the destination range and a source range makes a later
        block op read an earlier op's result, which batched gather/compute/
        scatter would miss (an exactly aligned ``dest == src`` overlap is
        within-op and safe).  (2) No capacity (occupancy) hazard: every
        operand block (plus the staged key) must be co-resident at the
        compute level and at every inclusive level below it, so no phase-A
        fetch can evict a block an earlier op already located.
        """
        op = instr.opcode
        if op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.COPY,
                  Opcode.ADD, Opcode.MUL):
            dest = instr.dest
            srcs = [instr.src1]
            if op in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.ADD, Opcode.MUL):
                srcs.append(instr.src2)
            for src in srcs:
                if src != dest and src < dest + instr.size and dest < src + instr.size:
                    return "data-hazard"
        # Block address -> the base of an operand holding it.  Every
        # operand lies in one page, so the operand's cache stands for all
        # of its blocks' caches.
        blocks: dict[int, int] = {}
        for name, base in instr.operands().items():
            if name == "dest" and instr.opcode is Opcode.CLMUL:
                continue  # clmul's dest receives a scalar store after phase B
            length = BLOCK_SIZE if (name == "src2" and instr.key_is_fixed_block) else instr.size
            blocks.update((a, base) for a, _ in chunk_range(base, length, BLOCK_SIZE))
        chain = {L1: (L1, L2, L3), L2: (L2, L3), L3: (L3,)}[level]
        for check_level in chain:
            caches = {base: self.hierarchy.level_cache(check_level, self.core_id, base)
                      for base in set(blocks.values())}
            occupancy: dict[tuple[int, int], int] = {}
            for addr, base in blocks.items():
                cache = caches[base]
                key = (id(cache), cache.tags.set_of(addr))
                occupancy[key] = occupancy.get(key, 0) + 1
                if occupancy[key] > cache.config.ways:
                    return "occupancy"
        return None

    def _stage_block_op(self, op: BlockOperation, instr: CCInstruction, level: str,
                        caches: list, skip_fetch: bool, slots: tuple,
                        key_data: bytes | None,
                        key_rows: list[int], fetch_latencies: list[int],
                        partition_load: dict[int, int], batches: dict[int, list],
                        verify: list) -> None:
        """Phase A of one block op: fetch, pin, locate rows, unpin.

        Performs exactly the cache-side work of the sequential path (same
        fetches, pins, LRU touches, key-replication decisions and charges)
        but defers the sub-array kernel to phase B, recording the located
        rows, and defers key-row data to one scatter (``key_rows`` lists
        the partitions).  Ops that cannot batch (lost pins -> RISC, no
        locality -> near-place) execute immediately, as in the sequential
        path.
        """
        if not self._acquire_operands(op, instr, level, caches, key_data, skip_fetch,
                                      fetch_latencies):
            return
        if not self._locality_holds(op, caches):
            try:
                op.fallback_reason = "locality-miss"
                outcome = self.nearplace.execute(
                    lambda addr: self.hierarchy.level_cache(level, self.core_id, addr),
                    op, key_data=key_data,
                )
                op.inplace = False
                op.result_bits = outcome.result_bits
                op.result_bit_count = outcome.result_bit_count
                op.status = OpStatus.ISSUED
            finally:
                self._unpin_all(op, caches)
            return
        cache = caches[0]
        try:
            partition = cache.geometry.partition_of(op.operands[0].addr)
            if instr.key_is_fixed_block:
                self._replicate_key(op, instr, level, cache, partition, key_data,
                                    key_rows)
            located = [(o.addr, cache.locate(o.addr)[1]) for o in op.operands]
            rows = self._pick_rows(slots, [row for _addr, row in located],
                                   cache.geometry.key_row)
            op.partition = partition
            partition_load[partition] = partition_load.get(partition, 0) + 1
        finally:
            self._unpin_all(op, caches)
        batches.setdefault(partition, []).append((op, rows))
        verify.append((op, located))

    def _row_intact(self, cache, addr: int, row: int) -> bool:
        """Uncounted check that a block still occupies its located row."""
        way = cache.tags.find(addr)
        return way is not None and \
            cache.geometry.row_of(cache.tags.set_of(addr), way) == row

    def _drain_batches(self, instr: CCInstruction, level: str, caches: list,
                       skip_fetch: bool, key_data: bytes | None, key_rows: list[int],
                       batches: dict[int, list], verify: list,
                       fetch_latencies: list[int],
                       partition_load: dict[int, int]) -> None:
        """Phase B: write the pending key rows, verify located rows, then
        one level-wide kernel call for every staged op of the piece.

        ``_batch_hazard`` guarantees no phase-A fetch can displace a located
        block, so verification is a pure backstop; any op whose rows did
        move is pulled out of its batch and re-executed sequentially (after
        the key rows hold the key it may compute against).  Items keep the
        per-partition grouping of phase A, so charges and events come out
        in the order of one batch per sub-array.
        """
        cache = caches[0]
        if key_rows:
            cache.geometry.flush_keys(key_rows, key_data)
        while True:
            moved = [
                item for item in verify
                if not all(self._row_intact(cache, addr, row) for addr, row in item[1])
            ]
            if not moved:
                break
            for item in moved:
                verify.remove(item)
                op = item[0]
                batches[op.partition] = [(o, r) for o, r in batches[op.partition]
                                         if o is not op]
                partition_load[op.partition] -= 1
                if not partition_load[op.partition]:
                    del partition_load[op.partition]
                self._run_block_op(op, instr, level, caches, skip_fetch, key_data,
                                   False, fetch_latencies, partition_load)
        self.inplace.execute_batch(
            cache, [item for items in batches.values() for item in items])

    def _prepare_and_pin(self, op: BlockOperation, level: str, caches: list,
                         skip_fetch: bool, fetch_latencies: list[int]) -> bool:
        """Fetch and pin every operand; True if a pin was lost (retry)."""
        for operand, cache in zip(op.operands, caches):
            latency = self.hierarchy.cc_prepare(
                self.core_id, level, operand.addr, operand.is_dest,
                skip_fetch=skip_fetch and operand.is_dest,
            )
            if latency:
                fetch_latencies.append(latency)
                if self.tracer is not None:
                    self.tracer.emit(
                        "cc.fetch", core=self.core_id, level=level,
                        addr=operand.addr, instr_id=op.instr_id,
                        span=float(latency),
                    )
            if self.fetch_fault_hook is not None and \
                    self.fetch_fault_hook(operand.addr):
                # Injected operand-fetch timeout: drop any partial pin set
                # and go back through the starvation-avoidance retry path.
                self._unpin_all(op, caches)
                return True
            try:
                cache.pin(operand.addr, op.instr_id)
            except PinnedLineError:
                self._unpin_all(op, caches)
                return True
            operand.pinned = True
        if self.contention_hook is not None:
            for operand in op.operands:
                if self.contention_hook(operand.addr):
                    # A forwarded coherence request: release the lock and
                    # respond (Section IV-F), then retry the fetch.
                    self._unpin_all(op, caches)
                    return True
        return False

    def _unpin_all(self, op: BlockOperation, caches: list) -> None:
        for operand, cache in zip(op.operands, caches):
            if operand.pinned:
                cache.unpin(operand.addr)
                operand.pinned = False

    def _locality_holds(self, op: BlockOperation, caches: list) -> bool:
        if len(op.operands) < 2:
            return True
        geometry = caches[0].geometry
        parts = {geometry.partition_of(o.addr) for o in op.operands}
        if len(parts) != 1:
            return False
        # Multi-slice L3: operands must also be homed on the same slice.
        return all(cache is caches[0] for cache in caches)

    # -- search key handling --------------------------------------------------------------------

    def _stage_key(self, instr: CCInstruction, level: str) -> tuple[bytes, int]:
        """Fetch the 64-byte key to the compute level and read it out once."""
        key_addr = instr.src2
        latency = self.hierarchy.cc_prepare(self.core_id, level, key_addr, is_dest=False)
        if latency and self.tracer is not None:
            self.tracer.emit("cc.fetch", core=self.core_id, level=level,
                             addr=key_addr, span=float(latency), outcome="key")
        cache = self.hierarchy.level_cache(level, self.core_id, key_addr)
        return cache.read_block(key_addr, charge=False), latency

    def _replicate_key(self, op: BlockOperation, instr: CCInstruction, level: str,
                       cache, partition: int, key_data: bytes | None,
                       pending: list[int] | None = None) -> None:
        """Write the key into the data block's partition key row (once per
        partition per instruction, tracked by the key table).

        ``cache`` holds the data block, in ``partition``.  With ``pending``
        the key row's data is left to
        :meth:`~repro.cache.geometry.CacheGeometry.flush_keys`; the
        decision, the sub-array's write count and the charges happen here.
        """
        if key_data is None:
            raise ReproError("search with no staged key")
        data_addr = op.operands[0].addr
        # L3 key rows are tracked per (home slice, partition).
        slot = (cache.unit, partition) if level == L3 else partition
        if self.key_table.needs_replication(op.instr_id, instr.src2, level, slot):
            cache.geometry.write_key(partition, key_data, pending)
            # The H-tree fans the key out to every target sub-array at
            # once: wire energy is charged per instruction, array writes
            # per partition.
            if self.key_table.needs_broadcast(op.instr_id, instr.src2, level):
                charge_key_broadcast(cache.ledger, cache.name)
            charge_key_row_write(cache.ledger, cache.name)
            self.stats.key_replications += 1
            if self.tracer is not None:
                self.tracer.emit(
                    "cc.key_replicate", core=self.core_id, level=level,
                    partition=slot, addr=data_addr, instr_id=op.instr_id,
                )

    # -- clmul result packing ----------------------------------------------------------------------

    @staticmethod
    def _pack_clmul_result(bits: list[tuple[int, int]]) -> bytes:
        packed = 0
        filled = 0
        for value, count in bits:
            packed |= value << filled
            filled += count
        nbytes = (filled + 7) // 8
        return packed.to_bytes(max(nbytes, 1), "little")

    # -- RISC fallback (Section IV-E) -----------------------------------------------------------------

    def _risc_fallback(self, op: BlockOperation, instr: CCInstruction,
                       key_data: bytes | None) -> None:
        """Translate a block op into core loads/stores when pinning keeps
        failing (starvation avoidance)."""
        self.stats.risc_fallbacks += 1
        sources = [
            self.hierarchy.read(self.core_id, o.addr, BLOCK_SIZE)[0]
            for o in op.source_operands
        ]
        from ..bitops import bytes_and, bytes_not, bytes_or, bytes_xor

        subop = op.subarray_op
        result_data: bytes | None = None
        if subop == "copy":
            result_data = sources[0]
        elif subop == "buz":
            result_data = bytes(BLOCK_SIZE)
        elif subop == "not":
            result_data = bytes_not(sources[0])
        elif subop == "and":
            result_data = bytes_and(sources[0], sources[1])
        elif subop == "or":
            result_data = bytes_or(sources[0], sources[1])
        elif subop == "xor":
            result_data = bytes_xor(sources[0], sources[1])
        elif subop == "cmp":
            op.result_bits, op.result_bit_count = NearPlaceUnit._cmp_words(
                sources[0], sources[1]
            )
        elif subop == "search":
            if key_data is None:
                raise ReproError("RISC search fallback with no key")
            op.result_bits, op.result_bit_count = (
                1 if sources[0] == key_data else 0, 1,
            )
        elif subop == "clmul":
            other = sources[1] if len(sources) > 1 else key_data
            if other is None:
                raise ReproError("RISC clmul fallback with no key")
            op.result_bits, op.result_bit_count = NearPlaceUnit._clmul(
                sources[0], other, op.lane_bits or 64
            )
        elif subop in ("add", "mul"):
            import numpy as np

            from ..kernels import arith_rows

            result_data = arith_rows(
                subop,
                np.frombuffer(sources[0], dtype=np.uint8),
                np.frombuffer(sources[1], dtype=np.uint8),
                op.elem_bits or 8,
            )[0].tobytes()
        elif subop == "reduce":
            import numpy as np

            from ..kernels import reduce_rows

            total = int(reduce_rows(
                np.frombuffer(sources[0], dtype=np.uint8), op.elem_bits or 8
            )[0])
            op.result_bits, op.result_bit_count = total, 0
        else:
            raise ReproError(f"no RISC fallback for {subop!r}")
        dest = op.dest_operand
        if dest is not None and result_data is not None:
            self.hierarchy.write(self.core_id, dest.addr, result_data)
        # Core executes ~2 RISC ops per word plus loop overhead.
        words = BLOCK_SIZE // 8
        self.hierarchy.ledger.add(
            Component.CORE, 3 * words * self.config.core.epi_scalar
        )
        op.status = OpStatus.FAILED

    # -- timing ------------------------------------------------------------------------------

    def _fetch_makespan(self, latencies: list[int]) -> float:
        """Operand fetches overlap up to FETCH_MLP outstanding requests."""
        if not latencies:
            return 0.0
        return max(max(latencies), math.ceil(sum(latencies) / FETCH_MLP))

    def _issue_cycles(self, level: str, commands: int) -> int:
        """Cycles to stream block commands down the level's address bus."""
        if commands <= 0:
            return 0
        cache = {L1: self.hierarchy.l1[self.core_id],
                 L2: self.hierarchy.l2[self.core_id],
                 L3: self.hierarchy.l3[0]}[level]
        return cache.htree.command_issue_cycles(commands)

    def _compute_makespan(self, level: str, partition_load: dict[int, int],
                          nearplace_cycles: float,
                          inplace_latency: float | None = None) -> float:
        """In-place ops stream down the address bus and run concurrently
        across partitions, serially within one; near-place ops serialize
        through the controller's logic unit.  ``inplace_latency`` is the
        per-block-op latency (step-scaled for the arithmetic tier);
        defaults to the single-step in-place latency."""
        if inplace_latency is None:
            inplace_latency = float(self.inplace.inplace_latency)
        makespan = nearplace_cycles
        if partition_load:
            issue = self._issue_cycles(level, sum(partition_load.values()))
            busiest = max(partition_load.values())
            makespan += issue + busiest * inplace_latency
        return makespan
