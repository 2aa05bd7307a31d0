"""Cross-instruction batching of CC instructions (the stream scheduler).

`ComputeCacheController` batches *within* one CC instruction: it stages
every block op of a page-local piece (phase A) and drains them as one
level-wide kernel call (phase B).  This module batches *across*
instructions: :class:`CCInstructionStream` analyses a window of
consecutive CC instructions for independence over their operand byte
ranges and, when a run of instructions is provably equivalent to
one-at-a-time execution, fuses all their block ops into one
:meth:`~repro.cache.geometry.CacheGeometry.op_batch` kernel call per
target cache.

Fusion is *observationally invisible*: per-instruction
:class:`~repro.core.controller.CCResult` values, cache/sub-array/controller
statistics, the energy ledger, and the event stream are bit-identical to
executing the same instructions one at a time through
:meth:`ComputeCacheController.execute` (``tests/test_stream_property.py``
proves it differentially).  The wins are simulator wall-clock throughput
(fewer Python-level probes and one vectorized kernel call per target cache
instead of one per instruction) and an *overlapped* machine-cycle model:
:class:`StreamResult` reports both the serial sum of per-instruction
latencies and the RMO-overlap makespan (controller occupancy serializes,
sub-array work overlaps — the same model
:class:`~repro.cpu.core_model.CoreModel` applies, via
:class:`CCOccupancyTimeline`).

A run of instructions is fused only when every member provably hits the
sequential path's zero-cost staging:

* single page-local piece, fusable opcode (``and/or/xor/not/copy/buz/cmp``;
  key-replicating and ``clmul`` instructions fall back to sequential);
* one shared compute level and opcode/lane width (keeps per-sub-array
  accounting order, and therefore float accumulation, canonical);
* the controller's per-instruction hazard analysis reports no hazard
  (so the ``cc.dispatch`` event matches the sequential path verbatim);
* operand block sets of distinct members are fully disjoint (no data
  hazards, no pin conflicts);
* every operand block is resident at the compute level with no private
  copies above it (L3: no directory sharers; L2: nothing in L1; dests
  writable) — exactly the condition under which the sequential
  ``cc_prepare`` fast path performs no fetch, charge, or event;
* operand locality holds for every block op (no near-place execution);
* no contention/fetch-fault hooks and no reuse policy are installed
  (fault-injection campaigns always take the sequential path).

Anything else executes through the unmodified sequential path, so the
stream accepts arbitrary instruction sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.block import MESIState
from ..cache.hierarchy import L1, L2, L3
from ..errors import CoherenceError
from ..params import BLOCK_SIZE
from .controller import (
    INSTRUCTION_OVERHEAD_CYCLES,
    MEMO_CAPACITY,
    CCResult,
    ComputeCacheController,
)
from .isa import CCInstruction, Opcode
from .operation_table import BlockOperand, BlockOperation, OpStatus

DEFAULT_WINDOW = 8
"""Instructions considered for one fused group.  Clamped to the
instruction table's capacity: every member holds a live instruction-table
entry until the group's kernels complete (hardware would stall the same
way)."""

FUSABLE_OPCODES = frozenset({
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT,
    Opcode.COPY, Opcode.BUZ, Opcode.CMP,
})
"""Opcodes eligible for cross-instruction fusion.  ``search`` and
broadcast ``clmul`` replicate keys into shared per-partition key rows
(members would collide), and ``clmul`` stores its packed result through
the hierarchy mid-stream; all take the sequential path."""


@dataclass
class CCOccupancyTimeline:
    """The RMO overlap model for CC work (Section IV-G), shared by
    :class:`~repro.cpu.core_model.CoreModel` and the stream scheduler.

    The (single, per-core) CC controller is busy for each instruction's
    *occupancy* (decode + command-bus issue + serial near-place time);
    later instructions queue behind that, while sub-array execution
    completes in the background and overlaps freely.
    """

    busy_until: float = 0.0
    last_completion: float = 0.0

    def issue(self, now: float, occupancy_cycles: float,
              total_cycles: float) -> float:
        """Issue one CC instruction at ``now``; returns its start cycle."""
        start = max(now, self.busy_until)
        self.busy_until = start + max(occupancy_cycles, 1.0)
        self.last_completion = max(self.last_completion, start + total_cycles)
        return start

    @property
    def drain_target(self) -> float:
        """Cycle by which all issued CC work has completed."""
        return max(self.busy_until, self.last_completion)


@dataclass
class StreamResult:
    """Outcome of one :meth:`CCInstructionStream.execute` call."""

    results: list[CCResult] = field(default_factory=list)
    """Per-instruction results, bit-identical to sequential execution."""
    fused_instructions: int = 0
    fused_groups: int = 0
    kernel_calls: int = 0
    """Level-wide kernel calls issued for fused groups: one per cache a
    group computes in."""
    serial_cycles: float = 0.0
    """Sum of per-instruction latencies (the pre-stream serial model)."""
    overlapped_cycles: float = 0.0
    """RMO-overlap makespan: occupancy serializes, sub-array work
    overlaps (see :class:`CCOccupancyTimeline`)."""

    @property
    def instructions(self) -> int:
        return len(self.results)

    @property
    def fused_fraction(self) -> float:
        return self.fused_instructions / len(self.results) if self.results else 0.0

    @property
    def overlap_speedup(self) -> float:
        """Serial-model cycles per overlapped-model cycle (>= 1)."""
        return (self.serial_cycles / self.overlapped_cycles
                if self.overlapped_cycles else 0.0)

    @property
    def simulated_bytes(self) -> int:
        return sum(r.instr.size for r in self.results)


@dataclass
class _Plan:
    """Memoized pure decode of one (instruction, level) pair."""

    operand_specs: list[list[tuple[int, bool]]]
    """Per block op: ``(block address, is_dest)`` for each operand."""
    cache: object
    """The CacheLevel every block op computes in (the instruction is
    page-local, so its first operand has one home)."""
    partitions: list[int]
    partition_load: dict[int, int]
    """Block ops per partition."""
    grouped: list[int]
    """Block-op indices grouped by partition, partitions in order of first
    use: the order the sequential path's phase B accounts them in."""
    block_flags: dict[int, bool]
    """Every operand block address -> written-to (dest) flag."""
    blocks: frozenset[int]
    local: bool
    """All block ops satisfy operand locality (same partition/slice)."""
    staged: tuple | None = None
    """``(cache epoch, lines, dest lines, rows)`` of the located block ops
    (see :meth:`CCInstructionStream._staged`)."""


@dataclass
class _Member:
    instr: CCInstruction
    level: str
    plan: _Plan


class CCInstructionStream:
    """Schedules a stream of CC instructions through one controller,
    fusing independent runs into shared level-wide kernel calls."""

    def __init__(self, controller: ComputeCacheController,
                 window: int = DEFAULT_WINDOW) -> None:
        self.controller = controller
        self.window = max(1, min(window, controller.instruction_table.capacity))
        self._plan_memo: dict[tuple[CCInstruction, str], tuple[int, _Plan]] = {}
        self._preflight_memo: dict[CCInstruction, tuple[int, bool]] = {}

    # -- public API -----------------------------------------------------------------

    def execute(self, instrs, force_level: str | None = None,
                force_nearplace: bool = False) -> StreamResult:
        """Run a sequence of CC instructions; returns per-instruction
        results plus stream-level fusion and overlap accounting."""
        instrs = list(instrs)
        out = StreamResult()
        ctrl = self.controller
        fusing = (self.window >= 2 and not force_nearplace
                  and ctrl.contention_hook is None
                  and ctrl.fetch_fault_hook is None
                  and ctrl.reuse_policy is None)
        i = 0
        while i < len(instrs):
            group = self._collect_group(instrs, i, force_level) if fusing else None
            if group is not None and len(group) >= 2:
                out.results.extend(self._execute_fused(group, out))
                out.fused_instructions += len(group)
                out.fused_groups += 1
                i += len(group)
            else:
                out.results.append(ctrl.execute(
                    instrs[i], force_level=force_level,
                    force_nearplace=force_nearplace))
                i += 1
        out.serial_cycles = sum(r.cycles for r in out.results)
        timeline = CCOccupancyTimeline()
        for res in out.results:
            timeline.issue(0.0, res.occupancy_cycles, res.cycles)
        out.overlapped_cycles = timeline.drain_target
        return out

    # -- group selection ---------------------------------------------------------------

    def _collect_group(self, instrs, start: int,
                       force_level: str | None) -> list[_Member] | None:
        first = self._fusable_member(instrs[start], force_level)
        if first is None:
            return None
        members = [first]
        blocks = set(first.plan.blocks)
        for j in range(start + 1, min(start + self.window, len(instrs))):
            cand = self._fusable_member(instrs[j], force_level)
            if cand is None:
                break
            if (cand.level != first.level
                    or cand.instr.opcode is not first.instr.opcode
                    or cand.instr.lane_bits != first.instr.lane_bits):
                break
            # Full block-set disjointness: rules out every cross-member
            # data hazard and pin conflict at once.
            if not blocks.isdisjoint(cand.plan.blocks):
                break
            members.append(cand)
            blocks.update(cand.plan.blocks)
        return members

    def _fusable_member(self, instr: CCInstruction,
                        force_level: str | None) -> _Member | None:
        if instr.opcode not in FUSABLE_OPCODES or instr.key_is_fixed_block:
            return None
        if instr.spans_page_boundary():
            return None
        ctrl = self.controller
        level = ctrl._select_level(instr, force_level)
        if ctrl._batch_hazard(instr, level) is not None:
            return None
        plan = self._plan(instr, level)
        if not plan.local:
            return None
        if level == L3:
            # The L3 verdict depends only on residency (every fill and
            # invalidate anywhere bumps the residency epoch) and directory
            # sharers.  A sharer can only *appear* through a private fill,
            # which bumps the epoch, so a memoized True cannot go stale; a
            # stale False merely falls back to the always-correct
            # sequential path.  L1/L2 verdicts also depend on MESI
            # writability, which downgrades without an epoch bump, so
            # those are re-probed every time.
            epoch = ctrl.hierarchy.residency_epoch()
            hit = self._preflight_memo.get(instr)
            if hit is not None and hit[0] == epoch:
                ok = hit[1]
            else:
                ok = self._residency_preflight(plan, level)
                if len(self._preflight_memo) >= MEMO_CAPACITY:
                    self._preflight_memo.clear()
                self._preflight_memo[instr] = (epoch, ok)
        else:
            ok = self._residency_preflight(plan, level)
        if not ok:
            return None
        return _Member(instr, level, plan)

    def _plan(self, instr: CCInstruction, level: str) -> _Plan:
        """Pure decode of an instruction at a level (block operands,
        target caches/partitions, locality) — memoized; only an explicit
        page re-placement invalidates it."""
        ctrl = self.controller
        key = (instr, level)
        epoch = ctrl.hierarchy.page_map_epoch
        hit = self._plan_memo.get(key)
        if hit is not None and hit[0] == epoch:
            return hit[1]
        bases = ctrl._operand_bases(instr)
        # Each operand lies in one page: its cache (home slice) is the same
        # for every block, and operand locality additionally needs all
        # operands homed on one slice.
        caches = [ctrl.hierarchy.level_cache(level, ctrl.core_id, base)
                  for base, _is_dest in bases]
        one_home = all(cache is caches[0] for cache in caches)
        geometry = caches[0].geometry
        operand_specs: list[list[tuple[int, bool]]] = []
        partitions: list[int] = []
        block_flags: dict[int, bool] = {}
        local = True
        for idx in range(instr.num_blocks):
            off = idx * BLOCK_SIZE
            spec = [(base + off, is_dest) for base, is_dest in bases]
            operand_specs.append(spec)
            for addr, is_dest in spec:
                block_flags[addr] = block_flags.get(addr, False) or is_dest
            parts = {geometry.partition_of(addr) for addr, _ in spec}
            if len(parts) != 1 or not one_home:
                local = False
            partitions.append(parts.pop() if len(parts) == 1 else -1)
        by_partition: dict[int, list[int]] = {}
        for idx, partition in enumerate(partitions):
            by_partition.setdefault(partition, []).append(idx)
        plan = _Plan(
            operand_specs=operand_specs, cache=caches[0], partitions=partitions,
            partition_load={p: len(idxs) for p, idxs in by_partition.items()},
            grouped=[idx for idxs in by_partition.values() for idx in idxs],
            block_flags=block_flags, blocks=frozenset(block_flags), local=local,
        )
        if len(self._plan_memo) >= MEMO_CAPACITY:
            self._plan_memo.clear()
        self._plan_memo[key] = (epoch, plan)
        return plan

    def _residency_preflight(self, plan: _Plan, level: str) -> bool:
        """True when staging is provably zero-cost: every block resident at
        the compute level, dests writable, nothing above to flush — the
        exact conditions of ``cc_prepare``'s no-op fast paths.  Probes are
        uncounted, so the check itself is invisible."""
        hierarchy = self.controller.hierarchy
        core = self.controller.core_id
        if level == L3:
            for addr in plan.blocks:
                slice_id = hierarchy.home_slice(addr, core)
                if not hierarchy.l3[slice_id].contains(addr):
                    return False
                entry = hierarchy.directory[slice_id].peek(addr)
                if entry is not None and entry.sharers:
                    return False
            return True
        target = hierarchy.l1[core] if level == L1 else hierarchy.l2[core]
        l1 = hierarchy.l1[core]
        for addr, is_dest in plan.block_flags.items():
            if not target.contains(addr):
                return False
            if is_dest and not target.state_of(addr).writable:
                return False
            if level == L2 and l1.contains(addr):
                return False
        return True

    # -- fused execution ---------------------------------------------------------------

    def _staged(self, instr: CCInstruction, plan: _Plan) -> tuple:
        """``(lines, dest lines, rows)`` of a plan's block ops: every
        operand's ``(set, way)`` in op order, the destination operands'
        ``(set, way)``, and each op's ``(row_a, row_b, row_dest)``.

        Memoized on the plan; valid while the cache's fill/invalidate
        epoch is unchanged (residency moves only through fills and
        invalidates).
        """
        cache = plan.cache
        if plan.staged is not None and plan.staged[0] == cache.epoch:
            return plan.staged[1:]
        tags, geometry = cache.tags, cache.geometry
        slots = self.controller._row_slots(instr)
        lines, dests, rows = [], [], []
        for spec in plan.operand_specs:
            op_rows = []
            for addr, is_dest in spec:
                way = tags.find(addr)
                if way is None:
                    raise CoherenceError(
                        f"{cache.name}: fused locate of absent block {addr:#x}")
                line = (tags.set_of(addr), way)
                lines.append(line)
                if is_dest:
                    dests.append(line)
                op_rows.append(geometry.locate(addr, way)[1])
            rows.append(self.controller._pick_rows(slots, op_rows, geometry.key_row))
        plan.staged = (cache.epoch, lines, dests, rows)
        return lines, dests, rows

    def _execute_fused(self, members: list[_Member],
                       out: StreamResult) -> list[CCResult]:
        """Run a fused group: canonical per-instruction staging and
        accounting (identical charges/stats/events, in identical order, to
        the sequential path — staging is zero-cost by precondition), with
        all sub-array kernels deferred into one level-wide call per target
        cache.
        """
        ctrl = self.controller
        tracer = ctrl.tracer
        level = members[0].level
        core = ctrl.core_id
        inplace_latency = float(ctrl.inplace.inplace_latency)
        notify = ctrl.config.l1d.hit_latency
        merged: dict[int, tuple] = {}
        bundles = []

        for member in members:
            instr = member.instr
            entry = ctrl.instruction_table.allocate(
                instr, total_ops=instr.num_blocks)
            entry.level = level
            if tracer is not None:
                tracer.emit(
                    "cc.dispatch", core=core, level=level,
                    opcode=instr.opcode.value, instr_id=entry.instr_id,
                    outcome="batched", reason=None,
                )
            plan = member.plan
            cache = plan.cache
            subop = instr.opcode.subarray_op
            lines, dests, rows = self._staged(instr, plan)
            ops: list[BlockOperation] = []
            for spec, partition in zip(plan.operand_specs, plan.partitions):
                op = BlockOperation(
                    instr_id=entry.instr_id,
                    op_index=entry.generate_next(),
                    subarray_op=subop,
                    operands=[BlockOperand(addr, is_dest=flag)
                              for addr, flag in spec],
                    lane_bits=instr.lane_bits,
                    partition=partition,
                )
                ctrl.operation_table.allocate(op)
                ops.append(op)
            # Zero-cost phase A: mark dests MODIFIED and pin-and-release
            # every operand in op order (the pin MRU-promotes, exactly like
            # the sequential path); fetches are no-ops by precondition.
            tags = cache.tags
            for set_index, way in dests:
                tags.set_state(set_index, way, MESIState.MODIFIED)
            tags.promote(lines, entry.instr_id)
            items = list(zip(ops, rows))
            merged.setdefault(id(cache), (cache, []))[1].extend(items)

            # Canonical per-instruction accounting, emitted *before* the
            # merged kernels run: every charged/emitted quantity is known
            # ahead of the kernel (result bits are not among them).  Ops
            # are grouped by partition, as the sequential path's phase B
            # orders them.
            ctrl.inplace.account_batch(cache, [items[idx] for idx in plan.grouped])
            for op in ops:
                if tracer is not None:
                    tracer.emit(
                        "cc.block_op", core=core, level=level,
                        opcode=instr.opcode.value, partition=op.partition,
                        addr=op.operands[0].addr, instr_id=entry.instr_id,
                        span=inplace_latency, outcome="in-place", reason=None,
                    )
                op.status = OpStatus.DONE
                ctrl.operation_table.retire(entry.instr_id, op.op_index)
            compute_cycles = ctrl._compute_makespan(level, plan.partition_load, 0.0)
            cycles = INSTRUCTION_OVERHEAD_CYCLES + compute_cycles + notify
            occupancy = (INSTRUCTION_OVERHEAD_CYCLES
                         + ctrl._issue_cycles(level, len(ops)))
            ctrl.stats.block_ops_inplace += len(ops)
            ctrl.stats.compute_cycles += compute_cycles
            ctrl.stats.level_compute_cycles[level] = (
                ctrl.stats.level_compute_cycles.get(level, 0.0) + compute_cycles
            )
            ctrl.key_table.release(entry.instr_id)
            if tracer is not None:
                for phase, span in (
                    ("decode", float(INSTRUCTION_OVERHEAD_CYCLES)),
                    ("compute-inplace", float(compute_cycles)),
                    ("notify", float(notify)),
                ):
                    if span:
                        tracer.emit(
                            "cc.attr", core=core, level=level,
                            opcode=instr.opcode.value, instr_id=entry.instr_id,
                            phase=phase, span=span,
                        )
                tracer.emit(
                    "cc.instruction", core=core, level=level,
                    opcode=instr.opcode.value, instr_id=entry.instr_id,
                    span=float(cycles), outcome="in-place",
                )
            ctrl.stats.instructions += 1
            bundles.append((member, entry, ops, cycles, compute_cycles, occupancy))

        # The fused kernels: one level-wide op_batch per target cache, items
        # in instruction order (preserving per-sub-array accounting order).
        for cache, items in merged.values():
            ctrl.inplace.kernel_batch(cache, items)
            out.kernel_calls += 1

        results = []
        for member, entry, ops, cycles, compute_cycles, occupancy in bundles:
            for op in ops:
                entry.complete_op(op.result_bits, op.result_bit_count)
            result = entry.result_mask
            ctrl.instruction_table.retire(entry.instr_id)
            results.append(CCResult(
                instr=member.instr, result=result, cycles=cycles, level=level,
                inplace_ops=len(ops), nearplace_ops=0, risc_ops=0,
                fetch_cycles=0.0, compute_cycles=compute_cycles,
                occupancy_cycles=occupancy, result_bytes=b"", pieces=1,
            ))
        return results
