"""Set-associative tag store with LRU replacement and CC pinning.

The tag store is pure metadata: the data plane lives in the sub-arrays
managed by :class:`~repro.cache.geometry.CacheGeometry`.  It is the only
owner and the only writer of line state.  Tags, MESI states, LRU clocks
and pin owners live in flat per-level lists indexed ``set * ways + way``,
and a residency index keyed by block address finds a resident block's way
with one dict lookup.

Replacement is true LRU on one exact clock per level.  Lines pinned by the
CC controller are excluded from victim selection and promoted to MRU while
their operation waits for missing operands (Section IV-E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..errors import AddressError, CoherenceError, PinnedLineError
from ..params import CacheLevelConfig
from .block import MESIState

INVALID = MESIState.INVALID


@dataclass
class SetAssocStats:
    lookups: int = 0
    hits: int = 0
    evictions: int = 0
    pinned_evictions_avoided: int = 0

    @property
    def misses(self) -> int:
        return self.lookups - self.hits


class LineView(NamedTuple):
    """Read-only snapshot of one way of one set."""

    tag: int
    state: MESIState
    lru: int
    pin_owner: int | None

    @property
    def valid(self) -> bool:
        return self.state is not INVALID

    @property
    def pinned(self) -> bool:
        return self.pin_owner is not None


class SetAssociativeArray:
    """Tags, states, LRU and pins for one cache level."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self.sets = config.sets
        self.ways = config.ways
        self._offset_bits = config.offset_bits
        self._set_mask = self.sets - 1
        self._tag_shift = config.offset_bits + config.set_index_bits
        slots = self.sets * self.ways
        self._tag = [0] * slots
        self._state = [INVALID] * slots
        self._lru = [0] * slots
        self._owner: list[int | None] = [None] * slots
        self._where: dict[int, int] = {}
        """Residency index: block address -> way, for every valid line."""
        self._clock = 0
        self.stats = SetAssocStats()

    # -- addressing ---------------------------------------------------------------

    def _address(self, set_index: int, tag: int) -> int:
        """Block address of (set, tag)."""
        return (tag << self._tag_shift) | (set_index << self._offset_bits)

    def set_of(self, addr: int) -> int:
        return (addr >> self._offset_bits) & self._set_mask

    def split(self, addr: int) -> tuple[int, int]:
        """``(set_index, tag)`` of a block address."""
        return self.set_of(addr), addr >> self._tag_shift

    def _set_base(self, set_index: int) -> int:
        """Slot of way 0 of a set, after checking the set's range."""
        if not 0 <= set_index < self.sets:
            raise AddressError(f"set {set_index} outside 0..{self.sets - 1}")
        return set_index * self.ways

    def _slot(self, set_index: int, way: int) -> int:
        base = self._set_base(set_index)
        if not 0 <= way < self.ways:
            raise AddressError(f"way {way} outside 0..{self.ways - 1}")
        return base + way

    # -- lookup -----------------------------------------------------------------

    def find(self, addr: int) -> int | None:
        """Way holding the block at ``addr``, or None (uncounted)."""
        return self._where.get(addr)

    def holds_any(self, addrs) -> bool:
        """Whether any block address in ``addrs`` is resident (uncounted)."""
        return not self._where.keys().isdisjoint(addrs)

    def lookup(self, set_index: int, tag: int) -> int | None:
        """Return the way holding (set, tag), or None on miss."""
        self._set_base(set_index)
        way = self._where.get(self._address(set_index, tag))
        self.stats.lookups += 1
        if way is not None:
            self.stats.hits += 1
        return way

    def probe(self, set_index: int, tag: int) -> int | None:
        """Like :meth:`lookup` but without touching statistics (used by
        coherence probes and CC level-selection)."""
        self._set_base(set_index)
        return self._where.get(self._address(set_index, tag))

    def state(self, set_index: int, way: int) -> MESIState:
        return self._state[self._slot(set_index, way)]

    def set_state(self, set_index: int, way: int, state: MESIState) -> None:
        """Change the MESI state of a valid line (removal is :meth:`invalidate`)."""
        slot = self._slot(set_index, way)
        if self._state[slot] is INVALID or state is INVALID:
            raise CoherenceError(
                f"set {set_index} way {way}: state change {self._state[slot].value}"
                f"->{state.value} must go through install/invalidate")
        self._state[slot] = state

    def pinned(self, set_index: int, way: int) -> bool:
        return self._owner[self._slot(set_index, way)] is not None

    # -- replacement --------------------------------------------------------------

    def touch(self, set_index: int, way: int) -> None:
        """Promote (set, way) to MRU."""
        slot = self._slot(set_index, way)
        self._clock += 1
        self._lru[slot] = self._clock

    def victim_way(self, set_index: int) -> int:
        """LRU victim among unpinned ways; invalid ways win immediately."""
        base = self._set_base(set_index)
        end = base + self.ways
        states = self._state[base:end]
        if INVALID in states:
            return states.index(INVALID)
        owners = self._owner[base:end]
        free = [way for way, owner in enumerate(owners) if owner is None]
        if not free:
            raise PinnedLineError(
                f"all {self.ways} ways of set {set_index} are pinned by CC operations"
            )
        skipped = self.ways - len(free)
        if skipped:
            self.stats.pinned_evictions_avoided += skipped
        return min(free, key=self._lru[base:end].__getitem__)

    def install(self, set_index: int, way: int, tag: int,
                state: MESIState) -> tuple[int, MESIState] | None:
        """Fill (set, way) with a new tag in the given state, MRU position.

        Returns the displaced line's ``(address, state)``, or None if the
        way was invalid."""
        slot = self._slot(set_index, way)
        if state is INVALID:
            raise CoherenceError(f"set {set_index} way {way}: install in state I")
        addr = self._address(set_index, tag)
        if self._where.get(addr, way) != way:
            raise CoherenceError(
                f"block {addr:#x} already resident in way {self._where[addr]}")
        evicted = None
        old = self._state[slot]
        if old is not INVALID:
            self.stats.evictions += 1
            evicted = (self._address(set_index, self._tag[slot]), old)
            del self._where[evicted[0]]
        self._where[addr] = way
        self._tag[slot] = tag
        self._state[slot] = state
        self._owner[slot] = None
        self._clock += 1
        self._lru[slot] = self._clock
        return evicted

    def invalidate(self, set_index: int, way: int) -> MESIState:
        """Drop the line at (set, way) and its pin; returns its prior state."""
        slot = self._slot(set_index, way)
        old = self._state[slot]
        if old is not INVALID:
            del self._where[self._address(set_index, self._tag[slot])]
            self._state[slot] = INVALID
        self._owner[slot] = None
        return old

    # -- pinning (Section IV-E) -----------------------------------------------------

    def pin(self, set_index: int, way: int, owner: int) -> None:
        """Pin a line for an in-flight CC operation and promote it to MRU."""
        slot = self._slot(set_index, way)
        current = self._owner[slot]
        if current is not None and current != owner:
            raise PinnedLineError(
                f"set {set_index} way {way} already pinned by CC instruction "
                f"{current}"
            )
        self._owner[slot] = owner
        self._clock += 1
        self._lru[slot] = self._clock

    def unpin(self, set_index: int, way: int) -> None:
        self._owner[self._slot(set_index, way)] = None

    def promote(self, lines: list[tuple[int, int]], owner: int) -> None:
        """Pin each ``(set, way)`` of ``lines`` for ``owner`` and release it
        again, in order: the MRU promotions of in-place operations whose
        pins nothing observes.  Raises like :meth:`pin` if another CC
        instruction holds one of the lines, before promoting any."""
        slots = [self._slot(set_index, way) for set_index, way in lines]
        owners = self._owner
        for slot, (set_index, way) in zip(slots, lines):
            current = owners[slot]
            if current is not None and current != owner:
                raise PinnedLineError(
                    f"set {set_index} way {way} already pinned by CC instruction "
                    f"{current}"
                )
        lru = self._lru
        clock = self._clock
        for slot in slots:
            clock += 1
            lru[slot] = clock
        self._clock = clock

    def pinned_ways(self, set_index: int) -> list[int]:
        base = self._set_base(set_index)
        owners = self._owner[base:base + self.ways]
        return [way for way, owner in enumerate(owners) if owner is not None]

    # -- inspection (scrubbing, inclusion checks) ------------------------------------

    def residents(self) -> list[int]:
        """Addresses of every valid line, in set-then-way order."""
        where = self._where
        return sorted(where, key=lambda addr: (self.set_of(addr), where[addr]))

    def entry(self, set_index: int, way: int) -> LineView:
        """Snapshot of (set, way); changing a line goes through the methods
        above."""
        slot = self._slot(set_index, way)
        return LineView(self._tag[slot], self._state[slot], self._lru[slot],
                        self._owner[slot])

    def valid_entries(self):
        """Yield ``(set_index, way, LineView)`` for every valid line."""
        for addr in self.residents():
            set_index = self.set_of(addr)
            way = self._where[addr]
            yield set_index, way, self.entry(set_index, way)
