"""Property test: the tag store against a list-of-ways LRU reference model.

Hypothesis drives random fill/touch/set_state/pin/unpin/invalidate
sequences through a tiny :class:`CacheLevel` (2 sets x 4 ways).  The
reference model keeps each set as a list of ways on one global LRU clock.
After every step both sides must agree on every block's way, state and
pin, on each set's victim (including "all ways pinned"), and on
``resident_addresses()``; every fill must agree on the way it landed in
and on what it evicted."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import MESIState
from repro.cache.cache import CacheLevel
from repro.energy.accounting import EnergyLedger
from repro.errors import CoherenceError, PinnedLineError
from repro.params import CacheLevelConfig

SETS, WAYS, BLOCK = 2, 4, 64
ADDRS = [i * BLOCK for i in range(5 * SETS)]   # five candidates per set
VALID = (MESIState.MODIFIED, MESIState.EXCLUSIVE, MESIState.SHARED)


def data_of(addr: int, version: int) -> bytes:
    return (addr * 131 + version).to_bytes(8, "little") * 8


class Model:
    """Each set is a list of ways; a way is None or a dict of the line."""

    def __init__(self) -> None:
        self.sets = [[None] * WAYS for _ in range(SETS)]
        self.clock = 0

    def find(self, addr):
        ways = self.sets[(addr // BLOCK) % SETS]
        for way, line in enumerate(ways):
            if line is not None and line["addr"] == addr:
                return way
        return None

    def line(self, addr):
        way = self.find(addr)
        return None if way is None else self.sets[(addr // BLOCK) % SETS][way]

    def touch(self, line) -> None:
        self.clock += 1
        line["lru"] = self.clock

    def victim(self, set_index):
        ways = self.sets[set_index]
        if None in ways:
            return ways.index(None)
        free = [w for w, line in enumerate(ways) if line["owner"] is None]
        if not free:
            return None
        return min(free, key=lambda w: ways[w]["lru"])

    def residents(self):
        return [line["addr"] for ways in self.sets for line in ways if line is not None]


def tiny_level() -> CacheLevel:
    cfg = CacheLevelConfig(name="L1-D", size=SETS * WAYS * BLOCK, ways=WAYS,
                           banks=2, bps_per_bank=1, hit_latency=1)
    return CacheLevel(cfg, EnergyLedger())


# Fills weigh three times and pins twice the other operations, so that
# sequences reach evictions and sets whose every way is pinned.
ops = st.lists(
    st.tuples(
        st.sampled_from(("fill",) * 3 + ("pin",) * 2
                        + ("touch", "set_state", "unpin", "invalidate")),
        st.sampled_from(ADDRS),
        st.sampled_from(VALID),
        st.integers(1, 3),        # pin owner
    ),
    min_size=30,
    max_size=80,
)


def check_agree(level: CacheLevel, model: Model) -> None:
    for addr in ADDRS:
        line = model.line(addr)
        assert level.probe(addr) == model.find(addr), hex(addr)
        assert level.state_of(addr) is (line["state"] if line else MESIState.INVALID)
        assert level.is_pinned(addr) == (line is not None and line["owner"] is not None)
    for set_index in range(SETS):
        expected = model.victim(set_index)
        if expected is None:
            with pytest.raises(PinnedLineError):
                level.tags.victim_way(set_index)
        else:
            assert level.tags.victim_way(set_index) == expected
    assert level.resident_addresses() == model.residents()


def step(level: CacheLevel, model: Model, op: str, addr: int,
         state: MESIState, owner: int, version: int) -> None:
    line = model.line(addr)
    set_index = (addr // BLOCK) % SETS
    if op == "fill":
        if line is not None:
            with pytest.raises(CoherenceError):
                level.fill(addr, data_of(addr, version), state)
            return
        way = model.victim(set_index)
        if way is None:
            with pytest.raises(PinnedLineError):
                level.fill(addr, data_of(addr, version), state)
            return
        old = model.sets[set_index][way]
        eviction = level.fill(addr, data_of(addr, version), state)
        if old is None:
            assert eviction is None
        else:
            assert (eviction.addr, eviction.dirty, eviction.data) == (
                old["addr"], old["state"] is MESIState.MODIFIED, old["data"])
        model.sets[set_index][way] = {"addr": addr, "state": state, "lru": 0,
                                      "owner": None, "data": data_of(addr, version)}
        model.touch(model.sets[set_index][way])
        assert level.probe(addr) == way
    elif line is None:
        if op in ("touch", "set_state", "pin"):
            action = {"touch": lambda: level.read_block(addr),
                      "set_state": lambda: level.set_state(addr, state),
                      "pin": lambda: level.pin(addr, owner)}[op]
            with pytest.raises(CoherenceError):
                action()
        elif op == "unpin":
            level.unpin(addr)
        else:
            assert level.invalidate(addr) is None
    elif op == "touch":
        assert level.read_block(addr) == line["data"]
        model.touch(line)
    elif op == "set_state":
        level.set_state(addr, state)
        line["state"] = state
    elif op == "pin":
        if line["owner"] not in (None, owner):
            with pytest.raises(PinnedLineError):
                level.pin(addr, owner)
            return
        level.pin(addr, owner)
        line["owner"] = owner
        model.touch(line)
    elif op == "unpin":
        level.unpin(addr)
        line["owner"] = None
    else:
        assert level.invalidate(addr) == (line["data"],
                                          line["state"] is MESIState.MODIFIED)
        model.sets[set_index][model.find(addr)] = None


@settings(max_examples=200, deadline=None)
@given(ops)
def test_tag_store_matches_lru_reference(sequence):
    level, model = tiny_level(), Model()
    for version, (op, addr, state, owner) in enumerate(sequence):
        step(level, model, op, addr, state, owner, version)
        check_agree(level, model)
