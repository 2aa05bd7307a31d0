"""Cache geometry: address decoding, way->partition mapping, data plane."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.errors import AddressError
from repro.params import CacheLevelConfig, sandybridge_8core, small_test_machine


@pytest.fixture
def l3_geo():
    return CacheGeometry(sandybridge_8core().l3_slice)


@pytest.fixture
def small_geo():
    return CacheGeometry(small_test_machine().l1d)


class TestAddressDecode:
    def test_fields_of_known_address(self, l3_geo):
        cfg = l3_geo.config
        addr = (0x5 << (6 + cfg.set_index_bits)) | (0x123 << 6) | 0x15
        parts = l3_geo.decode(addr)
        assert parts.tag == 0x5
        assert parts.set_index == 0x123
        assert parts.offset == 0x15
        assert parts.bank == 0x123 & 0xF          # low 4 set bits
        assert parts.bp == (0x123 >> 4) & 0x3     # next 2 bits

    def test_negative_address(self, l3_geo):
        with pytest.raises(AddressError):
            l3_geo.decode(-1)

    @given(st.integers(min_value=0, max_value=2**34 - 1))
    @settings(max_examples=50)
    def test_decode_rebuild_round_trip(self, addr):
        geo = CacheGeometry(sandybridge_8core().l3_slice)
        parts = geo.decode(addr)
        assert geo.rebuild_address(parts.tag, parts.set_index, parts.offset) == addr

    @given(st.integers(min_value=0, max_value=2**30 - 1))
    @settings(max_examples=50)
    def test_partition_depends_only_on_low_bits(self, addr):
        """Figure 5(b): bank/partition selection uses only the low
        min_locality_bits of the address."""
        geo = CacheGeometry(sandybridge_8core().l3_slice)
        mask = (1 << geo.config.min_locality_bits) - 1
        shifted = addr + (1 << geo.config.min_locality_bits)
        assert geo.partition_of(addr) == geo.partition_of(addr & mask)
        assert geo.partition_of(addr) == geo.partition_of(shifted)


class TestWayMapping:
    def test_all_ways_same_partition(self, l3_geo):
        """Figure 5(a): every way of a set maps into the set's partition,
        so locality never depends on run-time way choice."""
        cfg = l3_geo.config
        for set_index in (0, 1, cfg.sets - 1):
            rows = [l3_geo.row_of(set_index, w) for w in range(cfg.ways)]
            assert len(set(rows)) == cfg.ways  # distinct rows
            assert all(0 <= r < cfg.blocks_per_partition for r in rows)

    def test_distinct_sets_in_partition_get_distinct_rows(self, l3_geo):
        cfg = l3_geo.config
        stride = cfg.banks * cfg.bps_per_bank  # sets mapping to same partition
        rows0 = {l3_geo.row_of(0, w) for w in range(cfg.ways)}
        rows1 = {l3_geo.row_of(stride, w) for w in range(cfg.ways)}
        assert rows0.isdisjoint(rows1)

    def test_bad_way_rejected(self, l3_geo):
        with pytest.raises(AddressError):
            l3_geo.row_of(0, l3_geo.config.ways)


class TestDataPlane:
    def test_write_read_round_trip(self, small_geo, make_bytes):
        data = make_bytes(64)
        small_geo.write_data(0x440, 2, data)
        assert small_geo.read_data(0x440, 2) == data

    def test_different_ways_independent(self, small_geo, make_bytes):
        d0, d1 = make_bytes(64), make_bytes(64)
        small_geo.write_data(0x100, 0, d0)
        small_geo.write_data(0x100, 1, d1)
        assert small_geo.read_data(0x100, 0) == d0
        assert small_geo.read_data(0x100, 1) == d1

    def test_locate_returns_live_handle(self, small_geo, make_bytes):
        data = make_bytes(64)
        small_geo.write_data(0x200, 3, data)
        sub, row = small_geo.locate(0x200, 3)
        assert sub.read_block(row) == data

    def test_key_row_reserved(self, small_geo, make_bytes):
        """The key row is beyond all data rows and independent of them."""
        key = make_bytes(64)
        p = small_geo.partition_of(0x0)
        row = small_geo.write_key(p, key)
        assert row == small_geo.config.blocks_per_partition
        assert small_geo.subarrays[p].read_block(row) == key

    def test_partition_count(self):
        for cfg_name in ("l1d", "l2", "l3_slice"):
            cfg: CacheLevelConfig = getattr(sandybridge_8core(), cfg_name)
            geo = CacheGeometry(cfg)
            assert len(geo.subarrays) == cfg.num_partitions


@pytest.fixture(scope="module")
def placement_machines():
    from repro.api import ComputeCacheMachine, multi_cluster

    return {"default": ComputeCacheMachine(),
            "multi_cluster(4, 2)": ComputeCacheMachine(multi_cluster(4, 2))}


class TestBlockPlacement:
    """``read_data``/``write_data``/``locate`` place a block by set
    arithmetic; it must land where :meth:`decode` and :meth:`row_of` say."""

    @pytest.mark.parametrize("machine_name", ["default", "multi_cluster(4, 2)"])
    @pytest.mark.parametrize("level", ["l1", "l2", "l3"])
    def test_every_set_and_way_lands_on_decoded_row(self, placement_machines,
                                                    machine_name, level):
        geo = getattr(placement_machines[machine_name].hierarchy, level)[0].geometry
        cfg = geo.config
        slots = set()
        for set_index in range(cfg.sets):
            addr = geo.rebuild_address(set_index % 5 + 1, set_index,
                                       set_index % cfg.block_size)
            sub = geo.subarrays[geo.decode(addr).partition]
            for way in range(cfg.ways):
                row = geo.row_of(set_index, way)
                located = geo.locate(addr, way)
                assert located[0] is sub and located[1] == row
                data = (set_index * cfg.ways + way).to_bytes(cfg.block_size, "little")
                geo.write_data(addr, way, data)
                assert sub.read_block(row) == data
                assert geo.read_data(addr, way) == data
                slots.add((id(sub), row))
        assert len(slots) == cfg.sets * cfg.ways

    @pytest.mark.parametrize("level", ["l1", "l2", "l3"])
    def test_bad_address_and_way_still_rejected(self, placement_machines, level):
        geo = getattr(placement_machines["default"].hierarchy, level)[0].geometry
        ways = geo.config.ways
        for call in (lambda a, w: geo.locate(a, w),
                     lambda a, w: geo.read_data(a, w),
                     lambda a, w: geo.write_data(a, w, bytes(64))):
            with pytest.raises(AddressError, match="negative address"):
                call(-64, 0)
            for way in (-1, ways):
                with pytest.raises(AddressError, match=f"way {way} outside"):
                    call(0x1000, way)
