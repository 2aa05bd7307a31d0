"""Energy ledger, power model, and charge-function tests."""

import pytest

from repro.energy.accounting import Component, EnergyLedger
from repro.energy.mcpat import (
    PowerModel,
    charge_cache_read,
    charge_cache_write,
    charge_cc_arith,
    charge_cc_op,
    charge_key_broadcast,
    charge_key_row_write,
    charge_nearplace_op,
    charge_transpose,
)
from repro.energy.tables import (
    CACHE_IC_ENERGY_PJ,
    cc_arith_energy,
    cc_op_energy,
    htree_fraction,
    read_energy,
    transpose_energy,
    write_energy,
)
from repro.errors import ConfigError, ISAError
from repro.params import sandybridge_8core


class TestLedger:
    def test_add_and_total(self):
        ledger = EnergyLedger()
        ledger.add(Component.CORE, 100.0)
        ledger.add(Component.CORE, 50.0)
        ledger.add(Component.L3_IC, 25.0)
        assert ledger.total() == 175.0
        assert ledger.core() == 150.0
        assert ledger.total_nj() == pytest.approx(0.175)

    def test_groupings(self):
        ledger = EnergyLedger()
        ledger.add(Component.L1_ACCESS, 1.0)
        ledger.add(Component.L2_ACCESS, 2.0)
        ledger.add(Component.L3_IC, 4.0)
        ledger.add(Component.NOC, 8.0)
        assert ledger.cache_access() == 3.0
        assert ledger.cache_ic() == 4.0
        assert ledger.noc() == 8.0
        assert ledger.data_movement() == 15.0
        assert ledger.breakdown() == {
            "core": 0.0, "cache-access": 3.0, "cache-ic": 4.0, "noc": 8.0
        }

    def test_diff_and_merge(self):
        a, b = EnergyLedger(), EnergyLedger()
        a.add(Component.CORE, 10.0)
        b.add(Component.CORE, 25.0)
        b.add(Component.NOC, 5.0)
        diff = a.diff(b)
        assert diff[Component.CORE] == 15.0
        assert diff[Component.NOC] == 5.0
        a.merge(b)
        assert a.core() == 35.0

    def test_copy_is_independent(self):
        a = EnergyLedger()
        a.add(Component.CORE, 1.0)
        b = a.copy()
        b.add(Component.CORE, 1.0)
        assert a.core() == 1.0 and b.core() == 2.0

    def test_component_for_level(self):
        assert Component.for_level("L1-D") == ("l1-access", "l1-ic")
        assert Component.for_level("L3-slice") == ("l3-access", "l3-ic")
        with pytest.raises(KeyError):
            Component.for_level("L4")


class TestTables:
    def test_read_write_lookups(self):
        assert read_energy("L3-slice") == 2452.0
        assert write_energy("L1-D") == 375.0
        with pytest.raises(ConfigError):
            read_energy("L9")

    def test_cc_op_column_mapping(self):
        assert cc_op_energy("L3-slice", "buz") == cc_op_energy("L3-slice", "copy")
        assert cc_op_energy("L2", "xor") == cc_op_energy("L2", "or")
        assert cc_op_energy("L1-D", "clmul") == cc_op_energy("L1-D", "cmp")
        with pytest.raises(ISAError):
            cc_op_energy("L2", "div")

    def test_htree_fraction(self):
        assert htree_fraction("L3-slice") == pytest.approx(1985 / 2452)


class TestChargeFunctions:
    def test_read_split_sums_to_table5(self):
        ledger = EnergyLedger()
        charge_cache_read(ledger, "L2")
        assert ledger.total() == pytest.approx(read_energy("L2"))
        assert ledger.get(Component.L2_IC) > ledger.get(Component.L2_ACCESS)

    def test_write_split_sums_to_table5(self):
        ledger = EnergyLedger()
        charge_cache_write(ledger, "L3-slice")
        assert ledger.total() == pytest.approx(write_energy("L3-slice"))

    def test_l1i_maps_to_l1_components(self):
        ledger = EnergyLedger()
        charge_cache_read(ledger, "L1-I")
        assert ledger.get(Component.L1_ACCESS) > 0

    def test_cc_op_has_no_ic_component(self):
        """In-place ops never traverse the H-tree."""
        ledger = EnergyLedger()
        charge_cc_op(ledger, "L3-slice", "and")
        assert ledger.cache_ic() == 0.0
        assert ledger.total() == pytest.approx(cc_op_energy("L3-slice", "and"))

    def test_nearplace_pays_htree(self):
        ledger = EnergyLedger()
        charge_nearplace_op(ledger, "L3-slice", "xor")
        assert ledger.cache_ic() > 0
        # 2 reads + 1 write, all conventional.
        assert ledger.total() == pytest.approx(
            2 * read_energy("L3-slice") + write_energy("L3-slice")
        )

    def test_key_broadcast_plus_row_writes(self):
        """Broadcast wire energy once + array-only writes per partition is
        cheaper than N full writes but costlier than one."""
        ledger = EnergyLedger()
        charge_key_broadcast(ledger, "L3-slice")
        for _ in range(16):
            charge_key_row_write(ledger, "L3-slice")
        total = ledger.total()
        assert write_energy("L3-slice") < total < 16 * write_energy("L3-slice")
        assert ledger.get(Component.L3_IC) == pytest.approx(
            2 * CACHE_IC_ENERGY_PJ["L3-slice"]
        )


LEVEL_NAMES = ("L1-D", "L1-I", "L2", "L3-slice")


def _table_level(level_name: str) -> str:
    return "L1-D" if level_name.startswith("L1") else level_name


def _charged(charge, *args) -> dict[str, float]:
    """The ledger of one charge, issued twice on fresh ledgers: the
    memoized second call must charge exactly what the first did."""
    first, second = EnergyLedger(), EnergyLedger()
    charge(first, *args)
    charge(second, *args)
    assert first.pj == second.pj
    return first.pj


class TestMemoizedCharges:
    """Charges computed once per key equal the tables they come from,
    bit for bit."""

    @pytest.mark.parametrize("elem_bits", (8, 16, 32))
    @pytest.mark.parametrize("op", ("add", "mul", "reduce"))
    @pytest.mark.parametrize("level_name", LEVEL_NAMES)
    def test_cc_arith(self, level_name, op, elem_bits):
        access, _ = Component.for_level(level_name)
        n_elems = 512 // elem_bits
        assert _charged(charge_cc_arith, level_name, op, elem_bits, n_elems) == {
            access: cc_arith_energy(_table_level(level_name), op, elem_bits, n_elems)}

    @pytest.mark.parametrize("level_name", LEVEL_NAMES)
    def test_key_broadcast_and_row_write(self, level_name):
        access, ic = Component.for_level(level_name)
        table_level = _table_level(level_name)
        assert _charged(charge_key_broadcast, level_name) == {
            ic: 2.0 * CACHE_IC_ENERGY_PJ[table_level]}
        assert _charged(charge_key_row_write, level_name) == {
            access: write_energy(table_level) - CACHE_IC_ENERGY_PJ[table_level]}

    @pytest.mark.parametrize("blocks", (1, 3, 64))
    @pytest.mark.parametrize("level_name", LEVEL_NAMES)
    def test_transpose(self, level_name, blocks):
        access, _ = Component.for_level(level_name)
        assert _charged(charge_transpose, level_name, blocks) == {
            access: blocks * transpose_energy(_table_level(level_name))}
        assert _charged(charge_transpose, level_name, 0) == {}


class TestPowerModel:
    def test_static_scales_with_time(self):
        cfg = sandybridge_8core()
        model = PowerModel(cfg, active_cores=1)
        ledger = EnergyLedger()
        short = model.total_energy(ledger, cycles=1000)
        long = model.total_energy(ledger, cycles=2000)
        assert long.core_static == pytest.approx(2 * short.core_static)
        assert long.uncore_static == pytest.approx(2 * short.uncore_static)

    def test_active_cores_scale_core_static(self):
        cfg = sandybridge_8core()
        one = PowerModel(cfg, active_cores=1).total_energy(EnergyLedger(), 1000)
        eight = PowerModel(cfg, active_cores=8).total_energy(EnergyLedger(), 1000)
        assert eight.core_static == pytest.approx(8 * one.core_static)
        assert eight.uncore_static == pytest.approx(one.uncore_static)

    def test_dynamic_split(self):
        cfg = sandybridge_8core()
        ledger = EnergyLedger()
        ledger.add(Component.CORE, 5000.0)
        ledger.add(Component.L3_ACCESS, 3000.0)
        total = PowerModel(cfg).total_energy(ledger, 0)
        assert total.core_dynamic == pytest.approx(5.0)
        assert total.uncore_dynamic == pytest.approx(3.0)
        assert total.as_dict()["core-dynamic"] == pytest.approx(5.0)

    def test_static_power_watts(self):
        cfg = sandybridge_8core()
        watts = PowerModel(cfg, active_cores=2).static_power_watts()
        assert watts == pytest.approx((2 * 450 + 1400) / 1000)
