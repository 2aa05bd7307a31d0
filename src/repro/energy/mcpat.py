"""Static + dynamic power roll-up (McPAT-substitute).

McPAT gives the paper per-structure dynamic energies (consumed via
:mod:`repro.energy.tables`) and leakage power.  This module supplies the
leakage side: total energy = dynamic (from the ledger) + static power x
execution time.  Static power is split into a core and an uncore component
so the ``core-static`` / ``uncore-static`` bars of Figures 7(c), 8(a) and 11
can be reproduced.  Reduced execution time is the lever by which Compute
Caches reduce static energy (Section VI-D).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from ..params import CoreConfig, MachineConfig
from .accounting import Component, EnergyLedger


@dataclass(frozen=True)
class TotalEnergy:
    """The four bars of a Figure 7(c)-style stacked total-energy plot (nJ)."""

    core_dynamic: float
    uncore_dynamic: float
    core_static: float
    uncore_static: float

    @property
    def total(self) -> float:
        return (
            self.core_dynamic + self.uncore_dynamic + self.core_static + self.uncore_static
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "core-dynamic": self.core_dynamic,
            "uncore-dynamic": self.uncore_dynamic,
            "core-static": self.core_static,
            "uncore-static": self.uncore_static,
        }


class PowerModel:
    """Combines an :class:`EnergyLedger` with leakage power over time."""

    def __init__(self, config: MachineConfig, active_cores: int = 1) -> None:
        self.config = config
        self.active_cores = active_cores

    def _seconds(self, cycles: float, core: CoreConfig) -> float:
        return cycles * core.cycle_ns * 1e-9

    def total_energy(self, ledger: EnergyLedger, cycles: float) -> TotalEnergy:
        """Roll up a run's dynamic ledger and cycle count into total energy (nJ)."""
        core = self.config.core
        seconds = self._seconds(cycles, core)
        core_static_nj = core.static_power_core_mw * 1e-3 * self.active_cores * seconds * 1e9
        uncore_static_nj = self.config.static_power_uncore_mw * 1e-3 * seconds * 1e9
        core_dynamic_nj = ledger.core() / 1000.0
        uncore_dynamic_nj = (ledger.total() - ledger.core()) / 1000.0
        return TotalEnergy(
            core_dynamic=core_dynamic_nj,
            uncore_dynamic=uncore_dynamic_nj,
            core_static=core_static_nj,
            uncore_static=uncore_static_nj,
        )

    def static_power_watts(self) -> float:
        """Total leakage power of active cores + uncore, in watts."""
        return (
            self.config.core.static_power_core_mw * self.active_cores
            + self.config.static_power_uncore_mw
        ) * 1e-3


def _table_level(level_name: str) -> str:
    """The :mod:`repro.energy.tables` row of a cache level (both L1s share
    the L1-D row)."""
    return "L1-D" if level_name.startswith("L1") else level_name


@functools.cache
def _conventional_split(level_name: str, write: bool) -> tuple[str, float, str, float]:
    """``(access component, access pJ, ic component, ic pJ)`` of one
    conventional 64-byte read or write at ``level_name``.

    A pure function of the level name and the module tables, so each
    level's split is computed once per process.
    """
    from .tables import CACHE_ACCESS_ENERGY_PJ, CACHE_IC_ENERGY_PJ, read_energy, write_energy

    access_c, ic_c = Component.for_level(level_name)
    table_level = _table_level(level_name)
    ic = CACHE_IC_ENERGY_PJ[table_level]
    array = CACHE_ACCESS_ENERGY_PJ[table_level]
    total = write_energy(table_level) if write else read_energy(table_level)
    scale = total / (ic + array)
    return access_c, array * scale, ic_c, ic * scale


def charge_cache_read(ledger: EnergyLedger, level_name: str) -> None:
    """Charge one conventional 64-byte read at ``level_name`` to a ledger,
    split into access and H-tree components per Table I proportions."""
    access_c, access_pj, ic_c, ic_pj = _conventional_split(level_name, False)
    ledger.add(access_c, access_pj)
    ledger.add(ic_c, ic_pj)


def charge_cache_write(ledger: EnergyLedger, level_name: str) -> None:
    """Charge one conventional 64-byte write, split like a read.

    Table I only reports the read split; writes use the same ic/access
    proportion applied to the Table V write energy.
    """
    access_c, access_pj, ic_c, ic_pj = _conventional_split(level_name, True)
    ledger.add(access_c, access_pj)
    ledger.add(ic_c, ic_pj)


@functools.cache
def _cc_op_charge(level_name: str, op: str) -> tuple[str, float]:
    """``(access component, pJ)`` of one in-place ``op`` at ``level_name``,
    computed once per pair like :func:`_conventional_split`."""
    from .tables import cc_op_energy

    access_c, _ = Component.for_level(level_name)
    return access_c, cc_op_energy(_table_level(level_name), op)


def charge_cc_op(ledger: EnergyLedger, level_name: str, op: str) -> None:
    """Charge one in-place CC block operation.

    In-place operations never traverse the H-tree, so the whole Table V
    energy lands on the ``*-access`` component.
    """
    ledger.add(*_cc_op_charge(level_name, op))


@functools.cache
def _cc_arith_charge(level_name: str, op: str, elem_bits: int,
                     n_elems: int | None) -> tuple[str, float]:
    """``(access component, pJ)`` of one bit-serial ``op`` block, computed
    once per key like :func:`_cc_op_charge`."""
    from .tables import cc_arith_energy

    access_c, _ = Component.for_level(level_name)
    return access_c, cc_arith_energy(_table_level(level_name), op, elem_bits, n_elems)


def charge_cc_arith(ledger: EnergyLedger, level_name: str, op: str,
                    elem_bits: int, n_elems: int | None = None) -> None:
    """Charge one in-place bit-serial arithmetic block operation.

    Like :func:`charge_cc_op` the energy never traverses the H-tree, but
    it scales with the bit-serial step count (Table V logic energy per
    step, see :func:`repro.energy.tables.cc_arith_energy`).
    """
    ledger.add(*_cc_arith_charge(level_name, op, elem_bits, n_elems))


@functools.cache
def _transpose_charge(level_name: str) -> tuple[str, float]:
    """``(access component, pJ)`` of one block's layout conversion."""
    from .tables import transpose_energy

    access_c, _ = Component.for_level(level_name)
    return access_c, transpose_energy(_table_level(level_name))


def charge_transpose(ledger: EnergyLedger, level_name: str, blocks: int) -> None:
    """Charge ``blocks`` row-major <-> bit-serial layout conversions.

    Each conversion is one data-array read plus one write through the
    sub-array-periphery transpose unit (no H-tree component)."""
    if blocks <= 0:
        return
    access_c, per_block = _transpose_charge(level_name)
    ledger.add(access_c, blocks * per_block)


@functools.cache
def _key_broadcast_charge(level_name: str) -> tuple[str, float]:
    """``(ic component, pJ)`` of one key broadcast at ``level_name``."""
    from .tables import CACHE_IC_ENERGY_PJ

    _, ic_c = Component.for_level(level_name)
    return ic_c, 2.0 * CACHE_IC_ENERGY_PJ[_table_level(level_name)]


def charge_key_broadcast(ledger: EnergyLedger, level_name: str) -> None:
    """One H-tree broadcast of a 64-byte key to all target sub-arrays.

    The H-tree is a fanout tree: driving the key onto it once reaches every
    leaf, so a multi-partition key replication pays the wire energy once
    (charged at 2x the single-path Table I value to cover the fully-
    switched tree) plus a per-partition array write
    (:func:`charge_key_row_write`).
    """
    ledger.add(*_key_broadcast_charge(level_name))


@functools.cache
def _key_row_write_charge(level_name: str) -> tuple[str, float]:
    """``(access component, pJ)`` of one key-row write at ``level_name``."""
    from .tables import CACHE_IC_ENERGY_PJ, write_energy

    access_c, _ = Component.for_level(level_name)
    table_level = _table_level(level_name)
    return access_c, write_energy(table_level) - CACHE_IC_ENERGY_PJ[table_level]


def charge_key_row_write(ledger: EnergyLedger, level_name: str) -> None:
    """The data-array portion of one key-row write (no H-tree component -
    that is paid once by :func:`charge_key_broadcast`)."""
    ledger.add(*_key_row_write_charge(level_name))


def charge_nearplace_op(ledger: EnergyLedger, level_name: str, op: str) -> None:
    """Charge one near-place CC block operation.

    Near-place reads operands over the H-tree to the controller's logic
    unit and writes any result back, so it pays conventional read/write
    energy (including the H-tree component) instead of the in-place cost.
    """
    reads = {"copy": 1, "buz": 0, "not": 1, "cmp": 2, "search": 2,
             "reduce": 1}.get(op, 2)
    writes = 0 if op in ("cmp", "search", "reduce") else 1
    for _ in range(reads):
        charge_cache_read(ledger, level_name)
    for _ in range(writes):
        charge_cache_write(ledger, level_name)
