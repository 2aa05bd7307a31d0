"""Per-access costs computed once (per level, per route, per op) equal the
costs computed from the tables and formulas on every access.

The conventional block path charges constants that depend only on a level
name, a ring route or a sub-array op.  These tests compare the charged
totals, with ``==`` and not ``approx``, against a reference that evaluates
the tables and the ``route``/``latency`` formulas afresh for every access
and accumulates in the same order.
"""

import random

import pytest

from repro.cache.ring import RingInterconnect, RingStats
from repro.cache.topology import ClusterInterconnect, TopologyStats
from repro.energy.accounting import Component, EnergyLedger
from repro.energy.mcpat import charge_cache_read, charge_cache_write
from repro.energy.tables import (
    CACHE_ACCESS_ENERGY_PJ,
    CACHE_IC_ENERGY_PJ,
    read_energy,
    write_energy,
)
from repro.errors import ISAError
from repro.events.tracer import EventTracer
from repro.params import RingConfig, multi_cluster
from repro.sram.subarray import BACKENDS, ComputeSubarray
from repro.sram.timing import arith_steps

# -- interconnect ---------------------------------------------------------------------


def _messages(stops: int, seed: int, n: int = 400) -> list[tuple[int, int, bool]]:
    rng = random.Random(seed)
    return [(rng.randrange(stops), rng.randrange(stops), rng.random() < 0.5)
            for _ in range(n)]


def _send(ring, src: int, dst: int, data: bool) -> int:
    return ring.send_block(src, dst) if data else ring.send_control(src, dst)


class TestFlatRingCosts:
    @pytest.mark.parametrize("stops", [1, 2, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stats_latency_and_energy_match_formulas(self, stops, seed):
        cfg = RingConfig(stops=stops)
        ledger = EnergyLedger()
        ring = RingInterconnect(cfg, ledger)
        stats, noc = RingStats(), EnergyLedger()
        for src, dst, data in _messages(stops, seed):
            h = ring.hops(src, dst)
            flits = cfg.flits_per_block if data else 1
            assert _send(ring, src, dst, data) == ring.latency(src, dst, data)
            if data:
                stats.data_messages += 1
            else:
                stats.control_messages += 1
            stats.flit_hops += h * flits
            stats.energy_pj += h * flits * cfg.energy_per_hop_per_flit
            noc.add(Component.NOC, h * flits * cfg.energy_per_hop_per_flit)
        assert ring.stats == stats
        assert ledger.pj == noc.pj


class TestClusterCosts:
    @pytest.mark.parametrize("clusters,cores_per_cluster", [(1, 4), (2, 2), (4, 2)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_stats_latency_and_energy_match_route(self, clusters,
                                                  cores_per_cluster, seed):
        mc = multi_cluster(clusters, cores_per_cluster)
        ring_cfg, topo = mc.ring, mc.topology
        ledger, tracer = EnergyLedger(), EventTracer()
        ci = ClusterInterconnect(ring_cfg, topo, ledger, tracer=tracer)
        stats, topo_stats, noc = RingStats(), TopologyStats(), EnergyLedger()
        for src, dst, data in _messages(ring_cfg.stops, seed):
            intra, inter = ci.route(src, dst)
            assert _send(ci, src, dst, data) == ci.latency(src, dst, data)
            ring_flits = ring_cfg.flits_per_block if data else 1
            intra_pj = intra * ring_flits * ring_cfg.energy_per_hop_per_flit
            stats.flit_hops += intra * ring_flits
            if data:
                stats.data_messages += 1
            else:
                stats.control_messages += 1
            stats.energy_pj += intra_pj
            noc.add(Component.NOC, intra_pj)
            if inter:
                inter_flits = topo.inter_flits_per_block if data else 1
                inter_pj = (inter * inter_flits
                            * topo.inter_energy_per_hop_per_flit)
                topo_stats.inter_messages += 1
                topo_stats.inter_flit_hops += inter * inter_flits
                topo_stats.inter_energy_pj += inter_pj
                stats.energy_pj += inter_pj
                noc.add(Component.NOC, inter_pj)
        assert ci.stats == stats
        assert ci.topo_stats == topo_stats
        assert ledger.pj == noc.pj
        # Every cluster-crossing message still emits its own topo.hop event.
        assert len(tracer.by_kind("topo.hop")) == topo_stats.inter_messages


# -- cache read/write energy ---------------------------------------------------------------


def _table_split(level_name: str, total_of) -> dict[str, float]:
    access_c, ic_c = Component.for_level(level_name)
    table_level = "L1-D" if level_name.startswith("L1") else level_name
    ic = CACHE_IC_ENERGY_PJ[table_level]
    array = CACHE_ACCESS_ENERGY_PJ[table_level]
    scale = total_of(table_level) / (ic + array)
    return {access_c: array * scale, ic_c: ic * scale}


class TestCacheChargeSplit:
    @pytest.mark.parametrize("level_name", sorted(Component._BY_LEVEL))
    @pytest.mark.parametrize("charge,total_of", [
        (charge_cache_read, read_energy), (charge_cache_write, write_energy)])
    def test_charge_adds_exactly_the_table_split(self, level_name, charge,
                                                 total_of):
        split = _table_split(level_name, total_of)
        ledger = EnergyLedger()
        charge(ledger, level_name)
        assert ledger.pj == split
        charge(ledger, level_name)
        assert ledger.pj == {c: pj + pj for c, pj in split.items()}

    def test_unknown_level_still_raises(self):
        with pytest.raises(KeyError):
            charge_cache_read(EnergyLedger(), "L4")


# -- sub-array op costs -------------------------------------------------------------------


class TestSubarrayOpCosts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_match_steps_times_unit_cost(self, backend):
        sub = ComputeSubarray(rows=8, cols=512, backend=backend)
        rng = random.Random(7)
        for row in range(8):
            sub.write_block(row, bytes(rng.randrange(256) for _ in range(64)))
        one_step = [
            ("read", lambda: sub.read_block(1)),
            ("write", lambda: sub.write_block(2, bytes(64))),
            ("and", lambda: sub.op_and(0, 1, dest=3)),
            ("or", lambda: sub.op_or(0, 1)),
            ("nor", lambda: sub.op_nor(0, 1)),
            ("xor", lambda: sub.op_xor(0, 1, dest=4)),
            ("not", lambda: sub.op_not(0, dest=5)),
            ("copy", lambda: sub.op_copy(0, 6)),
            ("buz", lambda: sub.op_buz(7)),
            ("cmp", lambda: sub.op_cmp(0, 1)),
            ("search", lambda: sub.op_search(0, 1)),
            ("clmul", lambda: sub.op_clmul(0, 1, 64)),
        ]
        multi_step = [
            ("add", 8, lambda: sub.op_add(0, 1, dest=3, elem_bits=8)),
            ("add", 16, lambda: sub.op_add(0, 1, elem_bits=16)),
            ("mul", 8, lambda: sub.op_mul(0, 1, elem_bits=8)),
            ("reduce", 8, lambda: sub.op_reduce(0, elem_bits=8)),
        ]
        energy, busy = sub.stats.energy_pj, sub.stats.busy_cycles
        counts: dict[str, int] = {}
        for _ in range(60):
            if rng.random() < 0.7:
                op, run = rng.choice(one_step)
                steps = 1
            else:
                op, bits, run = rng.choice(multi_step)
                n_elems = 512 // bits if op == "reduce" else None
                steps = arith_steps(op, bits, n_elems)
                assert steps > 1
            before = (sub.stats.reads, sub.stats.writes)
            run()
            if op == "read":
                assert sub.stats.reads == before[0] + 1
            elif op == "write":
                assert sub.stats.writes == before[1] + 1
            else:
                counts[op] = counts.get(op, 0) + 1
            energy += steps * sub.timing.op_energy(op)
            busy += steps * sub.timing.op_delay(op)
            assert sub.stats.energy_pj == energy
            assert sub.stats.busy_cycles == busy
        assert sub.stats.compute_ops == counts

    def test_unknown_op_still_raises(self):
        sub = ComputeSubarray(rows=4, cols=512)
        sub.read_block(0)
        for steps in (1, 3):
            with pytest.raises(ISAError):
                sub._account("bogus", steps=steps)
        assert sub.stats.reads == 1
