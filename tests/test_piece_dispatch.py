"""One level-wide kernel call per page-local piece.

Under the packed backend a cache level's sub-arrays store their cells in
one level-wide array, so the controller's phase B issues a single
gather/kernel/scatter for every block op of a page-local piece, however
many sub-arrays (block partitions) the piece touches.  These tests run one
1 KB and one 4 KB piece of every in-place opcode at L1, L2 and L3 of the
Table IV machine and check that

* the packed piece reaches the sub-array kernels exactly once (one call
  per partition touched would be 16 and 64 at L3);
* the results, the written memory, every sub-array's statistics, the
  energy ledger and the event stream equal the same instruction run on
  the bit-exact circuit model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ComputeCacheMachine, cc_ops
from repro.params import BLOCK_SIZE
from repro.sram import subarray as subarray_module

LEVELS = ("L1", "L2", "L3")
CASES = ("and", "or", "xor", "not", "copy", "buz", "cmp", "search",
         "clmul", "clmul-bcast", "add16", "mul16", "reduce16")
SIZES = (1024, 4096)
KERNELS = ("logical_rows", "equality_mask", "clmul_mask", "arith_rows",
           "reduce_rows")
"""The packed kernels a batched sub-array operation runs, as the sub-array
module calls them."""


def _instr(case: str, size: int, a: int, b: int, c: int, key: int):
    if case in ("and", "or", "xor"):
        return getattr(cc_ops, f"cc_{case}")(a, b, c, size)
    if case in ("not", "copy"):
        return getattr(cc_ops, f"cc_{case}")(a, c, size)
    if case == "buz":
        return cc_ops.cc_buz(c, size)
    if case == "cmp":
        return cc_ops.cc_cmp(a, b, size // 8)
    if case == "search":
        return cc_ops.cc_search(a, key, size)
    if case == "clmul":
        return cc_ops.cc_clmul(a, b, c, size, lane_bits=128)
    if case == "clmul-bcast":
        return cc_ops.cc_clmul_bcast(a, key, c, size, lane_bits=256)
    if case.startswith("add"):
        return cc_ops.cc_add(a, b, c, size, elem_bits=16)
    if case.startswith("mul"):
        return cc_ops.cc_mul(a, b, c, size, elem_bits=16)
    return cc_ops.cc_reduce(a, size, elem_bits=16)


def _stats(m) -> list:
    """Every sub-array's statistics, level by level."""
    h = m.hierarchy
    return [(level.name, level.unit, p, s.reads, s.writes, dict(s.compute_ops),
             s.energy_pj, s.busy_cycles)
            for level in (*h.l1, *h.l2, *h.l3)
            for p, s in enumerate(sub.stats for sub in level.geometry.subarrays)]


def _run(backend: str, level: str, case: str, size: int, counts=None) -> dict:
    """Run one piece on a fresh machine; everything observable about it."""
    m = ComputeCacheMachine(backend=backend, trace_events=True)
    a, b, c = m.arena.alloc_colocated(size, 3)
    key = m.arena.alloc_page_aligned(BLOCK_SIZE)
    rng = np.random.default_rng([size, len(case)])
    data_a = rng.integers(0, 256, size, dtype=np.uint8)
    data_b = rng.integers(0, 256, size, dtype=np.uint8)
    data_b.reshape(-1, 8)[::3] = data_a.reshape(-1, 8)[::3]   # cmp: equal words
    data_key = data_a[3 * BLOCK_SIZE:4 * BLOCK_SIZE]   # search: one hit
    for addr, data in ((a, data_a), (b, data_b), (key, data_key),
                       (c, rng.integers(0, 256, size, dtype=np.uint8))):
        m.load(addr, data.tobytes())
    instr = _instr(case, size, a, b, c, key)
    if counts is not None:
        counts.clear()
    res = m.cc(instr, force_level=level)
    dispatch = [e.outcome for e in m.tracer.snapshot() if e.kind == "cc.dispatch"]
    return {
        "result": (res.result, res.result_bytes, res.cycles, res.level,
                   res.inplace_ops, res.nearplace_ops, res.risc_ops),
        "memory": m.peek(c, size),
        "dispatch": dispatch,
        "stats": _stats(m),
        "ledger": dict(m.ledger.pj),
        "events": m.tracer.snapshot(),
        "blocks": instr.num_blocks,
    }


@pytest.fixture
def kernel_counts(monkeypatch):
    """Count packed kernel calls made by the sub-array module."""
    counts: dict[str, int] = {}
    for name in KERNELS:
        kernel = getattr(subarray_module, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(subarray_module, name, counted)
    return counts


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("level", LEVELS)
def test_one_kernel_call_per_piece(level, case, size, kernel_counts):
    packed = _run("packed", level, case, size, kernel_counts)
    assert packed["dispatch"] == ["batched"]
    assert packed["result"][3] == level
    assert packed["result"][4] == packed["blocks"]       # every op in place
    assert sum(kernel_counts.values()) == 1, kernel_counts

    exact = _run("bitexact", level, case, size)
    assert packed["result"] == exact["result"]
    assert packed["memory"] == exact["memory"]
    assert packed["stats"] == exact["stats"]
    assert packed["ledger"] == exact["ledger"]
    assert len(packed["events"]) == len(exact["events"]) > 0
    for i, (pk, be) in enumerate(zip(packed["events"], exact["events"])):
        assert pk == be, f"event {i} diverges"
