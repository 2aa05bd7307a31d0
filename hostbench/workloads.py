"""The benchmark's workloads.

Each workload turns a seed into *passes* of operations.  Every pass has
the same composition, whatever the seed; the seed picks the order, the
data and, for the CC traces, each pass's operands.  ``setup`` builds what
the operations need; ``run_op`` executes one operation, timing only the
calls into the simulator through the ``timer`` it is given, then checks
the outputs.  A run makes passes for as long as the benchmark measures,
and at least ``min_passes``.

Every workload drives the simulator through public calls only:
``ComputeCacheMachine.cc``/``cc_stream``/``load``/``warm_l3``, and the
``streambw`` point function through ``PointRunner.run``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

PAGE = 4096
BLOCK = 64


def digest(obj) -> str:
    """Canonical SHA-256 of simulated statistics (JSON keeps floats exact)."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Workload:
    name = ""
    ops_per_pass = 0
    min_passes = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.info: dict = {}

    def setup(self, tracer=None) -> None:
        raise NotImplementedError

    def run_op(self, index: int, pass_no: int, timer) -> tuple[int, bool]:
        """Execute operation ``index`` of the pass; returns the simulated
        instructions it covered and whether its outputs checked out."""
        raise NotImplementedError

    def finish(self) -> set[int]:
        """Checks that need the whole run; returns the numbers
        (``pass * ops_per_pass + index``) of the operations they fail."""
        return set()

    def sim_digest(self) -> str:
        raise NotImplementedError


# -- direct CC traces (cc-l3-logic, bitserial-exact) ----------------------------------------


def _result_sig(res) -> list:
    return [res.result, res.cycles, res.level, res.inplace_ops,
            res.nearplace_ops, res.risc_ops, res.occupancy_cycles,
            res.result_bytes.hex()]


def pass_kinds(counts: dict, size: int) -> list:
    """``size`` instruction kinds in the proportions of ``counts``, rounded
    by largest remainder (ties go to the earlier entry)."""
    total = sum(counts.values())
    shares = {kind: n * size / total for kind, n in counts.items()}
    out = {kind: int(share) for kind, share in shares.items()}
    by_remainder = sorted(shares, key=lambda kind: -(shares[kind] - out[kind]))
    for kind in by_remainder[:size - sum(out.values())]:
        out[kind] += 1
    return [kind for kind, n in out.items() for _ in range(n)]


class _CCTrace(Workload):
    """A seeded trace of CC instructions on L3-warm operand slots, each
    slot four co-located buffers ``a, b, c, d``.  Destinations are ``c``
    or ``d`` and sources may be any other buffer of the slot, so an
    instruction can read an earlier one's result.  A numpy model of every
    buffer is the reference.

    The instruction kinds (opcode, element width, size) of a pass are
    those the in-repo exhibits issue (:attr:`exhibit_mix`); the seed fixes
    their order.  Each pass draws new operands (slot, buffers, page offset,
    search key) from ``(seed, pass)``, so the controller's decode memos
    meet new instructions in every pass, as in the exhibits (Figure 9's
    level memo never hits), rather than one trace replayed against warm
    memos."""

    backend = ""
    min_passes = 2      # the simulated statistics checked cover two passes
    slots = 8
    buffer_pages = 1
    group_size = 1
    pass_size = 0
    #: ``(opcode, elem_bits, size)`` -> instructions of that kind counted
    #: in the exhibits' CC streams.
    exhibit_mix: dict = {}

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        rng = np.random.default_rng([seed, 1])
        self.buffer_bytes = self.buffer_pages * PAGE
        self.data = rng.integers(0, 256, (self.slots, 4, self.buffer_bytes),
                                 dtype=np.uint8)
        self._plant(rng)
        self.kinds = pass_kinds(self.exhibit_mix, self.pass_size)
        rng.shuffle(self.kinds)
        self.ops_per_pass = len(self.kinds) // self.group_size
        self._passes: dict[int, list] = {}
        #: Result signatures of every operation of passes 0 and 1, and the
        #: energy ledger at the end of pass 1: the simulated statistics a
        #: speed-only change must leave alone.
        self.checked: dict[int, list] = {}
        self.checked_ledger: dict | None = None

    def _plant(self, rng) -> None:
        pass

    def _operands(self, rng, opcode: str, size: int) -> tuple:
        """``(slot, offset, x, y, dest, key)`` of one instruction."""
        slot = int(rng.integers(self.slots))
        offset = BLOCK * int(rng.integers((self.buffer_bytes - size) // BLOCK + 1))
        if opcode in ("search", "reduce", "cmp"):
            x, y = (int(v) for v in rng.choice(4, 2, replace=False))
            key = BLOCK * int(rng.integers(self.buffer_bytes // BLOCK))
            return slot, offset, x, y, None, key
        dest = int(rng.integers(2, 4))
        x, y = (int(v) for v in rng.choice(
            [i for i in range(4) if i != dest], 2, replace=False))
        return slot, offset, x, y, dest, None

    def groups(self, pass_no: int) -> list[list[tuple]]:
        """Operations of pass ``pass_no``: groups of ``(opcode, elem_bits,
        size, slot, offset, x, y, dest, key)``."""
        if pass_no not in self._passes:
            rng = np.random.default_rng([self.seed, 2, pass_no])
            ops = [(opcode, bits, size) + self._operands(rng, opcode, size)
                   for opcode, bits, size in self.kinds]
            # Passes 0 and 1 stay for the replay in finish().
            self._passes = {k: v for k, v in self._passes.items() if k < 2}
            self._passes[pass_no] = [ops[i:i + self.group_size]
                                     for i in range(0, len(ops), self.group_size)]
        return self._passes[pass_no]

    def _machine(self):
        from repro.api import ComputeCacheMachine

        m = ComputeCacheMachine(backend=self.backend)
        addrs = []
        for slot in range(self.slots):
            bufs = m.arena.alloc_colocated(self.buffer_bytes, 4)
            for buf, data in zip(bufs, self.data[slot]):
                m.load(buf, data.tobytes())
            for buf in bufs:
                m.warm_l3(buf, self.buffer_bytes)
            addrs.append(bufs)
        return m, addrs

    def setup(self, tracer=None) -> None:
        self.machine, self.addrs = self._machine()
        self.model = {addr: data.copy() for bufs, slot in zip(self.addrs, self.data)
                      for addr, data in zip(bufs, slot)}
        if tracer is not None:
            tracer.watch(self.machine)

    def _instr(self, op: tuple):
        from repro.api import cc_ops

        opcode, bits, size, slot, offset, x, y, dest, key = op
        bufs = self.addrs[slot]
        src = bufs[x] + offset
        if opcode == "search":
            return cc_ops.cc_search(src, bufs[y] + key, size)
        if opcode == "cmp":
            return cc_ops.cc_cmp(src, bufs[y] + offset, size)
        if opcode == "reduce":
            return cc_ops.cc_reduce(src, size, elem_bits=bits)
        if opcode in ("not", "copy"):
            return getattr(cc_ops, f"cc_{opcode}")(src, bufs[dest] + offset, size)
        width = {} if bits is None else {"elem_bits": bits}
        return getattr(cc_ops, f"cc_{opcode}")(src, bufs[y] + offset,
                                               bufs[dest] + offset, size, **width)

    def _expect(self, op: tuple):
        """Apply ``op`` to the numpy model; return its expected result
        register value, or None for an op that only writes memory."""
        opcode, bits, size, slot, offset, x, y, dest, key = op
        bufs = self.addrs[slot]
        span = slice(offset, offset + size)
        a = self.model[bufs[x]][span]
        if opcode == "search":
            want = self.model[bufs[y]][key:key + BLOCK]
            return _mask(np.all(a.reshape(-1, BLOCK) == want, axis=1))
        b = None if y is None else self.model[bufs[y]][span]
        if opcode == "cmp":
            return _mask(np.all((a == b).reshape(-1, 8), axis=1))
        if bits is not None:
            dtype = np.dtype(f"<u{bits // 8}")
            a = a.view(dtype)
            if opcode == "reduce":
                return int(a.astype(np.uint64).sum(dtype=np.uint64))
            b = b.view(dtype)
            out = (a * b if opcode == "mul" else a + b).astype(dtype).view(np.uint8)
        else:
            out = {"and": lambda: a & b, "or": lambda: a | b, "xor": lambda: a ^ b,
                   "not": lambda: ~a, "copy": lambda: a.copy()}[opcode]()
        self.model[bufs[dest]][span] = out
        return None

    def _execute(self, m, group, stream: bool) -> list:
        instrs = [self._instr(op) for op in group]
        if stream:
            return list(m.cc_stream(instrs).results)
        return [m.cc(instr) for instr in instrs]

    def run_op(self, index: int, pass_no: int, timer) -> tuple[int, bool]:
        group = self.groups(pass_no)[index]
        with timer:
            results = self._execute(self.machine, group, index % 2 == 1)
        ok = len(results) == len(group)
        written = set()
        for op, res in zip(group, results):
            want = self._expect(op)
            if want is not None and res.result != want:
                ok = False
            if op[7] is not None:
                written.add(self.addrs[op[3]][op[7]])
        for addr in written:
            if self.machine.peek(addr, self.buffer_bytes) != self.model[addr].tobytes():
                ok = False
        if pass_no < 2:
            self.checked[pass_no * self.ops_per_pass + index] = [
                _result_sig(r) for r in results]
            if pass_no == 1 and index == self.ops_per_pass - 1:
                self.checked_ledger = dict(self.machine.ledger.pj)
        return len(results), ok

    def finish(self) -> set[int]:
        """Replay passes 0 and 1 with ``cc()`` only on a fresh machine:
        ``cc_stream`` must be bit-identical to ``cc()``, so every result
        and the energy ledger must match."""
        m, _ = self._machine()
        failed = set()
        for op in range(2 * self.ops_per_pass):
            pass_no, index = divmod(op, self.ops_per_pass)
            results = self._execute(m, self.groups(pass_no)[index], stream=False)
            if [_result_sig(r) for r in results] != self.checked.get(op):
                failed.add(op)
        if dict(m.ledger.pj) != self.checked_ledger:
            failed.add(2 * self.ops_per_pass - 1)
        return failed

    def sim_digest(self) -> str:
        return digest({"results": [self.checked.get(op)
                                   for op in range(2 * self.ops_per_pass)],
                       "ledger": self.checked_ledger})


class LogicTrace(_CCTrace):
    """``cc-l3-logic``: the logical CC instructions of the exhibits on the
    packed backend, in 64 groups of 8.  Groups alternate between
    one-at-a-time ``cc()`` and one ``cc_stream()`` call; one operation is
    one group."""

    name = "cc-l3-logic"
    backend = "packed"
    group_size = 8
    pass_size = 512
    #: Counted by ``exhibit_mix.py`` in the CC variants of Figure 9 and
    #: the CC microbenchmarks (Figures 7, 8a, 8b).  BMM's 256 ``cc_clmul``
    #: of 8 KB are left out: they are not logical instructions.
    exhibit_mix = {
        ("search", None, 1024): 6000,        # WordCount
        ("search", None, 4096): 256 + 6,     # StringMatch, microbenchmarks
        ("or", None, 2048): 200,             # DB-BitMap
        ("copy", None, 2048): 64,            # DB-BitMap
        ("and", None, 2048): 16,             # DB-BitMap
        ("cmp", None, 512): 48,              # microbenchmarks
        ("copy", None, 4096): 6,             # microbenchmarks
        ("or", None, 4096): 6,               # microbenchmarks
    }
    #: Key blocks of buffer ``b`` copied into buffer ``a`` of every slot;
    #: half the searches look for one of them in ``a``.
    planted = 32

    def _plant(self, rng) -> None:
        self.keys = []
        for slot in range(self.slots):
            keys = rng.choice(PAGE // BLOCK, self.planted, replace=False)
            homes = rng.choice(PAGE // BLOCK, self.planted, replace=False)
            for key, home in zip(keys, homes):
                self.data[slot, 0, home * BLOCK:(home + 1) * BLOCK] = \
                    self.data[slot, 1, key * BLOCK:(key + 1) * BLOCK]
            self.keys.append(keys)

    def _operands(self, rng, opcode, size):
        operands = super()._operands(rng, opcode, size)
        if opcode == "search" and rng.random() < 0.5:
            slot, offset = operands[:2]
            key = BLOCK * int(rng.choice(self.keys[slot]))
            return slot, offset, 0, 1, None, key
        return operands


class BitSerialTrace(_CCTrace):
    """``bitserial-exact``: the bit-serial arithmetic of the quantized-DNN
    exhibit on the bit-exact backend.  Operands lie in two-page buffers,
    so an instruction may cross a page and be split, as the exhibit's
    are.  One operation is one instruction; odd ones go through
    ``cc_stream``."""

    name = "bitserial-exact"
    backend = "bitexact"
    buffer_pages = 2
    pass_size = 37
    #: Counted by ``exhibit_mix.py`` in the quantized-DNN exhibit: every
    #: instruction has 16-bit lanes and 1856 bytes; 8 of the 37 were split
    #: at a page.
    exhibit_mix = {("mul", 16, 1856): 19, ("reduce", 16, 1856): 10,
                   ("add", 16, 1856): 8}


def _mask(bits) -> int:
    return sum(1 << i for i, bit in enumerate(bits) if bit)


# -- point-runner suite (stream-numa) -------------------------------------------------------


class StreamNuma(Workload):
    """``stream-numa``: STREAM copy/scale/add/triad, scalar and CC, on all
    8 cores of ``multi_cluster(4, 2)`` with every page homed on cluster 0,
    through a serial ``PointRunner`` with its result cache off (a warm
    cache would turn the timing into JSON loads).  Each array is 9 KB, so
    a kernel's arrays overflow a core's 4 KB L1 and 16 KB L2.  One
    operation is one point."""

    name = "stream-numa"
    words = 2304

    def setup(self, tracer=None) -> None:
        from repro.api import Point, PointRunner
        from repro.bench.runner import code_fingerprint

        # The lazy import of the point function and the source fingerprint
        # of the runner's cache keys are one-time costs: pay them here.
        import repro.apps.streambw  # noqa: F401

        code_fingerprint()
        self.runner = PointRunner(jobs=1, use_cache=False,
                                  cache_dir=self.out_dir / "point-cache")
        self.points = [Point("streambw", {"kernel": kernel, "variant": variant,
                                          "clusters": 4, "cores_per_cluster": 2,
                                          "words": self.words, "placement": "hub",
                                          "seed": self.seed * 16 + i})
                       for i, (kernel, variant) in enumerate(
                           (k, v) for k in ("copy", "scale", "add", "triad")
                           for v in ("scalar", "cc"))]
        self.ops_per_pass = len(self.points)
        self.first_pass: list = [None] * self.ops_per_pass
        if tracer is not None:
            tracer.ignore_tracer(self.runner.tracer)

    def run_op(self, index: int, pass_no: int, timer) -> tuple[int, bool]:
        from repro.api import RunnerError

        try:
            with timer:
                (doc,) = self.runner.run([self.points[index]])
        except RunnerError as exc:
            self.info.setdefault("errors", []).append(str(exc))
            return 0, False
        if pass_no == 0:
            self.first_pass[index] = doc
        return doc["instructions"], doc["verified"] is True

    def sim_digest(self) -> str:
        return digest(self.first_pass)


WORKLOADS = {cls.name: cls for cls in (LogicTrace, StreamNuma, BitSerialTrace)}
