"""Count the CC instructions the in-repo exhibits issue.

Run from the root of a source checkout::

    python3 hostbench/exhibit_mix.py

Wraps ``ComputeCacheController.execute`` from outside and runs the CC
exhibits the benchmark's CC traces stand for: Figure 9 at full scale, the
CC microbenchmarks (Figures 7, 8a and 8b) and the quantized-DNN exhibit.
Prints one JSON object per exhibit: instructions per ``(opcode,
elem_bits, size)``, and the controllers' instruction, page-split and memo
counts.  The ``exhibit_mix`` tables of ``workloads.py`` come from these
counts; ``measured.json`` keeps the latest.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import _import_simulator  # noqa: E402

_STATS = ("instructions", "page_splits", "level_memo_hits", "hazard_memo_hits")


def exhibits() -> dict:
    from repro.bench import appbench, microbench

    return {
        "figure9": lambda: appbench.figure9(scale=1.0),
        "microbenchmarks": lambda: (microbench.figure7(),
                                    microbench.figure8a_inplace_vs_nearplace(),
                                    microbench.figure8b_levels()),
        "qdnn": lambda: appbench.figure_qdnn(scale=1.0),
    }


def count(run) -> dict:
    from repro.api import ComputeCacheController

    mix: Counter = Counter()
    stats: Counter = Counter()
    controllers = []
    init, execute = ComputeCacheController.__init__, ComputeCacheController.execute

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        controllers.append(self)

    def counted_execute(self, instr, *args, **kwargs):
        mix[(instr.opcode.value, instr.elem_bits, instr.size)] += 1
        return execute(self, instr, *args, **kwargs)

    ComputeCacheController.__init__ = counted_init
    ComputeCacheController.execute = counted_execute
    start = time.perf_counter()
    try:
        run()
    finally:
        ComputeCacheController.__init__ = init
        ComputeCacheController.execute = execute
    for controller in controllers:
        for name in _STATS:
            stats[name] += getattr(controller.stats, name)
    return {"seconds": round(time.perf_counter() - start, 1),
            "mix": [[*kind, n] for kind, n in mix.most_common()],
            "controller": dict(stats)}


def main() -> int:
    _import_simulator()
    for name, run in exhibits().items():
        print(json.dumps({"exhibit": name, **count(run)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
