"""Host-time benchmark of the Compute Caches simulator.

Run from the root of a source checkout::

    python3 hostbench/run.py --workload cc-l3-logic --seed 1 --seconds 30 --trace 0

The simulator is imported from the checkout's ``src/``.  The run sets up
the workload (timed as ``setup_s``), then makes passes of the workload's
operations for ``--seconds``, checks every output, and prints one JSON
object as its last line of output.  ``--trace 0`` reports the end-to-end
metrics, with host times scaled to a reference host speed (see
:class:`HostSpeed`); ``--trace 1`` traces every other operation by layer
(:mod:`layers`) and reports the per-layer metrics.  Provenance, the
digest of the simulated statistics, the unscaled times and other
information are printed before that line and written, with the spans of
a traced run, to ``.hostbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per numeric library: the host has two cores and runs nothing
# else of the benchmark's.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _import_simulator() -> Path:
    """Import the checkout's simulator; returns its source directory."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"hostbench: no simulator source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro.api  # noqa: F401
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"hostbench: imported repro from {repro.__file__}, not {src}")
    return src


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import numpy, repro.api; "
                 "print(time.perf_counter() - t)")


def import_seconds(src: Path) -> float:
    """Median time to import the simulator in a fresh interpreter."""
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(src)],
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout)
        for _ in range(SETUP_REPEATS))


def provenance() -> dict:
    """Host and source identity stamped on every output."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit, dirty = None, None
    # Stop git at the checkout: a checkout inside another repository must
    # not report that repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    env=env, capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "dirty": dirty}


CALIBRATION_REF_S = 0.0085
"""Seconds :func:`calibrate` takes on the reference host (the host named in
``measured.json``)."""

CALIBRATION_EVERY_S = 0.25
"""Run time per calibration sample (a sample takes ~3% of that)."""

CALIBRATION_WINDOW_S = 0.5
"""Samples this close to an interval describe the host speed during it."""


def calibrate() -> float:
    """Seconds for a fixed pure-Python workload shaped like the simulator's
    hot paths: set-associative tag search with LRU updates, dict counters
    and small-integer arithmetic."""
    start = time.perf_counter()
    tags = [[-1] * 8 for _ in range(64)]
    lru = [[0] * 8 for _ in range(64)]
    counts: dict[int, int] = {}
    for i in range(20_000):
        index = (i * 2654435761) & 63
        tag = (i * 40503) & 511
        ways = tags[index]
        try:
            way = ways.index(tag)
        except ValueError:
            way = min(range(8), key=lru[index].__getitem__)
            ways[way] = tag
            counts[tag] = counts.get(tag, 0) + 1
        lru[index][way] = i
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples taken through a run.

    The host this benchmark was written on is shared: its speed changes by
    up to 2x within seconds, so run-to-run spreads of raw host time exceed
    any useful bound.  Every time metric is therefore scaled to the
    reference host: an interval's host seconds times ``CALIBRATION_REF_S``
    over the median calibration sampled next to that interval.  The
    unscaled values are printed beside the metrics."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (end time, seconds)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            took = calibrate()
            self.samples.append((time.perf_counter(), took))

    def scale(self, start: float, end: float) -> float:
        """Factor from host seconds spent in ``[start, end]`` to reference
        host seconds."""
        near = [took for at, took in self.samples
                if start - CALIBRATION_WINDOW_S <= at <= end + CALIBRATION_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return CALIBRATION_REF_S / statistics.median(near)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(took for _, took in self.samples)


class Timer:
    """Times the simulator calls of one operation; while ``tracer`` is set,
    the layer tracer is installed around them."""

    def __init__(self) -> None:
        self.tracer = None
        self.elapsed = 0.0
        self.first = self.last = None

    def __enter__(self) -> "Timer":
        if self.tracer is not None:
            self.tracer.__enter__()
        self._start = time.perf_counter()
        if self.first is None:
            self.first = self._start
        return self

    def __exit__(self, *exc) -> None:
        self.last = time.perf_counter()
        self.elapsed += self.last - self._start
        if self.tracer is not None:
            self.tracer.__exit__(*exc)


def _pass_seconds(samples: dict[int, list[float]]) -> float:
    """Seconds of one pass: the sum over its operations of each
    operation's median latency."""
    return sum(statistics.median(lat) for lat in samples.values())


def measure(workload, seconds: float, tracer, speed: HostSpeed) -> dict:
    """Repeat the workload's pass for ``seconds``.  With a tracer, the
    operations alternate between untraced and traced, so every operation
    contributes to both sides of the tracing overhead.

    Returns per operation index the host latencies (``plain``/``traced``)
    and, for untraced operations, the latencies scaled to the reference
    host (``scaled``)."""
    n = workload.ops_per_pass
    plain: dict[int, list[float]] = {i: [] for i in range(n)}
    traced: dict[int, list[float]] = {i: [] for i in range(n)}
    instructions = [0] * n
    attempted = 0
    failed: set[int] = set()
    timers = []
    speed.sample(2)
    last_calibration = start = time.perf_counter()
    # A traced run makes two passes at least, so that every operation is
    # measured both traced and untraced.
    min_ops = n * max(workload.min_passes, 2 if tracer is not None else 1)
    op = 0
    while op < min_ops or time.perf_counter() - start < seconds:
        index, pass_no = op % n, op // n
        timer = Timer()
        if tracer is not None and (index + pass_no) % 2:
            timer.tracer = tracer
        try:
            instr, ok = workload.run_op(index, pass_no, timer)
        except Exception as exc:  # one failed operation must not end the run
            workload.info.setdefault("errors", []).append(repr(exc))
            instr, ok = 0, False
        attempted += 1
        if not ok:
            failed.add(op)
        instructions[index] = instr or instructions[index]
        (traced if timer.tracer is not None else plain)[index].append(timer.elapsed)
        timers.append((index, timer))
        op += 1
        due = int((time.perf_counter() - last_calibration) / CALIBRATION_EVERY_S)
        if due:
            speed.sample(min(due, 8))
            last_calibration = time.perf_counter()

    scaled: dict[int, list[float]] = {}
    latencies = []
    # Percentiles over whole passes only, so that every operation of the
    # pass weighs the same in every run.
    whole = max(n, len(timers) - len(timers) % n)
    for k, (index, timer) in enumerate(timers):
        if timer.tracer is not None or timer.first is None:
            continue
        lat = timer.elapsed * speed.scale(timer.first, timer.last)
        scaled.setdefault(index, []).append(lat)
        if k < whole:
            latencies.append(lat)
    return {"plain": {i: v for i, v in plain.items() if v},
            "traced": {i: v for i, v in traced.items() if v},
            "scaled": scaled, "latencies": latencies,
            "instructions": sum(instructions), "attempted": attempted,
            "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = _import_simulator()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from layers import LayerTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")
    out_dir = ROOT / ".hostbench"
    out_dir.mkdir(exist_ok=True)
    tracer = LayerTracer() if args.trace else None

    speed = HostSpeed()
    setups, raw_setups = [], []

    def set_up():
        gc.collect()    # free the previous set-up before the next one
        workload = WORKLOADS[args.workload](args.seed, out_dir)
        speed.sample(2)
        t0 = time.perf_counter()
        workload.setup(tracer)
        t1 = time.perf_counter()
        speed.sample(2)
        raw_setups.append(t1 - t0)
        setups.append((t1 - t0) * speed.scale(t0, t1))
        return workload

    workload = set_up()
    run = measure(workload, args.seconds, tracer, speed)
    # Peak memory of one set-up and the timed phase; the set-ups repeated
    # for setup_s come after it, so heap they leave behind is not counted.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            set_up()
    failed = len(run["failed"] | workload.finish())

    info = {"workload": args.workload, "seed": args.seed,
            "provenance": provenance(), "sim_digest": workload.sim_digest(),
            "ops_per_pass": workload.ops_per_pass, "ops": run["attempted"],
            "failed_frac": failed / run["attempted"], **workload.info}
    if args.trace:
        traced_ops = sum(len(v) for v in run["traced"].values())
        traced_s = sum(sum(v) for v in run["traced"].values())
        metrics = tracer.metrics(traced_s, workload.ops_per_pass / traced_ops)
        both = run["traced"].keys() & run["plain"].keys()
        metrics["trace.overhead_ratio"] = (
            _pass_seconds({i: run["traced"][i] for i in both})
            / _pass_seconds({i: run["plain"][i] for i in both}))
        units = {name: "count" if name.endswith(".calls") else
                 "s" if name.endswith("_s") else "ratio" for name in metrics}
        info["spans_kept"], info["spans_dropped"] = len(tracer.spans), tracer.dropped
        # Boundaries the simulator lacks; their metrics read 0.
        info["absent_boundaries"] = tracer.absent
    else:
        t0 = time.perf_counter()
        raw_import = import_seconds(src)
        t1 = time.perf_counter()
        speed.sample(3)
        wall_s = _pass_seconds(run["scaled"])
        ms = [lat * 1e3 for lat in run["latencies"]]
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        info["latency_samples"] = len(ms)
        metrics = {"wall_s": wall_s,
                   "sim_instr_per_s": run["instructions"] / wall_s,
                   "op_ms_p50": statistics.median(ms),
                   "op_ms_p90": deciles[8],
                   "setup_s": raw_import * speed.scale(t0, t1)
                   + statistics.median(setups),
                   "peak_rss_mb": peak_rss_mb}
        info["unscaled"] = {"wall_s": _pass_seconds(run["plain"]),
                            "setup_s": raw_import + statistics.median(raw_setups)}
        info["calibration_ms"] = speed.median_ms()
        info["calibrations"] = len(speed.samples)
        units = {"wall_s": "s", "sim_instr_per_s": "1/s", "op_ms_p50": "ms",
                 "op_ms_p90": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {"correct": failed == 0, "attempted": run["attempted"],
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}

    record = {"info": info, "result": result}
    if args.trace:
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    for key, value in info.items():
        print(f"hostbench: {key}: {json.dumps(value)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
