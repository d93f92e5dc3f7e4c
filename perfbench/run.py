"""catfrac benchmark: one workload, one seed, one JSON line of metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload localize --seed 0 --seconds 20 --trace 0

Workloads are ``localize``, ``verify`` and ``crosscheck`` (see README.md in
this directory). Each is a closed loop with one caller in one thread: the
next op starts when the previous one returns. A run repeats the workload's
seeded round of 25 ops until ``--seconds`` have passed and at least 100 ops
are done, and checks every answer after its timer stops.

Every time is scaled to one processor speed: the wall time of an op, or of
a set-up, is multiplied by ``REF_S`` over the wall time a fixed reference
loop took just before it. The machine the benchmark was written on drifts
up to 1.7x in speed over seconds to minutes, and the reference loop slows
down with it (README.md, "Noise").

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The library is imported from ``src/`` of the checkout; there is nothing to
build. Outside a checkout the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

PINNED_SEED = 0
MIN_OPS = 100
SETUP_REPEATS = 11
REF_S = 0.001  # the nominal time of reference_loop(); all times are scaled to it
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_rate": "share",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=PINNED_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the inputs and exit (how setup_s is measured)")
    return p.parse_args(argv)


class Checker:
    """Judges each op's output: its own check, then digest stability.

    An op's digest must not change between rounds of one run. For the pinned
    seed it must also equal the digest recorded in ``digests.json``.
    """

    def __init__(self, workloads, pinned: dict | None) -> None:
        self.workloads = workloads
        self.pinned = pinned
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, op, out) -> bool:
        self.attempted += 1
        try:
            d = self.workloads.digest(op.check(out))
        except self.workloads.WrongAnswer as exc:
            return self._fail(op, str(exc))
        except Exception as exc:  # a check that cannot read the output fails the op
            return self._fail(op, f"unreadable output ({type(exc).__name__}: {exc})")
        if self.seen.setdefault(op.key, d) != d:
            return self._fail(op, "output changed between rounds")
        if self.pinned is not None and self.pinned.get(op.key) != d:
            return self._fail(op, f"digest {d} differs from the pinned {self.pinned.get(op.key)}")
        return True

    def _fail(self, op, reason: str) -> bool:
        self.failures.append(f"{op.key}: {reason}")
        return False


def reference_loop() -> int:
    """Fixed pure-Python work, dict and tuple heavy like the library."""
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def speed_scale(repeats: int = 1) -> float:
    """REF_S over the median time of the reference loop, run now."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return REF_S / statistics.median(times)


def run_round(ops, checker: Checker, latencies: list) -> float:
    """One closed-loop pass over the round; returns the summed scaled op time."""
    total = 0.0
    for op in ops:
        scale = speed_scale()
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # judged by the op's check, which expects none
            out = exc
        dt = (time.perf_counter() - t0) * scale
        checker.judge(op, out)
        latencies.append(dt)
        total += dt
    return total


def measure_setup(workload: str, seed: int) -> float:
    """Median scaled wall time of fresh interpreters that import and build
    the inputs.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    round the figure to 50 ms, so the wait blocks and a timer kills a child
    that hangs.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        scale = speed_scale(repeats=5)
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
        times.append((time.perf_counter() - t0) * scale)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(times)


def nearest_rank(values: list[float], share: float) -> float:
    """The smallest value with at least ``share`` of the values at or below it."""
    return sorted(values)[math.ceil(share * len(values)) - 1]


def end_to_end(ops, checker: Checker, args) -> dict[str, float]:
    """Whole untraced rounds until the time is up and MIN_OPS ops are done."""
    latencies: list[float] = []
    gc.collect()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(latencies) < MIN_OPS:
        run_round(ops, checker, latencies)
    print(f"ops: {len(latencies)} in {len(latencies) // len(ops)} rounds of {len(ops)}; "
          f"op_p90_ms has {len(latencies) - math.ceil(0.9 * len(latencies))} samples beyond it; "
          f"reference loop now {REF_S / speed_scale(repeats=25) * 1e3:.4f} ms")
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(ops, checker: Checker, args) -> dict[str, float]:
    """Untraced and traced rounds in turn, so both see the same machine.

    Per-layer figures are per traced round, so counts repeat exactly for a
    seed; the overhead is the median ratio of a traced round to the
    untraced round before it.
    """
    from tracer import Tracer

    tracer = Tracer()
    ratios = []
    gc.collect()
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        plain = run_round(ops, checker, [])
        with tracer:
            traced = run_round(ops, checker, [])
        ratios.append(traced / plain)
    print(f"rounds: {len(ratios)} untraced and {len(ratios)} traced, in turn; "
          f"per-layer figures are per traced round")
    out = tracer.metrics(per=len(ratios))
    out["bench.trace_overhead"] = statistics.median(ratios)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "catfrac" / "__init__.py").is_file():
        print(f"error: no catfrac sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # the benchmark reads and writes only inside its checkout
    workdir = Path(tempfile.mkdtemp(prefix=f".perfbench-{args.workload}-", dir=ROOT))
    try:
        if args.setup_only:
            workloads.build_round(args.workload, args.seed, workdir)
            return 0
        checker, metrics = measure(workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checker.failures)
    print(f"workload {args.workload}, seed {args.seed}: {checker.attempted} ops attempted, "
          f"{failed} failed, error_rate {failed / checker.attempted:.6f}")
    for line in checker.failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def measure(workloads, args, workdir: Path):
    """Set up, run and check; returns the checker and {metric: (value, unit)}."""
    setup_s = measure_setup(args.workload, args.seed) if args.trace == 0 else None
    ops = workloads.build_round(args.workload, args.seed, workdir)
    pinned = None
    if args.seed == PINNED_SEED:
        pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
    checker = Checker(workloads, pinned)
    if args.trace:
        figures = per_layer(ops, checker, args)
        return checker, {name: (value, unit_of(name)) for name, value in figures.items()}
    figures = end_to_end(ops, checker, args)
    figures["setup_s"] = setup_s
    figures["pass_rate"] = 1 - len(checker.failures) / checker.attempted
    return checker, {name: (figures[name], unit) for name, unit in UNITS.items()}


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/round"
    if name in ("diagram.modification_yield", "bench.trace_overhead"):
        return "ratio"
    return "count/round"


if __name__ == "__main__":
    sys.exit(main())
