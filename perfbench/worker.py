"""One single-threaded benchmark process; prints its result as a JSON line.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED SECONDS

`setup` times, in this fresh process, importing rns3, building the moduli
set and the first op.  `measure` runs the op closed-loop in timed batches.
`trace` measures untraced for half the time and traced for the other half.
Inputs are generated before any timing starts.
"""

from __future__ import annotations

import json
import resource
import sys
from statistics import median
from time import perf_counter, perf_counter_ns

from tracer import COUNTS, SPANS, Tracer
from workloads import ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

MIN_BATCHES = 100     # so that p90 has at least 10 samples beyond it
MIN_TRACE_BATCHES = 10
CALIBRATION_CALLS = 100_000
CALIBRATION_REPEATS = 5


def setup(wl, seed: int) -> dict:
    inputs = wl.generate(seed, wl.batch)
    t0 = perf_counter()
    op = wl.bind(inputs)
    op(inputs.args[0])
    return {"setup_s": perf_counter() - t0}


class Loop:
    """Closed-loop timed batches over a cycled pool of generated inputs."""

    def __init__(self, wl, op, inputs):
        self.wl, self.op = wl, op
        b = wl.batch
        self.batches = [(inputs.args[i:i + b], inputs.expect[i:i + b])
                        for i in range(0, len(inputs.args), b)]
        self.k = 0
        self.attempted = self.failed = 0
        self.wrong = False
        self.first_failure = None

    def run(self, seconds: float, min_batches: int) -> list[int]:
        """Time batches for `seconds`, and at least `min_batches` of them."""
        op, check = self.op, self.wl.check
        samples = []
        start = perf_counter()
        while len(samples) < min_batches or perf_counter() - start < seconds:
            args, expect = self.batches[self.k % len(self.batches)]
            self.k += 1
            t0 = perf_counter_ns()
            outs = [op(a) for a in args]
            samples.append(perf_counter_ns() - t0)
            for e, out in zip(expect, outs):
                attempted, failed, wrong, note = check(e, out)
                self.attempted += attempted
                self.failed += failed
                self.wrong |= wrong
                self.first_failure = self.first_failure or note
        return samples

    def warm_up(self):
        for a in self.batches[0][0]:
            self.op(a)

    def outcome(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "wrong": self.wrong, "first_failure": self.first_failure}


def measure(wl, seed: int, seconds: float) -> dict:
    inputs = wl.generate(seed, wl.pool)
    loop = Loop(wl, wl.bind(inputs), inputs)
    loop.warm_up()
    samples = loop.run(seconds, MIN_BATCHES)
    return {
        "batch_ns": samples,
        "batch_ops": wl.batch,
        **loop.outcome(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }


def _per_call_ns(fn, calls: int) -> float:
    t0 = perf_counter_ns()
    for _ in range(calls):
        fn()
    return (perf_counter_ns() - t0) / calls


def calibrate(op_batch: list) -> dict:
    """Cost of the harness itself: the empty batch loop and one span."""
    def noop(*_):
        return None

    traced = Tracer().span(0, noop)
    wrapper = median(_per_call_ns(traced, CALIBRATION_CALLS)
                     - _per_call_ns(noop, CALIBRATION_CALLS)
                     for _ in range(CALIBRATION_REPEATS))
    reps = CALIBRATION_CALLS // len(op_batch)
    loop = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = perf_counter_ns()
        for _ in range(reps):
            [noop(a) for a in op_batch]
        loop.append((perf_counter_ns() - t0) / (reps * len(op_batch)))
    return {"wrapper_ns_per_call": wrapper, "loop_ns_per_op": median(loop)}


def trace(wl, seed: int, seconds: float) -> dict:
    inputs = wl.generate(seed, wl.pool)
    loop = Loop(wl, wl.bind(inputs), inputs)
    loop.warm_up()
    plain = loop.run(seconds / 2, MIN_TRACE_BATCHES)
    tracer = Tracer()
    tracer.install()
    try:
        loop.warm_up()
        tracer.reset()
        traced = loop.run(seconds / 2, MIN_TRACE_BATCHES)
    finally:
        tracer.uninstall()
    return {
        "plain_batch_ns": plain,
        "traced_batch_ns": traced,
        "batch_ops": wl.batch,
        "spans": {name: {"calls": c, "self_ns": t} for name, c, t in
                  zip(SPANS, tracer.calls, tracer.self_ns)},
        "counts": dict(zip(COUNTS, tracer.counts)),
        **loop.outcome(),
        **calibrate(loop.batches[0][0]),
    }


def main(argv: list[str]) -> None:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    wl = WORKLOADS[name]
    if mode == "setup":
        result = setup(wl, seed)
    else:
        result = {"measure": measure, "trace": trace}[mode](
            wl, seed, float(argv[3]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
