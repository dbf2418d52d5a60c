"""One fresh benchmark worker: set up saddlereg, run one workload's operations once.

    python3 saddlebench/worker.py --workload NAME --seed N --trace 0|1 \
        --work DIR --result FILE [--spans FILE]

Set-up (importing the CLI entry module and building the corpus, which a CLI
user pays on every invocation) is timed first, before numpy is imported by
anything else. Each operation is then timed alone; its check, output digests
and sizes are taken between operations, outside the timed part. The result is
written as JSON to --result.

On a shared host, other tenants' load can slow the worker's core by up to 2x
for minutes at a time. A timer signal therefore runs a fixed pure-Python
kernel every TICK_S inside this process, on the same core and between the
program's own bytecodes, and each timed part is reported both as measured and
in reference seconds: its measured time, less the time the signal handler
took, scaled by how much slower than REF_KERNEL_S the kernel ran during that
part (see Speedometer.reference_time).
"""

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


def _outputs(out):
    """SHA-256 digest per output file, keyed '<op>/<file>', and their total size."""
    digests, size = {}, 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digests[path.relative_to(out.parent).as_posix()] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size


TICK_S = 0.05  # interval between speed samples
REF_KERNEL_S = 0.0005  # the kernel's time at the reference speed
_BUF = [0.0] * 64


def _kernel():
    """Fixed pure-Python work: arithmetic, branches and list indexing."""
    acc, x = 0, 0.5
    for i in range(2_500):
        x = x * 0.999 + (i & 7) * 0.25
        _BUF[i & 63] = x
        if i % 3 == 0:
            acc += abs(int(_BUF[(i * 7) & 63])) & 15
    return acc


class Speedometer:
    """Times the kernel from a timer signal, to track this core's speed."""

    def __init__(self):
        self.samples = []  # kernel durations, one per tick
        self.spent = 0.0  # time spent in the handler, kernel included

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mark(self):
        return len(self.samples), self.spent

    def reference_time(self, mark, wall):
        """(measured, reference) seconds of a part that began at `mark` and took `wall`.

        The program did (wall - handler time) * mean(REF_KERNEL_S / kernel time)
        seconds of work at the reference speed, as the kernel's speed in each
        tick stands for the program's. A part shorter than a tick uses the
        latest ticks before it.
        """
        n, spent = mark
        measured = wall - (self.spent - spent)
        ticks = self.samples[n:] or self.samples[-10:]
        if not ticks:
            return measured, measured
        return measured, measured * REF_KERNEL_S * sum(1.0 / k for k in ticks) / len(ticks)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    meter = Speedometer()
    meter.start()
    mark = meter.mark()
    t0 = time.perf_counter()
    import saddlereg
    import saddlereg.cli  # noqa: F401  (the CLI entry point is part of set-up)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    saddlereg.corpus()
    measured_setup, setup_s = meter.reference_time(mark, time.perf_counter() - t0)

    from workloads import WORKLOADS

    state = {"seed": args.seed}
    op_times, measured, failures, digests = {}, {}, [], {}
    bytes_written = 0
    for op in WORKLOADS[args.workload]:
        out = args.work / op.name
        out.mkdir(parents=True, exist_ok=True)
        try:
            mark = meter.mark()
            start = time.perf_counter()
            result = op.run(state, out)
            measured[op.name], op_times[op.name] = meter.reference_time(
                mark, time.perf_counter() - start)
            op.check(state, out, result)
        except Exception:  # one failed operation must not stop the others
            failures.append({"op": op.name, "error": traceback.format_exc(limit=3)})
        if op.cli:
            op_digests, size = _outputs(out)
            digests.update(op_digests)
            bytes_written += size

    meter.stop()
    result = {
        "setup_s": setup_s,
        "wall_s": sum(op_times.values()),
        "op_times": op_times,
        "measured_setup_s": measured_setup,
        "measured_wall_s": sum(measured.values()),
        "measured_op_times": measured,
        "kernel_median_s": sorted(meter.samples)[len(meter.samples) // 2],
        "ticks": len(meter.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(WORKLOADS[args.workload]),
        "failures": failures,
        "digests": digests,
        "bytes_written": bytes_written,
    }
    if tracer is not None:
        metrics, table = tracing.layer_metrics(tracer)
        metrics["cli.bytes_written"] = bytes_written
        result["layers"] = metrics
        result["spans_by_name"] = {name: {"calls": c, "self_s": s, "inclusive_s": i}
                                   for name, (c, s, i) in sorted(table.items())}
        result["hook_errors"] = dict(tracer.hook_errors)
        if args.spans is not None:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
