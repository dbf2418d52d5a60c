"""saddlereg benchmark runner.

    python3 saddlebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each sample is one fresh single-process
worker (saddlebench/worker.py) that sets up saddlereg from `src/` and runs the
workload's operation list once: a closed loop with one client, because
saddlereg is a batch tool. Workers are started one after another until
--seconds have been measured (at least MIN_SAMPLES of them).

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json as medians over the workers. Times are in reference seconds:
measured, then scaled to a fixed speed of the worker's core, which other
tenants of a shared host can slow by up to 2x (worker.py explains how); the
measured medians are in the detail line. With --trace 1 it reports the
per-layer metrics: untraced and traced workers take turns, the traced ones'
spans give self times and work counts, and the difference in wall time is the
tracing overhead. Every work count must repeat exactly between traced workers
and between runs of the same code and seed; counts that differ are listed and
counted in trace.count_mismatches. The line before the last holds the
details: the machine, every sample, and the failures.

Outputs, traces and the stored counts go under `.saddlebench/` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".saddlebench"
DEFAULT_SEED = 0
MIN_SAMPLES = 3  # untraced workers in an end-to-end run
MIN_TRACED = 2  # traced workers in a traced run
DEADLINE_S = 170.0  # a run must end within 180 s
BLAS_THREADS = 1
WARMUP_POLICY = (
    "one untimed worker per run imports saddlereg, its CLI module and the corpus, which "
    "fills the bytecode cache under .saddlebench/pycache and loads numpy/scipy into the "
    "page cache; every timed sample is a fresh process that pays import, corpus and "
    "first-call costs as a CLI user does on each invocation, so samples are independent "
    "and no in-process warm-up is done"
)
BLAS_REASON = (
    "workers are single-process and the largest matrix is 114x114, so extra BLAS threads "
    "only add scheduling noise on a shared machine"
)
# primes the bytecode and page caches, and reports the versions in use
VERSIONS = """
import json, platform, numpy, scipy, saddlereg.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
saddlereg.corpus()
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""


def fail(message):
    print(f"saddlebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the program and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Workers read compiled bytecode, as an installed CLI does, from a cache
    # inside the checkout that the warm-up fills, whatever the caller's settings.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(workload, seed, trace, work, spans, env, timeout):
    """One worker; returns (result dict or None, error text, seconds taken)."""
    result_path = work.with_suffix(".json")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work", str(work),
           "--result", str(result_path)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s", time.perf_counter() - start
    took = time.perf_counter() - start
    if proc.returncode != 0 or not result_path.is_file():
        return None, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}", took
    result = json.loads(result_path.read_text())
    result_path.unlink()
    shutil.rmtree(work, ignore_errors=True)
    return result, None, took


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into SystemExit, so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json in {ROOT}: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if not (ROOT / "src" / "saddlereg" / "__init__.py").is_file():
        fail(f"no saddlereg sources under {ROOT / 'src'}; run from the root of a checkout")
    seed = args.seed % 2 ** 32
    env = worker_env()
    load_start = loadavg()
    t_start = time.perf_counter()

    proc = subprocess.run([sys.executable, "-c", VERSIONS], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"saddlereg does not import:\n{proc.stderr[-2000:]}")
    versions = json.loads(proc.stdout.strip().splitlines()[-1])

    wl_out = OUT / args.workload
    wl_out.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=wl_out))
    samples = []  # (traced, result)
    errors = []
    try:
        t0 = time.perf_counter()
        last = 0.0  # duration of the latest worker, the estimate for the next one
        while time.perf_counter() - t_start + last <= DEADLINE_S:
            n_traced = sum(1 for t, _ in samples if t)
            n_plain = len(samples) - n_traced
            # a traced run alternates untraced and traced workers, for the overhead
            trace = int(args.trace and n_plain > n_traced)
            if args.trace:
                enough = n_plain >= 1 and n_traced >= MIN_TRACED
            else:
                enough = n_plain >= MIN_SAMPLES
            if enough and time.perf_counter() - t0 + last > args.seconds:
                break
            work = scratch / f"w{len(samples)}"
            spans = wl_out / "spans.csv" if trace else None
            result, error, last = run_worker(
                args.workload, seed, trace, work, spans, env,
                timeout=DEADLINE_S - (time.perf_counter() - t_start))
            if result is None:
                errors.append(error)
                break
            samples.append((bool(trace), result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for _, r in samples) + len(errors)
    failed = sum(len(r["failures"]) for _, r in samples) + len(errors)
    if not samples:
        fail("no worker finished: " + "; ".join(errors))
    plain = [r for t, r in samples if not t]
    traced = [r for t, r in samples if t]
    digest = source_digest()

    detail = {
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "samples": len(plain),
        "traced_samples": len(traced),
        "machine": {
            "git_sha": git_sha(),
            "source_sha256": digest,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            **versions,
            "blas_threads": BLAS_THREADS,
            "blas_threads_reason": BLAS_REASON,
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
            "warmup_policy": WARMUP_POLICY,
        },
        "workers": [{"traced": t, **{k: r[k] for k in (
            "setup_s", "wall_s", "op_times", "measured_setup_s", "measured_wall_s",
            "measured_op_times", "kernel_median_s", "ticks", "peak_rss_mb", "failures")}}
                    for t, r in samples],
        "errors": errors,
    }

    if args.trace:
        metrics, extra = layer_report(args.workload, seed, digest, plain, traced)
        detail.update(extra)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        detail["measured"] = {
            name: statistics.median(r[name] for r in plain)
            for name in ("measured_setup_s", "measured_wall_s", "kernel_median_s")}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        fail(f"no value for {', '.join(missing)}; errors: {'; '.join(errors)}")

    (wl_out / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({k: v for k, v in detail.items() if k != "spans_by_name"}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def layer_report(workload, seed, digest, plain, traced):
    """Per-layer metrics of a traced run, and the details behind them."""
    if not traced or not plain:
        return {}, {}
    layers = [r["layers"] for r in traced]
    metrics = {}
    for name, value in layers[0].items():
        values = [layer[name] for layer in layers]
        metrics[name] = values[0] if isinstance(value, int) else statistics.median(values)

    # counts must repeat exactly: between traced workers, and against the
    # counts stored by an earlier run of the same code and seed
    counts = {k: v for k, v in layers[0].items() if isinstance(v, int)}
    differ = {k for layer in layers[1:] for k, v in counts.items() if layer.get(k) != v}
    stored = OUT / f"counts-{workload}-{seed}-{digest[:16]}.json"
    if stored.is_file():
        before = json.loads(stored.read_text())
        differ |= {k for k in set(before) | set(counts) if before.get(k) != counts.get(k)}
    else:
        stored.write_text(json.dumps(counts, indent=1, sort_keys=True))
    metrics["trace.count_mismatches"] = len(differ)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))

    reference = json.loads((BENCH / "digests.json").read_text())
    if seed == reference["seed"]:
        expected = reference["workloads"].get(workload, {})
    else:
        expected = plain[0]["digests"]
    metrics["cli.outputs_identical"] = min(
        sum(1 for f, d in r["digests"].items() if expected.get(f) == d) for r in plain + traced)

    extra = {
        "count_mismatches": sorted(differ),
        "outputs_reference": "digests.json" if seed == reference["seed"] else "first worker",
        "outputs_expected": len(expected),
        "hook_errors": traced[-1]["hook_errors"],
        "spans_by_name": traced[-1]["spans_by_name"],
    }
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
