"""End-to-end benchmark of ``repro`` over the paper's four workloads.

    python3 perfbench/run.py --workload {certify,sweep,simulate,serve}
        --seed N --seconds S --trace {0,1} [--quick]

Run from the repository root.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it takes spans around the calls
into each layer, writes a Chrome trace under ``.perfbench/`` and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero if any correctness check fails.  See
``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here: imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: fresh-interpreter set-up probes run before and after the timed phase;
#: with this process's own set-up they give five samples spread over the
#: run, so one slow host phase cannot decide the median
SETUP_PROBES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "sweep", "simulate", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few ops per workload, one set-up sample")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(args):
    from workloads import SEQUENTIAL, Serve

    if args.workload == "serve":
        os.makedirs(OUT_DIR, exist_ok=True)
        return Serve(args.seed, OUT_DIR)
    return SEQUENTIAL[args.workload](args.seed, args.quick)


def host_probe():
    """A fixed pure-Python loop and a fixed NumPy sort, in ms.  Printed
    beside the metrics to tell a slow host phase from a slow program."""
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    loop_ms = (time.perf_counter() - t) * 1e3
    data = np.random.default_rng(0).random(1_000_000)
    t = time.perf_counter()
    np.sort(data)
    return loop_ms, (time.perf_counter() - t) * 1e3


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_sequential(workload, seconds, tracer):
    """Whole rounds of ops until ``seconds`` are spent: every run
    attempts whole rounds of the same ops.  Traced runs trace every
    other op, so the untraced ops between them give the tracing
    overhead."""
    from workloads import Op

    ops = []
    start = time.perf_counter()
    while True:
        for item in workload.round():
            traced = tracer is not None and len(ops) % 2 == 1
            if traced:
                tracer.op = len(ops)
                tracer.enable()
                tracer.enter("op")
            t = time.perf_counter()
            try:
                out, ok = workload.execute(item), True
            except Exception as exc:  # noqa: BLE001 - counted as failed
                out, ok = repr(exc), False
            latency = time.perf_counter() - t
            if traced:
                tracer.exit()
                tracer.disable()
            ops.append(Op(item, latency, ok, out,
                          "traced" if traced else "untraced"))
        elapsed = time.perf_counter() - start
        # A traced run needs one traced and one untraced op at least.
        if elapsed >= seconds and (tracer is None or len(ops) >= 2):
            return ops, elapsed


def setup_probe_samples(args, n):
    """Set-up time of ``n`` fresh interpreters running the same set-up."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_report(args, workload, tracer, ops):
    """Per-layer metrics of the traced ops; prints the tracing overhead
    and the share of the median traced op the layers account for."""
    from workloads import PER_LAYER, UNNESTED

    traced = [op for op in ops if op.phase == "traced"]
    extra = workload.layer_extras(traced, tracer)
    n = max(1, len(traced))
    metrics = {}
    for name, unit in PER_LAYER:
        key = name[:-2] if name.endswith("_s") else name
        if name in extra:
            value = extra[name]
        elif unit == "s":
            value = tracer.self_time.get(key, 0.0) / n
        else:
            value = tracer.counts.get(key, 0.0) / n
        metrics[name] = {"value": value, "unit": unit}
    traced_p50 = statistics.median(op.latency for op in traced)
    plain_p50 = statistics.median(
        op.latency for op in ops if op.phase == "untraced")
    layers = sum(m["value"] for name, m in metrics.items()
                 if m["unit"] == "s" and name not in UNNESTED)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    tracer.write_chrome(path)
    print(f"perfbench | traced ops={len(traced)} p50 {traced_p50:.4f} s, "
          f"untraced p50 {plain_p50:.4f} s, tracing overhead "
          f"{100 * (traced_p50 / plain_p50 - 1):+.1f}%")
    mean = statistics.fmean(op.latency for op in traced)
    print(f"perfbench | per-layer time covers "
          f"{100 * layers / traced_p50:.1f}% of the median traced op "
          f"({100 * layers / mean:.1f}% of the mean)")
    print(f"perfbench | chrome trace: {path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workload = make_workload(args)
    try:
        workload.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return report(args, workload, setup_s)
    finally:
        workload.close()


def measure(args, workload, tracer):
    """The timed phase: ``(ops, wall_s, peak_rss_mb)``."""
    from workloads import Serve

    if not isinstance(workload, Serve):
        if tracer is not None:
            workload.install_tracing(tracer)
        ops, wall = run_sequential(workload, args.seconds, tracer)
        return ops, wall, peak_rss_mb()
    if tracer is None:
        ops, wall = workload.run(args.seconds, "untraced")
    else:
        base, _ = workload.run(args.seconds / 2, "untraced")
        workload.install_tracing(tracer)
        tracer.enable()
        traced, wall = workload.run(args.seconds / 2, "traced")
        tracer.disable()
        ops = base + traced
    return ops, wall, max(peak_rss_mb(), workload.worker_peak_rss_mb())


def report(args, workload, setup_s) -> int:
    """Measure, check and print; returns the exit code."""
    import numpy

    from tracing import Tracer
    from workloads import CheckFailed

    setup_samples = [setup_s]
    probes = 0 if args.trace or args.quick else SETUP_PROBES
    setup_samples += setup_probe_samples(args, probes)
    probe_start = host_probe()
    tracer = Tracer() if args.trace else None
    ops, wall, rss = measure(args, workload, tracer)
    workload.close()
    probe_end = host_probe()

    problems = []
    try:
        workload.check(ops)
    except (CheckFailed, RuntimeError) as exc:
        problems.append(str(exc))
    setup_samples += setup_probe_samples(args, probes)

    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    latencies = [op.latency for op in ops]

    print(f"perfbench | workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"quick={int(args.quick)}")
    print(f"perfbench | git={git_sha()} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    print(f"perfbench | host probe start: loop {probe_start[0]:.1f} ms, "
          f"sort {probe_start[1]:.1f} ms; end: loop {probe_end[0]:.1f} ms, "
          f"sort {probe_end[1]:.1f} ms")
    print(f"perfbench | ops attempted={attempted} failed={failed}")
    for op in ops:
        if not op.ok:
            print(f"perfbench | FAILED op {op.item!r}: {str(op.out)[:300]}")

    if args.trace:
        try:
            metrics = trace_report(args, workload, tracer, ops)
        except CheckFailed as exc:
            problems.append(str(exc))
            metrics = {}
    else:
        ok_ops = sum(op.ok for op in ops)
        metrics = {
            "ops_per_s": {"value": ok_ops / wall, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(latencies),
                              "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        # Not a gated metric: below 40 ops a p90 is no tail, and its
        # run-to-run spread exceeded the largest bound (see README.md).
        print(f"perfbench | latency p90 {_percentile(latencies, 0.9):.4f} s, "
              f"p99 {_percentile(latencies, 0.99):.4f} s over "
              f"{len(latencies)} ops")
        print(f"perfbench | setup samples: "
              f"{', '.join(f'{s:.3f}' for s in setup_samples)} s")
    for name, m in metrics.items():
        print(f"metric {name:42s} {m['value']:14.6g} {m['unit']}")
    for problem in problems:
        print(f"perfbench | CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


def _percentile(values, q):
    """Linear-interpolated ``q`` quantile (``statistics`` needs n >= 2)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q * 100)) - 1]


if __name__ == "__main__":
    sys.exit(main())
