"""Benchmark entry point.

    python3 benchmark/run.py --workload {train,text2sign,posefit} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout: soke is imported from its `src/`, nothing
is installed. Prints the environment and a report under descriptive metric
names, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics of spec.END_TO_END, measured for --seconds, with times
scaled to a reference machine speed (workloads.Gauge). With --trace 1
the workload does one fixed pass untraced and the same pass traced, and the
metrics are the per-layer metrics of spec.per_layer(); the spans go to
.bench_out/. Exits non-zero without a result if soke cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS/OpenMP thread: fixed, at most nproc, and the same on every run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"
# Reference-kernel timings after each set-up, which give setup_s's speed factor.
SETUP_GAUGE_SAMPLES = 20


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "text2sign", "posefit"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    # evaluate_split's worker pool shares soke's process-global default dtype
    os.environ["SOKE_THREADS"] = "1"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS + ("SOKE_THREADS",)},
        "loadavg_start": loadavg(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "soke" / "__init__.py").is_file():
        print(f"error: no soke package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))
    env = environment()

    import spec
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS, Gauge

    workdir = OUT / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.size, workdir)
    try:
        setup_s = []
        setup_gauge = Gauge()
        for _ in range(workload.setup_reps):
            start = time.perf_counter()
            inputs = workload.setup(args.seed)
            setup_s.append(time.perf_counter() - start)
            for _ in range(SETUP_GAUGE_SAMPLES):
                setup_gauge.sample()

        if args.trace:
            start = time.perf_counter()
            report = workload.run(inputs, None, NullTracer())
            untraced_s = time.perf_counter() - start
            tracer = Tracer()
            start = time.perf_counter()
            with tracer.installed():
                traced = workload.run(inputs, None, tracer)
            traced_s = time.perf_counter() - start
            report.attempted += traced.attempted
            report.failed += traced.failed
            report.problems += traced.problems
            if traced.metrics["quality_mm"] != report.metrics["quality_mm"]:
                report.record(["tracing changed the quality metric"])
        else:
            report = workload.run(inputs, args.seconds, NullTracer())
        if hasattr(workload, "verify"):  # checks that re-run work outside the timed phase
            workload.verify(inputs, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = loadavg()
    setup = statistics.median(setup_s) * setup_gauge.factor()
    report.named[:0] = [("setup_s", setup, f"s (median of {len(setup_s)})"),
                        ("setup_s.wall", statistics.median(setup_s), "s"),
                        setup_gauge.describe("setup_speed_factor")]
    report.named += [("peak_rss_mb", peak_rss_mb(), "MB"),
                     ("failed_ratio", report.failed / max(report.attempted, 1),
                      f"ratio ({report.failed}/{report.attempted})")]

    if args.trace:
        declared = spec.per_layer()
        metrics = {name: 0 for name, _, _ in declared}  # layers this workload never calls
        metrics.update(tracer.layer_metrics())
        metrics.update(report.layer)
        if tracer.prompt_lengths:  # only workloads with a generator build prompts
            enc_max_len = workload.config.amg.enc_max_len
            metrics["amg.prompt_truncations"] = sum(n > enc_max_len
                                                    for n in tracer.prompt_lengths)
        metrics.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                        "trace.overhead_s": traced_s - untraced_s})
    else:
        metrics = dict(report.metrics, setup_s=setup, peak_rss_mb=peak_rss_mb())
        declared = spec.END_TO_END
    result = {
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in declared},
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.json.gz")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "named": report.named,
                   "problems": report.problems[:50], "result": result}, fh, indent=1)

    print(f"# env {json.dumps(env)}")
    for problem in report.problems[:20]:
        print(f"# FAILED {problem}")
    for name, value, unit in report.named:
        print(f"# {args.workload:9s} {name:28s} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
