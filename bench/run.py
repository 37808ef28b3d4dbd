"""Run one kissgeo benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload dense-embed --seed 1 --seconds 40 --trace 0

Inputs come from the seed alone. Every operation's output is checked by the
benchmark's own numpy oracle. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
holds the report: machine and environment, sizes, latency per entry point
with its sample count, failures, and (traced) the tracer's own overhead.
Spans of a traced run are written to .bench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

# BLAS may use every core this process may run on and no more; recorded in the report.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from bench import spec  # noqa: E402
from bench.probe import run_probe  # noqa: E402
from bench.spans import Tracer, tracing  # noqa: E402
from bench.workloads import WORKLOADS, CliWorkload, Recorder, Sizes, child_env  # noqa: E402

OUT_DIR = ROOT / ".bench_out"

# Set-up as a user pays it once per process: a fresh interpreter imports
# kissgeo and calls every entry point once on tiny inputs.
SETUP_SCRIPT = """
import sys, time
start = time.perf_counter()
from bench.probe import run_probe
run_probe(sys.argv[1])
print(time.perf_counter() - start)
"""


def measure_setup(repeats: int, directory: Path) -> list[float]:
    """Set-up time of ``repeats`` fresh processes."""
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(directory)],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def latency_report(samples: dict, entries) -> dict:
    """Median per entry point with its sample count; a higher percentile only
    where at least ten samples lie beyond it."""
    out = {}
    for entry in entries:
        values = samples.get(entry, [])
        row = {"samples": len(values)}
        if values:
            row["p50_s"] = statistics.median(values)
            for pct in (99, 90):
                if len(values) * (100 - pct) >= 1000:
                    row[f"p{pct}_s"] = float(np.percentile(values, pct))
                    break
        out[f"{entry}_p50_s"] = row
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), out_dir: Path = OUT_DIR) -> tuple[dict, dict]:
    """One benchmark run. Returns (result line, report)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        scratch = Path(scratch)
        # The first process may compile bytecode and is discarded. Further
        # set-up samples are taken before the timed phase and after each of
        # its items, so that their median spans the machine's load over the
        # whole run.
        setup = measure_setup(1 + sizes.setup_samples, scratch)[1:]
        rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
        start = time.perf_counter()
        work = WORKLOADS[workload](rng, sizes, seconds, scratch)
        generate_s = time.perf_counter() - start
        rec, report = execute(work, trace, scratch, out_dir / f"spans-{workload}-{seed}.json",
                              lambda: setup.extend(measure_setup(sizes.setup_samples, scratch)))

    report.update(workload=workload, environment=environment(seed),
                  sizes=dataclasses.asdict(sizes), generate_s=generate_s, setup_samples_s=setup,
                  **latency_report(rec.samples, work.entries),
                  fail_ratio=rec.failed / rec.attempted, failures=rec.failures[:20])
    if trace:
        metrics = spec.layer_values(rec.tracer.summary(), report["trace_overhead_s"])
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": rec.wall_s,
            "p50_s": sum(statistics.median(rec.samples.get(e, [0.0])) for e in work.entries),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, report


def execute(work, trace: bool, scratch: Path, spans_path: Path,
            between) -> tuple[Recorder, dict]:
    """Warm-up, then the timed phase.

    Untraced, every item runs once, and ``between()`` is called after each.
    Traced, each of the first half of the items runs twice, untraced and
    traced, in alternating order so that the machine's drifting load falls on
    both sides alike; the difference of the two sums is the tracer's
    overhead, and ``between()`` is called once at the end. The traced run also
    traces the warm-up probe, so that every layer has spans on every workload.
    """
    rec = Recorder()
    if not trace:
        run_probe(scratch)
        work.warm()
        for item in work.items:
            work.execute([item], rec, in_process=False)
            between()
        return rec, {"peak_rss_mb": peak_rss_mb(work)}
    rec.tracer = Tracer()
    with tracing(rec.tracer):
        run_probe(scratch)
    work.warm()
    items = work.items[:max(1, len(work.items) // 2)]
    # An unrecorded in-process pass first, so that one-time costs of the
    # first large call land on neither side of the comparison.
    work.execute(items[:1], Recorder(), in_process=True)
    spent = {False: 0.0, True: 0.0}
    for k, item in enumerate(items):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            before = rec.wall_s
            with tracing(rec.tracer) if traced else contextlib.nullcontext():
                work.execute([item], rec, in_process=True)
            spent[traced] += rec.wall_s - before
    write_spans(rec.tracer, spans_path)
    between()
    return rec, {"untraced_wall_s": spent[False], "traced_wall_s": spent[True],
                 "trace_overhead_s": spent[True] - spent[False], "spans": len(rec.tracer.spans)}


def peak_rss_mb(work) -> float:
    """Peak resident memory of the process doing the work: this one, or for the
    CLI the largest child."""
    who = resource.RUSAGE_CHILDREN if isinstance(work, CliWorkload) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["name", "start", "end", "parent", "operation", "work", "error"],
                   "spans": tracer.spans}, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kissgeo" / "__init__.py").is_file():
        print(f"bench: no kissgeo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
