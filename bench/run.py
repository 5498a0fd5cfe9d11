"""spincavity benchmark: end-to-end and per-layer figures for one workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload closed_form_surface --seed 1 --seconds 10 --trace 0

Workloads (see ``worker.py``):

- ``closed_form_surface``: ``cli.run_sweep`` + ``cli.write_csv`` over a
  seeded 50x50 grid (the default sweep size) with the four closed-form
  columns.
- ``sim_surface``: the same over a seeded 2x2 grid with all eight columns,
  so nearly all time is gate simulation.
- ``gate_shots``: one ``simulate ... --trace`` command per operation.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of import + first operation), ``ops_per_s`` (grid
points or commands per second), ``latency_p50_ms`` and ``latency_tail_ms``
per operation (one sweep, or one command; the tail is the highest
percentile with ten samples beyond it), and ``peak_rss_mb`` of the
measuring process. Times are in reference-core seconds (see ``probe.py``);
the raw wall-clock figures are on the details line. ``--trace 1`` measures
once untraced and once with every layer wrapped, and prints per-layer
counts and self times per grid point or command, plus the tracing
slowdown.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it holds details (tail
percentile and sample count, error rate, first errors). Exits non-zero,
printing no result, when the checkout has no spincavity sources or a
worker process fails.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import STARTUP_REFERENCE_S, startup_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("closed_form_surface", "sim_surface", "gate_shots")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120

# Unit of each per-layer figure, by the last part of its name. Counts, bytes
# and seconds are per grid point (surfaces) or per command (gate_shots).
UNITS = {
    "calls": "count/op",
    "self_s": "s/op",
    "kets_in": "count/op",
    "ns_per_ket": "ns",
    "max_kets": "count",
    "bytes_out": "bytes/op",
    "gate_runs_per_point": "count/op",
    "useful_run_ratio": "ratio",
}


class BenchError(Exception):
    """A worker process could not produce a measurement."""


def _worker_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]


def setup_seconds(args) -> tuple[float, list[float]]:
    """Median time from process start to the first operation's completion.

    Each sample is scaled to the reference machine by an interpreter start
    timed just before it (see ``probe.py``); the raw samples are returned
    alongside.
    """
    samples, raw = [], []
    for attempt in range(SETUP_SAMPLES + 1):
        try:
            reference = startup_seconds(CHILD_TIMEOUT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"reference interpreter failed: {exc}") from exc
        start = perf_counter()
        with subprocess.Popen(_worker_argv(args, "--setup"), cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready, _, _ = select.select([child.stdout], [], [], CHILD_TIMEOUT_S)
            if not ready:
                child.kill()
            line = child.stdout.readline() if ready else ""
            elapsed = perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"setup process exited with code {code}")
        if attempt:  # the first start also warms the file cache and bytecode
            samples.append(STARTUP_REFERENCE_S * elapsed / reference)
            raw.append(elapsed)
    return statistics.median(samples), raw


def measure(args, traced: bool) -> dict:
    extra = ["--seconds", str(args.seconds)] + (["--traced"] if traced else [])
    try:
        done = subprocess.run(
            _worker_argv(args, *extra), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=3 * args.seconds + CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spincavity benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spincavity" / "__init__.py").is_file():
        print(f"error: no spincavity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            plain = measure(args, traced=False)
            traced = measure(args, traced=True)
            runs = [plain, traced]
            metrics = {
                name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[-1]]}
                for name, value in traced["layers"].items()
            }
            metrics["trace.ops_per_s"] = {"value": traced["ops_per_s"], "unit": "1/s"}
            metrics["trace.untraced_ops_per_s"] = {"value": plain["ops_per_s"], "unit": "1/s"}
            metrics["trace.slowdown"] = {"value": plain["ops_per_s"] / traced["ops_per_s"], "unit": "ratio"}
            details = {"missing_layers": traced["missing_layers"], "spans": traced["spans"]}
        else:
            setup, samples = setup_seconds(args)
            run = measure(args, traced=False)
            runs = [run]
            metrics = {
                "setup_s": {"value": setup, "unit": "s"},
                "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
                "latency_p50_ms": {"value": run["latency_p50_ms"], "unit": "ms"},
                "latency_tail_ms": {"value": run["latency_tail_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            }
            details = {
                "raw_setup_samples_s": samples,
                "raw_ops_per_s": run["raw_ops_per_s"],
                "raw_latency_p50_ms": run["raw_latency_p50_ms"],
                "raw_latency_tail_ms": run["raw_latency_tail_ms"],
                "probe_p50_ms": run["probe_p50_ms"],
                "tail_percentile": run["tail_percentile"],
                "tail_samples_beyond": run["tail_samples_beyond"],
                "latency_samples": run["ops"],
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    reference_errors = [e for r in runs for e in r["reference_errors"]]
    details["error_rate"] = failed / attempted
    details["errors"] = [e for r in runs for e in r["errors"]][:5] + reference_errors[:5]
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}))
    print(json.dumps({
        "correct": failed == 0 and not reference_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
