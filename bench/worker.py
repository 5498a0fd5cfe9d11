"""One benchmark process: import spincavity, run one workload in a closed loop, check it.

Run by ``run.py`` in a fresh interpreter per measurement, so import cost and
peak memory belong to one workload. Single process, no threads; the next
operation starts when the previous one returns. Inputs come from ``--seed``
and the program sees only the generated inputs.

``--setup`` imports the package, runs the seed's first operation, prints
``ready`` and exits; ``run.py`` times that from process start. Otherwise the
worker runs one untimed warm-up operation, then operations until
``--seconds`` have passed, checks every output, and prints one JSON line.
``--traced`` wraps the package's layers (see ``tracing.py``) first.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import spincavity  # noqa: E402  (needs the checkout's src on the path)
from spincavity import cli  # noqa: E402

import checks  # noqa: E402
from probe import PROBE_REFERENCE_S, bracketed, probe_seconds  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

if SRC not in Path(spincavity.__file__).resolve().parents:
    raise SystemExit(f"spincavity imported from {spincavity.__file__}, not from {SRC}")

SQRT_HALF = 1.0 / math.sqrt(2.0)
FIXED_QUBITS = {"R": (1.0, 0.0), "L": (0.0, 1.0), "+": (SQRT_HALF, SQRT_HALF)}


def qubit_token(alpha: complex, beta: complex) -> str:
    """``alpha:beta`` with explicit parentheses so no token starts with '-'."""

    def one(z: complex) -> str:
        sign = "+" if math.copysign(1.0, z.imag) > 0 else "-"
        return f"({z.real!r}{sign}{abs(z.imag)!r}j)"

    return f"{one(alpha)}:{one(beta)}"


class Surface:
    """One ``run_sweep`` + ``write_csv`` over a seeded grid per operation.

    The grid shape is fixed and its ranges are drawn per operation, so every
    operation does the same amount of work on different points.
    """

    writes_csv = True

    def __init__(self, seed: int, g_steps: int, ks_steps: int, outputs) -> None:
        self.rng = random.Random(seed)
        self.g_steps, self.ks_steps, self.outputs = g_steps, ks_steps, tuple(outputs)
        self.units_per_op = g_steps * ks_steps
        # Realistic gate runs each point needs: one CNOT and one Toffoli.
        self.useful_runs = 2 if any(name.startswith("sim_") for name in outputs) else 0

    def make_op(self) -> dict:
        rng = self.rng
        return {
            "g_min": rng.uniform(0.0, 1.5), "g_max": rng.uniform(3.0, 5.0),
            "g_steps": self.g_steps,
            "ks_min": rng.uniform(0.0, 0.3), "ks_max": rng.uniform(0.6, 1.0),
            "ks_steps": self.ks_steps,
            "gamma": 0.1, "outputs": self.outputs,
        }

    @staticmethod
    def run(op: dict) -> str:
        spec = cli.SweepSpec(
            g_over_kappa=cli.SweepRange(op["g_min"], op["g_max"], op["g_steps"]),
            kappa_s_over_kappa=cli.SweepRange(op["ks_min"], op["ks_max"], op["ks_steps"]),
            gamma_over_kappa=op["gamma"],
            outputs=op["outputs"],
        )
        sink = io.StringIO()
        cli.write_csv(spec, cli.run_sweep(spec), sink)
        return sink.getvalue()

    def check(self, op: dict, output: str, rng: random.Random) -> list[str]:
        return checks.check_sweep_csv(output, op, rng)


# Shot kinds per block of ten, in seeded order within each block. CNOTs are
# eight in ten so the median sits inside the CNOT latency mode and the tail
# (the top 0.5% or so) inside the realistic Toffoli mode, away from the
# boundary between the two.
SHOT_BLOCK = (
    ("cnot", "ideal", False),
    ("cnot", "ideal", False),
    ("cnot", "ideal", False),
    ("cnot", "ideal", False),
    ("cnot", "realistic", False),
    ("cnot", "realistic", False),
    ("cnot", "realistic", False),
    ("cnot", "realistic", True),
    ("toffoli", "ideal", False),
    ("toffoli", "realistic", False),
)


class GateShots:
    """One ``cli.main(["simulate", ..., "--trace"])`` per operation, stdout in memory."""

    units_per_op = 1
    useful_runs = 1
    writes_csv = False

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pending: list = []

    def _qubit(self):
        rng = self.rng
        theta = rng.uniform(0.0, math.pi / 2.0)
        alpha = cmath.rect(math.cos(theta), rng.uniform(0.0, 2.0 * math.pi))
        beta = cmath.rect(math.sin(theta), rng.uniform(0.0, 2.0 * math.pi))
        token = qubit_token(alpha, beta)
        alpha_tok, beta_tok = token.split(":")
        # Parse the amplitudes back exactly as the command line will.
        return token, (complex(alpha_tok), complex(beta_tok))

    def make_op(self) -> dict:
        rng = self.rng
        if not self.pending:
            self.pending = list(SHOT_BLOCK)
            rng.shuffle(self.pending)
        gate, mode, plus_basis = self.pending.pop()
        if plus_basis:
            target = rng.choice("RL")
            tokens = [("+", FIXED_QUBITS["+"]), (target, FIXED_QUBITS[target])]
        else:
            tokens = [self._qubit() for _ in range(2 if gate == "cnot" else 3)]
        argv = ["simulate", gate, "--control", tokens[0][0]]
        if gate == "toffoli":
            argv += ["--control2", tokens[1][0], "--target", tokens[2][0]]
        else:
            argv += ["--target", tokens[1][0]]
        argv += ["--mode", mode, "--trace"]
        op = {
            "gate": gate, "mode": mode, "plus_basis": plus_basis,
            "qubits": [amps for _, amps in tokens], "target_token": tokens[-1][0],
            "gamma": 0.1,
        }
        if mode == "realistic":
            op["g"], op["kappa_s"] = rng.uniform(0.5, 5.0), rng.uniform(0.0, 1.0)
            argv += ["--g", repr(op["g"]), "--kappa-s", repr(op["kappa_s"])]
        op["argv"] = argv
        return op

    def run(self, op: dict) -> str:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = cli.main(op["argv"])
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return sink.getvalue()

    def check(self, op: dict, output: str, rng: random.Random) -> list[str]:
        return checks.check_shot(output, op)


def make_workload(name: str, seed: int):
    if name == "closed_form_surface":
        return Surface(seed, 50, 50, cli.CLOSED_FORM_OUTPUTS)
    if name == "sim_surface":
        return Surface(seed, 2, 2, cli.ALL_OUTPUTS)
    if name == "gate_shots":
        return GateShots(seed)
    raise SystemExit(f"unknown workload {name!r}")


def reference_checks() -> list[str]:
    """Anchor sweep, headline values and the checker self-test (untimed)."""
    anchor_text = Surface.run(checks.anchor_op())
    small = Surface(1, 6, 5, cli.CLOSED_FORM_OUTPUTS)
    small_op = small.make_op()
    shots = GateShots(2)
    shot_op = shots.make_op()
    while shot_op["mode"] != "ideal":
        shot_op = shots.make_op()
    errors = checks.check_anchor_csv(anchor_text) + checks.check_headline()
    errors += checks.self_test(small.run(small_op), small_op, anchor_text, shots.run(shot_op), shot_op)
    return errors


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(latencies)
    index = max(len(ordered) - 11, 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def measure(workload, seconds: float, seed: int, tracer) -> dict:
    """Run operations for ``seconds``; report timings scaled to the reference core.

    Each operation's wall time is divided by the host speed probed just
    before and after it (see ``probe.py``) and multiplied by
    ``PROBE_REFERENCE_S``.
    """
    check_rng = random.Random(seed ^ 0x5EED)
    errors: list[str] = []
    latencies: list[float] = []
    probes: list[float] = []
    units = failed = runs_useful = bytes_out = 0

    def attempt(op):
        start = perf_counter()
        try:
            output = workload.run(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            return perf_counter() - start, "", [f"{type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - start
        return elapsed, output, workload.check(op, output, check_rng)

    _, _, problems = attempt(workload.make_op())  # warm-up, untimed
    if tracer is not None:
        tracer.reset()
    errors += problems
    failed += bool(problems)
    probes.append(probe_seconds())
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        op = workload.make_op()
        if tracer is not None:
            tracer.op = len(latencies)
        elapsed, output, problems = attempt(op)
        latencies.append(elapsed)
        probes.append(probe_seconds())
        bytes_out += len(output)
        units += workload.units_per_op
        runs_useful += workload.useful_runs * workload.units_per_op
        if problems:
            failed += 1
            errors += problems
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [
        PROBE_REFERENCE_S * elapsed / bracketed(probes, i) for i, elapsed in enumerate(latencies)
    ]
    percentile, tail_s = tail(scaled)
    return {
        "attempted": len(latencies) + 1,
        "failed": failed,
        "errors": errors[:5],
        "ops": len(latencies),
        "units": units,
        "ops_per_s": units / sum(scaled),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail_s,
        "raw_ops_per_s": units / sum(latencies),
        "raw_latency_p50_ms": 1e3 * statistics.median(latencies),
        "raw_latency_tail_ms": 1e3 * tail(latencies)[1],
        "probe_p50_ms": 1e3 * statistics.median(probes),
        "tail_percentile": percentile,
        "tail_samples_beyond": min(10, len(latencies) - 1),
        "peak_rss_mb": peak_kb / 1024.0,
        "useful_runs": runs_useful,
        "bytes_out": bytes_out,
    }


def layer_metrics(tracer, result: dict, writes_csv: bool) -> dict:
    units = result["units"]
    report = tracer.report()
    metrics = {}
    for module_name, attribute, figures in LAYERS:
        entry = report.get(f"{module_name}.{attribute}")
        for key in figures:
            metrics[f"{module_name}.{attribute}.{key}"] = None if entry is None else entry[key] / units
    kets = tracer.counters.get("hilbert.apply_sited_map.kets_in", 0.0)
    sited = report.get("hilbert.apply_sited_map")
    metrics["hilbert.apply_sited_map.kets_in"] = None if sited is None else kets / units
    metrics["hilbert.apply_sited_map.ns_per_ket"] = (
        None if sited is None else (1e9 * sited["self_s"] / kets if kets else 0.0)
    )
    metrics["hilbert.max_kets"] = None if sited is None else tracer.counters.get("hilbert.max_kets", 0.0)
    serialize = report.get("hilbert.serialize")
    metrics["hilbert.serialize.bytes_out"] = (
        None if serialize is None else tracer.counters.get("hilbert.serialize.bytes_out", 0.0) / units
    )
    metrics["cli.write_csv.bytes_out"] = result["bytes_out"] / units if writes_csv else 0.0
    runs = report.get("circuits.GateMode.scatter_table")
    if runs is None:
        metrics["circuits.gate_runs_per_point"] = metrics["circuits.useful_run_ratio"] = None
    else:
        total = runs["calls"]
        metrics["circuits.gate_runs_per_point"] = total / units
        metrics["circuits.useful_run_ratio"] = result["useful_runs"] / total if total else 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    if args.setup:
        workload.run(workload.make_op())
        print("ready", flush=True)
        return 0

    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    result = measure(workload, args.seconds, args.seed, tracer)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result, workload.writes_csv)
        result["missing_layers"] = tracer.missing
        result["spans"] = tracer.span_count
    result["reference_errors"] = reference_checks()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
