"""Command-line front end: coefficients, simulations, truth tables, sweeps.

Output is deterministic: fixed column order, fixed row order (row-major over
the grid with the coupling ratio outermost), 17 significant digits, no
locale formatting. Exit codes: 0 success, 1 configuration error, 2 internal
invariant violation.

Options may also come from a plain-text ``key = value`` config file passed
with ``--config``; explicit flags override file entries.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence, TextIO

import numpy as np

from .cavity import CavityParams, coefficients
from .circuits import (
    FIDELITY_CONVENTIONS,
    Gate,
    GateMode,
    QUBIT_L,
    QUBIT_MINUS,
    QUBIT_PLUS,
    QUBIT_R,
    QubitState,
    cnot,
    gate_figures,
    ideal_oracle,
    input_vector,
    output_modes,
    polarization_vector,
    toffoli,
)
from .hilbert import StateError, serialize
from .metrics import (
    DecoherenceParams,
    closed_form_figures,
    exciton_dephasing_factor,
    spin_decoherence_factor,
    trion_density_matrix,
)


class ConfigError(Exception):
    """Bad flags, config file entries, or sweep ranges."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # argparse exits with status 2 by default; config errors are ours.
        raise ConfigError(message)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


CLOSED_FORM_OUTPUTS = ("f_cnot", "f_toffoli", "eta_cnot", "eta_toffoli")
SIM_OUTPUTS = ("sim_f_cnot", "sim_f_toffoli", "sim_eta_cnot", "sim_eta_toffoli")
ALL_OUTPUTS = CLOSED_FORM_OUTPUTS + SIM_OUTPUTS
FIDELITY_OUTPUTS = ("f_cnot", "f_toffoli", "sim_f_cnot", "sim_f_toffoli")
DECOHERE_CHOICES = ("spin", "exciton-amount", "exciton-factor")


@dataclass(frozen=True)
class SweepRange:
    minimum: float
    maximum: float
    steps: int

    def validate(self, name: str) -> None:
        if self.steps < 2:
            raise ConfigError(f"{name}.steps must be at least 2, got {self.steps}")
        if not self.minimum < self.maximum:
            raise ConfigError(
                f"{name}: min must be below max, got [{self.minimum}, {self.maximum}]"
            )
        if self.minimum < 0 or self.maximum > 100:
            raise ConfigError(f"{name}: range must stay within [0, 100]")

    def points(self) -> list[float]:
        span = self.maximum - self.minimum
        return [
            self.minimum + span * i / (self.steps - 1) for i in range(self.steps)
        ]


@dataclass(frozen=True)
class SweepSpec:
    """Grid specification for the figure-of-merit sweep.

    Closed-form outputs are cheap and on by default; simulation-backed
    outputs (equal-superposition inputs) are opt-in. Grid points are pure
    functions of the spec, so rows are reproducible bit for bit.
    """

    g_over_kappa: SweepRange
    kappa_s_over_kappa: SweepRange
    gamma_over_kappa: float = 0.1
    outputs: tuple[str, ...] = CLOSED_FORM_OUTPUTS
    sim_convention: str = "per-branch-averaged"
    decohere: tuple[str, ...] = ()
    decoherence: DecoherenceParams = field(default_factory=DecoherenceParams)

    def validate(self) -> None:
        self.g_over_kappa.validate("g_over_kappa")
        self.kappa_s_over_kappa.validate("kappa_s_over_kappa")
        if not self.outputs:
            raise ConfigError("outputs: at least one output column is required")
        for name in self.outputs:
            if name not in ALL_OUTPUTS:
                raise ConfigError(f"outputs: unknown output {name!r}")
        for name in self.decohere:
            if name not in DECOHERE_CHOICES:
                raise ConfigError(f"decohere: unknown factor {name!r}")
        if self.sim_convention not in FIDELITY_CONVENTIONS:
            raise ConfigError(f"sim_convention: unknown convention {self.sim_convention!r}")


@dataclass(frozen=True)
class SweepRow:
    g_over_kappa: float
    kappa_s_over_kappa: float
    values: tuple[float, ...]


def _fidelity_multiplier(spec: SweepSpec) -> float:
    multiplier = 1.0
    if "spin" in spec.decohere:
        multiplier *= spin_decoherence_factor(spec.decoherence)
    if "exciton-amount" in spec.decohere:
        multiplier *= 1.0 - exciton_dephasing_factor(spec.decoherence)
    if "exciton-factor" in spec.decohere:
        multiplier *= exciton_dephasing_factor(spec.decoherence)
    return multiplier


#: Simulation-backed columns: gate, its equal-superposition inputs, and the
#: fidelity and efficiency column names.
_SIM_COLUMNS = (
    (Gate.CNOT, (QUBIT_PLUS,) * 2, "sim_f_cnot", "sim_eta_cnot"),
    (Gate.TOFFOLI, (QUBIT_PLUS,) * 3, "sim_f_toffoli", "sim_eta_toffoli"),
)


def run_sweep(spec: SweepSpec) -> Iterator[SweepRow]:
    """Evaluate the requested outputs over the grid, rows in grid order."""
    spec.validate()
    fidelity_scale = _fidelity_multiplier(spec)
    sim_gates = [column for column in _SIM_COLUMNS if {column[2], column[3]} & set(spec.outputs)]
    for g in spec.g_over_kappa.points():
        for ks in spec.kappa_s_over_kappa.points():
            params = CavityParams(g=g, kappa_s=ks, gamma=spec.gamma_over_kappa)
            coeffs = coefficients(params)
            figures = closed_form_figures(coeffs)
            values: dict[str, float] = {
                "f_cnot": figures.f_cnot,
                "f_toffoli": figures.f_toffoli,
                "eta_cnot": figures.eta_cnot,
                "eta_toffoli": figures.eta_toffoli,
            }
            for gate, inputs, f_name, eta_name in sim_gates:
                simulated = gate_figures(gate, inputs, coeffs)
                values[f_name] = simulated.fidelity(spec.sim_convention)
                values[eta_name] = simulated.survival
            row_values = []
            for name in spec.outputs:
                value = values[name]
                if name in FIDELITY_OUTPUTS:
                    value *= fidelity_scale
                row_values.append(value)
            yield SweepRow(g, ks, tuple(row_values))


def write_csv(spec: SweepSpec, rows, out: TextIO) -> None:
    out.write("g_over_kappa,kappa_s_over_kappa," + ",".join(spec.outputs) + "\n")
    for row in rows:
        cells = [_fmt(row.g_over_kappa), _fmt(row.kappa_s_over_kappa)]
        cells.extend(_fmt(v) for v in row.values)
        out.write(",".join(cells) + "\n")


def write_json(spec: SweepSpec, rows, out: TextIO) -> None:
    payload = [
        {
            "g_over_kappa": row.g_over_kappa,
            "kappa_s_over_kappa": row.kappa_s_over_kappa,
            **{name: value for name, value in zip(spec.outputs, row.values)},
        }
        for row in rows
    ]
    json.dump(payload, out, indent=2)
    out.write("\n")


_QUBIT_TOKENS = {
    "R": QUBIT_R,
    "L": QUBIT_L,
    "+": QUBIT_PLUS,
    "plus": QUBIT_PLUS,
    "-": QUBIT_MINUS,
    "minus": QUBIT_MINUS,
}


def parse_qubit(token: str) -> QubitState:
    """Parse R, L, +, -, or an explicit ``alpha:beta`` complex pair."""
    if token in _QUBIT_TOKENS:
        return _QUBIT_TOKENS[token]
    if ":" in token:
        alpha_tok, beta_tok = token.split(":", 1)
        try:
            return QubitState(complex(alpha_tok), complex(beta_tok))
        except ValueError as exc:
            # covers unparsable literals and non-unit weight alike
            raise ConfigError(f"bad qubit token {token!r}: {exc}") from exc
    raise ConfigError(f"bad qubit token {token!r} (use R, L, +, -, or alpha:beta)")


def _gate_mode(args) -> GateMode:
    if args.mode == "ideal":
        return GateMode.ideal()
    return GateMode.realistic(
        CavityParams(g=args.g, kappa_s=args.kappa_s, gamma=args.gamma)
    )


def cmd_coeffs(args, out: TextIO) -> int:
    params = CavityParams(
        g=args.g,
        kappa_s=args.kappa_s,
        gamma=args.gamma,
        delta_c=args.delta_c,
        delta_x=args.delta_x,
    )
    co = coefficients(params)
    for name, value in (("t", co.t), ("r", co.r), ("t0", co.t0), ("r0", co.r0)):
        value = complex(value)
        out.write(f"{name} {_fmt(value.real)} {_fmt(value.imag)}\n")
    return 0


def cmd_simulate(args, out: TextIO) -> int:
    mode = _gate_mode(args)
    if args.gate == "cnot":
        result = cnot(parse_qubit(args.control), parse_qubit(args.target), mode)
    else:
        if args.control2 is None:
            raise ConfigError("toffoli needs --control2")
        result = toffoli(
            parse_qubit(args.control),
            parse_qubit(args.control2),
            parse_qubit(args.target),
            mode,
        )
    out.write(f"gate {args.gate}\n")
    out.write(f"mode {args.mode}\n")
    if args.trace:
        for name, state in result.trace:
            out.write(f"trace {name}\n")
            out.write(serialize(state) + "\n")
    out.write(f"survival {_fmt(result.survival)}\n")
    for branch in result.branches:
        out.write(f"branch {branch.outcome.token} probability {_fmt(branch.probability)}\n")
        out.write(serialize(branch.state) + "\n")
    return 0


def cmd_truth_table(args, out: TextIO) -> int:
    gate = Gate.CNOT if args.gate == "cnot" else Gate.TOFFOLI
    n = 2 if gate is Gate.CNOT else 3
    oracle = ideal_oracle(gate)
    modes = output_modes(gate)
    basis = (QUBIT_R, QUBIT_L)
    all_pass = True
    for index in range(2 ** n):
        bits = [(index >> (n - 1 - i)) & 1 for i in range(n)]
        inputs = tuple(basis[b] for b in bits)
        expected = oracle @ input_vector(inputs)
        if gate is Gate.CNOT:
            result = cnot(inputs[0], inputs[1])
        else:
            result = toffoli(inputs[0], inputs[1], inputs[2])
        ok = all(
            abs(expected.conj() @ polarization_vector(branch.state, modes)) ** 2
            >= 1.0 - 1e-9
            for branch in result.branches
        )
        all_pass = all_pass and ok
        in_names = " ".join("R" if b == 0 else "L" for b in bits)
        out_index = int(np.argmax(np.abs(expected)))
        out_names = " ".join(
            "R" if (out_index >> (n - 1 - i)) & 1 == 0 else "L" for i in range(n)
        )
        out.write(f"{in_names} -> {out_names} {'PASS' if ok else 'FAIL'}\n")
    out.write(("all PASS" if all_pass else "MISMATCH") + "\n")
    return 0 if all_pass else 2


def cmd_sweep(args, out: TextIO) -> int:
    outputs = tuple(name for name in args.outputs.split(",") if name)
    decohere = tuple(name for name in (args.decohere or "").split(",") if name)
    spec = SweepSpec(
        g_over_kappa=SweepRange(args.g_min, args.g_max, args.g_steps),
        kappa_s_over_kappa=SweepRange(args.ks_min, args.ks_max, args.ks_steps),
        gamma_over_kappa=args.gamma,
        outputs=outputs,
        sim_convention=args.sim_convention,
        decohere=decohere,
        decoherence=DecoherenceParams(t2e=args.t2e, dt=args.dt, tau=args.tau, t2=args.t2),
    )
    rows = list(run_sweep(spec))  # every row before any output
    if args.format == "csv":
        write_csv(spec, rows, out)
    else:
        write_json(spec, rows, out)
    return 0


def _write_matrix(out: TextIO, label: str, matrix) -> None:
    out.write(label + "\n")
    for row in matrix:
        out.write(" ".join(f"{_fmt(v.real)},{_fmt(v.imag)}" for v in row) + "\n")


def cmd_decoherence(args, out: TextIO) -> int:
    params = DecoherenceParams(t2e=args.t2e, dt=args.dt, tau=args.tau, t2=args.t2)
    spin = spin_decoherence_factor(params)
    exciton = exciton_dephasing_factor(params)
    out.write(f"spin_decoherence_factor {_fmt(spin)}\n")
    out.write(f"exciton_dephasing_factor {_fmt(exciton)}\n")
    out.write(f"exciton_multiplier_amount_reading {_fmt(1.0 - exciton)}\n")
    out.write(f"exciton_multiplier_factor_reading {_fmt(exciton)}\n")
    if args.fidelity is not None:
        base = args.fidelity * spin
        out.write(f"adjusted_fidelity_amount_reading {_fmt(base * (1.0 - exciton))}\n")
        out.write(f"adjusted_fidelity_factor_reading {_fmt(base * exciton)}\n")
    for label, t in (("t=0", 0.0), ("t=tau", params.tau), ("t=t2", params.t2)):
        _write_matrix(out, f"trion_density_matrix {label}", trion_density_matrix(t, params.t2))
    return 0


def _add_cavity_flags(parser, with_detuning: bool = False) -> None:
    parser.add_argument("--g", type=float, default=2.4, help="coupling ratio g/kappa")
    parser.add_argument(
        "--kappa-s", dest="kappa_s", type=float, default=0.0, help="side leakage kappa_s/kappa"
    )
    parser.add_argument(
        "--gamma", type=float, default=0.1, help="dipole decay gamma/kappa"
    )
    if with_detuning:
        parser.add_argument("--delta-c", dest="delta_c", type=float, default=0.0)
        parser.add_argument("--delta-x", dest="delta_x", type=float, default=0.0)


def _add_decoherence_flags(parser) -> None:
    parser.add_argument("--t2e", type=float, default=3000.0, help="spin coherence time (ns)")
    parser.add_argument("--dt", type=float, default=4.5, help="photon interval (ns)")
    parser.add_argument("--tau", type=float, default=10.0, help="cavity photon lifetime (ns)")
    parser.add_argument("--t2", type=float, default=100.0, help="trion coherence time (ns)")


def build_parser() -> _Parser:
    parser = _Parser(prog="spincavity", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs_p = sub.add_parser("coeffs", help="print cavity coefficients")
    _add_cavity_flags(coeffs_p, with_detuning=True)

    sim_p = sub.add_parser("simulate", help="run one gate")
    sim_p.add_argument("gate", choices=("cnot", "toffoli"))
    sim_p.add_argument("--control", required=True, help="control qubit (R, L, +, -, a:b)")
    sim_p.add_argument("--control2", default=None, help="second control (toffoli)")
    sim_p.add_argument("--target", required=True, help="target qubit")
    sim_p.add_argument("--mode", choices=("ideal", "realistic"), default="ideal")
    sim_p.add_argument("--trace", action="store_true", help="print named staged states")
    _add_cavity_flags(sim_p)

    tt_p = sub.add_parser("truth-table", help="verify the ideal gate against its oracle")
    tt_p.add_argument("gate", choices=("cnot", "toffoli"))

    sweep_p = sub.add_parser("sweep", help="figure-of-merit sweep over (g, kappa_s)")
    sweep_p.add_argument("--g-min", type=float, default=0.0)
    sweep_p.add_argument("--g-max", type=float, default=5.0)
    sweep_p.add_argument("--g-steps", type=int, default=50)
    sweep_p.add_argument("--ks-min", type=float, default=0.0)
    sweep_p.add_argument("--ks-max", type=float, default=1.0)
    sweep_p.add_argument("--ks-steps", type=int, default=50)
    sweep_p.add_argument("--gamma", type=float, default=0.1)
    sweep_p.add_argument("--outputs", default=",".join(CLOSED_FORM_OUTPUTS))
    sweep_p.add_argument(
        "--sim-convention",
        choices=("per-branch-averaged", "pre-measurement"),
        default="per-branch-averaged",
    )
    sweep_p.add_argument(
        "--decohere",
        default="",
        help="comma list of fidelity multipliers: spin, exciton-amount, exciton-factor",
    )
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep_p.add_argument("--out", default=None, help="output path (default stdout)")
    _add_decoherence_flags(sweep_p)

    deco_p = sub.add_parser("decoherence", help="decoherence factor report")
    _add_decoherence_flags(deco_p)
    deco_p.add_argument(
        "--fidelity", type=float, default=None, help="fidelity to adjust in the report"
    )

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Replace ``--config FILE`` with the file's flags, placed before the others."""
    if "--config" not in argv:
        return argv
    index = argv.index("--config")
    if index + 1 >= len(argv):
        raise ConfigError("--config needs a file path")
    if index == 0:
        raise ConfigError("--config must follow a subcommand")
    path = argv[index + 1]
    rest = argv[:index] + argv[index + 2:]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    flags: list[str] = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line {line!r} (expected key = value)")
        key, value = (part.strip() for part in line.split("=", 1))
        flags.extend([f"--{key.replace('_', '-')}", value])
    return [rest[0]] + flags + rest[1:]


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "simulate": cmd_simulate,
    "truth-table": cmd_truth_table,
    "sweep": cmd_sweep,
    "decoherence": cmd_decoherence,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
        args = build_parser().parse_args(argv)
        out_path = getattr(args, "out", None)
        if not out_path:
            return _COMMANDS[args.command](args, sys.stdout)
        # The file is opened only once the command has succeeded, so a
        # failed run neither creates nor truncates it.
        buffer = io.StringIO()
        code = _COMMANDS[args.command](args, buffer)
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(buffer.getvalue())
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: {exc}") from exc
        return code
    except (ConfigError, ValueError) as exc:
        # ValueError here means flag-derived parameters failed validation
        # (negative rates, non-positive time scales, and the like).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StateError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
