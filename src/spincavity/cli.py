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
import functools
import io
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Mapping, Sequence, TextIO

from .cavity import CavityParams, SingularParameterError, coefficients, resonant_magnitudes
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
    output_modes,
    polarization_amplitudes,
    stacked_figures,
    toffoli,
)
from .hilbert import DegenerateStateError, Polarization, StateError, serialize
from .metrics import (
    DecoherenceParams,
    GateFigures,
    exciton_dephasing_factor,
    magnitude_figures,
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


#: Most grid points a sweep may hold, checked before any point is built: some
#: 4 s of closed-form rows, all of which a sweep keeps before it writes.
MAX_GRID_POINTS = 10**6


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
        g_steps, ks_steps = self.g_over_kappa.steps, self.kappa_s_over_kappa.steps
        if g_steps * ks_steps > MAX_GRID_POINTS:
            raise ConfigError(
                f"g_over_kappa.steps x kappa_s_over_kappa.steps must be at most {MAX_GRID_POINTS}, "
                f"got {g_steps} x {ks_steps}"
            )
        if not self.outputs:
            raise ConfigError("outputs: at least one output column is required")
        for i, name in enumerate(self.outputs):
            if name not in ALL_OUTPUTS:
                raise ConfigError(f"outputs: unknown output {name!r}")
            if name in self.outputs[:i]:
                raise ConfigError(f"outputs: duplicate output {name!r}")
        for name in self.decohere:
            if name not in DECOHERE_CHOICES:
                raise ConfigError(f"decohere: unknown factor {name!r}")
        if self.sim_convention not in FIDELITY_CONVENTIONS:
            raise ConfigError(f"sim_convention: unknown convention {self.sim_convention!r}")


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


#: Grid points evaluated together: one evaluation of every sim gate per
#: chunk. A batch holds at most about 10 KB of temporaries per point, so
#: chunks of 16 keep a sweep's peak memory at the point-by-point level, for a
#: few milliseconds more per 50x50 grid than larger chunks.
SWEEP_CHUNK = 16


def run_sweep(spec: SweepSpec) -> Iterator[tuple[float, float, tuple[float, ...]]]:
    """Evaluate the requested outputs over the grid: ``(g_over_kappa,
    kappa_s_over_kappa, values)`` rows in grid order, values in output order."""
    spec.validate()
    # The ranges hold every coordinate finite and within [0, 100], so one
    # CavityParams validates the whole grid, with the messages a per-point
    # one would give. Each point then costs only its arithmetic.
    params = CavityParams(g=0.0, gamma=spec.gamma_over_kappa)
    gamma, kappa = params.gamma, params.kappa
    sim_gates = [column for column in _SIM_COLUMNS if {column[2], column[3]} & set(spec.outputs)]
    # A point's record is its GateFigures fields followed by (fidelity, survival)
    # of each simulated gate; a row picks its values from it in output order.
    index = {name: i for i, name in enumerate(GateFigures._fields)}
    for _, _, f_name, eta_name in sim_gates:
        index[f_name], index[eta_name] = len(index), len(index) + 1
    columns = [index[name] for name in spec.outputs]
    pick = itemgetter(*columns) if len(columns) > 1 else lambda record: (record[columns[0]],)
    fidelity_scale = _fidelity_multiplier(spec)
    scales = [fidelity_scale if name in FIDELITY_OUTPUTS else 1.0 for name in spec.outputs]
    g_points, kappa_s_points = spec.g_over_kappa.points(), spec.kappa_s_over_kappa.points()
    grid = itertools.product(g_points, kappa_s_points)
    magnitudes = resonant_magnitudes(g_points, kappa_s_points, gamma, kappa)
    # A chunk's closed forms run before its gates. Resonant coefficients fail
    # a gate only by zero survival (the Toffoli at g = 0, kappa_s = 2), which
    # names the grid's first such point.
    kinds = [column[:2] for column in sim_gates]
    while chunk := list(itertools.islice(grid, SWEEP_CHUNK)):
        try:
            chunk_magnitudes = list(itertools.islice(magnitudes, len(chunk)))
        except SingularParameterError as exc:
            # The hot-cavity denominator grows with g and kappa_s: the first point fails first.
            g_min = spec.g_over_kappa.minimum
            raise ConfigError(f"g_over_kappa = {g_min} with gamma_over_kappa = {gamma}: {exc}") from None
        records = [magnitude_figures(*point) for point in chunk_magnitudes]
        try:
            stacked = stacked_figures(kinds, chunk_magnitudes)
        except DegenerateStateError as exc:
            for (g, ks), point in zip(chunk, chunk_magnitudes):
                try:
                    stacked_figures(kinds, [point])
                except DegenerateStateError:
                    raise ConfigError(f"g_over_kappa = {g} with kappa_s_over_kappa = {ks}: {exc}") from None
            raise
        for simulated in stacked:
            records = [
                record + (figures.fidelity(spec.sim_convention), figures.survival)
                for record, figures in zip(records, simulated)
            ]
        for (g, ks), record in zip(chunk, records):
            values = pick(record)
            if fidelity_scale != 1.0:  # x * 1.0 is x, bit for bit
                # From a list, not a generator: tuple() of a generator resizes
                # its result, which parks it on another size's free list.
                values = tuple([value * scale for value, scale in zip(values, scales)])
            yield g, ks, values


#: Rows formatted by one ``%`` and written by one ``write``: about 30 KB of
#: text with the four closed-form columns.
CSV_CHUNK = 256


class _Formatted(dict):
    """17-digit text of each value, formatted on first use.

    Zeros are never stored: 0.0 and -0.0 are one key but print apart.
    """

    def __missing__(self, value: float) -> str:
        text = _fmt(value)
        if value:
            self[value] = text
        return text


def write_csv(spec: SweepSpec, rows, out: TextIO) -> None:
    out.write("g_over_kappa,kappa_s_over_kappa," + ",".join(spec.outputs) + "\n")
    line = "%s,%s," + ",".join(["%.17g"] * len(spec.outputs)) + "\n"
    coordinates = _Formatted()
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, CSV_CHUNK)):
        cells = []
        for g, ks, values in chunk:
            cells += (coordinates[g], coordinates[ks], *values)
        out.write(line * len(chunk) % tuple(cells))


def write_json(spec: SweepSpec, rows, out: TextIO) -> None:
    payload = [
        {"g_over_kappa": g, "kappa_s_over_kappa": ks, **dict(zip(spec.outputs, values))}
        for g, ks, values in rows
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


def cmd_coeffs(args, out: TextIO) -> int:
    params = CavityParams(
        g=args.g,
        kappa_s=args.kappa_s,
        gamma=args.gamma,
        delta_c=args.delta_c,
        delta_x=args.delta_x,
    )
    for name, value in coefficients(params)._asdict().items():
        value = complex(value)
        out.write(f"{name} {_fmt(value.real)} {_fmt(value.imag)}\n")
    return 0


def cmd_simulate(args, out: TextIO) -> int:
    # Faults are reported in this order: a rate, a missing or bad qubit, then a
    # singular cavity, which only working out the coefficients finds.
    params = None if args.mode == "ideal" else CavityParams(g=args.g, kappa_s=args.kappa_s, gamma=args.gamma)
    if args.gate == "cnot":
        qubits = parse_qubit(args.control), parse_qubit(args.target)
    else:
        if args.control2 is None:
            raise ConfigError("toffoli needs --control2")
        qubits = parse_qubit(args.control), parse_qubit(args.control2), parse_qubit(args.target)
    mode = GateMode.ideal() if params is None else GateMode.realistic(params)
    result = (cnot if args.gate == "cnot" else toffoli)(*qubits, mode)
    lines = [f"gate {args.gate}", f"mode {args.mode}"]
    if args.trace:
        for name, state in result.trace:
            lines += ("trace " + name, serialize(state))
    lines.append("survival %.17g" % result.survival)
    for branch in result.branches:
        lines.append("branch %s probability %.17g" % (branch.outcome.token, branch.probability))
        lines.append(serialize(branch.state))
    out.write("\n".join(lines) + "\n")
    return 0


def cmd_truth_table(args, out: TextIO) -> int:
    """Check each basis input's every branch against the gate's rule: the target
    flips exactly where every control is left-circular."""
    gate = Gate(args.gate)
    modes = output_modes(gate)
    all_pass = True
    for pols in itertools.product(Polarization, repeat=len(modes)):  # R before L per qubit
        *controls, target = pols
        expected = (*controls, target.flipped if all(c is Polarization.L for c in controls) else target)
        result = (cnot if gate is Gate.CNOT else toffoli)(*[(QUBIT_R, QUBIT_L)[p] for p in pols])
        ok = all(
            abs(polarization_amplitudes(branch.state, modes).get(expected, 0)) ** 2 >= 1.0 - 1e-9
            for branch in result.branches
        )
        all_pass = all_pass and ok
        row = " ".join(p.name for p in pols), " ".join(p.name for p in expected), "PASS" if ok else "FAIL"
        out.write("%s -> %s %s\n" % row)
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
    if args.fidelity is not None and not 0.0 <= args.fidelity <= 1.0:  # NaN fails too
        raise ConfigError(f"fidelity must be within [0, 1], got {args.fidelity}")
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


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
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
    sweep_p.add_argument("--sim-convention", choices=FIDELITY_CONVENTIONS, default="per-branch-averaged")
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

    parser.commands = sub.choices
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


_QUBIT_FLAGS = ("--control", "--control2", "--target")


def _resolve_flag(token: str, flags: Mapping[str, object]) -> str:
    """The flag ``token`` names as argparse reads it: exactly, or as the one flag it abbreviates."""
    if token in flags or not token.startswith("--"):
        return token
    matches = [flag for flag in flags if flag.startswith(token)]
    return matches[0] if len(matches) == 1 else token


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_dash_values(argv: list[str]) -> list[str]:
    """Join ``--target -0.6j:0.8`` into ``--target=-0.6j:0.8``, and ``--delta-x -1e3``
    into ``--delta-x=-1e3``.

    argparse reads a separate token that starts with ``-`` and is not a plain
    number as an option. A token holding ``:`` is an ``alpha:beta`` pair, and
    one that ``float`` reads is a number; neither is an option, so it is
    attached to the qubit or numeric flag before it, named in full or by a
    unique prefix. A bare ``-`` already parses as the minus state. An
    ambiguous prefix is left for argparse to report.
    """
    parser = build_parser().commands.get(argv[0]) if argv else None
    if parser is None:
        return argv
    actions = parser._option_string_actions
    joined: list[str] = []
    for token in argv:
        action = token.startswith("-") and joined and actions.get(_resolve_flag(joined[-1], actions))
        if action and (
            _is_float(token) if action.type in (float, int)
            else ":" in token and action.option_strings[0] in _QUBIT_FLAGS
        ):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "simulate": cmd_simulate,
    "truth-table": cmd_truth_table,
    "sweep": cmd_sweep,
    "decoherence": cmd_decoherence,
}


@functools.cache
def _canonical_forms() -> dict[str, tuple]:
    """Per command, from its parser's own actions: the exact long flags of its
    plain and constant stores, its positionals, its defaults, and the actions
    a namespace must have seen."""
    stores = ((argparse._StoreAction.__call__, None), (argparse._StoreConstAction.__call__, 0))
    forms = {}
    for name, parser in build_parser().commands.items():
        actions = [action for action in parser._actions if action.dest != argparse.SUPPRESS]
        simple = [action for action in actions if (type(action).__call__, action.nargs) in stores]
        positionals = [action for action in actions if not action.option_strings]
        if parser._defaults or parser._mutually_exclusive_groups or not set(positionals) <= set(simple):
            continue
        flags = {flag: action for action in simple for flag in action.option_strings if flag[:2] == "--"}
        defaults = {action.dest: action.default for action in actions if action.default is not argparse.SUPPRESS}
        # argparse passes an unseen string default through the action's type: leave that to it.
        required = {action for action in actions if action.required or action.type and isinstance(action.default, str)}
        forms[name] = flags, positionals, defaults, required
    return forms


def _parse_canonical(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a canonical ``argv``, or None for any other.

    Canonical: a command, its positionals in order, each of its flags at most
    once and in full, a value as ``--flag=value`` or as a next token that does
    not start with ``-``, every value one its type and choices accept, and
    every required argument given. Help and errors are left to argparse.
    """
    form = _canonical_forms().get(argv[0]) if argv else None
    if form is None:
        return None
    flags, positionals, defaults, required = form
    values, seen = {**defaults, "command": argv[0]}, set()
    tokens, positional = iter(argv[1:]), iter(positionals)
    for token in tokens:
        flag, joined, text = token.partition("=") if token[:1] == "-" else ("", "", token)
        action = flags.get(flag) if flag else next(positional, None)
        if action is None or action in seen or action.nargs == 0 and joined:
            return None
        seen.add(action)
        if action.nargs == 0:
            values[action.dest] = action.const
            continue
        if flag and not joined and (text := next(tokens, "-"))[:1] == "-":
            return None
        try:
            value = text if action.type is None else action.type(text)
        except Exception:  # argparse reports it
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    return argparse.Namespace(**values) if required <= seen else None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with one pass over a named command's flags.

    A canonical argv is read straight from the actions (``_parse_canonical``).
    Otherwise the top-level parser hands a command's tokens to that command's
    parser, so calling it directly gives the same namespace, errors and help.
    The top-level parser runs only to report no command, an unknown one, or
    its own help.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return _parse_canonical(argv) or command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(_attach_dash_values(_expand_config(argv)))
        out_path = getattr(args, "out", None)
        if not out_path:
            code = _COMMANDS[args.command](args, sys.stdout)
            sys.stdout.flush()  # a closed pipe fails here, not at exit
            return code
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
    except BrokenPipeError:
        # The reader of stdout went away. Point stdout at devnull so the
        # interpreter's last flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, ValueError) as exc:
        # ValueError here means flag-derived parameters failed validation
        # (negative rates, non-positive time scales, and the like).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularParameterError as exc:  # a parameter fault; sweep maps its own
        print(f"error: g = {args.g} with gamma = {args.gamma}: {exc}", file=sys.stderr)
        return 1
    except DegenerateStateError as exc:  # zero survival, a parameter fault too
        print(f"error: g = {args.g} with kappa_s = {args.kappa_s}: {exc}", file=sys.stderr)
        return 1
    except StateError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
