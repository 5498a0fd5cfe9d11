"""Output checks for the benchmark: a fast wrong answer must fail the run.

Every check compares program output against a reference that the code under
test does not produce at run time:

- an independent transcription of the closed forms, evaluated with numpy
  over every row of a sweep;
- the scalar ``coefficients`` + ``closed_form_figures`` path on a seeded
  sample of rows (the reference a vectorised sweep must keep agreeing with);
- values recorded at a fixed commit in ``reference.json`` (the headline
  numbers, ``sim_*`` anchor values, ideal CNOT pre-measurement states);
- the ideal gate oracles, written out here as permutations.

Each check returns a list of error strings; an empty list means the output
is correct. ``self_test`` perturbs known-good outputs and confirms that the
checks notice.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from spincavity.cavity import CavityParams, coefficients
from spincavity.metrics import closed_form_figures

TOL = 1e-12
NORM_TOL = 1e-9

REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

CLOSED_FORM_COLUMNS = ("f_cnot", "f_toffoli", "eta_cnot", "eta_toffoli")

# Output ports of each gate, first photon first (fixed by the circuit layout).
OUTPUT_MODES = {"cnot": (6, 9), "toffoli": (6, 17, 21)}
TRACE_NAMES = {
    "cnot": ("omega_1", "omega_2", "omega_3", "omega_4"),
    "toffoli": ("xi_1", "xi_2", "xi_3", "xi_4", "xi_5", "xi_6", "xi_7"),
}
# Target flips where every control is left-circular (index bit 1 = L).
ORACLE_PERMUTATION = {
    "cnot": (0, 1, 3, 2),
    "toffoli": (0, 1, 2, 3, 4, 5, 7, 6),
}


def grid_points(minimum: float, maximum: float, steps: int) -> list[float]:
    """Grid coordinates as the sweep documents them: min + span * i / (steps - 1)."""
    span = maximum - minimum
    return [minimum + span * i / (steps - 1) for i in range(steps)]


def closed_form_reference(g, kappa_s, gamma: float) -> dict[str, np.ndarray]:
    """Resonant closed forms over arrays of (g, kappa_s), kappa fixed at one."""
    dipole = gamma / 2.0
    cavity = 1.0 + kappa_s / 2.0
    t = -dipole / (dipole * cavity + g ** 2)
    t0 = -1.0 / cavity
    at, ar, at0, ar0 = np.abs(t), np.abs(1.0 + t), np.abs(t0), np.abs(1.0 + t0)
    plus = at0 - ar0 + ar - at
    minus = at0 - ar0 - ar + at
    xi1 = (at0 - ar0 - at + ar) * (
        ar0 * (at0 - ar0) * plus ** 2
        + ar0 * (ar - at) * minus ** 2
        + 4.0 * at0 * (ar - at)
        + 4.0 * (at0 - ar0)
    )
    xi2 = (
        ar * (at0 - ar0) * minus ** 2
        + ar * (ar - at) * plus ** 2
        + 4.0 * at * (at0 - ar0)
        + 4.0 * (ar - at)
    )
    xi3 = ar0 * plus ** 2 * minus ** 2
    zeta = at0 ** 2 + ar0 ** 2 + at ** 2 + ar ** 2
    return {
        "f_cnot": ((at0 + ar) / 2.0) ** 2,
        "f_toffoli": ((xi1 + 2.0 * xi2 - xi3) / 32.0) ** 2,
        "eta_cnot": (0.5 + 1.25 * zeta) / 3.0,
        "eta_toffoli": (1.0 + 1.25 * zeta + zeta ** 4 / 32.0) / 4.0,
    }


def parse_csv(text: str, outputs, rows: int) -> tuple[np.ndarray | None, list[str]]:
    header = "g_over_kappa,kappa_s_over_kappa," + ",".join(outputs)
    lines = text.split("\n")
    if lines[0] != header:
        return None, [f"bad header {lines[0][:120]!r}"]
    if lines[-1] != "":
        return None, ["output does not end with a newline"]
    body = lines[1:-1]
    if len(body) != rows:
        return None, [f"expected {rows} rows, got {len(body)}"]
    width = 2 + len(outputs)
    cells = ",".join(body).split(",")
    if len(cells) != rows * width:
        return None, ["ragged rows"]
    try:
        table = np.array(cells, dtype=float).reshape(rows, width)
    except ValueError as exc:
        return None, [f"unparsable value: {exc}"]
    if not np.all(np.isfinite(table)):
        return None, ["non-finite value"]
    return table, []


def _compare(name: str, got, want, errors: list[str]) -> None:
    diff = np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))
    if diff.size and not np.all(diff <= TOL):
        worst = int(np.argmax(diff))
        errors.append(f"{name}: row {worst} off by {float(diff.flat[worst]):.3g}")


def check_sweep_csv(text: str, op: dict, rng: random.Random, samples: int = 4) -> list[str]:
    """Check one sweep's CSV: grid, every closed-form value, sim invariants, a scalar sample."""
    outputs = op["outputs"]
    g_axis = grid_points(op["g_min"], op["g_max"], op["g_steps"])
    ks_axis = grid_points(op["ks_min"], op["ks_max"], op["ks_steps"])
    rows = len(g_axis) * len(ks_axis)
    table, errors = parse_csv(text, outputs, rows)
    if table is None:
        return errors
    g = np.repeat(np.array(g_axis), len(ks_axis))
    ks = np.tile(np.array(ks_axis), len(g_axis))
    _compare("g_over_kappa", table[:, 0], g, errors)
    _compare("kappa_s_over_kappa", table[:, 1], ks, errors)
    column = {name: table[:, 2 + i] for i, name in enumerate(outputs)}
    reference = closed_form_reference(g, ks, op["gamma"])
    for name in CLOSED_FORM_COLUMNS:
        if name in column:
            _compare(name, column[name], reference[name], errors)
    # On resonance |t| + |r| = |t0| + |r0| = 1, so the equal-superposition
    # CNOT reconstructs the ideal output with no loss.
    for name in ("sim_f_cnot", "sim_eta_cnot"):
        if name in column:
            _compare(name, column[name], np.ones(rows), errors)
    for name in ("sim_f_toffoli", "sim_eta_toffoli"):
        if name in column and not np.all((column[name] >= 0.0) & (column[name] <= 1.0 + TOL)):
            errors.append(f"{name} outside [0, 1]")
    for index in rng.sample(range(rows), min(samples, rows)):
        figures = closed_form_figures(
            coefficients(CavityParams(g=float(g[index]), kappa_s=float(ks[index]), gamma=op["gamma"]))
        )
        for name in CLOSED_FORM_COLUMNS:
            if name in column and abs(column[name][index] - getattr(figures, name)) > TOL:
                errors.append(f"{name}: row {index} disagrees with the scalar closed form")
    return errors


def anchor_op() -> dict:
    anchor = REFERENCE["anchor_sweep"]
    return {
        "g_min": anchor["g"][0], "g_max": anchor["g"][1], "g_steps": anchor["g"][2],
        "ks_min": anchor["kappa_s"][0], "ks_max": anchor["kappa_s"][1],
        "ks_steps": anchor["kappa_s"][2],
        "gamma": anchor["gamma"], "outputs": tuple(anchor["outputs"]),
    }


def check_anchor_csv(text: str) -> list[str]:
    """Every value of the anchor sweep equals the recorded one to 1e-12."""
    op = anchor_op()
    want = np.array(REFERENCE["anchor_sweep"]["rows"])
    table, errors = parse_csv(text, op["outputs"], len(want))
    if table is None:
        return ["anchor sweep: " + e for e in errors]
    for i, name in enumerate(("g_over_kappa", "kappa_s_over_kappa") + op["outputs"]):
        _compare("anchor " + name, table[:, i], want[:, i], errors)
    return errors


def check_headline() -> list[str]:
    """The eight computed headline values through the library API."""
    errors = []
    for ks, values in REFERENCE["headline"].items():
        figures = closed_form_figures(coefficients(CavityParams(
            g=REFERENCE["headline_g"], kappa_s=float(ks), gamma=REFERENCE["headline_gamma"]
        )))
        for name, want in values.items():
            if abs(getattr(figures, name) - want) > TOL:
                errors.append(f"headline {name} at kappa_s={ks}: {getattr(figures, name)!r}")
    return errors


# -- single-shot output ---------------------------------------------------


def parse_state(lines: list[str]) -> dict[str, complex]:
    """Parse serialized ket lines ``labels | spin : re,im`` into token -> amplitude."""
    state: dict[str, complex] = {}
    for line in lines:
        ket, amp = line.rsplit(" : ", 1)
        re_part, im_part = amp.split(",")
        if ket in state:
            raise ValueError(f"duplicate ket {ket!r}")
        state[ket] = complex(float(re_part), float(im_part))
    return state


def parse_shot(text: str) -> dict:
    """Split ``simulate --trace`` output into header, traces, survival and branches."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    lines = lines[:-1]
    shot = {"gate": None, "mode": None, "trace": [], "survival": None, "branches": []}
    current: list[str] | None = None
    for line in lines:
        head, _, rest = line.partition(" ")
        if head in ("gate", "mode") and current is None:
            shot[head] = rest
        elif head == "trace":
            current = []
            shot["trace"].append((rest, current))
        elif head == "survival":
            shot["survival"] = float(rest)
            current = None
        elif head == "branch":
            outcome, word, probability = rest.split(" ")
            if word != "probability":
                raise ValueError(f"bad branch line {line!r}")
            current = []
            shot["branches"].append((outcome, float(probability), current))
        elif current is not None:
            current.append(line)
        else:
            raise ValueError(f"unexpected line {line!r}")
    shot["trace"] = [(name, parse_state(body)) for name, body in shot["trace"]]
    shot["branches"] = [(o, p, parse_state(body)) for o, p, body in shot["branches"]]
    return shot


def input_vector(qubits) -> np.ndarray:
    vec = np.array([1.0 + 0j])
    for alpha, beta in qubits:
        vec = np.kron(vec, np.array([alpha, beta], dtype=complex))
    return vec


def branch_vector(state: dict[str, complex], modes) -> np.ndarray:
    """Dense polarization vector of a branch; every photon must sit at its output port."""
    vec = np.zeros(2 ** len(modes), dtype=complex)
    for ket, amp in state.items():
        photons, spin = ket.split(" | ")
        if spin != "-":
            raise ValueError(f"branch ket {ket!r} still carries a spin")
        labels = photons.split(",")
        if len(labels) != len(modes):
            raise ValueError(f"ket {ket!r} has the wrong photon count")
        index = 0
        for label, mode in zip(labels, modes):
            pol, direction, where = label.split("/")
            if direction != "d" or int(where) != mode or pol not in ("R", "L"):
                raise ValueError(f"photon {label!r} is not at output port {mode}")
            index = (index << 1) | (pol == "L")
        vec[index] = amp
    return vec


def f_cnot_reference(g: float, kappa_s: float, gamma: float) -> float:
    return float(closed_form_reference(np.float64(g), np.float64(kappa_s), gamma)["f_cnot"])


def check_shot(text: str, op: dict) -> list[str]:
    """Check one ``simulate --trace`` output against the oracle and invariants."""
    gate, mode = op["gate"], op["mode"]
    try:
        shot = parse_shot(text)
        vectors = [(o, p, branch_vector(s, OUTPUT_MODES[gate])) for o, p, s in shot["branches"]]
    except (ValueError, KeyError) as exc:
        return [f"unparsable output: {exc}"]
    errors = []
    if (shot["gate"], shot["mode"]) != (gate, mode):
        errors.append(f"header says {shot['gate']} {shot['mode']}")
    if tuple(name for name, _ in shot["trace"]) != TRACE_NAMES[gate]:
        errors.append("wrong trace stages")
    survival = shot["survival"]
    if survival is None or not 0.0 < survival <= 1.0 + NORM_TOL:
        errors.append(f"survival {survival} outside (0, 1]")
    elif mode == "ideal" and abs(survival - 1.0) > NORM_TOL:
        errors.append(f"ideal survival {survival} is not 1")
    if sorted(o for o, _, _ in vectors) != ["d", "u"]:
        errors.append("expected one branch per spin outcome")
    if abs(sum(p for _, p, _ in vectors) - 1.0) > NORM_TOL:
        errors.append("branch probabilities do not sum to 1")
    for outcome, _, vec in vectors:
        if abs(np.vdot(vec, vec).real - 1.0) > NORM_TOL:
            errors.append(f"branch {outcome} is not normalized")
    if mode == "ideal":
        expected = input_vector(op["qubits"])[list(ORACLE_PERMUTATION[gate])]
        for outcome, _, vec in vectors:
            overlap = np.vdot(expected, vec)
            phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
            if np.max(np.abs(vec - phase * expected)) > TOL:
                errors.append(f"branch {outcome} differs from the oracle output")
    elif gate == "cnot" and op.get("plus_basis"):
        # Closed-form CNOT fidelity = |<ideal|lossy>|^2 of the unnormalized
        # pre-measurement states (a spin rotation apart from omega_4).
        ideal = REFERENCE["cnot_ideal_omega_4"][op["target_token"]]
        lossy = dict(shot["trace"])["omega_4"]
        overlap = sum(complex(re, -im) * lossy.get(ket, 0j) for ket, re, im in ideal)
        want = f_cnot_reference(op["g"], op["kappa_s"], op["gamma"])
        if abs(abs(overlap) ** 2 - want) > TOL:
            errors.append(f"|<ideal|lossy>|^2 = {abs(overlap) ** 2!r}, closed form {want!r}")
    return errors


# -- self-test ------------------------------------------------------------


def perturb_csv(text: str, row: int, column: int, delta: float = 1e-9) -> str:
    lines = text.split("\n")
    cells = lines[1 + row].split(",")
    cells[column] = f"{float(cells[column]) + delta:.17g}"
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines)


def drop_last_branch(text: str) -> str:
    lines = text.split("\n")
    cut = max(i for i, line in enumerate(lines) if line.startswith("branch "))
    return "\n".join(lines[:cut]) + "\n"


def self_test(sweep_text: str, sweep_op: dict, anchor_text: str, shot_text: str, shot_op: dict) -> list[str]:
    """Known-good outputs must pass and minimally perturbed ones must fail."""
    rng = random.Random(0)
    errors = []
    cases = (
        ("sweep", lambda t: check_sweep_csv(t, sweep_op, rng), sweep_text,
         perturb_csv(sweep_text, len(sweep_text.split("\n")) // 3, 3)),
        ("anchor", check_anchor_csv, anchor_text, perturb_csv(anchor_text, 4, 7)),
        ("shot", lambda t: check_shot(t, shot_op), shot_text, drop_last_branch(shot_text)),
    )
    for name, check, good, bad in cases:
        if check(good):
            errors.append(f"self-test: known-good {name} output fails its check")
        if not check(bad):
            errors.append(f"self-test: perturbed {name} output passes its check")
    return errors

