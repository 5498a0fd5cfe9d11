"""Shared helpers: seeded random states, state comparisons and fidelity, the
serialization parser, golden-file parsing, exact closed forms and dict-engine
reference figures."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spincavity.circuits import _PROGRAMS, Gate, GateMode, QubitState, _interpret, _run, polarization_amplitudes
from spincavity.hilbert import (
    PRUNE_EPS,
    BasisKet,
    DegenerateStateError,
    PhotonLabel,
    Polarization,
    Propagation,
    SpinBasis,
    StateVector,
    StructureError,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

_POL_TOKENS = {p.token: p for p in Polarization}
_PROP_TOKENS = {p.token: p for p in Propagation}
_SPIN_TOKENS = {s.token: s for s in SpinBasis}


def from_ket(ket: BasisKet, amplitude: complex = 1.0) -> StateVector:
    """The state of one basis ket."""
    return StateVector({ket: amplitude})


def sort_key(ket: BasisKet):
    """The order of kets spelt out: photon labels as integer triples, then the spin (-1 for none).

    ``StateVector.items`` sorts kets by their natural tuple order; the tests check
    that it is this order."""
    spin_key = -1 if ket.spin is None else int(ket.spin)
    return tuple((int(p.polarization), int(p.propagation), p.mode) for p in ket.photons), spin_key


def norm(state: StateVector) -> float:
    return math.sqrt(state.norm_squared())


def scaled(state: StateVector, factor: complex) -> StateVector:
    """``state`` with every amplitude times ``factor``."""
    amps = {k: v * factor for k, v in state._amps.items()}
    return StateVector(amps, photon_count=state.photon_count, has_spin=state.has_spin)


def normalized(state: StateVector) -> StateVector:
    """``state`` at unit norm; a zero state raises :class:`DegenerateStateError`."""
    n = norm(state)
    if n <= PRUNE_EPS:
        raise DegenerateStateError("cannot normalize a zero state")
    amps = {k: v / n for k, v in state._amps.items()}
    return StateVector(amps, photon_count=state.photon_count, has_spin=state.has_spin)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """⟨a|b⟩, conjugate-linear in the first argument."""
    if a.photon_count != b.photon_count or a.has_spin != b.has_spin:
        raise StructureError("inner product requires identical subsystem structure")
    total = 0j
    for ket, amp in a.items():
        other = b.amplitude(ket)
        if other:
            total += amp.conjugate() * other
    return total


def fidelity(realistic: StateVector, ideal: StateVector, normalize: bool = False) -> float:
    """Squared overlap of a (possibly lossy) state with a unit reference state.

    With ``normalize`` set the first argument is renormalized before the
    overlap, which scores only the shape of the surviving amplitude.
    """
    if normalize:
        realistic = normalized(realistic)
    overlap = inner_product(realistic, ideal)
    return abs(overlap) ** 2


def deserialize(text: str) -> StateVector:
    """Parse the ``serialize`` format back into a state."""
    amps: dict[BasisKet, complex] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        ket_part, amp_part = line.rsplit(":", 1)
        photon_part, spin_part = ket_part.split("|")
        photons = []
        photon_part = photon_part.strip()
        if photon_part:
            for tok in photon_part.split(","):
                pol_tok, prop_tok, mode_tok = tok.strip().split("/")
                photons.append(
                    PhotonLabel(
                        _POL_TOKENS[pol_tok], _PROP_TOKENS[prop_tok], int(mode_tok)
                    )
                )
        spin_tok = spin_part.strip()
        spin = None if spin_tok == "-" else _SPIN_TOKENS[spin_tok]
        re_tok, im_tok = amp_part.strip().split(",")
        amps[BasisKet(tuple(photons), spin)] = complex(float(re_tok), float(im_tok))
    return StateVector(amps)


def serialize_lines(state: StateVector) -> str:
    """The spec of ``hilbert.serialize``: one formatted line per ket, in sorted ket order."""
    return "\n".join([
        "%s : %.17g,%.17g" % (ket.token, amp.real, amp.imag) for ket, amp in state.items()
    ])


def ideal_oracle(gate: Gate) -> np.ndarray:
    """Reference permutation on the polarization basis, R before L per qubit.

    The target block flips exactly where every control is left-circular;
    the matrix is its own inverse.
    """
    if gate is Gate.CNOT:
        matrix = np.eye(4)
        matrix[[2, 3]] = matrix[[3, 2]]
    else:
        matrix = np.eye(8)
        matrix[[6, 7]] = matrix[[7, 6]]
    return matrix


def polarization_vector(state: StateVector, modes) -> np.ndarray:
    """Dense amplitude vector over the polarization basis (first photon most significant)."""
    vec = np.zeros(2 ** len(modes), dtype=complex)
    for pols, amp in polarization_amplitudes(state, modes).items():
        index = 0
        for pol in pols:
            index = (index << 1) | int(pol)
        vec[index] = amp
    return vec


def input_vector(inputs) -> np.ndarray:
    """Dense polarization-basis vector of a product input."""
    vec = np.array([1.0 + 0j])
    for q in inputs:
        vec = np.kron(vec, np.array([q.alpha, q.beta], dtype=complex))
    return vec


def random_qubit(rng: random.Random) -> QubitState:
    theta = rng.uniform(0.0, math.pi)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return QubitState(math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi)))


def random_state(
    rng: random.Random,
    photon_modes: list[list[int]],
    with_spin: bool = True,
) -> StateVector:
    """Random normalized state over all (pol, dir, mode) x spin combinations."""
    kets = []
    def labels(modes):
        return [
            PhotonLabel(pol, prop, mode)
            for pol in Polarization
            for prop in Propagation
            for mode in modes
        ]

    def build(prefix, remaining):
        if not remaining:
            if with_spin:
                for spin in SpinBasis:
                    kets.append(BasisKet(tuple(prefix), spin))
            else:
                kets.append(BasisKet(tuple(prefix), None))
            return
        for label in labels(remaining[0]):
            build(prefix + [label], remaining[1:])

    build([], photon_modes)
    amps = {
        ket: complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for ket in kets
    }
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    return StateVector({k: v / norm for k, v in amps.items()})


def allclose(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """Amplitude-wise comparison with absolute tolerance."""
    if a.photon_count != b.photon_count or a.has_spin != b.has_spin:
        return False
    kets = set(k for k, _ in a.items()) | set(k for k, _ in b.items())
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= tol for k in kets)


def equal_up_to_global_phase(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """True when the states differ by at most one overall phase factor."""
    if a.photon_count != b.photon_count or a.has_spin != b.has_spin:
        return False
    if abs(norm(a) - norm(b)) > tol:
        return False
    if not len(a) and not len(b):
        return True
    overlap = inner_product(a, b)
    if abs(overlap) <= tol:
        return False
    phase = overlap / abs(overlap)
    return allclose(scaled(a, phase), b, tol)


def scatter_terms(table, key):
    """``(polarization, propagation, spin, amplitude)`` of each term of ``key``'s image."""
    return tuple((pol, prop, spin, table.amplitudes[slot]) for pol, prop, spin, slot in table.routes[key])


def scatter_as_sited_map(table):
    """Adapt a scatter table to a photon-spin sited map that keeps the mode."""

    def joint(label_spin):
        label, spin = label_spin
        return [
            ((PhotonLabel(pol, prop, label.mode), new_spin), amp)
            for pol, prop, new_spin, amp in scatter_terms(table, ((label.polarization, label.propagation), spin))
        ]

    return joint


def lincomb(pairs) -> StateVector:
    """alpha*a + beta*b as a raw amplitude sum (caller keeps the norm under one).

    The states must share one subsystem structure.
    """
    amps = {}
    first = pairs[0][1]
    for coeff, state in pairs:
        assert (state.photon_count, state.has_spin) == (first.photon_count, first.has_spin)
        for ket, value in state.items():
            amps[ket] = amps.get(ket, 0j) + coeff * value
    return StateVector(amps, photon_count=first.photon_count, has_spin=first.has_spin)


def exact_figures(at, ar, at0, ar0) -> dict[str, Fraction]:
    """The closed forms of ``closed_form_figures``, term for term, in exact rationals.

    Takes the four coefficient magnitudes |t|, |r|, |t0|, |r0|.
    """
    sp = at0 - ar0 + ar - at
    sm = at0 - ar0 - ar + at
    xi1 = (at0 - ar0 - at + ar) * (
        ar0 * (at0 - ar0) * sp ** 2 + ar0 * (ar - at) * sm ** 2 + 4 * at0 * (ar - at) + 4 * (at0 - ar0)
    )
    xi2 = ar * (at0 - ar0) * sm ** 2 + ar * (ar - at) * sp ** 2 + 4 * at * (at0 - ar0) + 4 * (ar - at)
    xi3 = ar0 * sp ** 2 * sm ** 2
    zeta = at0 ** 2 + ar0 ** 2 + at ** 2 + ar ** 2
    return {
        "f_cnot": ((at0 + ar) / 2) ** 2,
        "f_toffoli": ((xi1 + 2 * xi2 - xi3) / 32) ** 2,
        "eta_cnot": (Fraction(1, 2) + Fraction(5, 4) * zeta) / 3,
        "eta_toffoli": (1 + Fraction(5, 4) * zeta + zeta ** 4 / 32) / 4,
    }


def interpreted(gate, inputs, mode: GateMode):
    """A gate run interpreted afresh: its result and the joint state just before readout."""
    result, pre, _ = _interpret(_PROGRAMS[gate], inputs, mode.scatter_table())
    return result, pre


def dict_figures(gate, inputs, mode: GateMode, ideal=None) -> tuple[float, float, float]:
    """Lossy-vs-ideal fidelities and survival straight from dict-engine gate runs.

    The reference for the compiled evaluation: ``per-branch-averaged`` weighs
    each readout branch's overlap with the ideal output by its probability,
    ``pre-measurement`` compares the renormalized joint states before readout.
    Returns (per-branch-averaged, pre-measurement, survival). ``ideal`` is the
    :func:`interpreted` ideal run of the same inputs, run here when not given.
    """
    ideal_result, ideal_pre = ideal or interpreted(gate, inputs, GateMode.ideal())
    real_result, real_pre = interpreted(gate, inputs, mode)
    reference = ideal_result.branches[0].state
    per_branch = sum(
        branch.probability * fidelity(branch.state, reference)
        for branch in real_result.branches
    )
    return per_branch, fidelity(normalized(real_pre), ideal_pre), real_result.survival


def dict_fidelity(gate, inputs, mode: GateMode, convention: str = "per-branch-averaged") -> float:
    """One convention of :func:`dict_figures`."""
    per_branch, pre_measurement, _ = dict_figures(gate, inputs, mode)
    return pre_measurement if convention == "pre-measurement" else per_branch


def dict_efficiency(gate, inputs, mode: GateMode) -> float:
    """Survival of a dict-engine gate run: the compiled evaluation's reference."""
    return _run(gate, inputs, mode).survival


def parse_golden(name: str) -> dict[str, StateVector]:
    """Parse a golden trace file into named states.

    Blocks start with a ``# <name>`` header and hold serialized kets.
    """
    text = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    states: dict[str, StateVector] = {}
    current: str | None = None
    block: list[str] = []
    for line in text.splitlines() + ["# end"]:
        if line.startswith("#"):
            if current is not None and block:
                states[current] = deserialize("\n".join(block))
            current = line[1:].strip()
            block = []
        elif line.strip():
            block.append(line)
    return states


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20130717)
