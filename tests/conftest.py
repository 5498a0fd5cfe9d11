"""Shared helpers: seeded random states, golden-file parsing, exact closed forms and
dict-engine reference figures."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from spincavity.circuits import GateMode, QubitState, _run
from spincavity.hilbert import (
    BasisKet,
    PhotonLabel,
    Polarization,
    Propagation,
    SpinBasis,
    StateVector,
    deserialize,
    fidelity,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


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


def lincomb(pairs) -> StateVector:
    """alpha*a + beta*b as a raw amplitude sum (caller keeps the norm under one)."""
    amps = {}
    first = pairs[0][1]
    for coeff, state in pairs:
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


def dict_fidelity(gate, inputs, mode: GateMode, convention: str = "per-branch-averaged") -> float:
    """Lossy-vs-ideal fidelity straight from dict-engine gate runs.

    The reference for the compiled evaluation: ``per-branch-averaged`` weighs
    each readout branch's overlap with the ideal output by its probability,
    ``pre-measurement`` compares the renormalized joint states before readout.
    """
    ideal_result, ideal_pre = _run(gate, inputs, GateMode.ideal())
    real_result, real_pre = _run(gate, inputs, mode)
    if convention == "pre-measurement":
        return fidelity(real_pre.normalized(), ideal_pre)
    reference = ideal_result.branches[0].state
    return sum(
        branch.probability * fidelity(branch.state, reference)
        for branch in real_result.branches
    )


def dict_efficiency(gate, inputs, mode: GateMode) -> float:
    """Survival of a dict-engine gate run: the compiled evaluation's reference."""
    result, _ = _run(gate, inputs, mode)
    return result.survival


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
