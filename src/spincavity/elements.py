"""Linear-optical and spin-control elements.

Polarizing beam splitters transmit right-circular light and reflect
left-circular light; in this model they are pure label rewrites acting on
(mode, polarization, direction). Half-wave plates and microwave pulses give
photonic and electronic Hadamards, a phase plate contributes a sign, and
timed optical switches reroute a mode differently on each circuit pass.
Classical feed-forward applies Pauli corrections after the spin readout.

Time never appears as a duration. The switch windows only exist to order
the passes, so a schedule is just the ordered list of per-pass rewrite
tables and each pass consumes one entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .hilbert import (
    IncompleteMapError,
    PhotonLabel,
    PhotonSite,
    Polarization,
    Propagation,
    SpinBasis,
    SpinSite,
    StateError,
    StateVector,
    apply_sited_map,
)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

#: Routing target that discards the amplitude (photon leaves the circuit).
SINK = None


class ScheduleExhaustedError(StateError):
    """A switch was asked for more passes than its schedule defines."""


RouteKey = tuple  # (mode, polarization)
RouteTarget = tuple  # (mode, propagation), or SINK


@dataclass(frozen=True)
class RoutingRule:
    """Finite rewrite table for a beam-splitter-like element.

    Keys are ``(mode, polarization)``; targets are ``(mode, propagation)``,
    or :data:`SINK` to drop the amplitude into the loss channel. The table
    must be injective on its non-sink outputs so the element stays unitary
    on the amplitudes it keeps.
    """

    name: str
    table: Mapping[RouteKey, RouteTarget]
    _input_modes: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        outputs: set[tuple[Polarization, int, Propagation]] = set()
        for key, target in self.table.items():
            if len(key) != 2:
                raise StateError(f"{self.name}: bad routing key {key!r}")
            if target is SINK:
                continue
            if len(target) != 2:
                raise StateError(f"{self.name}: bad routing target {target!r}")
            out = (key[1], *target)
            if out in outputs:
                raise StateError(
                    f"{self.name}: routing table is not injective at output {out!r}"
                )
            outputs.add(out)
        object.__setattr__(self, "_input_modes", frozenset(key[0] for key in self.table))

    @property
    def input_modes(self) -> frozenset:
        return self._input_modes

    def target_for(self, label: PhotonLabel):
        """Resolve a label to its ``(mode, propagation)``, or :data:`SINK`."""
        key = (label.mode, label.polarization)
        if key not in self.table:
            raise IncompleteMapError(f"{self.name}: no routing entry for label {label.token!r}")
        return self.table[key]


def pbs(state: StateVector, photon: int, rule: RoutingRule) -> StateVector:
    """Route one photon through a rewrite table.

    Labels at modes the rule does not mention pass through untouched; labels
    at mentioned modes must be covered or the rule is reported incomplete.
    Sink targets drop their amplitude, which later shows up as lost norm.

    A beam port carries one propagation direction, so two distinct reachable
    labels may never rewrite to the same output label; that would merge
    amplitudes that belong to different beams, and it is rejected.
    """
    produced: dict[PhotonLabel, PhotonLabel] = {}

    def fn(label: PhotonLabel):
        if label.mode not in rule.input_modes:
            return ((label, 1.0),)
        target = rule.target_for(label)
        if target is None:
            return ()
        mode, prop = target
        out = PhotonLabel(label.polarization, prop, mode)
        if produced.setdefault(out, label) != label:
            raise StateError(
                f"{rule.name}: labels {produced[out].token!r} and {label.token!r} "
                f"collapse onto {out.token!r}"
            )
        return ((out, 1.0),)

    return apply_sited_map(state, PhotonSite(photon), fn)


_HADAMARD_P = {
    Polarization.R: ((Polarization.R, _SQRT_HALF), (Polarization.L, _SQRT_HALF)),
    Polarization.L: ((Polarization.R, _SQRT_HALF), (Polarization.L, -_SQRT_HALF)),
}

_HADAMARD_E = {
    SpinBasis.UP: ((SpinBasis.UP, _SQRT_HALF), (SpinBasis.DOWN, _SQRT_HALF)),
    SpinBasis.DOWN: ((SpinBasis.UP, _SQRT_HALF), (SpinBasis.DOWN, -_SQRT_HALF)),
}


def hadamard_p(state: StateVector, photon: int, modes=None) -> StateVector:
    """Half-wave-plate Hadamard on one photon's polarization.

    A wave plate sits in specific paths, so ``modes`` restricts the action;
    ``None`` applies it wherever the photon is. Self-inverse.
    """

    def fn(label: PhotonLabel):
        if modes is not None and label.mode not in modes:
            return ((label, 1.0),)
        return [
            (PhotonLabel(pol, label.propagation, label.mode), coeff)
            for pol, coeff in _HADAMARD_P[label.polarization]
        ]

    return apply_sited_map(state, PhotonSite(photon), fn)


def hadamard_e(state: StateVector) -> StateVector:
    """Hadamard rotation of the electron spin (a pi/2 control pulse). Self-inverse."""
    return apply_sited_map(state, SpinSite(), _HADAMARD_E)


def phase_pi(state: StateVector, photon: int, mode: int) -> StateVector:
    """Sign flip for amplitudes whose addressed photon sits in ``mode``."""

    def fn(label: PhotonLabel):
        return ((label, -1.0 if label.mode == mode else 1.0),)

    return apply_sited_map(state, PhotonSite(photon), fn)


@dataclass(frozen=True)
class SwitchSchedule:
    """Ordered per-pass mode rewrites for a computer-timed optical switch."""

    name: str
    epochs: tuple[Mapping[int, int], ...]

    def epoch(self, pass_index: int) -> Mapping[int, int]:
        if not 0 <= pass_index < len(self.epochs):
            raise ScheduleExhaustedError(
                f"{self.name}: pass {pass_index} beyond schedule of {len(self.epochs)}"
            )
        return self.epochs[pass_index]


def switch_route(
    state: StateVector, photon: int, schedule: SwitchSchedule, pass_index: int
) -> StateVector:
    """Apply one schedule epoch: pure mode rewriting, labels otherwise kept."""
    epoch = schedule.epoch(pass_index)

    def fn(label: PhotonLabel):
        if label.mode in epoch:
            return ((label.with_mode(epoch[label.mode]), 1.0),)
        return ((label, 1.0),)

    return apply_sited_map(state, PhotonSite(photon), fn)


class Pauli(Enum):
    """Single-photon polarization Paulis available to feed-forward."""

    SIGMA_Z = "sigma_z"
    MINUS_SIGMA_Z = "minus_sigma_z"
    SIGMA_X = "sigma_x"


def _pauli_images(pauli: Pauli, label: PhotonLabel):
    if pauli is Pauli.SIGMA_Z:
        sign = 1.0 if label.polarization is Polarization.R else -1.0
        return ((label, sign),)
    if pauli is Pauli.MINUS_SIGMA_Z:
        sign = -1.0 if label.polarization is Polarization.R else 1.0
        return ((label, sign),)
    flipped = PhotonLabel(label.polarization.flipped, label.propagation, label.mode)
    return ((flipped, 1.0),)


def feed_forward(
    state: StateVector,
    outcome: SpinBasis,
    rule: Mapping[SpinBasis, Sequence[tuple[int, Pauli]]],
) -> StateVector:
    """Apply the outcome-conditioned Pauli list; unitary."""
    for photon, pauli in rule[outcome]:
        state = apply_sited_map(
            state, PhotonSite(photon), lambda label, p=pauli: _pauli_images(p, label)
        )
    return state
