"""Sparse state vectors for a few polarization-encoded photons and one electron spin.

The simulation substrate is a complex amplitude map over labeled product
basis kets. Each photon carries a circular polarization, a propagation
direction along the cavity axis, and a spatial mode index; the stationary
qubit is a single electron spin. The reachable basis stays tiny (tens of
kets even for three photons), so a dictionary keyed by basis ket beats any
dense encoding and keeps the path bookkeeping explicit: beam splitters and
switches become label rewrites rather than index gymnastics.

Everything here is immutable and pure: operations return new states, so
independent states can be evaluated concurrently without locks. Amplitudes
with magnitude below ``PRUNE_EPS`` are dropped on construction to keep
states free of numerical dust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Mapping, Sequence, Union

PRUNE_EPS = 1e-12
NORM_EPS = 1e-9
#: Readout branches with squared norm at or below this carry no outcome.
MIN_BRANCH_WEIGHT = 1e-24


class StateError(Exception):
    """Base class for state-vector errors."""


class StructureError(StateError):
    """Subsystem structure of the operands is inconsistent."""


class IncompleteMapError(StateError):
    """A sited map or routing rule is undefined for a reachable label."""


class DegenerateStateError(StateError):
    """An operation that needs nonzero norm was given a zero state."""


class Polarization(IntEnum):
    """Circular polarization of a photon, right or left."""

    R = 0
    L = 1

    @property
    def flipped(self) -> "Polarization":
        return Polarization.L if self is Polarization.R else Polarization.R

    @property
    def token(self) -> str:
        return self.name


class Propagation(IntEnum):
    """Propagation direction along the cavity (z) axis."""

    ALONG_Z = 0     # "u": toward +z
    AGAINST_Z = 1   # "d": toward -z

    @property
    def flipped(self) -> "Propagation":
        return Propagation.AGAINST_Z if self is Propagation.ALONG_Z else Propagation.ALONG_Z

    @property
    def token(self) -> str:
        return "u" if self is Propagation.ALONG_Z else "d"


class SpinBasis(IntEnum):
    """Electron spin basis states (the +1/2 and -1/2 projections)."""

    UP = 0
    DOWN = 1

    @property
    def flipped(self) -> "SpinBasis":
        return SpinBasis.DOWN if self is SpinBasis.UP else SpinBasis.UP

    @property
    def token(self) -> str:
        return "u" if self is SpinBasis.UP else "d"


_POL_TOKENS = {p.token: p for p in Polarization}
_PROP_TOKENS = {p.token: p for p in Propagation}
_SPIN_TOKENS = {s.token: s for s in SpinBasis}


@dataclass(frozen=True, order=True)
class PhotonLabel:
    """One photon's labels: polarization, propagation direction, spatial mode."""

    polarization: Polarization
    propagation: Propagation
    mode: int

    def __post_init__(self) -> None:
        if self.mode < 0:
            raise StructureError(f"mode index must be non-negative, got {self.mode}")

    def with_mode(self, mode: int) -> "PhotonLabel":
        return PhotonLabel(self.polarization, self.propagation, mode)

    def with_propagation(self, propagation: Propagation) -> "PhotonLabel":
        return PhotonLabel(self.polarization, propagation, self.mode)

    @property
    def token(self) -> str:
        return f"{self.polarization.token}/{self.propagation.token}/{self.mode}"


@dataclass(frozen=True)
class BasisKet:
    """Product basis ket: an ordered photon tuple plus an optional spin.

    Spinless kets describe the photonic subsystem alone (for example after
    the spin has been measured out). The ordering used for serialization
    and deterministic iteration is the natural tuple order of the labels.
    """

    photons: tuple[PhotonLabel, ...]
    spin: SpinBasis | None = None

    def sort_key(self):
        spin_key = -1 if self.spin is None else int(self.spin)
        return (
            tuple((int(p.polarization), int(p.propagation), p.mode) for p in self.photons),
            spin_key,
        )

    def with_photon(self, index: int, label: PhotonLabel) -> "BasisKet":
        photons = self.photons[:index] + (label,) + self.photons[index + 1:]
        return BasisKet(photons, self.spin)

    def with_spin(self, spin: SpinBasis | None) -> "BasisKet":
        return BasisKet(self.photons, spin)

    @property
    def token(self) -> str:
        photon_part = ",".join(p.token for p in self.photons)
        spin_part = "-" if self.spin is None else self.spin.token
        return f"{photon_part} | {spin_part}"


class StateVector:
    """Finite complex amplitude map over :class:`BasisKet`.

    All kets in one state must share the same structure (photon count and
    spin presence). Construction prunes amplitudes below ``PRUNE_EPS`` and
    rejects squared norms above ``1 + NORM_EPS``; norms below one are fine
    and represent amplitude lost to cavity leakage.
    """

    __slots__ = ("_amps", "_photon_count", "_has_spin")

    def __init__(
        self,
        amplitudes: Mapping[BasisKet, complex],
        *,
        photon_count: int | None = None,
        has_spin: bool | None = None,
    ) -> None:
        amps: dict[BasisKet, complex] = {}
        for ket, value in amplitudes.items():
            value = complex(value)
            if abs(value) >= PRUNE_EPS:
                amps[ket] = value

        if amps:
            first = next(iter(amps))
            inferred_count = len(first.photons)
            inferred_spin = first.spin is not None
            if photon_count is None:
                photon_count = inferred_count
            if has_spin is None:
                has_spin = inferred_spin
        if photon_count is None or has_spin is None:
            raise StructureError(
                "empty state needs explicit photon_count and has_spin"
            )

        for ket in amps:
            if len(ket.photons) != photon_count or (ket.spin is not None) != has_spin:
                raise StructureError(f"inconsistent ket structure: {ket.token!r}")

        norm_sq = sum(abs(v) ** 2 for v in amps.values())
        if norm_sq > 1.0 + NORM_EPS:
            raise StructureError(f"squared norm {norm_sq} exceeds 1 + {NORM_EPS}")

        self._amps = amps
        self._photon_count = photon_count
        self._has_spin = has_spin

    @classmethod
    def from_ket(cls, ket: BasisKet, amplitude: complex = 1.0) -> "StateVector":
        return cls({ket: amplitude})

    @property
    def photon_count(self) -> int:
        return self._photon_count

    @property
    def has_spin(self) -> bool:
        return self._has_spin

    def amplitude(self, ket: BasisKet) -> complex:
        return self._amps.get(ket, 0j)

    def items(self) -> list[tuple[BasisKet, complex]]:
        """Amplitudes in deterministic (ket-sorted) order."""
        return sorted(self._amps.items(), key=lambda kv: kv[0].sort_key())

    def kets(self) -> list[BasisKet]:
        return [k for k, _ in self.items()]

    def norm_squared(self) -> float:
        return sum(abs(v) ** 2 for v in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def is_zero(self) -> bool:
        return not self._amps

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n <= PRUNE_EPS:
            raise DegenerateStateError("cannot normalize a zero state")
        return StateVector(
            {k: v / n for k, v in self._amps.items()},
            photon_count=self._photon_count,
            has_spin=self._has_spin,
        )

    def scaled(self, factor: complex) -> "StateVector":
        return StateVector(
            {k: v * factor for k, v in self._amps.items()},
            photon_count=self._photon_count,
            has_spin=self._has_spin,
        )

    def __len__(self) -> int:
        return len(self._amps)

    def __repr__(self) -> str:
        terms = ", ".join(f"{k.token}: {v:.4g}" for k, v in self.items()[:6])
        more = "" if len(self._amps) <= 6 else f", ... ({len(self._amps)} kets)"
        return f"StateVector({terms}{more})"


def combine(terms: Sequence[tuple[complex, StateVector]]) -> StateVector:
    """Linear combination of same-structure states.

    The result must respect the norm cap, so callers pick coefficients with
    total weight at most one.
    """
    if not terms:
        raise StructureError("combine needs at least one term")
    first = terms[0][1]
    amps: dict[BasisKet, complex] = {}
    for coeff, state in terms:
        if state.photon_count != first.photon_count or state.has_spin != first.has_spin:
            raise StructureError("combine requires identical subsystem structure")
        for ket, value in state.items():
            amps[ket] = amps.get(ket, 0j) + coeff * value
    return StateVector(amps, photon_count=first.photon_count, has_spin=first.has_spin)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; photon tuples concatenate, at most one factor owns the spin."""
    if a.has_spin and b.has_spin:
        raise StructureError("both factors carry a spin subsystem")
    amps: dict[BasisKet, complex] = {}
    for ket_a, amp_a in a.items():
        for ket_b, amp_b in b.items():
            spin = ket_a.spin if ket_a.spin is not None else ket_b.spin
            ket = BasisKet(ket_a.photons + ket_b.photons, spin)
            amps[ket] = amps.get(ket, 0j) + amp_a * amp_b
    return StateVector(
        amps,
        photon_count=a.photon_count + b.photon_count,
        has_spin=a.has_spin or b.has_spin,
    )


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
        realistic = realistic.normalized()
    overlap = inner_product(realistic, ideal)
    return abs(overlap) ** 2


@dataclass(frozen=True)
class PhotonSite:
    """Select one photon; maps act on its :class:`PhotonLabel`."""

    index: int


@dataclass(frozen=True)
class SpinSite:
    """Select the spin; maps act on :class:`SpinBasis`."""


@dataclass(frozen=True)
class PhotonSpinSite:
    """Select one photon jointly with the spin."""

    index: int


Site = Union[PhotonSite, SpinSite, PhotonSpinSite]
LinearMap = Union[Callable[..., object], Mapping]


def _lookup(linear_map: LinearMap, label):
    if callable(linear_map):
        return linear_map(label)
    return linear_map.get(label)


def apply_sited_map(state: StateVector, site: Site, linear_map: LinearMap) -> StateVector:
    """Apply a linear map to one subsystem.

    ``linear_map`` is a mapping or callable from the site's input label to an
    iterable of ``(output_label, amplitude)`` pairs; ``None`` means the map
    is undefined there and raises :class:`IncompleteMapError`. Linearity is
    automatic; the result is norm-preserving exactly when the map is unitary
    on the reachable labels.
    """
    if isinstance(site, (PhotonSite, PhotonSpinSite)):
        if not 0 <= site.index < state.photon_count:
            raise StructureError(f"photon index {site.index} out of range")
    if isinstance(site, (SpinSite, PhotonSpinSite)) and not state.has_spin:
        raise StructureError("state has no spin subsystem")

    amps: dict[BasisKet, complex] = {}

    def add(ket: BasisKet, value: complex) -> None:
        amps[ket] = amps.get(ket, 0j) + value

    for ket, amp in state.items():
        if isinstance(site, PhotonSite):
            label = ket.photons[site.index]
            images = _lookup(linear_map, label)
            if images is None:
                raise IncompleteMapError(f"map undefined for photon label {label.token!r}")
            for new_label, coeff in images:
                add(ket.with_photon(site.index, new_label), amp * coeff)
        elif isinstance(site, SpinSite):
            images = _lookup(linear_map, ket.spin)
            if images is None:
                raise IncompleteMapError(f"map undefined for spin {ket.spin}")
            for new_spin, coeff in images:
                add(ket.with_spin(new_spin), amp * coeff)
        else:
            label = (ket.photons[site.index], ket.spin)
            images = _lookup(linear_map, label)
            if images is None:
                raise IncompleteMapError(
                    f"map undefined for ({label[0].token!r}, {label[1]})"
                )
            for (new_label, new_spin), coeff in images:
                add(
                    ket.with_photon(site.index, new_label).with_spin(new_spin),
                    amp * coeff,
                )

    return StateVector(amps, photon_count=state.photon_count, has_spin=state.has_spin)


def measure_spin(state: StateVector) -> list[tuple[SpinBasis, float, StateVector]]:
    """Project onto the spin basis, returning every branch with nonzero weight.

    Each entry is ``(outcome, probability, post_state)`` where the post state
    is the renormalized photonic remainder (spin removed). The API is
    exhaustive and deterministic; sampling one branch at random is a caller
    concern.
    """
    if not state.has_spin:
        raise StructureError("state has no spin to measure")
    total = state.norm_squared()
    if total <= PRUNE_EPS ** 2:
        raise DegenerateStateError("cannot measure a zero state")

    branches: list[tuple[SpinBasis, float, StateVector]] = []
    for outcome in (SpinBasis.UP, SpinBasis.DOWN):
        picked = {
            BasisKet(k.photons, None): v
            for k, v in state.items()
            if k.spin is outcome
        }
        branch_norm_sq = sum(abs(v) ** 2 for v in picked.values())
        if branch_norm_sq <= MIN_BRANCH_WEIGHT:
            continue
        scale = 1.0 / math.sqrt(branch_norm_sq)
        post = StateVector(
            {k: v * scale for k, v in picked.items()},
            photon_count=state.photon_count,
            has_spin=False,
        )
        branches.append((outcome, branch_norm_sq / total, post))
    return branches


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
    if abs(a.norm() - b.norm()) > tol:
        return False
    if a.is_zero() and b.is_zero():
        return True
    overlap = inner_product(a, b)
    if abs(overlap) <= tol:
        return False
    phase = overlap / abs(overlap)
    return allclose(a.scaled(phase), b, tol)


def serialize(state: StateVector) -> str:
    """Plain-text form: one line per ket, ``pol/dir/mode,... | spin : re,im``.

    Lines are ordered by the kets' natural order so output is reproducible
    byte for byte; amplitudes carry 17 significant digits.
    """
    lines = []
    for ket, amp in state.items():
        lines.append(f"{ket.token} : {amp.real:.17g},{amp.imag:.17g}")
    return "\n".join(lines)


def deserialize(text: str) -> StateVector:
    """Parse the :func:`serialize` format back into a state."""
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
