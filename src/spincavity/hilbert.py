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
states free of numerical dust; a NaN amplitude is an error, not dust.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import threading
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Mapping, NamedTuple, Union

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


class _PhotonFields(NamedTuple):
    polarization: Polarization
    propagation: Propagation
    mode: int


class PhotonLabel(_PhotonFields):
    """One photon's labels: polarization, propagation direction, spatial mode.

    Labels and kets are tuples, so hashing, equality and ordering run in C;
    their natural tuple order is the :meth:`BasisKet.sort_key` order.
    """

    __slots__ = ()

    def __new__(cls, polarization: Polarization, propagation: Propagation, mode: int):
        if mode < 0:
            raise StructureError(f"mode index must be non-negative, got {mode}")
        return tuple.__new__(cls, (polarization, propagation, mode))

    def with_mode(self, mode: int) -> "PhotonLabel":
        return PhotonLabel(self.polarization, self.propagation, mode)

    @property
    def token(self) -> str:
        return _label_token(self)


def _label_token(label: PhotonLabel) -> str:
    return f"{label.polarization.token}/{label.propagation.token}/{label.mode}"


class BasisKet(NamedTuple):
    """Product basis ket: an ordered photon tuple plus an optional spin.

    Spinless kets describe the photonic subsystem alone (for example after
    the spin has been measured out). The ordering used for serialization
    and deterministic iteration is the natural tuple order of the labels;
    one state's kets share one structure, so ``None`` is never compared
    with a spin.
    """

    photons: tuple[PhotonLabel, ...]
    spin: SpinBasis | None = None

    def sort_key(self):
        spin_key = -1 if self.spin is None else int(self.spin)
        return (
            tuple((int(p.polarization), int(p.propagation), p.mode) for p in self.photons),
            spin_key,
        )

    def with_spin(self, spin: SpinBasis | None) -> "BasisKet":
        return BasisKet(self.photons, spin)

    @property
    def token(self) -> str:
        return _ket_token(self)


def _ket_token(ket: BasisKet) -> str:
    photons, spin = ket
    return f"{','.join(map(_label_token, photons))} | {'-' if spin is None else spin.token}"


#: Builds a ket from its (photons, spin) pair without a Python-level call.
_ket = functools.partial(tuple.__new__, BasisKet)


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
            elif cmath.isnan(value):
                raise StructureError(f"amplitude {value} of {ket.token!r} is not a number")

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
    def _checked(cls, amps: dict, photon_count: int, has_spin: bool) -> "StateVector":
        """A state over amplitudes that have already passed the constructor's checks."""
        state = cls.__new__(cls)
        state._amps, state._photon_count, state._has_spin = amps, photon_count, has_spin
        return state

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
        return sorted(self._amps.items())

    def kets(self) -> list[BasisKet]:
        return [k for k, _ in self.items()]

    def norm_squared(self) -> float:
        return sum(abs(v) ** 2 for v in self._amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

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

_recording = threading.local()


@contextlib.contextmanager
def recording(log: list | None):
    """Log every sited map this thread applies meanwhile to ``log`` (None logs nothing), in
    order: ``(input state, edges, output state)``, the edges ``(input ket, output ket,
    coefficient)`` in the order they were summed."""
    _recording.log = log
    try:
        yield log
    finally:
        _recording.log = None


def apply_sited_map(state: StateVector, site: Site, linear_map: LinearMap) -> StateVector:
    """Apply a linear map to one subsystem.

    ``linear_map`` is a mapping or callable from the site's input label to an
    iterable of ``(output_label, amplitude)`` pairs; ``None`` means the map
    is undefined there and raises :class:`IncompleteMapError`. Linearity is
    automatic; the result is norm-preserving exactly when the map is unitary
    on the reachable labels. The map is consulted once per distinct label.
    """
    on_photon = isinstance(site, (PhotonSite, PhotonSpinSite))
    on_spin = isinstance(site, (SpinSite, PhotonSpinSite))
    index = site.index if on_photon else 0
    if on_photon and not 0 <= index < state.photon_count:
        raise StructureError(f"photon index {index} out of range")
    if on_spin and not state.has_spin:
        raise StructureError("state has no spin subsystem")

    lookup = linear_map if callable(linear_map) else linear_map.get
    log = getattr(_recording, "log", None)
    edges = None if log is None else []
    images_of: dict = {}
    amps: dict[BasisKet, complex] = {}
    for ket, amp in state.items():
        photons, spin = ket
        if not on_spin:
            label = photons[index]
        elif not on_photon:
            label = spin
        else:
            label = (photons[index], spin)
        images = images_of.get(label)
        if images is None:
            images = lookup(label)
            if images is None:
                raise IncompleteMapError(_undefined_message(site, label))
            images = images_of[label] = tuple(images)
        head, tail = photons[:index], photons[index + 1:]
        for image, coeff in images:
            if not on_spin:
                out = _ket((head + (image,) + tail, spin))
            elif not on_photon:
                out = _ket((photons, image))
            else:
                out = _ket((head + (image[0],) + tail, image[1]))
            amps[out] = amps.get(out, 0j) + amp * coeff
            if edges is not None:
                edges.append((ket, out, coeff))

    result = StateVector(amps, photon_count=state.photon_count, has_spin=state.has_spin)
    if log is not None:
        log.append((state, edges, result))
    return result


def _undefined_message(site: Site, label) -> str:
    if isinstance(site, PhotonSite):
        return f"map undefined for photon label {label.token!r}"
    if isinstance(site, SpinSite):
        return f"map undefined for spin {label}"
    return f"map undefined for ({label[0].token!r}, {label[1]})"


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


def serialize(state: StateVector) -> str:
    """Plain-text form: one line per ket, ``pol/dir/mode,... | spin : re,im``.

    Lines are ordered by the kets' natural order so output is reproducible
    byte for byte; amplitudes carry 17 significant digits.
    """
    text, order = _layout(tuple(amps := state._amps))
    values = [*amps.values()]
    return text % tuple([part for j in order for part in (values[j].real, values[j].imag)])


@functools.lru_cache(maxsize=256)
def _layout(kets: tuple) -> tuple[str, tuple]:
    """The text of a state over ``kets`` (in dict order) with ``%.17g`` holes for its
    amplitudes, lines in sorted ket order, and the dict positions in that order."""
    order = tuple(sorted(range(len(kets)), key=kets.__getitem__))
    return "\n".join(["%s : %%.17g,%%.17g" % _ket_token(kets[j]) for j in order]), order
