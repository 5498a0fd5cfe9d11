"""Cavity response: reflection/transmission coefficients and photon-spin scattering.

A charged quantum dot in a double-sided microcavity reflects or transmits a
resonant photon depending on whether the photon's spin angular momentum can
drive the trion transition for the current electron spin. A coupled (hot)
encounter reflects the photon, flipping both its circular polarization label
and its propagation direction; an uncoupled (cold) encounter transmits it
with a pi phase. The steady-state coefficients below quantify both channels
for arbitrary coupling strength, side leakage, and detunings.

All rates are dimensionless ratios against the cavity field decay rate,
which is fixed at one; this matches the axes used everywhere downstream
(sweeps, plots, quoted operating points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .hilbert import PhotonLabel, Polarization, Propagation, SpinBasis, StateError

#: Dipole decay rate assumed when no value is given. This ratio reproduces
#: the quoted headline operating points wherever they are mutually
#: consistent; the acceptance suite records the two that are not.
DEFAULT_GAMMA = 0.1

_SINGULAR_EPS = 1e-15


class SingularParameterError(StateError):
    """Coefficient denominator vanished for the given parameters."""


class InvalidCoefficientError(StateError):
    """A scattering coefficient magnitude exceeds one."""


def require_finite(params) -> None:
    """Raise ValueError naming the first field of a parameter dataclass that is NaN or infinite."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class CavityParams:
    """Physical rates and detunings, all in units of the cavity decay rate.

    ``g`` is the dipole-cavity coupling, ``kappa_s`` the side leakage into
    unmonitored modes, ``gamma`` the trion dipole decay, ``delta_c`` and
    ``delta_x`` the cavity and dipole detunings from the probe photon.
    """

    g: float
    kappa_s: float = 0.0
    gamma: float = DEFAULT_GAMMA
    kappa: float = 1.0
    delta_c: float = 0.0
    delta_x: float = 0.0

    def __post_init__(self) -> None:
        # Every sweep point builds a CavityParams, so one test on the sum comes
        # first: any NaN or infinite field makes it non-finite. Fields are
        # checked one by one only then (a sum that merely overflows passes).
        if not math.isfinite(
            self.g + self.kappa_s + self.gamma + self.kappa + self.delta_c + self.delta_x
        ):
            require_finite(self)
        if self.g < 0 or self.kappa_s < 0 or self.gamma < 0:
            raise ValueError("rates g, kappa_s, gamma must be non-negative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class ScatterCoeffs:
    """The four coefficients driving realistic scattering.

    ``t``/``r`` describe the dipole-coupled (hot) cavity, ``t0``/``r0`` the
    uncoupled (cold) one. On resonance all four are real, with ``r = 1 + t``
    and ``r0 = 1 + t0`` holding identically.
    """

    t: complex
    r: complex
    t0: complex
    r0: complex

    @classmethod
    def ideal(cls) -> "ScatterCoeffs":
        """Lossless strong-coupling limit: full hot reflection, full cold transmission."""
        return cls(t=0.0, r=1.0, t0=-1.0, r0=0.0)

    @property
    def magnitudes(self) -> tuple[float, float, float, float]:
        """(|t|, |r|, |t0|, |r0|)."""
        return abs(self.t), abs(self.r), abs(self.t0), abs(self.r0)


def coefficients(params: CavityParams) -> ScatterCoeffs:
    """Steady-state transmission and reflection of the hot and cold cavity.

    The hot transmission is

        t = -kappa * (i*delta_x + gamma/2)
            / [ (i*delta_x + gamma/2) * (i*delta_c + kappa + kappa_s/2) + g^2 ]

    with r = 1 + t. The cold pair is the same expression at g = 0, where the
    dipole factor cancels, so it is evaluated in the canceled form to stay
    finite even at gamma = 0.
    """
    if params.delta_c == 0.0 and params.delta_x == 0.0:
        # Real arithmetic on resonance; complex division would cost a few
        # ulps that the closed-form polynomials downstream then amplify.
        dipole = params.gamma / 2.0
        cavity_term = params.kappa + params.kappa_s / 2.0
    else:
        dipole = 1j * params.delta_x + params.gamma / 2.0
        cavity_term = 1j * params.delta_c + params.kappa + params.kappa_s / 2.0

    denominator = dipole * cavity_term + params.g ** 2
    if abs(denominator) < _SINGULAR_EPS:
        raise SingularParameterError(
            f"hot-cavity denominator magnitude {abs(denominator)} below {_SINGULAR_EPS}"
        )
    if abs(cavity_term) < _SINGULAR_EPS:
        raise SingularParameterError(
            f"cold-cavity denominator magnitude {abs(cavity_term)} below {_SINGULAR_EPS}"
        )

    t = -params.kappa * dipole / denominator
    t0 = -params.kappa / cavity_term
    return ScatterCoeffs(t=t, r=1.0 + t, t0=t0, r0=1.0 + t0)


def _couples(polarization: Polarization, propagation: Propagation, spin: SpinBasis) -> bool:
    # Photon spin angular momentum along +z is +1 for R going along z and for
    # L going against z; that component drives the trion only for spin up,
    # the opposite component only for spin down.
    sz_positive = (polarization is Polarization.R) == (propagation is Propagation.ALONG_Z)
    return sz_positive == (spin is SpinBasis.UP)


PhotonState = tuple[Polarization, Propagation]
ScatterKey = tuple[PhotonState, SpinBasis]
ScatterTerm = tuple[Polarization, Propagation, SpinBasis, complex]
ScatterTable = dict[ScatterKey, tuple[ScatterTerm, ...]]

_ALL_KEYS: tuple[ScatterKey, ...] = tuple(
    ((pol, prop), spin)
    for pol in Polarization
    for prop in Propagation
    for spin in SpinBasis
)


def ideal_scatter() -> ScatterTable:
    """Lossless scattering rules on (polarization, direction, spin).

    Coupled combinations reflect: polarization and direction both flip with
    unit amplitude. Uncoupled combinations transmit with a sign flip. The
    map is unitary, and applying it twice returns every ket to itself.
    """
    table: ScatterTable = {}
    for (pol, prop), spin in _ALL_KEYS:
        if _couples(pol, prop, spin):
            table[((pol, prop), spin)] = ((pol.flipped, prop.flipped, spin, 1.0),)
        else:
            table[((pol, prop), spin)] = ((pol, prop, spin, -1.0),)
    return table


def checked_magnitudes(coeffs: ScatterCoeffs) -> tuple[float, float, float, float]:
    """(|t|, |r|, |t0|, |r0|), each checked to be a number no larger than one."""
    magnitudes = coeffs.magnitudes
    for name, mag in zip(("t", "r", "t0", "r0"), magnitudes):
        if not mag <= 1.0 + 1e-12:
            raise InvalidCoefficientError(f"|{name}| = {mag} exceeds 1")
    return magnitudes


def realistic_scatter(coeffs: ScatterCoeffs) -> ScatterTable:
    """Lossy scattering rules built from coefficient magnitudes.

    Coupled combinations split into a reflected part weighted |r| and a
    transmitted part weighted |t|; uncoupled ones into -|t0| transmitted and
    -|r0| reflected. With the ideal coefficient set this reduces exactly to
    :func:`ideal_scatter`; otherwise the map contracts the norm, the deficit
    being the photon lost to side leakage.
    """
    at, ar, at0, ar0 = checked_magnitudes(coeffs)
    table: ScatterTable = {}
    for (pol, prop), spin in _ALL_KEYS:
        if _couples(pol, prop, spin):
            table[((pol, prop), spin)] = (
                (pol.flipped, prop.flipped, spin, ar),
                (pol, prop, spin, at),
            )
        else:
            table[((pol, prop), spin)] = (
                (pol, prop, spin, -at0),
                (pol.flipped, prop.flipped, spin, -ar0),
            )
    return table


def scatter_as_sited_map(table: ScatterTable):
    """Adapt a scatter table to a photon-spin sited map that keeps the mode."""

    def joint(label_spin):
        label, spin = label_spin
        return [
            ((PhotonLabel(pol, prop, label.mode), new_spin), amp)
            for pol, prop, new_spin, amp in table[
                ((label.polarization, label.propagation), spin)
            ]
        ]

    return joint
