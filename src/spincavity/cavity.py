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

import cmath
import math
import operator
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple

from .hilbert import Polarization, Propagation, SpinBasis, StateError

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
    """Physical rates and detunings, all in units of the cavity decay rate kappa.

    ``g`` is the dipole-cavity coupling, ``kappa_s`` the side leakage into
    unmonitored modes, ``gamma`` the trion dipole decay, ``delta_c`` and
    ``delta_x`` the cavity and dipole detunings from the probe photon.
    """

    g: float
    kappa_s: float = 0.0
    gamma: float = DEFAULT_GAMMA
    delta_c: float = 0.0
    delta_x: float = 0.0

    def __post_init__(self) -> None:
        # Every `simulate` command builds a CavityParams, in either mode, and
        # `run_sweep` one per sweep, so one test on the sum comes first: any NaN
        # or infinite field makes it non-finite. Fields are checked one by one
        # only then (a sum that merely overflows passes).
        if not math.isfinite(self.g + self.kappa_s + self.gamma + self.delta_c + self.delta_x):
            require_finite(self)
        for name, rate in (("g", self.g), ("kappa_s", self.kappa_s), ("gamma", self.gamma)):
            if rate < 0:
                raise ValueError(f"{name} must be non-negative, got {rate}")


class ScatterCoeffs(NamedTuple):
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
        t, r, t0, r0 = self
        return abs(t), abs(r), abs(t0), abs(r0)


def coefficients(params: CavityParams) -> ScatterCoeffs:
    """Steady-state transmission and reflection of the hot and cold cavity.

    The hot transmission is, with every rate in units of kappa,

        t = -(i*delta_x + gamma/2)
            / [ (i*delta_x + gamma/2) * (i*delta_c + 1 + kappa_s/2) + g^2 ]

    with r = 1 + t. The cold pair is the same expression at g = 0, where the
    dipole factor cancels, so it is evaluated in the canceled form to stay
    finite even at gamma = 0.
    """
    if params.delta_c == 0.0 and params.delta_x == 0.0:
        # Real arithmetic: complex division would cost a few ulps that the
        # closed-form polynomials downstream then amplify.
        dipole, cavity_term = params.gamma / 2.0, 1.0 + params.kappa_s / 2.0
    else:
        dipole = 1j * params.delta_x + params.gamma / 2.0
        cavity_term = 1j * params.delta_c + 1.0 + params.kappa_s / 2.0
    g_squared = _squared(params.g)
    try:  # rates near the float range can overflow a product or a modulus
        dipole_ct, t0 = _cold_terms(dipole, cavity_term)
        # Not -dipole: for a complex dipole with a zero part, negation and a
        # product with -1.0 can give zeros of different sign.
        t = _hot_transmission(-1.0 * dipole, dipole_ct, g_squared)
        finite = cmath.isfinite(t) and cmath.isfinite(t0)
    except OverflowError:
        finite = False
    if not finite:
        named = ", ".join(f"{field.name} = {getattr(params, field.name)}" for field in fields(params))
        raise ValueError(f"the coefficients overflow at {named}")
    return ScatterCoeffs(t, 1.0 + t, t0, 1.0 + t0)


def resonant_magnitudes(
    gs: Iterable[float], kappa_s_values: Iterable[float], gamma: float
) -> Iterator[tuple[float, float, float, float]]:
    """(|t|, |r|, |t0|, |r0|) of :func:`coefficients` at zero detuning, at each
    point of ``gs`` x ``kappa_s_values``, row-major, as the same doubles.

    For rates a :class:`CavityParams` has accepted: nothing is validated
    again. The cold pair and dipole * cavity_term are worked out once per
    kappa_s, g ** 2 once per g, so a point pays only for its hot transmission.
    """
    dipole = gamma / 2.0
    columns = []
    for kappa_s in kappa_s_values:
        dipole_ct, t0 = _cold_terms(dipole, 1.0 + kappa_s / 2.0)
        columns.append((dipole_ct, abs(t0), abs(1.0 + t0)))
    minus_dipole = -1.0 * dipole
    for g in gs:
        g_squared = _squared(g)
        for dipole_ct, at0, ar0 in columns:
            t = _hot_transmission(minus_dipole, dipole_ct, g_squared)
            yield abs(t), abs(1.0 + t), at0, ar0


def _squared(g):
    try:
        return g ** 2
    except OverflowError:
        raise ValueError(f"g = {g} is too large: g ** 2 overflows") from None


def _cold_terms(dipole, cavity_term):
    """(dipole * cavity_term, t0): the terms that do not depend on g."""
    if abs(cavity_term) < _SINGULAR_EPS:
        raise SingularParameterError(
            f"cold-cavity denominator magnitude {abs(cavity_term)} below {_SINGULAR_EPS}"
        )
    return dipole * cavity_term, -1.0 / cavity_term


def _hot_transmission(minus_dipole, dipole_ct, g_squared):
    denominator = dipole_ct + g_squared
    if abs(denominator) < _SINGULAR_EPS:
        raise SingularParameterError(
            f"hot-cavity denominator magnitude {abs(denominator)} below {_SINGULAR_EPS}"
        )
    return minus_dipole / denominator


def _couples(polarization: Polarization, propagation: Propagation, spin: SpinBasis) -> bool:
    # Photon spin angular momentum along +z is +1 for R going along z and for
    # L going against z; that component drives the trion only for spin up,
    # the opposite component only for spin down.
    sz_positive = (polarization is Polarization.R) == (propagation is Propagation.ALONG_Z)
    return sz_positive == (spin is SpinBasis.UP)


ScatterKey = tuple[tuple[Polarization, Propagation], SpinBasis]
ScatterRoute = tuple[Polarization, Propagation, SpinBasis, int]


class ScatterTable(NamedTuple):
    """Photon-spin scattering as fixed routes and the amplitudes they carry.

    ``routes[key]`` holds one ``(polarization, propagation, spin, slot)`` per
    term of ``key``'s image, and ``amplitudes[slot]`` that term's signed
    amplitude. Only the amplitudes depend on the cavity: every ideal table
    shares one set of routes, and every realistic table another.
    """

    routes: Mapping[ScatterKey, tuple[ScatterRoute, ...]]
    amplitudes: tuple[float, ...]


_ALL_KEYS: tuple[ScatterKey, ...] = tuple(
    ((pol, prop), spin)
    for pol in Polarization
    for prop in Propagation
    for spin in SpinBasis
)


def table_values(magnitudes: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """The values a realistic table carries, (|t|, |r|, -|t0|, -|r0|), from
    (|t|, |r|, |t0|, |r0|): the coupled cavity reflects and transmits as it is,
    the uncoupled one with a sign flip."""
    at, ar, at0, ar0 = magnitudes
    return at, ar, -at0, -ar0


#: Which of the :func:`table_values` each slot of a realistic table carries,
#: slots numbered key by key: a coupled key reflects |r| and transmits |t|,
#: an uncoupled one transmits -|t0| and reflects -|r0|.
REALISTIC_PARTS: tuple[int, ...] = tuple(
    part for (pol, prop), spin in _ALL_KEYS for part in ((1, 0) if _couples(pol, prop, spin) else (2, 3))
)


def _routes(parts: tuple[int, ...]) -> Mapping[ScatterKey, tuple[ScatterRoute, ...]]:
    """The keys' routes, ``parts`` dealt out over them in order. The parts of r and
    r0 reflect, flipping polarization and direction; those of t and t0 transmit."""
    per_key, routes = len(parts) // len(_ALL_KEYS), {}
    for slot, part in enumerate(parts):
        (pol, prop), spin = key = _ALL_KEYS[slot // per_key]
        route = (pol.flipped, prop.flipped, spin, slot) if part in (1, 3) else (pol, prop, spin, slot)
        routes[key] = routes.get(key, ()) + (route,)
    return MappingProxyType(routes)


_REALISTIC_ROUTES = _routes(REALISTIC_PARTS)
_realistic_amplitudes = operator.itemgetter(*REALISTIC_PARTS)
#: The realistic table at the ideal (|t|, |r|, |t0|, |r0|) = (0, 1, 1, 0), less each
#: key's second term, which is zero there.
_IDEAL_TABLE = ScatterTable(
    _routes(REALISTIC_PARTS[::2]), _realistic_amplitudes(table_values((0.0, 1.0, 1.0, 0.0)))[::2]
)


def ideal_scatter() -> ScatterTable:
    """Lossless scattering rules on (polarization, direction, spin).

    Coupled combinations reflect: polarization and direction both flip with
    unit amplitude. Uncoupled combinations transmit with a sign flip. The
    map is unitary, and applying it twice returns every ket to itself.
    """
    return _IDEAL_TABLE


def checked_magnitudes(magnitudes: tuple[float, float, float, float]) -> tuple[float, ...]:
    """(|t|, |r|, |t0|, |r0|), each checked to be a number no larger than one."""
    for name, mag in zip(("t", "r", "t0", "r0"), magnitudes):
        if not mag <= 1.0 + 1e-12:
            raise InvalidCoefficientError(f"|{name}| = {mag} exceeds 1")
    return magnitudes


def realistic_scatter(coeffs: ScatterCoeffs) -> ScatterTable:
    """Lossy scattering rules built from coefficient magnitudes.

    Coupled combinations split into a reflected part weighted |r| and a
    transmitted part weighted |t|; uncoupled ones into -|t0| transmitted and
    -|r0| reflected (see :func:`table_values`). With the ideal coefficient
    set this reduces exactly to :func:`ideal_scatter`, up to terms of zero
    amplitude; otherwise the map contracts the norm, the deficit being the
    photon lost to side leakage.
    """
    values = table_values(checked_magnitudes(coeffs.magnitudes))
    return ScatterTable(_REALISTIC_ROUTES, _realistic_amplitudes(values))
