"""Closed-form gate fidelities, efficiencies, and decoherence reduction factors.

The closed forms are polynomial expressions in the four coefficient
magnitudes |t|, |r|, |t0|, |r0|. They are transcribed term by term, with the
three intermediate polynomials exposed, because this is the most
transcription-error-prone part of the package and each piece needs to be
auditable on its own. No algebraic simplification is applied.

Decoherence factors are reporting utilities only. The circuit simulator is
pure-state and does not fold them in; the command line multiplies them into
reported fidelities on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cavity import ScatterCoeffs, require_finite

#: Documented operating constants for the decoherence report, in nanoseconds.
#: Spin coherence of a few microseconds is routinely held with spin-echo
#: sequences; the photon interval is bounded below by the critical-photon
#: timing of the cavity; trion coherence beyond 100 ns has been reported.
SPIN_COHERENCE_NS = 3000.0
PHOTON_INTERVAL_NS = 4.5
CAVITY_LIFETIME_NS = 10.0
TRION_COHERENCE_NS = 100.0


class GateFigures(NamedTuple):
    """Closed-form figures of merit plus the exposed intermediate values."""

    f_cnot: float
    f_toffoli: float
    eta_cnot: float
    eta_toffoli: float
    zeta: float
    xi1: float
    xi2: float
    xi3: float


@dataclass(frozen=True)
class DecoherenceParams:
    """Time scales for the decoherence factors, in one consistent unit.

    ``t2e`` electron spin coherence time, ``dt`` interval between input
    photons, ``tau`` cavity photon lifetime, ``t2`` exciton/trion coherence
    time.
    """

    t2e: float = SPIN_COHERENCE_NS
    dt: float = PHOTON_INTERVAL_NS
    tau: float = CAVITY_LIFETIME_NS
    t2: float = TRION_COHERENCE_NS

    def __post_init__(self) -> None:
        require_finite(self)
        if min(self.t2e, self.tau, self.t2) <= 0 or self.dt < 0:
            raise ValueError("time scales must be positive (dt may be zero)")


def closed_form_figures(coeffs: ScatterCoeffs) -> GateFigures:
    """Evaluate the closed-form fidelities and efficiencies.

    The CNOT fidelity is [ (|t0| + |r|) / 2 ]^2. The Toffoli fidelity is
    [ (xi1 + 2*xi2 - xi3) / 32 ]^2 with the xi polynomials below. The
    efficiencies depend only on zeta = |t0|^2 + |r0|^2 + |t|^2 + |r|^2:

        eta_cnot    = (1/3) * (1/2 + 5*zeta/4)
        eta_toffoli = (1/4) * (1 + 5*zeta/4 + zeta^4/32)

    All four reach one in the lossless limit (|t0| = |r| = 1, zeta = 2).
    """
    return GateFigures(*magnitude_figures(*coeffs.magnitudes))


def magnitude_figures(at: float, ar: float, at0: float, ar0: float) -> tuple[float, ...]:
    """The :class:`GateFigures` fields, in order, from (|t|, |r|, |t0|, |r0|).

    Each subexpression the polynomials repeat is named once. Every operation
    keeps its operands and left-to-right order, and every power stays a
    libm ``pow``, so the results are the doubles of the written-out forms.
    """
    f_cnot = ((at0 + ar) / 2.0) ** 2

    d0 = at0 - ar0
    d = ar - at
    plus_squared = (d0 + ar - at) ** 2  # (at0 - ar0 + ar - at) ** 2
    minus_squared = (d0 - ar + at) ** 2  # (at0 - ar0 - ar + at) ** 2

    xi1 = (d0 - at + ar) * (
        ar0 * d0 * plus_squared + ar0 * d * minus_squared + 4.0 * at0 * d + 4.0 * d0
    )
    xi2 = ar * d0 * minus_squared + ar * d * plus_squared + 4.0 * at * d0 + 4.0 * d
    xi3 = ar0 * plus_squared * minus_squared

    f_toffoli = ((xi1 + 2.0 * xi2 - xi3) / 32.0) ** 2

    zeta = at0 ** 2 + ar0 ** 2 + at ** 2 + ar ** 2
    eta_cnot = (0.5 + 1.25 * zeta) / 3.0
    eta_toffoli = (1.0 + 1.25 * zeta + zeta ** 4 / 32.0) / 4.0

    return f_cnot, f_toffoli, eta_cnot, eta_toffoli, zeta, xi1, xi2, xi3


def spin_decoherence_factor(params: DecoherenceParams) -> float:
    """Fidelity multiplier from electron-spin decoherence between photons.

    [1 + exp(-dt/t2e)] / 2, which is 1 for back-to-back photons and decays
    to 1/2 when the interval dwarfs the coherence time.
    """
    return (1.0 + math.exp(-params.dt / params.t2e)) / 2.0


def exciton_dephasing_factor(params: DecoherenceParams) -> float:
    """Raw exciton dephasing factor [1 - exp(-tau/t2)].

    The factor is returned exactly as defined. Two readings circulate: as a
    multiplicative fidelity factor (F times the value), or as a reduction
    amount (F times one minus the value). The amount reading vanishes for
    tau much smaller than t2, matching the observation that dephasing only
    slightly degrades these gates; both are reported and neither is asserted
    as ground truth here.
    """
    return 1.0 - math.exp(-params.tau / params.t2)


def trion_density_matrix(t: float, t2: float) -> np.ndarray:
    """Spin density matrix after trion dephasing of an equal superposition.

    (1/2) [[1, e^(-t/2T2)], [e^(-t/2T2), 1]]: trace one, positive
    semidefinite, purity (1 + e^(-t/T2)) / 2. Pure at t = 0, fully dephased
    as t grows.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    if t2 <= 0:
        raise ValueError("coherence time must be positive")
    off = math.exp(-t / (2.0 * t2))
    return 0.5 * np.array([[1.0, off], [off, 1.0]], dtype=complex)
