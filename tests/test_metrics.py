"""Closed-form figures of merit and decoherence utilities.

The derived reference values are produced by an exact-rational
reimplementation of the closed forms (Fraction arithmetic), which is an
independent route from the float path in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from spincavity.cavity import CavityParams, ScatterCoeffs, coefficients
from spincavity.metrics import (
    DecoherenceParams,
    closed_form_figures,
    exciton_dephasing_factor,
    spin_decoherence_factor,
    trion_density_matrix,
)
from conftest import exact_figures


def rational_figures(g: Fraction, kappa_s: Fraction, gamma: Fraction):
    """Exact-rational evaluation of the closed forms on resonance."""
    half_gamma = gamma / 2
    t = half_gamma / (half_gamma * (1 + kappa_s / 2) + g * g)  # magnitude
    r = 1 - t
    t0 = 1 / (1 + kappa_s / 2)  # magnitude
    r0 = 1 - t0
    return tuple(exact_figures(t, r, t0, r0).values())


def figures_at(g: float, kappa_s: float, gamma: float = 0.1):
    return closed_form_figures(coefficients(CavityParams(g=g, kappa_s=kappa_s, gamma=gamma)))


class TestClosedForms:
    def test_ideal_limit_forces_unity(self):
        fig = closed_form_figures(ScatterCoeffs.ideal())
        assert fig.f_cnot == 1.0
        assert fig.f_toffoli == 1.0
        assert fig.eta_cnot == 1.0
        assert fig.eta_toffoli == 1.0
        assert fig.zeta == 2.0

    @pytest.mark.parametrize(
        "g,kappa_s",
        [(Fraction(12, 5), Fraction(1, 2)), (Fraction(12, 5), Fraction(0))],
        ids=("half-leakage", "no-leakage"),
    )
    def test_against_exact_rationals(self, g, kappa_s):
        exact = rational_figures(g, kappa_s, Fraction(1, 10))
        fig = figures_at(float(g), float(kappa_s))
        for value, reference in zip(
            (fig.f_cnot, fig.f_toffoli, fig.eta_cnot, fig.eta_toffoli), exact
        ):
            assert abs(value - float(reference)) < 1e-12

    def test_operating_point_values(self):
        # Frozen from the rational oracle above.
        fig = figures_at(2.4, 0.5)
        assert abs(fig.f_cnot - 0.8022897968582148) < 1e-12
        assert abs(fig.f_toffoli - 0.4806543766077685) < 1e-12
        assert abs(fig.eta_cnot - 0.8595719720663837) < 1e-12
        assert abs(fig.eta_toffoli - 0.8294279656608194) < 1e-12
        fig0 = figures_at(2.4, 0.0)
        assert abs(fig0.f_cnot - 0.9914126631927267) < 1e-12
        assert abs(fig0.f_toffoli - 0.9578659828018349) < 1e-12
        assert abs(fig0.eta_cnot - 0.9928901739241204) < 1e-12
        assert abs(fig0.eta_toffoli - 0.9904560185360792) < 1e-12

    def test_monotone_in_leakage_and_coupling(self):
        g_values = [0.2 + k * (5.0 - 0.2) / 12 for k in range(13)]
        ks_values = [k / 10 for k in range(11)]
        for g in g_values:
            rows = [figures_at(g, ks) for ks in ks_values]
            for a, b in zip(rows, rows[1:]):
                assert b.f_cnot <= a.f_cnot + 1e-12
                assert b.f_toffoli <= a.f_toffoli + 1e-12
                assert b.eta_cnot <= a.eta_cnot + 1e-12
                assert b.eta_toffoli <= a.eta_toffoli + 1e-12
        for ks in ks_values:
            rows = [figures_at(g, ks) for g in g_values]
            for a, b in zip(rows, rows[1:]):
                assert b.f_cnot >= a.f_cnot - 1e-12
                assert b.f_toffoli >= a.f_toffoli - 1e-12
                assert b.eta_cnot >= a.eta_cnot - 1e-12
                assert b.eta_toffoli >= a.eta_toffoli - 1e-12

    def test_three_photons_never_beat_two(self):
        for g in (0.2, 1.0, 2.4, 5.0):
            for ks in (0.0, 0.3, 0.7, 1.0):
                fig = figures_at(g, ks)
                assert fig.f_toffoli <= fig.f_cnot + 1e-12
                assert fig.eta_toffoli <= fig.eta_cnot + 1e-12

    def test_xi3_vanishes_without_cold_reflection(self):
        fig = figures_at(1.7, 0.0)
        assert fig.xi3 == 0.0

    def test_figures_stay_in_unit_interval(self):
        for g in (0.0, 0.5, 2.4, 5.0):
            for ks in (0.0, 0.5, 1.0):
                fig = figures_at(g, ks)
                for value in (fig.f_cnot, fig.f_toffoli, fig.eta_cnot, fig.eta_toffoli):
                    assert -1e-12 <= value <= 1.0 + 1e-12


class TestSpinDecoherence:
    @pytest.mark.parametrize("name", ["t2e", "dt", "tau", "t2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_scales_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            DecoherenceParams(**{name: value})

    def test_no_interval(self):
        assert spin_decoherence_factor(DecoherenceParams(dt=0.0)) == 1.0

    def test_long_interval_limit(self):
        factor = spin_decoherence_factor(DecoherenceParams(dt=1e9, t2e=1.0))
        assert abs(factor - 0.5) < 1e-12

    def test_interval_equal_to_coherence_time(self):
        factor = spin_decoherence_factor(DecoherenceParams(dt=100.0, t2e=100.0))
        assert abs(factor - (1.0 + math.exp(-1.0)) / 2.0) < 1e-15
        assert abs(factor - 0.6839397205857212) < 1e-12

    def test_operating_defaults(self):
        factor = spin_decoherence_factor(DecoherenceParams())
        assert abs(factor - (1.0 + math.exp(-4.5 / 3000.0)) / 2.0) < 1e-15
        assert abs(factor - 0.99925) < 5e-6


class TestExcitonDephasing:
    def test_no_lifetime(self):
        params = DecoherenceParams(tau=1e-12, t2=100.0)
        assert exciton_dephasing_factor(params) < 1e-13

    def test_lifetime_equal_to_coherence_time(self):
        factor = exciton_dephasing_factor(DecoherenceParams(tau=50.0, t2=50.0))
        assert abs(factor - (1.0 - math.exp(-1.0))) < 1e-15
        assert abs(factor - 0.6321205588285577) < 1e-12

    def test_fast_cavity_regime(self):
        factor = exciton_dephasing_factor(DecoherenceParams(tau=10.0, t2=100.0))
        assert abs(factor - 0.09516258196404048) < 1e-12


class TestTrionDensityMatrix:
    def test_pure_at_time_zero(self):
        rho = trion_density_matrix(0.0, 50.0)
        assert np.allclose(rho, 0.5 * np.ones((2, 2)))
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12

    def test_fully_dephased_limit(self):
        rho = trion_density_matrix(1e6, 1.0)
        assert np.allclose(rho, 0.5 * np.eye(2))

    def test_off_diagonal_decay(self):
        rho = trion_density_matrix(100.0, 50.0)
        assert abs(rho[0, 1].real - math.exp(-1.0) / 2.0) < 1e-15
        assert abs(rho[0, 1].real - 0.18393972058572117) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 3.0, 25.0, 400.0])
    def test_density_matrix_invariants(self, t):
        t2 = 50.0
        rho = trion_density_matrix(t, t2)
        assert np.allclose(rho, rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        eigenvalues = np.linalg.eigvalsh(rho)
        assert eigenvalues.min() >= -1e-12
        purity = np.trace(rho @ rho).real
        assert abs(purity - (1.0 + math.exp(-t / t2)) / 2.0) < 1e-12

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            trion_density_matrix(-1.0, 10.0)
        with pytest.raises(ValueError):
            trion_density_matrix(1.0, 0.0)
