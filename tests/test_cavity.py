"""Cavity coefficients and scattering rules.

Derived numbers are frozen from exact rational evaluation of the resonant
coefficient formulas; the Fraction arithmetic lives here so the float path
in the package is checked against an independent route.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest

from spincavity.cavity import (
    CavityParams,
    InvalidCoefficientError,
    ScatterCoeffs,
    SingularParameterError,
    coefficients,
    ideal_scatter,
    realistic_scatter,
)
from spincavity.hilbert import (
    BasisKet,
    PhotonLabel,
    PhotonSpinSite,
    Polarization,
    Propagation,
    SpinBasis,
    apply_sited_map,
)
from conftest import allclose, from_ket, random_state, scatter_as_sited_map, scatter_terms

R, L = Polarization.R, Polarization.L
UP_Z, DN_Z = Propagation.ALONG_Z, Propagation.AGAINST_Z
UP, DOWN = SpinBasis.UP, SpinBasis.DOWN


def resonant_hot_t(g: Fraction, kappa_s: Fraction, gamma: Fraction) -> Fraction:
    """Independent rational evaluation of the resonant hot transmission."""
    half_gamma = gamma / 2
    return -half_gamma / (half_gamma * (1 + kappa_s / 2) + g * g)


def resonant_cold(kappa_s: Fraction) -> tuple[Fraction, Fraction]:
    t0 = -1 / (1 + kappa_s / 2)
    return t0, 1 + t0


class TestCoefficients:
    def test_lossless_cold_cavity(self):
        co = coefficients(CavityParams(g=0.0, kappa_s=0.0, gamma=0.1))
        assert co.t0 == -1.0
        assert co.r0 == 0.0

    def test_cold_pair_at_half_leakage(self):
        co = coefficients(CavityParams(g=0.0, kappa_s=0.5, gamma=0.1))
        t0, r0 = resonant_cold(Fraction(1, 2))
        assert abs(co.t0 - float(t0)) < 1e-15
        assert abs(co.r0 - float(r0)) < 1e-15
        assert abs(co.t0 - (-0.8)) < 1e-15
        assert abs(co.r0 - 0.2) < 1e-15

    def test_hot_transmission_at_operating_point(self):
        co = coefficients(CavityParams(g=2.4, kappa_s=0.5, gamma=0.1))
        exact = resonant_hot_t(Fraction(12, 5), Fraction(1, 2), Fraction(1, 10))
        assert exact == Fraction(-20, 2329)
        assert abs(co.t - float(exact)) < 1e-15
        assert abs(co.r - (1.0 + float(exact))) < 1e-15

    def test_hot_equals_cold_at_zero_coupling(self):
        co = coefficients(CavityParams(g=0.0, kappa_s=0.7, gamma=0.23))
        assert abs(co.t - co.t0) < 1e-15
        assert abs(co.r - co.r0) < 1e-15

    def test_continuity_toward_zero_coupling(self):
        base = coefficients(CavityParams(g=0.0, kappa_s=0.4, gamma=0.1))
        near = coefficients(CavityParams(g=1e-7, kappa_s=0.4, gamma=0.1))
        assert abs(near.t - base.t0) < 1e-12

    def test_reflection_minus_transmission_is_one(self, rng):
        for _ in range(50):
            params = CavityParams(
                g=rng.uniform(0.0, 5.0),
                kappa_s=rng.uniform(0.0, 2.0),
                gamma=rng.uniform(0.01, 1.0),
                delta_c=rng.uniform(-1.0, 1.0),
                delta_x=rng.uniform(-1.0, 1.0),
            )
            co = coefficients(params)
            assert abs(co.r - co.t - 1.0) < 1e-12
            assert abs(co.r0 - co.t0 - 1.0) < 1e-12

    def test_strong_coupling_limit(self):
        co = coefficients(CavityParams(g=1e4, kappa_s=0.0, gamma=0.1))
        assert abs(co.t) < 1e-7
        assert abs(abs(co.r) - 1.0) < 1e-7
        assert abs(co.t0) == 1.0
        assert abs(co.r0) == 0.0

    def test_resonant_signs(self):
        co = coefficients(CavityParams(g=1.3, kappa_s=0.6, gamma=0.2))
        for value in (co.t, co.r, co.t0, co.r0):
            assert abs(complex(value).imag) < 1e-15
        assert co.t.real <= 0 and co.t0.real <= 0
        assert co.r.real >= 0 and co.r0.real >= 0

    def test_singular_parameters(self):
        with pytest.raises(SingularParameterError):
            coefficients(CavityParams(g=0.0, kappa_s=0.0, gamma=0.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CavityParams(g=-1.0)
        # Every rate is in units of kappa, so there is no kappa to set.
        with pytest.raises(TypeError):
            CavityParams(g=1.0, kappa=1.0)

    @pytest.mark.parametrize("fields, message", [
        ({"g": -1.0}, "g must be non-negative, got -1.0"),
        ({"g": 1.0, "kappa_s": -0.5}, "kappa_s must be non-negative, got -0.5"),
        ({"g": 1.0, "gamma": -5e-324}, "gamma must be non-negative, got -5e-324"),
        # Finite fields whose sum overflows still reach the range checks.
        ({"g": 1e308, "kappa_s": 1e308, "gamma": -1.0}, "gamma must be non-negative, got -1.0"),
        ({"g": 1.7e308, "kappa_s": -1.0, "delta_c": 1.7e308}, "kappa_s must be non-negative, got -1.0"),
        # The first bad field is named.
        ({"g": -1.0, "kappa_s": -2.0, "gamma": -3.0}, "g must be non-negative, got -1.0"),
        ({"g": 1.0, "kappa_s": -2.0, "gamma": -3.0}, "kappa_s must be non-negative, got -2.0"),
    ])
    def test_out_of_range_parameter_is_named(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CavityParams(**fields)

    @pytest.mark.parametrize("fields", [
        {"g": 0.0, "gamma": 1e308, "delta_c": 3.5},  # the modulus of dipole x cavity overflows
        {"g": 0.0, "gamma": 1.0, "delta_c": 1e308, "delta_x": 1.7e308},  # their product is infinite
        {"g": 0.0, "kappa_s": 1.7e308, "delta_c": 1.7e308},  # the cold cavity's modulus overflows
    ])
    def test_overflowing_coefficients_name_every_parameter(self, fields):
        params = CavityParams(**fields)
        named = ", ".join(f"{name} = {value}" for name, value in vars(params).items())
        with pytest.raises(ValueError, match=f"^the coefficients overflow at {re.escape(named)}$"):
            coefficients(params)

    def test_signed_zero_rates_are_accepted(self):
        CavityParams(g=-0.0, kappa_s=-0.0, gamma=-0.0)

    @pytest.mark.parametrize("name", ["g", "kappa_s", "gamma", "delta_c", "delta_x"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        fields = {"g": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CavityParams(**fields)


def all_photon_spin_inputs():
    return [
        ((pol, prop), spin)
        for pol in Polarization
        for prop in Propagation
        for spin in SpinBasis
    ]


class TestIdealScatter:
    def test_all_eight_rules(self):
        table = ideal_scatter()
        # Coupled combinations flip both labels with +1; uncoupled keep both
        # labels with -1.
        coupled = {((R, UP_Z), UP), ((L, DN_Z), UP), ((R, DN_Z), DOWN), ((L, UP_Z), DOWN)}
        for key in all_photon_spin_inputs():
            (pol, prop), spin = key
            terms = scatter_terms(table, key)
            assert len(terms) == 1
            out_pol, out_prop, out_spin, amp = terms[0]
            assert out_spin is spin
            if key in coupled:
                assert (out_pol, out_prop, amp) == (pol.flipped, prop.flipped, 1.0)
            else:
                assert (out_pol, out_prop, amp) == (pol, prop, -1.0)

    def test_named_examples(self):
        table = ideal_scatter()
        assert scatter_terms(table, ((R, UP_Z), UP)) == ((L, DN_Z, UP, 1.0),)
        assert scatter_terms(table, ((R, DN_Z), UP)) == ((R, DN_Z, UP, -1.0),)

    def test_involution(self, rng):
        fn = scatter_as_sited_map(ideal_scatter())
        state = random_state(rng, [[0]])
        twice = apply_sited_map(
            apply_sited_map(state, PhotonSpinSite(0), fn), PhotonSpinSite(0), fn
        )
        assert allclose(twice, state, 1e-12)

    def test_unitarity(self, rng):
        fn = scatter_as_sited_map(ideal_scatter())
        for _ in range(20):
            state = random_state(rng, [[0]])
            out = apply_sited_map(state, PhotonSpinSite(0), fn)
            assert abs(out.norm_squared() - state.norm_squared()) < 1e-12


class TestRealisticScatter:
    def test_ideal_limit_row(self):
        table = realistic_scatter(ScatterCoeffs(t=0.0, r=1.0, t0=-1.0, r0=0.0))
        terms = {
            (pol, prop, spin): amp
            for pol, prop, spin, amp in scatter_terms(table, ((R, UP_Z), UP))
        }
        assert terms[(L, DN_Z, UP)] == 1.0
        assert terms[(R, UP_Z, UP)] == 0.0

    def test_cold_splitting_row(self):
        table = realistic_scatter(ScatterCoeffs(t=0.0, r=1.0, t0=-0.8, r0=0.2))
        terms = dict(
            ((pol, prop, spin), amp) for pol, prop, spin, amp in scatter_terms(table, ((R, DN_Z), UP))
        )
        assert abs(terms[(R, DN_Z, UP)] - (-0.8)) < 1e-15
        assert abs(terms[(L, UP_Z, UP)] - (-0.2)) < 1e-15

    def test_hot_splitting_row(self):
        table = realistic_scatter(ScatterCoeffs(t=-0.0086, r=0.9914, t0=-0.8, r0=0.2))
        terms = dict(
            ((pol, prop, spin), amp) for pol, prop, spin, amp in scatter_terms(table, ((L, UP_Z), DOWN))
        )
        assert abs(terms[(R, DN_Z, DOWN)] - 0.9914) < 1e-15
        assert abs(terms[(L, UP_Z, DOWN)] - 0.0086) < 1e-15

    def test_reduces_to_ideal(self):
        real = realistic_scatter(ScatterCoeffs.ideal())
        ideal = ideal_scatter()
        for key in all_photon_spin_inputs():
            real_terms = {
                (pol, prop, spin): amp
                for pol, prop, spin, amp in scatter_terms(real, key)
                if amp != 0.0
            }
            ideal_terms = {
                (pol, prop, spin): amp for pol, prop, spin, amp in scatter_terms(ideal, key)
            }
            assert real_terms == ideal_terms

    def test_magnitude_validation(self):
        with pytest.raises(InvalidCoefficientError):
            realistic_scatter(ScatterCoeffs(t=0.0, r=1.2, t0=-1.0, r0=0.0))

    def test_norm_contraction(self, rng):
        for _ in range(30):
            # Resonance-style coefficient pairs automatically satisfy
            # |t|^2 + |r|^2 <= 1 and |t0|^2 + |r0|^2 <= 1.
            t = -rng.uniform(0.0, 1.0)
            t0 = -rng.uniform(0.0, 1.0)
            table = realistic_scatter(ScatterCoeffs(t=t, r=1 + t, t0=t0, r0=1 + t0))
            fn = scatter_as_sited_map(table)
            state = random_state(rng, [[0]])
            out = apply_sited_map(state, PhotonSpinSite(0), fn)
            assert out.norm_squared() <= state.norm_squared() + 1e-12

    def test_circuit_point_contraction(self):
        co = coefficients(CavityParams(g=2.4, kappa_s=0.5, gamma=0.1))
        fn = scatter_as_sited_map(realistic_scatter(co))
        state = from_ket(
            BasisKet((PhotonLabel(R, DN_Z, 0),), SpinBasis.UP)
        )
        out = apply_sited_map(state, PhotonSpinSite(0), fn)
        assert abs(out.norm_squared() - (0.64 + 0.04)) < 1e-12
