"""Optical and spin-control elements: routing, wave plates, switches, feed-forward."""

from __future__ import annotations

import math

import pytest

from spincavity.elements import (
    SINK,
    Pauli,
    RoutingRule,
    ScheduleExhaustedError,
    SwitchSchedule,
    feed_forward,
    hadamard_e,
    hadamard_p,
    pbs,
    phase_pi,
    switch_route,
)
from spincavity.hilbert import (
    BasisKet,
    IncompleteMapError,
    PhotonLabel,
    Polarization,
    Propagation,
    SpinBasis,
    StateError,
    StateVector,
)
from conftest import allclose, from_ket, random_state

R, L = Polarization.R, Polarization.L
UP_Z, DN_Z = Propagation.ALONG_Z, Propagation.AGAINST_Z
UP, DOWN = SpinBasis.UP, SpinBasis.DOWN
S2 = 1.0 / math.sqrt(2.0)


def one_photon(pol, prop=DN_Z, mode=0, spin=None):
    return from_ket(BasisKet((PhotonLabel(pol, prop, mode),), spin))


SPLITTER = RoutingRule(
    "input splitter", {(0, R): (2, DN_Z), (0, L): (1, DN_Z)}
)


class TestPbs:
    def test_transmits_right_into_the_cavity_path(self):
        out = pbs(one_photon(R, mode=0), 0, SPLITTER)
        assert out.amplitude(BasisKet((PhotonLabel(R, DN_Z, 2),), None)) == 1.0

    def test_reflects_left_into_the_bypass(self):
        out = pbs(one_photon(L, mode=0), 0, SPLITTER)
        assert out.amplitude(BasisKet((PhotonLabel(L, DN_Z, 1),), None)) == 1.0

    def test_rail_merge_keeps_labels(self):
        merge = RoutingRule("merge", {(3, R): (5, DN_Z), (4, L): (5, DN_Z)})
        out = pbs(one_photon(R, DN_Z, 3), 0, merge)
        assert out.amplitude(BasisKet((PhotonLabel(R, DN_Z, 5),), None)) == 1.0

    def test_untouched_modes_pass_through(self):
        state = one_photon(L, mode=7)
        assert allclose(pbs(state, 0, SPLITTER), state, 0)

    def test_incomplete_rule(self):
        partial = RoutingRule("partial", {(0, R): (2, DN_Z)})
        with pytest.raises(IncompleteMapError):
            pbs(one_photon(L, mode=0), 0, partial)

    def test_sink_drops_amplitude(self):
        rule = RoutingRule("sinking", {(0, R): (2, DN_Z), (0, L): SINK})
        out = pbs(one_photon(L, mode=0), 0, rule)
        assert not len(out)

    def test_injectivity_enforced(self):
        with pytest.raises(StateError):
            RoutingRule("broken", {(0, R): (2, DN_Z), (1, R): (2, DN_Z)})

    def test_malformed_keys_and_targets_rejected(self):
        # Keys are (mode, polarization), targets (mode, propagation) or SINK.
        for table in ({(0, R, DN_Z): (2, DN_Z)}, {(0,): (2, DN_Z)}, {(0, R): (2, DN_Z, -1.0)}, {(0, R): (2,)}):
            with pytest.raises(StateError):
                RoutingRule("broken", table)

    def test_inverse_rule_restores_the_state(self, rng):
        forward = RoutingRule("fwd", {(0, R): (2, DN_Z), (0, L): (1, UP_Z)})
        backward = RoutingRule("bwd", {(2, R): (0, DN_Z), (1, L): (0, DN_Z)})
        state = random_state(rng, [[0]], with_spin=False)
        # Input direction is the canonical one so the round trip is exact.
        state = StateVector(
            {
                BasisKet((PhotonLabel(k.photons[0].polarization, DN_Z, 0),), None): v
                for k, v in state.items()
            }
        )
        assert allclose(pbs(pbs(state, 0, forward), 0, backward), state, 1e-12)

    def test_unitary_on_kept_labels(self, rng):
        # A physical port carries one propagation direction.
        amps = {}
        for pol in (R, L):
            for spin in (UP, DOWN):
                amps[BasisKet((PhotonLabel(pol, DN_Z, 0),), spin)] = complex(
                    rng.gauss(0, 1), rng.gauss(0, 1)
                )
        norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
        state = StateVector({k: v / norm for k, v in amps.items()})
        out = pbs(state, 0, SPLITTER)
        assert abs(out.norm_squared() - state.norm_squared()) < 1e-12

    def test_beam_collapse_rejected(self):
        # Both directions present at one port under a direction-erasing rule
        # would merge distinct beams; the element refuses.
        state = StateVector(
            {
                BasisKet((PhotonLabel(R, DN_Z, 0),), None): 0.6,
                BasisKet((PhotonLabel(R, UP_Z, 0),), None): 0.8,
            }
        )
        with pytest.raises(StateError):
            pbs(state, 0, SPLITTER)


class TestHadamards:
    def test_photon_rotation(self):
        out = hadamard_p(one_photon(R), 0)
        assert abs(out.amplitude(BasisKet((PhotonLabel(R, DN_Z, 0),), None)) - S2) < 1e-12
        assert abs(out.amplitude(BasisKet((PhotonLabel(L, DN_Z, 0),), None)) - S2) < 1e-12
        out = hadamard_p(one_photon(L), 0)
        assert abs(out.amplitude(BasisKet((PhotonLabel(L, DN_Z, 0),), None)) + S2) < 1e-12

    def test_photon_involution(self, rng):
        state = random_state(rng, [[0]])
        assert allclose(hadamard_p(hadamard_p(state, 0), 0), state, 1e-12)

    def test_mode_restriction(self):
        state = one_photon(R, mode=1)
        assert allclose(hadamard_p(state, 0, modes={2}), state, 0)

    def test_spin_rotation(self):
        state = from_ket(BasisKet((), UP))
        out = hadamard_e(state)
        assert abs(out.amplitude(BasisKet((), UP)) - S2) < 1e-12
        assert abs(out.amplitude(BasisKet((), DOWN)) - S2) < 1e-12
        state = from_ket(BasisKet((), DOWN))
        out = hadamard_e(state)
        assert abs(out.amplitude(BasisKet((), DOWN)) + S2) < 1e-12

    def test_spin_involution(self, rng):
        state = random_state(rng, [[0]])
        assert allclose(hadamard_e(hadamard_e(state)), state, 1e-12)


class TestPhasePi:
    def test_sign_flip_on_the_mode(self):
        out = phase_pi(one_photon(R, DN_Z, 19), 0, 19)
        assert out.amplitude(BasisKet((PhotonLabel(R, DN_Z, 19),), None)) == -1.0

    def test_double_application_is_identity(self, rng):
        state = random_state(rng, [[19, 20]])
        assert allclose(phase_pi(phase_pi(state, 0, 19), 0, 19), state, 1e-15)

    def test_other_modes_untouched(self):
        state = one_photon(R, DN_Z, 5)
        assert allclose(phase_pi(state, 0, 19), state, 0)


class TestSwitch:
    SCHEDULE = SwitchSchedule("S1", ({11: 12}, {11: 14}, {11: 12}))

    def test_epochs_in_order(self):
        for pass_index, target in ((0, 12), (1, 14), (2, 12)):
            out = switch_route(one_photon(R, DN_Z, 11), 0, self.SCHEDULE, pass_index)
            assert out.amplitude(BasisKet((PhotonLabel(R, DN_Z, target),), None)) == 1.0

    def test_labels_otherwise_kept(self):
        out = switch_route(one_photon(L, UP_Z, 11), 0, self.SCHEDULE, 0)
        assert out.amplitude(BasisKet((PhotonLabel(L, UP_Z, 12),), None)) == 1.0

    def test_exhausted_schedule(self):
        with pytest.raises(ScheduleExhaustedError):
            switch_route(one_photon(R, DN_Z, 11), 0, self.SCHEDULE, 3)

    def test_unitary(self, rng):
        state = random_state(rng, [[11, 8]])
        out = switch_route(state, 0, self.SCHEDULE, 0)
        assert abs(out.norm_squared() - state.norm_squared()) < 1e-12


class TestFeedForward:
    RULE = {
        UP: (),
        DOWN: ((0, Pauli.SIGMA_Z),),
    }

    def test_sigma_z_on_superposition(self):
        plus = StateVector(
            {
                BasisKet((PhotonLabel(R, DN_Z, 0),), None): S2,
                BasisKet((PhotonLabel(L, DN_Z, 0),), None): S2,
            }
        )
        out = feed_forward(plus, DOWN, self.RULE)
        assert abs(out.amplitude(BasisKet((PhotonLabel(R, DN_Z, 0),), None)) - S2) < 1e-12
        assert abs(out.amplitude(BasisKet((PhotonLabel(L, DN_Z, 0),), None)) + S2) < 1e-12

    def test_sigma_x_flips(self):
        rule = {UP: ((0, Pauli.SIGMA_X),)}
        out = feed_forward(one_photon(L), UP, rule)
        assert out.amplitude(BasisKet((PhotonLabel(R, DN_Z, 0),), None)) == 1.0

    def test_minus_sigma_z(self):
        rule = {UP: ((0, Pauli.MINUS_SIGMA_Z),)}
        out = feed_forward(one_photon(R), UP, rule)
        assert out.amplitude(BasisKet((PhotonLabel(R, DN_Z, 0),), None)) == -1.0

    def test_no_op_branch(self, rng):
        state = random_state(rng, [[0]], with_spin=False)
        assert allclose(feed_forward(state, UP, self.RULE), state, 0)

    def test_unitary(self, rng):
        state = random_state(rng, [[0]], with_spin=False)
        out = feed_forward(state, DOWN, self.RULE)
        assert abs(out.norm_squared() - state.norm_squared()) < 1e-12

