"""State-vector substrate: products, overlaps, sited maps, measurement, serialization."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spincavity.cavity import ScatterCoeffs, ideal_scatter, realistic_scatter
from spincavity.elements import hadamard_p
from spincavity.hilbert import (
    BasisKet,
    DegenerateStateError,
    IncompleteMapError,
    PhotonLabel,
    PhotonSite,
    PhotonSpinSite,
    Polarization,
    Propagation,
    SpinBasis,
    StateVector,
    StructureError,
    _layout,
    apply_sited_map,
    measure_spin,
    serialize,
)
from conftest import (
    allclose,
    deserialize,
    equal_up_to_global_phase,
    fidelity,
    from_ket,
    inner_product,
    lincomb,
    norm,
    random_state,
    scaled,
    scatter_as_sited_map,
    serialize_lines,
    sort_key,
)

R, L = Polarization.R, Polarization.L
UP_Z, DN_Z = Propagation.ALONG_Z, Propagation.AGAINST_Z
UP, DOWN = SpinBasis.UP, SpinBasis.DOWN
S2 = 1.0 / math.sqrt(2.0)


def photon(pol, prop=DN_Z, mode=0):
    return PhotonLabel(pol, prop, mode)


def ket(*photons, spin=None):
    return BasisKet(tuple(photons), spin)


class TestInnerProduct:
    def test_normalized_basis_ket(self):
        a = from_ket(ket(photon(R), spin=DOWN))
        assert inner_product(a, a) == 1.0

    def test_orthogonality(self):
        a = from_ket(ket(photon(R), spin=DOWN))
        b = from_ket(ket(photon(L), spin=DOWN))
        assert inner_product(a, b) == 0.0

    def test_projection(self):
        plus = StateVector({ket(photon(R)): S2, ket(photon(L)): S2})
        r = from_ket(ket(photon(R)))
        assert abs(inner_product(plus, r) - S2) < 1e-12

    def test_conjugate_symmetry(self, rng):
        a = random_state(rng, [[0]])
        b = random_state(rng, [[0]])
        assert abs(inner_product(a, b) - inner_product(b, a).conjugate()) < 1e-12

    def test_structure_mismatch(self):
        a = from_ket(ket(photon(R)))
        b = from_ket(ket(photon(R), photon(L, mode=1)))
        with pytest.raises(StructureError):
            inner_product(a, b)


class TestFidelity:
    def test_self_overlap(self, rng):
        psi = random_state(rng, [[0]])
        assert abs(fidelity(psi, psi) - 1.0) < 1e-9

    def test_orthogonal(self):
        a = from_ket(ket(photon(R)))
        b = from_ket(ket(photon(L)))
        assert fidelity(a, b) == 0.0

    def test_normalize_removes_global_scale(self):
        r = from_ket(ket(photon(R)))
        shrunk = scaled(r, 0.9)
        assert abs(fidelity(shrunk, r, normalize=True) - 1.0) < 1e-12
        assert abs(fidelity(shrunk, r) - 0.81) < 1e-12

    def test_zero_state_with_normalize(self):
        zero = StateVector({}, photon_count=1, has_spin=False)
        ref = from_ket(ket(photon(R)))
        with pytest.raises(DegenerateStateError):
            fidelity(zero, ref, normalize=True)


class TestSitedMaps:
    def test_identity(self, rng):
        state = random_state(rng, [[0]])
        out = apply_sited_map(state, PhotonSite(0), lambda lab: ((lab, 1.0),))
        assert allclose(out, state, 1e-15)

    def test_polarization_hadamard_on_first_photon(self):
        state = from_ket(
            ket(photon(R, mode=0), photon(R, mode=1), spin=DOWN)
        )
        out = hadamard_p(state, 0)
        assert abs(out.amplitude(ket(photon(R, mode=0), photon(R, mode=1), spin=DOWN)) - S2) < 1e-12
        assert abs(out.amplitude(ket(photon(L, mode=0), photon(R, mode=1), spin=DOWN)) - S2) < 1e-12

    def test_lossy_scatter_amplitudes(self):
        # Uncoupled photon under 80/20 cold-cavity splitting keeps most of
        # its amplitude on the transmitted label and loses 32% of the norm.
        coeffs = ScatterCoeffs(t=0.0, r=1.0, t0=-0.8, r0=0.2)
        state = from_ket(ket(photon(R, DN_Z), spin=UP))
        out = apply_sited_map(state, PhotonSpinSite(0), scatter_as_sited_map(realistic_scatter(coeffs)))
        assert abs(out.amplitude(ket(photon(R, DN_Z), spin=UP)) - (-0.8)) < 1e-12
        assert abs(out.amplitude(ket(photon(L, UP_Z), spin=UP)) - (-0.2)) < 1e-12
        assert abs(out.norm_squared() - 0.68) < 1e-12

    def test_incomplete_map(self):
        state = from_ket(ket(photon(R)))
        with pytest.raises(IncompleteMapError):
            apply_sited_map(state, PhotonSite(0), lambda lab: None)

    def test_linearity(self, rng):
        a = random_state(rng, [[0]])
        b = random_state(rng, [[0]])
        alpha, beta = complex(0.31, 0.17), complex(-0.22, 0.41)
        table = scatter_as_sited_map(ideal_scatter())
        left = apply_sited_map(lincomb([(alpha, a), (beta, b)]), PhotonSpinSite(0), table)
        right = lincomb(
            [
                (alpha, apply_sited_map(a, PhotonSpinSite(0), table)),
                (beta, apply_sited_map(b, PhotonSpinSite(0), table)),
            ]
        )
        assert allclose(left, right, 1e-12)

    def test_site_out_of_range(self):
        state = from_ket(ket(photon(R)))
        with pytest.raises(StructureError):
            apply_sited_map(state, PhotonSite(1), lambda lab: ((lab, 1.0),))


class TestMeasureSpin:
    def test_equal_branches(self):
        state = StateVector(
            {ket(photon(R), spin=UP): S2, ket(photon(L), spin=DOWN): S2}
        )
        branches = measure_spin(state)
        assert [b[0] for b in branches] == [UP, DOWN]
        for outcome, probability, post in branches:
            assert abs(probability - 0.5) < 1e-12
            assert abs(norm(post) - 1.0) < 1e-12
            assert not post.has_spin
        assert branches[0][2].amplitude(ket(photon(R))) == 1.0
        assert branches[1][2].amplitude(ket(photon(L))) == 1.0

    def test_deterministic_branch(self):
        state = from_ket(ket(photon(R), spin=DOWN))
        branches = measure_spin(state)
        assert len(branches) == 1
        outcome, probability, post = branches[0]
        assert outcome is DOWN and abs(probability - 1.0) < 1e-12
        assert post.amplitude(ket(photon(R))) == 1.0

    def test_control_basis_input_pins_the_spin(self):
        # Joint state of a control photon in R with an equal-superposition
        # target, as produced just before the readout: the spin is purely up.
        c = photon(R, DN_Z, 6)
        state = StateVector(
            {
                ket(c, photon(R, DN_Z, 9), spin=UP): S2,
                ket(c, photon(L, UP_Z, 9), spin=UP): S2,
            }
        )
        branches = measure_spin(state)
        assert len(branches) == 1
        outcome, probability, post = branches[0]
        assert outcome is UP and abs(probability - 1.0) < 1e-12
        assert abs(post.amplitude(ket(c, photon(R, DN_Z, 9))) - S2) < 1e-12
        assert abs(post.amplitude(ket(c, photon(L, UP_Z, 9))) - S2) < 1e-12

    def test_probabilities_sum_to_one(self, rng):
        state = random_state(rng, [[0]])
        branches = measure_spin(state)
        assert abs(sum(b[1] for b in branches) - 1.0) < 1e-12
        for _, _, post in branches:
            assert abs(norm(post) - 1.0) < 1e-12

    def test_zero_state(self):
        zero = StateVector({}, photon_count=1, has_spin=True)
        with pytest.raises(DegenerateStateError):
            measure_spin(zero)


class TestStateVector:
    def test_prunes_dust(self):
        state = StateVector(
            {ket(photon(R)): 1e-13}, photon_count=1, has_spin=False
        )
        assert not len(state)

    def test_norm_cap(self):
        with pytest.raises(StructureError):
            StateVector({ket(photon(R)): 1.5})

    @pytest.mark.parametrize("value", [math.nan, complex(0.0, math.nan), complex(math.nan, 0.5)])
    def test_nan_amplitude_is_not_dust(self, value):
        with pytest.raises(StructureError, match="not a number"):
            StateVector({ket(photon(R)): value, ket(photon(L)): 0.6})

    @pytest.mark.parametrize("value", [math.inf, complex(0.0, -math.inf), complex(math.inf, math.nan)])
    def test_infinite_amplitude_rejected(self, value):
        with pytest.raises(StructureError):
            StateVector({ket(photon(R)): value})

    def test_mixed_structure_rejected(self):
        with pytest.raises(StructureError):
            StateVector({ket(photon(R)): 0.5, ket(photon(R), spin=UP): 0.5})

    def test_items_are_sorted(self, rng):
        state = random_state(rng, [[0, 1]])
        keys = [sort_key(k) for k, _ in state.items()]
        assert keys == sorted(keys)


class TestSerialization:
    def test_format(self):
        state = StateVector(
            {
                ket(photon(R, DN_Z, 2), photon(L, UP_Z, 4), spin=DOWN): complex(0.5, -0.25)
            }
        )
        assert serialize(state) == "R/d/2,L/u/4 | d : 0.5,-0.25"

    def test_round_trip_is_exact(self, rng):
        state = random_state(rng, [[0], [1, 2]])
        back = deserialize(serialize(state))
        for k, v in state.items():
            assert back.amplitude(k) == v

    def test_spinless_round_trip(self):
        state = StateVector({ket(photon(R)): 0.6, ket(photon(L)): 0.8})
        assert allclose(deserialize(serialize(state)), state, 0)


@st.composite
def states(draw):
    """Normalized states of random structure over up to 24 kets, modes 0-23."""
    photon_count = draw(st.integers(0, 3))
    spins = st.sampled_from(SpinBasis) if draw(st.booleans()) else st.none()
    labels = st.builds(
        PhotonLabel, st.sampled_from(Polarization), st.sampled_from(Propagation), st.integers(0, 23)
    )
    kets = st.builds(BasisKet, st.tuples(*[labels] * photon_count), spins)
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    amps = draw(st.dictionaries(kets, st.builds(complex, parts, parts), min_size=1, max_size=24))
    largest = max(abs(v) for v in amps.values())
    assume(largest > 0.0)
    # Divide by the largest magnitude first: squaring subnormal amplitudes loses
    # precision, and a norm taken from them would leave the state above norm one.
    amps = {k: v / largest for k, v in amps.items()}
    norm = math.sqrt(sum(abs(v) ** 2 for v in amps.values()))
    return StateVector({k: v / norm for k, v in amps.items()})


def reference_serialize(state: StateVector) -> str:
    """The serialization format as first written: one f-string per sorted ket."""
    def token(ket):
        photons = ",".join(
            f"{p.polarization.name}/{'u' if p.propagation is UP_Z else 'd'}/{p.mode}"
            for p in ket.photons
        )
        return f"{photons} | {'-' if ket.spin is None else 'ud'[ket.spin]}"

    return "\n".join(f"{token(k)} : {v.real:.17g},{v.imag:.17g}" for k, v in sorted(state._amps.items()))


#: Amplitude parts where formatting could go wrong: signed zeros, subnormals,
#: the least normal, and the doubles next to one.
EDGE_PARTS = (
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, 2.2250738585072014e-308,
    1.0, -1.0, 0.9999999999999999, -0.9999999999999999, 1.0000000000000002, 1e-12,
)


_edge_parts = st.one_of(st.sampled_from(EDGE_PARTS), st.floats(-1.0, 1.0), st.floats(-1e-307, 1e-307))
edge_amplitudes = st.builds(complex, _edge_parts, _edge_parts)


@st.composite
def edge_states(draw):
    """States of random structure whose amplitude parts favour :data:`EDGE_PARTS`.

    Built without the constructor's pruning and norm cap: serialization
    formats whatever amplitudes a state holds.
    """
    photon_count = draw(st.integers(0, 3))
    has_spin = draw(st.booleans())
    labels = st.builds(
        PhotonLabel, st.sampled_from(Polarization), st.sampled_from(Propagation), st.integers(0, 12)
    )
    kets = st.builds(
        BasisKet, st.tuples(*[labels] * photon_count),
        st.sampled_from(SpinBasis) if has_spin else st.none(),
    )
    amps = draw(st.dictionaries(kets, edge_amplitudes, max_size=8))
    if draw(st.booleans()):  # one amplitude on every ket
        amps = dict.fromkeys(amps, draw(edge_amplitudes))
    return StateVector._checked(amps, photon_count, has_spin)


class TestSerializeFormat:
    @settings(max_examples=200, deadline=None)
    @given(edge_states())
    def test_matches_the_reference_format(self, state):
        assert serialize(state) == reference_serialize(state)

    @settings(max_examples=200, deadline=None)
    @given(edge_states(), st.data())
    def test_cached_layouts_match_the_line_by_line_spec(self, state, data):
        # The first call builds the layout of the state's kets; the second reuses
        # it for other amplitudes over the same kets in the same order.
        _layout.cache_clear()
        assert serialize(state) == serialize_lines(state)
        values = data.draw(st.lists(edge_amplitudes, min_size=len(state), max_size=len(state)))
        other = StateVector._checked(dict(zip(state._amps, values)), state.photon_count, state.has_spin)
        assert serialize(other) == serialize_lines(other)
        assert _layout.cache_info()[:2] == (1, 1)  # one hit, one miss

    def test_edge_parts_keep_their_signs_and_digits(self):
        state = StateVector._checked(
            {ket(photon(R)): complex(-0.0, 5e-324), ket(photon(L)): complex(0.9999999999999999, -0.0)},
            1, False,
        )
        assert serialize(state) == "R/d/0 | - : -0,4.9406564584124654e-324\nL/d/0 | - : 0.99999999999999989,-0"
        assert serialize(state) == reference_serialize(state)


class TestOrderProperties:
    @settings(max_examples=200, deadline=None)
    @given(states())
    def test_items_follow_sort_key(self, state):
        kets = [k for k, _ in state.items()]
        assert kets == sorted(kets, key=sort_key)

    @settings(max_examples=200, deadline=None)
    @given(states())
    def test_serialization_is_a_fixed_point(self, state):
        text = serialize(state)
        assert serialize(deserialize(text)) == text


class TestGlobalPhase:
    def test_phase_factor_is_ignored(self, rng):
        state = random_state(rng, [[0]])
        rotated = scaled(state, complex(math.cos(1.1), math.sin(1.1)))
        assert equal_up_to_global_phase(state, rotated)
        assert not allclose(state, rotated)

    def test_distinct_states_differ(self):
        a = from_ket(ket(photon(R)))
        b = from_ket(ket(photon(L)))
        assert not equal_up_to_global_phase(a, b)
