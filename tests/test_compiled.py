"""Compiled gate evaluation against the dict engine it is compiled from.

``gate_figures`` evaluates each gate as dense matrices recorded once per
input; the references in ``conftest`` run the dict engine gate by gate.
The two must agree to 1e-12 on any input, any resonant cavity and any
contractive set of coefficient magnitudes, and must fail the same way.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincavity import cli
from spincavity.cavity import CavityParams, InvalidCoefficientError, ScatterCoeffs, coefficients
from spincavity.circuits import QUBIT_PLUS, QUBIT_R, Gate, GateMode, QubitState, _compile, gate_figures
from spincavity.hilbert import DegenerateStateError, StructureError
from conftest import dict_efficiency, dict_fidelity

TOL = 1e-12
ARITY = {Gate.CNOT: 2, Gate.TOFFOLI: 3}

qubits = st.builds(
    lambda theta, phi: QubitState(
        math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))
    ),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)
gate_inputs = st.sampled_from(list(Gate)).flatmap(
    lambda gate: st.tuples(st.just(gate), st.tuples(*[qubits] * ARITY[gate]))
)
resonant_params = st.builds(
    CavityParams,
    g=st.floats(0.0, 10.0),
    kappa_s=st.floats(0.0, 2.0),
    gamma=st.floats(0.01, 2.0),
)


@st.composite
def contractive_coeffs(draw) -> ScatterCoeffs:
    """Magnitudes with |t| + |r| <= 1 and |t0| + |r0| <= 1, so every pass contracts."""
    t = draw(st.floats(0.0, 1.0))
    t0 = draw(st.floats(0.0, 1.0))
    return ScatterCoeffs(t=t, r=draw(st.floats(0.0, 1.0 - t)), t0=t0, r0=draw(st.floats(0.0, 1.0 - t0)))


def assert_agrees(gate, inputs, coeffs: ScatterCoeffs) -> None:
    mode = GateMode.with_coefficients(coeffs)
    try:
        want = (
            dict_fidelity(gate, inputs, mode),
            dict_fidelity(gate, inputs, mode, "pre-measurement"),
            dict_efficiency(gate, inputs, mode),
        )
    except DegenerateStateError:
        with pytest.raises(DegenerateStateError):
            gate_figures(gate, inputs, coeffs)
        return
    got = gate_figures(gate, inputs, coeffs)
    # Compared before renormalization: the dict engine drops amplitudes below
    # PRUNE_EPS at every step and the compiled path keeps them, so dividing by
    # a survival near zero would magnify that dust into the normalized figures.
    survival = want[2]
    assert abs(got.survival - survival) <= TOL
    assert abs(got.per_branch_averaged * got.survival - want[0] * survival) <= TOL
    assert abs(got.pre_measurement * got.survival - want[1] * survival) <= TOL


@settings(max_examples=40, deadline=None)
@given(gate_inputs, resonant_params)
def test_matches_dict_engine_on_resonance(gate_and_inputs, params):
    gate, inputs = gate_and_inputs
    assert_agrees(gate, inputs, coefficients(params))


@settings(max_examples=40, deadline=None)
@given(gate_inputs, contractive_coeffs())
def test_matches_dict_engine_on_contractive_magnitudes(gate_and_inputs, coeffs):
    gate, inputs = gate_and_inputs
    assert_agrees(gate, inputs, coeffs)


@pytest.mark.parametrize("gate", list(Gate))
def test_detuned_runs_fail_on_both_paths(gate):
    # Off resonance |t| + |r| exceeds one, so the magnitude-only table gains norm.
    params = CavityParams(g=2.4, kappa_s=0.5, delta_c=0.7, delta_x=-0.3)
    inputs = (QUBIT_PLUS,) * ARITY[gate]
    with pytest.raises(StructureError, match=r"^squared norm 1\.14083090880494\d* exceeds 1 \+ 1e-09$"):
        dict_efficiency(gate, inputs, GateMode.realistic(params))
    with pytest.raises(StructureError, match=r"^squared norm 1\.14083090880494\d* exceeds 1 \+ 1e-09$"):
        gate_figures(gate, inputs, coefficients(params))


def test_invalid_and_degenerate_coefficients_fail_like_the_dict_engine():
    inputs = (QUBIT_R, QUBIT_R)
    for coeffs in (ScatterCoeffs(t=0.0, r=1.2, t0=-1.0, r0=0.0), ScatterCoeffs(t=0.0, r=math.nan, t0=-1.0, r0=0.0)):
        with pytest.raises(InvalidCoefficientError):
            gate_figures(Gate.CNOT, inputs, coeffs)
    # A right-circular control enters the cavity whole; with every magnitude
    # zero nothing reaches the readout.
    assert_agrees(Gate.CNOT, inputs, ScatterCoeffs(t=0.0, r=0.0, t0=0.0, r0=0.0))


@pytest.mark.parametrize("convention", cli.FIDELITY_CONVENTIONS)
def test_sweep_sim_columns_match_the_dict_engine(convention):
    spec = cli.SweepSpec(
        g_over_kappa=cli.SweepRange(0.5, 3.0, 2),
        kappa_s_over_kappa=cli.SweepRange(0.2, 0.9, 2),
        outputs=cli.SIM_OUTPUTS,
        sim_convention=convention,
    )
    for row in cli.run_sweep(spec):
        mode = GateMode.realistic(CavityParams(g=row.g_over_kappa, kappa_s=row.kappa_s_over_kappa))
        want = []
        for gate in Gate:
            inputs = (QUBIT_PLUS,) * ARITY[gate]
            want.append((dict_fidelity(gate, inputs, mode, convention), dict_efficiency(gate, inputs, mode)))
        (f_cnot, eta_cnot), (f_toffoli, eta_toffoli) = want
        got = dict(zip(cli.SIM_OUTPUTS, row.values))
        assert abs(got["sim_f_cnot"] - f_cnot) <= TOL
        assert abs(got["sim_f_toffoli"] - f_toffoli) <= TOL
        assert abs(got["sim_eta_cnot"] - eta_cnot) <= TOL
        assert abs(got["sim_eta_toffoli"] - eta_toffoli) <= TOL


def test_second_sweep_reuses_the_compilation():
    spec = cli.SweepSpec(
        g_over_kappa=cli.SweepRange(1.0, 3.0, 2),
        kappa_s_over_kappa=cli.SweepRange(0.0, 0.5, 2),
        outputs=cli.ALL_OUTPUTS,
    )
    list(cli.run_sweep(spec))
    before = _compile.cache_info()
    list(cli.run_sweep(spec))
    after = _compile.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 8
