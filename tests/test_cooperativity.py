"""Strong and weak coupling: on resonance only the cooperativity counts.

On resonance the hot transmission is t = -kappa (gamma/2) / ((gamma/2)(kappa
+ kappa_s/2) + g^2) = -kappa / (kappa + kappa_s/2 + 2 g^2 / gamma), so every
figure depends on g and gamma only through C = g^2 / (kappa gamma), with
kappa_s / kappa. Scaling (g, gamma) to (s g, s^2 gamma) keeps C, which is
why the devices work in the weak coupling regime as in the strong one.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincavity.cavity import CavityParams, coefficients
from spincavity.circuits import QUBIT_PLUS, Gate, gate_figures
from spincavity.cli import ALL_OUTPUTS, SweepRange, SweepSpec, run_sweep
from spincavity.hilbert import DegenerateStateError
from spincavity.metrics import closed_form_figures

TOL = 1e-12


def sweep_rows(g_min: float, gamma: float) -> dict:
    """Every column of the rows at ``g_min``, for kappa_s / kappa of 0 and 0.5."""
    spec = SweepSpec(
        g_over_kappa=SweepRange(g_min, 2.0 * g_min, 2),
        kappa_s_over_kappa=SweepRange(0.0, 0.5, 2),
        gamma_over_kappa=gamma,
        outputs=ALL_OUTPUTS,
    )
    return {ks: values for g, ks, values in run_sweep(spec) if g == g_min}


def test_weak_coupling_reproduces_the_headline_row():
    # g = 0.24 is below (kappa + kappa_s) / 4 on both rows: weak coupling,
    # where the headline g = 2.4 is strong. gamma = 0.001 keeps C = 57.6.
    assert 0.24 < 1.0 / 4
    strong, weak = sweep_rows(2.4, 0.1), sweep_rows(0.24, 0.001)
    assert sorted(strong) == sorted(weak) == [0.0, 0.5]
    for kappa_s, values in strong.items():
        for name, want, got in zip(ALL_OUTPUTS, values, weak[kappa_s]):
            assert abs(got - want) <= TOL, (kappa_s, name, got, want)


@settings(max_examples=30, deadline=None)
@given(
    g=st.floats(0.0, 10.0),
    kappa_s=st.floats(0.0, 2.0),
    gamma=st.floats(0.01, 2.0),
    scale=st.floats(0.1, 10.0),
)
@example(g=0.0, kappa_s=2.0, gamma=0.1, scale=10.0)
def test_resonant_figures_keep_the_cooperativity(g, kappa_s, gamma, scale):
    """At g = 0 with kappa_s = 2 (the example) all four magnitudes are 1/2 and
    the Toffoli keeps no amplitude: ``gate_figures`` raises there, at either
    scale, while the CNOT survives."""
    base = coefficients(CavityParams(g=g, kappa_s=kappa_s, gamma=gamma))
    scaled = coefficients(CavityParams(g=scale * g, kappa_s=kappa_s, gamma=scale ** 2 * gamma))
    for want, got in zip(closed_form_figures(base), closed_form_figures(scaled)):
        assert abs(got - want) <= TOL
    failed = []
    for gate, arity in ((Gate.CNOT, 2), (Gate.TOFFOLI, 3)):
        inputs = (QUBIT_PLUS,) * arity
        try:
            want = gate_figures(gate, inputs, base)
        except DegenerateStateError as exc:
            assert str(exc) == "cannot measure a zero state"
            with pytest.raises(DegenerateStateError, match="^cannot measure a zero state$"):
                gate_figures(gate, inputs, scaled)
            failed.append(gate)
            continue
        for expected, got in zip(want, gate_figures(gate, inputs, scaled)):
            assert abs(got - expected) <= TOL
    if (g, kappa_s) == (0.0, 2.0):
        assert failed == [Gate.TOFFOLI]
