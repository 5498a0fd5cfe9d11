"""Compiled gate evaluation against the dict engine it is compiled from.

``gate_figures`` and ``stacked_figures`` evaluate each gate as
polynomials in the coefficient magnitudes, compiled once per input; the
references in ``conftest`` run the dict engine gate by gate. The two must
agree to 1e-12 on any input, any resonant cavity and any contractive set of
coefficient magnitudes, in batches as point by point, and must fail the
same way. ``stacked_figures`` evaluates several gates at once and must agree
with evaluating them one after another.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincavity import circuits, cli
from spincavity.cavity import CavityParams, InvalidCoefficientError, ScatterCoeffs, coefficients, realistic_scatter
from spincavity.circuits import (
    QUBIT_L,
    QUBIT_PLUS,
    QUBIT_R,
    Gate,
    GateMode,
    QubitState,
    _GENERIC_POINTS,
    _GENERIC_QUBITS,
    _compile,
    _run,
    _stack,
    gate_figures,
    stacked_figures,
)
from spincavity.hilbert import DegenerateStateError, StateError, StructureError
from conftest import dict_efficiency, dict_fidelity, dict_figures

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


mixed_coeffs = st.one_of(resonant_params.map(coefficients), contractive_coeffs())


def assert_agrees(gate, inputs, coeffs: ScatterCoeffs) -> None:
    mode = GateMode(coeffs)
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
    for g, kappa_s, values in cli.run_sweep(spec):
        mode = GateMode.realistic(CavityParams(g=g, kappa_s=kappa_s))
        want = []
        for gate in Gate:
            inputs = (QUBIT_PLUS,) * ARITY[gate]
            want.append((dict_fidelity(gate, inputs, mode, convention), dict_efficiency(gate, inputs, mode)))
        (f_cnot, eta_cnot), (f_toffoli, eta_toffoli) = want
        got = dict(zip(cli.SIM_OUTPUTS, values))
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
    before = _compile.cache_info(), _stack.cache_info()
    list(cli.run_sweep(spec))
    after = _compile.cache_info(), _stack.cache_info()
    assert [info.misses for info in after] == [info.misses for info in before]
    # One lookup of both sim gates stacked per chunk of points; the 2x2 grid
    # is one chunk, and the stack holds its compiled gates.
    assert after[1].hits == before[1].hits + 1
    assert after[0].hits == before[0].hits


@settings(max_examples=25, deadline=None)
@given(gate_inputs, st.lists(mixed_coeffs, min_size=1, max_size=40))
def test_batches_match_the_dict_engine_point_by_point(gate_and_inputs, coeffs_seq):
    gate, inputs = gate_and_inputs
    ideal = _run(gate, inputs, GateMode.ideal())
    try:
        want = [dict_figures(gate, inputs, GateMode(c), ideal) for c in coeffs_seq]
    except DegenerateStateError:
        with pytest.raises(DegenerateStateError):
            stacked_figures(((gate, inputs),), [c.magnitudes for c in coeffs_seq])
        return
    (got,) = stacked_figures(((gate, inputs),), [c.magnitudes for c in coeffs_seq])
    assert len(got) == len(want)
    for figures, (per_branch, pre, survival) in zip(got, want):
        # Compared before renormalization, as in assert_agrees.
        assert abs(figures.survival - survival) <= TOL
        assert abs(figures.per_branch_averaged * figures.survival - per_branch * survival) <= TOL
        assert abs(figures.pre_measurement * figures.survival - pre * survival) <= TOL


@contextlib.contextmanager
def compiled_at(monkeypatch, points):
    """Gates compiled meanwhile at the generic ``points``."""
    monkeypatch.setattr(circuits, "_GENERIC_POINTS", points)
    # No compile made at other generic points may serve it, nor outlive it.
    _compile.cache_clear()
    _stack.cache_clear()
    try:
        yield
    finally:
        _compile.cache_clear()
        _stack.cache_clear()


def assert_agrees_compiled_at(monkeypatch, points, gate, inputs, coeffs):
    """:func:`assert_agrees`, with the gate compiled at the generic ``points``."""
    with compiled_at(monkeypatch, points):
        assert_agrees(gate, inputs, coeffs)


#: How a compile refuses generic runs that keep different kets.
DIFFERENT_PATHS = r"^the generic runs of the (CNOT|Toffoli) record different paths$"


@pytest.mark.parametrize("gate", list(Gate))
def test_compiles_at_generic_points_whose_magnitudes_coincide(monkeypatch, gate):
    # A logged edge names its part of a cavity pass by the table slot of its
    # amplitude, not by the amplitude's value, so the magnitudes of a point may
    # coincide, and the CNOT compiles there. At |t| = |r| and |t0| = |r0| some
    # Toffoli kets cancel that the second point keeps: its two generic runs
    # record different paths, and the compile refuses.
    points = (ScatterCoeffs(t=0.29, r=0.29, t0=0.41, r0=0.41), _GENERIC_POINTS[1])
    inputs = (QubitState(0.6, 0.8), QUBIT_R, QUBIT_PLUS)[:ARITY[gate]]
    resonant = coefficients(CavityParams(g=2.4, kappa_s=0.5))
    if gate is Gate.TOFFOLI:
        with compiled_at(monkeypatch, points), pytest.raises(StructureError, match=DIFFERENT_PATHS):
            gate_figures(gate, inputs, resonant)
        return
    for coeffs in (resonant, ScatterCoeffs(t=0.1, r=0.7, t0=0.5, r0=0.2)):
        assert_agrees_compiled_at(monkeypatch, points, gate, inputs, coeffs)


#: On resonance (|t| + |r| = |t0| + |r0| = 1) amplitudes cancel between kets.
RESONANT_POINTS = (ScatterCoeffs(t=0.3, r=0.7, t0=0.6, r0=0.4), ScatterCoeffs(t=0.2, r=0.8, t0=0.9, r0=0.1))


@pytest.mark.parametrize("points", [(RESONANT_POINTS[0], _GENERIC_POINTS[0]), RESONANT_POINTS])
@pytest.mark.parametrize("gate", list(Gate))
def test_compiles_where_the_generic_runs_cancel_kets(monkeypatch, gate, points):
    # At a resonant first point kets cancel that a generic second point keeps:
    # the runs record different paths, and the compile refuses rather than
    # drop those kets. Two resonant points cancel the same kets; the gate
    # compiled there agrees with the dict engine on resonance.
    coeffs = coefficients(CavityParams(g=2.4, kappa_s=0.5))
    inputs = (QUBIT_PLUS,) * ARITY[gate]
    if points == RESONANT_POINTS:
        assert_agrees_compiled_at(monkeypatch, points, gate, inputs, coeffs)
        return
    with compiled_at(monkeypatch, points), pytest.raises(StructureError, match=DIFFERENT_PATHS):
        gate_figures(gate, inputs, coeffs)


def test_generic_points_that_cancel_different_kets_refuse_to_compile(monkeypatch):
    # Each of these points cancels Toffoli kets that the other keeps. Compiled
    # over the union of both supports, without those kets' edges, the gate on
    # (0.6:0.8, R, +) at g 2.4, kappa_s 0.5 would survive with 0.40804, where
    # the dict engine gives 0.41030; the self-check at the generic points alone
    # cannot see that.
    points = (ScatterCoeffs(t=0.29, r=0.29, t0=0.41, r0=0.41), ScatterCoeffs(t=0.41, r=0.29, t0=0.29, r0=0.41))
    coeffs = coefficients(CavityParams(g=2.4, kappa_s=0.5))
    inputs = (QubitState(0.6, 0.8), QUBIT_R, QUBIT_PLUS)
    assert abs(dict_efficiency(Gate.TOFFOLI, inputs, GateMode(coeffs)) - 0.41030) < 5e-6
    with compiled_at(monkeypatch, points), pytest.raises(StructureError, match=DIFFERENT_PATHS):
        gate_figures(Gate.TOFFOLI, inputs, coeffs)


#: Every configuration the compile records: a gate and, per qubit, right- or
#: left-circular or superposed, which the compile runs as its generic stand-in.
CONFIGURATIONS = [
    (gate, tuple(generic if q is None else q for q, generic in zip(choice, _GENERIC_QUBITS)))
    for gate in Gate
    for choice in itertools.product((QUBIT_R, QUBIT_L, None), repeat=ARITY[gate])
]


def generic_path(gate, inputs, coeffs):
    """The path the replay recorder builds of the gate's run at ``coeffs``."""
    return circuits._interpret(circuits._PROGRAMS[gate], inputs, realistic_scatter(coeffs), [])[2]


@functools.cache
def shipped_paths():
    return [[generic_path(gate, inputs, point) for point in _GENERIC_POINTS] for gate, inputs in CONFIGURATIONS]


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32).map(random.Random))
def test_shipped_generic_points_record_the_path_of_any_generic_point(rng):
    # A generic point keeps every ket that any point reaches. Magnitudes in
    # [0.05, 0.45] keep |t| + |r| and |t0| + |r0| below one, away from
    # resonance; they are drawn uniformly from a seeded generator, because
    # coincidences such as |t| = |r| or |t| + |r| = |t0| + |r0| cancel kets.
    point = ScatterCoeffs(*(rng.uniform(0.05, 0.45) for _ in range(4)))
    assert len(CONFIGURATIONS) == 36
    for (gate, inputs), shipped in zip(CONFIGURATIONS, shipped_paths()):
        path = generic_path(gate, inputs, point)
        assert path is not None
        assert shipped == [path] * len(_GENERIC_POINTS)


def test_input_amplitude_near_the_pruning_threshold():
    # Amplitudes of about 6e-12 fall below the dict engine's 1e-12 pruning
    # threshold within a few passes at the generic compile points, yet stay
    # whole at a lossless point; the compiled supports must still hold them.
    inputs = (QubitState(1.0, 6.114851374003252e-12), QUBIT_R, QUBIT_R)
    assert_agrees(Gate.TOFFOLI, inputs, coefficients(CavityParams(g=0.0, kappa_s=0.0, gamma=1.0)))


@pytest.mark.parametrize("convention", cli.FIDELITY_CONVENTIONS)
def test_sweep_over_several_chunks_equals_point_by_point(convention):
    spec = cli.SweepSpec(
        g_over_kappa=cli.SweepRange(0.0, 5.0, 11),
        kappa_s_over_kappa=cli.SweepRange(0.0, 1.0, 7),
        outputs=cli.ALL_OUTPUTS,
        sim_convention=convention,
    )
    rows = list(cli.run_sweep(spec))
    assert len(rows) == 77 > cli.SWEEP_CHUNK
    # Not bit for bit: the matrix product may sum in another order for
    # another batch width, which moves the last bits.
    for g, kappa_s, values in rows:
        coeffs = coefficients(CavityParams(g=g, kappa_s=kappa_s))
        got = dict(zip(cli.ALL_OUTPUTS, values))
        for gate, f_name, eta_name in (
            (Gate.CNOT, "sim_f_cnot", "sim_eta_cnot"),
            (Gate.TOFFOLI, "sim_f_toffoli", "sim_eta_toffoli"),
        ):
            want = gate_figures(gate, (QUBIT_PLUS,) * ARITY[gate], coeffs)
            assert abs(got[f_name] - want.fidelity(convention)) <= TOL
            assert abs(got[eta_name] - want.survival) <= TOL


def test_batch_fails_with_its_first_bad_point():
    good = coefficients(CavityParams(g=2.4, kappa_s=0.5))
    too_large = ScatterCoeffs(t=0.0, r=1.2, t0=-1.0, r0=0.0)
    not_a_number = ScatterCoeffs(t=math.nan, r=1.0, t0=-1.0, r0=0.0)
    detuned = coefficients(CavityParams(g=2.4, kappa_s=0.5, delta_c=0.7, delta_x=-0.3))
    inputs = (QUBIT_PLUS, QUBIT_PLUS)

    def first_error(points):
        """Evaluate ``points`` one by one and as a batch; both must fail alike."""
        with pytest.raises(Exception) as one_by_one:
            for point in points:
                gate_figures(Gate.CNOT, inputs, point)
        with pytest.raises(type(one_by_one.value)) as batched:
            stacked_figures(((Gate.CNOT, inputs),), [point.magnitudes for point in points])
        assert str(batched.value) == str(one_by_one.value)
        return batched.value

    error = first_error([good, good, too_large, not_a_number, good])
    assert isinstance(error, InvalidCoefficientError)
    assert str(error) == "|r| = 1.2 exceeds 1"
    error = first_error([good, not_a_number, too_large])
    assert str(error) == "|t| = nan exceeds 1"
    error = first_error([good, detuned, too_large])
    assert isinstance(error, StructureError)
    assert str(error).startswith("squared norm 1.14083090880494")


#: Magnitudes no larger than one in any combination: many passes gain norm,
#: and at small ones some inputs reach the readout with nothing.
any_magnitudes = st.builds(ScatterCoeffs, *[st.floats(0.0, 1.0)] * 4)
invalid_coeffs = st.sampled_from(
    [ScatterCoeffs(t=0.0, r=1.2, t0=-1.0, r0=0.0), ScatterCoeffs(t=0.0, r=math.nan, t0=-1.0, r0=0.0)]
)


@st.composite
def chunks(draw) -> list[ScatterCoeffs]:
    """1-40 points: resonant or contractive ones, at most one point of any magnitudes up
    to one (many gain norm) and at most one invalid point."""
    points = draw(st.lists(mixed_coeffs, min_size=1, max_size=38))
    for extra in (any_magnitudes, invalid_coeffs):
        if draw(st.booleans()):
            points.insert(draw(st.integers(0, len(points))), draw(extra))
    return points


def one_after_another(kinds, points):
    """Each kind's figures, or the error, from evaluating the kinds in turn."""
    try:
        return [stacked_figures(((gate, inputs),), [p.magnitudes for p in points])[0] for gate, inputs in kinds]
    except StateError as exc:
        return exc


NUMBER = re.compile(r"nan|-?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def assert_same_error(got: Exception, want: Exception) -> None:
    """The same check failing at the same point of the same kind. A squared
    norm the message quotes may differ in its last bit: the stacked matrix
    product may sum a row in another order."""
    assert type(got) is type(want)
    assert NUMBER.sub("#", str(got)) == NUMBER.sub("#", str(want))
    for a, b in zip(NUMBER.findall(str(got)), NUMBER.findall(str(want))):
        assert a == b or abs(float(a) - float(b)) <= TOL


@settings(max_examples=60, deadline=None)
@given(st.lists(gate_inputs, min_size=2, max_size=2), chunks())
def test_stacked_kinds_evaluate_as_each_alone(kinds, points):
    want = one_after_another(kinds, points)
    magnitudes = [point.magnitudes for point in points]
    if isinstance(want, StateError):
        with pytest.raises(StateError) as raised:
            stacked_figures(kinds, magnitudes)
        assert_same_error(raised.value, want)
        return
    got = stacked_figures(kinds, magnitudes)
    assert [len(figures) for figures in got] == [len(points)] * len(kinds)
    for stacked, alone in zip(got, want):
        for figures, reference in zip(stacked, alone):
            # Compared before renormalization, as in assert_agrees.
            assert abs(figures.survival - reference.survival) <= TOL
            assert abs(figures.per_branch_averaged * figures.survival
                       - reference.per_branch_averaged * reference.survival) <= TOL
            assert abs(figures.pre_measurement * figures.survival
                       - reference.pre_measurement * reference.survival) <= TOL


def test_stacked_kinds_fail_in_turn():
    # At ``cnot_fails`` the CNOT on (+, +) gains norm and the Toffoli on
    # (+, +, +) does not; at ``toffoli_fails`` the Toffoli reaches its readout
    # with nothing and the CNOT does not.
    kinds = ((Gate.CNOT, (QUBIT_PLUS,) * 2), (Gate.TOFFOLI, (QUBIT_PLUS,) * 3))
    cnot_fails = ScatterCoeffs(t=0.6, r=0.8, t0=0.0, r0=0.0)
    toffoli_fails = ScatterCoeffs(t=0.1, r=0.1, t0=0.4, r0=0.4)
    too_large = ScatterCoeffs(t=0.0, r=1.2, t0=-1.0, r0=0.0)
    for points, error in (
        ([toffoli_fails, cnot_fails, too_large], StructureError),
        ([toffoli_fails, too_large, cnot_fails], InvalidCoefficientError),
        ([toffoli_fails], DegenerateStateError),
    ):
        want = one_after_another(kinds, points)
        assert type(want) is error
        with pytest.raises(error) as raised:
            stacked_figures(kinds, [point.magnitudes for point in points])
        assert_same_error(raised.value, want)


def test_no_kinds_give_no_lists():
    assert stacked_figures((), [(0.0, 1.2, 1.0, 0.0)]) == []


def generic_totals(gate, inputs):
    """Compile afresh; the rows, and every total at both generic points."""
    compiled = _compile.__wrapped__(gate, inputs)
    magnitudes = np.array([c.magnitudes for c in _GENERIC_POINTS]).T
    return len(compiled.coeffs), compiled.totals @ np.abs(compiled.amplitudes(magnitudes)) ** 2


def assert_folding_keeps_the_totals(gate, inputs):
    with mock.patch.object(circuits, "_fold", lambda coeffs, totals: (coeffs, totals)):
        unfolded_rows, unfolded = generic_totals(gate, inputs)
    rows, folded = generic_totals(gate, inputs)
    assert np.abs(folded - unfolded).max() <= 1e-14
    return unfolded_rows, rows


def test_folding_keeps_the_totals_of_the_sweep_inputs():
    assert assert_folding_keeps_the_totals(Gate.CNOT, (QUBIT_PLUS,) * 2) == (29, 12)
    assert assert_folding_keeps_the_totals(Gate.TOFFOLI, (QUBIT_PLUS,) * 3) == (153, 66)


@settings(max_examples=10, deadline=None)
@given(gate_inputs)
def test_folding_keeps_the_totals_of_any_inputs(gate_and_inputs):
    assert_folding_keeps_the_totals(*gate_and_inputs)
