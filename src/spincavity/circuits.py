"""Full CNOT and Toffoli pipelines with staged traces and gate oracles.

Both gates work the same way: photonic qubits are polarization encoded, and
a single electron spin inside the cavity mediates the interaction. A
polarizing splitter sends the right-circular component of a photon into the
cavity from the top (heading down the axis) and the left-circular component
in from the bottom (heading up). After scattering, everything that exits
the bottom is right-circular and heading down, everything that exits the
top is left-circular and heading up, so the two output rails always
recombine losslessly on a polarizing splitter. This wrapped pass is the
building block every stage uses.

The CNOT takes two cavity encounters (control wrap between spin rotations,
then a target wrap), a spin readout, and one conditional Pauli. The Toffoli
threads the second control photon through the cavity four times using timed
switches, with the target's conditional flip sandwiched in the middle.
Measurement is exhaustive: both readout branches are returned, and in ideal
mode they carry identical photonic states after feed-forward, which is the
determinism claim the tests pin down.

In realistic mode the scattering amplitudes come from the cavity
coefficients. The wrap geometry keeps polarization and rail perfectly
correlated even then, so lossy runs mostly stay on-path; the only amplitude
that ever leaves the circuit is the left-circular residue of the Toffoli's
final pass, which the last merger drops into the loss sink. Everything else
shows up either as norm lost inside the cavity (efficiency) or as bit-flip
amplitude riding along to the output (fidelity).

Each gate is written once, as a sequence of steps. The dict engine
interprets it for single runs, and also compiles it into dense matrices
for :func:`gate_figures`, which evaluates fidelities and survival over
many cavity parameters without rerunning the circuit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cavity import (
    CavityParams,
    ScatterCoeffs,
    ScatterTable,
    checked_magnitudes,
    coefficients,
    ideal_scatter,
    realistic_scatter,
)
from .elements import (
    SINK,
    Pauli,
    RoutingRule,
    SwitchSchedule,
    feed_forward,
    hadamard_e,
    hadamard_p,
    pbs,
    phase_pi,
    switch_route,
)
from .hilbert import (
    MIN_BRANCH_WEIGHT,
    NORM_EPS,
    PRUNE_EPS,
    BasisKet,
    DegenerateStateError,
    PhotonLabel,
    PhotonSpinSite,
    Polarization,
    Propagation,
    SpinBasis,
    StateError,
    StateVector,
    StructureError,
    apply_sited_map,
    inner_product,
    measure_spin,
)

_R = Polarization.R
_L = Polarization.L
_UP_Z = Propagation.ALONG_Z
_DOWN_Z = Propagation.AGAINST_Z


class PreconditionError(StateError):
    """A gate was started from an unsupported spin initialization."""


# Control-stage paths, shared by the CNOT control photon and the Toffoli's
# first control photon. Indices follow the circuit diagrams.
C_STAGE_IN = 0        # input port
C_STAGE_BYPASS = 1    # left-circular bypass around the cavity
C_STAGE_WRAP = 2      # cavity entry path (both ports)
C_STAGE_OUT_R = 3     # bottom-side output rail (always right-circular)
C_STAGE_OUT_L = 4     # top-side output rail (always left-circular)
C_STAGE_MERGED = 5    # recombined cavity output
C_STAGE_OUT = 6       # control output port

# CNOT target paths.
CNOT_T_IN = 10
CNOT_T_TOP = 8        # top-side entry, heading down
CNOT_T_BOTTOM = 7     # bottom-side entry, heading up
CNOT_T_OUT = 9

CNOT_OUTPUT_MODES = (C_STAGE_OUT, CNOT_T_OUT)

# Toffoli second-control and target paths.
TOF_C2_IN = 22
TOF_C2_TOP = 7        # first-pass top entry
TOF_C2_BYPASS = 8     # left-circular bypass, merged only at the very end
TOF_RETURN_TOP = 10   # re-entry top rail for later passes
TOF_LOOP = 11         # collected cavity output between passes
TOF_PLATE = 12        # wave-plate path selected by the first switch
TOF_PARK = 14         # parking path while the target goes through
TOF_RETURN_BOTTOM = 15
TOF_FINAL = 16        # final-pass output rail
TOF_C2_OUT = 17

TOF_T_IN = 23
TOF_T_TOP = 18
TOF_T_BOTTOM = 19
TOF_T_PLATE = 20      # phase-plate path feeding the bottom entry
TOF_T_OUT = 21

TOF_OUTPUT_MODES = (C_STAGE_OUT, TOF_C2_OUT, TOF_T_OUT)

_STAGE_SPLIT = RoutingRule(
    "control-stage splitter",
    {
        (C_STAGE_IN, _R): (C_STAGE_WRAP, _DOWN_Z),
        (C_STAGE_IN, _L): (C_STAGE_BYPASS, _DOWN_Z),
    },
)
_STAGE_PORT_ROUTER = RoutingRule(
    "control-stage cavity port router",
    {
        (C_STAGE_WRAP, _R): (C_STAGE_WRAP, _DOWN_Z),
        (C_STAGE_WRAP, _L): (C_STAGE_WRAP, _UP_Z),
    },
)
_STAGE_MERGE = RoutingRule(
    "control-stage rail merger",
    {
        (C_STAGE_OUT_R, _R): (C_STAGE_MERGED, _DOWN_Z),
        (C_STAGE_OUT_L, _L): (C_STAGE_MERGED, _DOWN_Z),
    },
)
_STAGE_RECOMBINE = RoutingRule(
    "control-stage bypass recombiner",
    {
        (C_STAGE_MERGED, _R): (C_STAGE_OUT, _DOWN_Z),
        (C_STAGE_BYPASS, _L): (C_STAGE_OUT, _DOWN_Z),
    },
)

_CNOT_TARGET_SPLIT = RoutingRule(
    "target splitter",
    {
        (CNOT_T_IN, _R): (CNOT_T_TOP, _DOWN_Z),
        (CNOT_T_IN, _L): (CNOT_T_BOTTOM, _UP_Z),
    },
)

_TOF_C2_SPLIT = RoutingRule(
    "second-control splitter",
    {
        (TOF_C2_IN, _R): (TOF_C2_TOP, _DOWN_Z),
        (TOF_C2_IN, _L): (TOF_C2_BYPASS, _DOWN_Z),
    },
)
_TOF_REINJECT_FROM_PLATE = RoutingRule(
    "second-control reinjection (wave-plate path)",
    {
        (TOF_PLATE, _R): (TOF_RETURN_TOP, _DOWN_Z),
        (TOF_PLATE, _L): (TOF_RETURN_BOTTOM, _UP_Z),
    },
)
_TOF_REINJECT_FROM_PARK = RoutingRule(
    "second-control reinjection (parking path)",
    {
        (TOF_PARK, _R): (TOF_RETURN_TOP, _DOWN_Z),
        (TOF_PARK, _L): (TOF_RETURN_BOTTOM, _UP_Z),
    },
)
_TOF_T_SPLIT = RoutingRule(
    "toffoli target splitter",
    {
        (TOF_T_IN, _R): (TOF_T_TOP, _DOWN_Z),
        (TOF_T_IN, _L): (TOF_T_PLATE, _UP_Z),
    },
)
_TOF_T_ENTER_LOOP = RoutingRule(
    "toffoli target bottom entry",
    {(TOF_T_PLATE, _L): (TOF_T_BOTTOM, _UP_Z)},
)
_TOF_T_EXIT_LOOP = RoutingRule(
    "toffoli target bottom exit",
    {(TOF_T_BOTTOM, _R): (TOF_T_PLATE, _DOWN_Z)},
)
_TOF_T_MERGE = RoutingRule(
    "toffoli target merger",
    {
        (TOF_T_PLATE, _R): (TOF_T_OUT, _DOWN_Z),
        (TOF_T_TOP, _L): (TOF_T_OUT, _DOWN_Z),
    },
)
_TOF_FINAL_MERGE = RoutingRule(
    "second-control output merger",
    {
        (TOF_FINAL, _R): (TOF_C2_OUT, _DOWN_Z),
        (TOF_C2_BYPASS, _L): (TOF_C2_OUT, _DOWN_Z),
        # Residual left-circular amplitude of the final pass has no output
        # port; it leaves the circuit and is charged against efficiency.
        (TOF_FINAL, _L): SINK,
    },
)

#: First switch: loop path goes to the wave plate, then to parking, then to
#: the wave plate again; one epoch is consumed per pass.
S1_SCHEDULE = SwitchSchedule("S1", ({TOF_LOOP: TOF_PLATE}, {TOF_LOOP: TOF_PARK}, {TOF_LOOP: TOF_PLATE}))

_CNOT_FEED_FORWARD = {
    SpinBasis.UP: (),
    SpinBasis.DOWN: ((0, Pauli.SIGMA_Z),),
}
_TOF_FEED_FORWARD = {
    SpinBasis.UP: ((0, Pauli.MINUS_SIGMA_Z), (2, Pauli.SIGMA_X)),
    SpinBasis.DOWN: ((2, Pauli.SIGMA_X),),
}


class Gate(Enum):
    CNOT = "cnot"
    TOFFOLI = "toffoli"


@dataclass(frozen=True)
class GateMode:
    """Ideal scattering, or realistic scattering driven by cavity parameters.

    Ideal mode uses the exact rule table rather than limit coefficients, so
    ideal tests carry no floating-point limit artifacts; the equivalence of
    the two routes is itself checked in the test suite, via the coefficient
    injection hook.
    """

    params: CavityParams | None = None
    coeffs: ScatterCoeffs | None = None

    @classmethod
    def ideal(cls) -> "GateMode":
        return cls()

    @classmethod
    def realistic(cls, params: CavityParams) -> "GateMode":
        return cls(params=params)

    @classmethod
    def with_coefficients(cls, coeffs: ScatterCoeffs) -> "GateMode":
        """Realistic scattering with explicit coefficients (diagnostics, tests)."""
        return cls(coeffs=coeffs)

    @property
    def is_ideal(self) -> bool:
        return self.params is None and self.coeffs is None

    def scatter_table(self) -> ScatterTable:
        if self.coeffs is not None:
            return realistic_scatter(self.coeffs)
        if self.params is not None:
            return realistic_scatter(coefficients(self.params))
        return ideal_scatter()


@dataclass(frozen=True)
class QubitState:
    """Polarization qubit amplitudes on the (R, L) basis."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        weight = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(weight - 1.0) > 1e-9:
            raise ValueError(f"qubit weight {weight} is not 1 within 1e-9")


QUBIT_R = QubitState(1.0, 0.0)
QUBIT_L = QubitState(0.0, 1.0)
QUBIT_PLUS = QubitState(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
QUBIT_MINUS = QubitState(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))


@dataclass(frozen=True)
class Branch:
    """One spin-readout branch after feed-forward."""

    outcome: SpinBasis
    probability: float
    state: StateVector


@dataclass(frozen=True)
class GateResult:
    """Gate output: readout branches, survival probability, staged trace.

    ``survival`` is the total squared norm just before the spin readout
    (after any loss), so it is one in ideal mode. Branch probabilities are
    conditioned on survival and sum to one. The trace holds the named
    intermediate states of the run in order.
    """

    branches: tuple[Branch, ...]
    survival: float
    trace: tuple[tuple[str, StateVector], ...]

    def trace_state(self, name: str) -> StateVector:
        for key, state in self.trace:
            if key == name:
                return state
        raise KeyError(name)


def _product_input(qubits: Sequence[QubitState], in_modes: Sequence[int]) -> StateVector:
    amps: dict[BasisKet, complex] = {}
    choices = [
        ((_R, q.alpha), (_L, q.beta))
        for q in qubits
    ]
    for combo in itertools.product(*choices):
        amp = 1.0 + 0j
        photons = []
        for (pol, coeff), mode in zip(combo, in_modes):
            amp *= coeff
            photons.append(PhotonLabel(pol, _DOWN_Z, mode))
        if amp != 0:
            amps[BasisKet(tuple(photons), None)] = amp
    return StateVector(amps, photon_count=len(qubits), has_spin=False)


def _with_spin(state: StateVector, spin: SpinBasis) -> StateVector:
    return StateVector(
        {BasisKet(k.photons, spin): v for k, v in state.items()},
        photon_count=state.photon_count,
        has_spin=True,
    )


class CavityPass(NamedTuple):
    """One photon's wrapped encounter with the cavity: the only parameter-dependent step.

    The addressed photon scatters if it sits in one of ``in_modes``.
    Whatever leaves heading down lands on ``out_down``, whatever leaves
    heading up on ``out_up``.
    """

    photon: int
    in_modes: frozenset[int]
    out_down: int
    out_up: int


def _cavity_pass(state: StateVector, step: CavityPass, table: ScatterTable) -> StateVector:
    """Scatter the addressed photon if it sits at a cavity entry.

    When both exits collect into one path the photon travels a single
    physical beam afterwards, so the direction label is normalized there;
    keeping the stale exit direction would stop later wave plates from
    interfering amplitudes that share a beam.
    """
    in_modes, out_down, out_up = step.in_modes, step.out_down, step.out_up
    merged = out_down == out_up

    def joint(label_spin):
        label, spin = label_spin
        if label.mode not in in_modes:
            return (((label, spin), 1.0),)
        out = []
        for pol, prop, new_spin, amp in table[((label.polarization, label.propagation), spin)]:
            mode = out_down if prop is _DOWN_Z else out_up
            direction = _DOWN_Z if merged else prop
            out.append(((PhotonLabel(pol, direction, mode), new_spin), amp))
        return out

    return apply_sited_map(state, PhotonSpinSite(step.photon), joint)


# A gate is one sequence of steps. A step is a trace mark (a string: the
# current state is recorded under that name), a CavityPass, or a
# parameter-free element ``state -> state``. Elements are lambdas so that
# each run looks the element function up by name, and a wrapper installed on
# this module's attribute (a profiler, say) sees the gates' calls.


def _control_stage(split_mark: str | None = None, scattered_mark: str | None = None) -> tuple:
    """Shared control stage: split, wrapped cavity pass between Hadamard pairs, recombine."""
    steps = (
        lambda s: pbs(s, 0, _STAGE_SPLIT),
        split_mark,
        lambda s: hadamard_p(s, 0, modes={C_STAGE_WRAP}),
        lambda s: hadamard_e(s),
        lambda s: pbs(s, 0, _STAGE_PORT_ROUTER),
        CavityPass(0, frozenset({C_STAGE_WRAP}), C_STAGE_OUT_R, C_STAGE_OUT_L),
        scattered_mark,
        lambda s: pbs(s, 0, _STAGE_MERGE),
        lambda s: hadamard_p(s, 0, modes={C_STAGE_MERGED}),
        lambda s: hadamard_e(s),
        lambda s: pbs(s, 0, _STAGE_RECOMBINE),
    )
    return tuple(step for step in steps if step is not None)


class _GateProgram(NamedTuple):
    """One gate: input ports, spin preparation, steps, and feed-forward rule.

    The steps end on the joint state just before the spin readout.
    """

    name: str
    in_modes: tuple[int, ...]
    spin: SpinBasis
    steps: tuple
    feed_forward: Mapping


_TOF_RETURN = frozenset({TOF_RETURN_TOP, TOF_RETURN_BOTTOM})

_PROGRAMS = {
    Gate.CNOT: _GateProgram(
        "CNOT",
        (C_STAGE_IN, CNOT_T_IN),
        SpinBasis.DOWN,
        (
            *_control_stage("omega_1", "omega_2"),
            "omega_3",
            lambda s: pbs(s, 1, _CNOT_TARGET_SPLIT),
            CavityPass(1, frozenset({CNOT_T_TOP, CNOT_T_BOTTOM}), CNOT_T_OUT, CNOT_T_OUT),
            "omega_4",
            lambda s: hadamard_e(s),
        ),
        _CNOT_FEED_FORWARD,
    ),
    Gate.TOFFOLI: _GateProgram(
        "Toffoli",
        (C_STAGE_IN, TOF_C2_IN, TOF_T_IN),
        SpinBasis.UP,
        (
            *_control_stage(),
            "xi_1",
            # First pass: only the right-circular component meets the cavity.
            lambda s: pbs(s, 1, _TOF_C2_SPLIT),
            CavityPass(1, frozenset({TOF_C2_TOP}), TOF_LOOP, TOF_LOOP),
            "xi_2",
            # Second pass, now through the wave plate and both cavity ports.
            lambda s: switch_route(s, 1, S1_SCHEDULE, 0),
            lambda s: hadamard_p(s, 1, modes={TOF_PLATE}),
            lambda s: hadamard_e(s),
            lambda s: pbs(s, 1, _TOF_REINJECT_FROM_PLATE),
            CavityPass(1, _TOF_RETURN, TOF_LOOP, TOF_LOOP),
            "xi_3",
            lambda s: hadamard_e(s),
            "xi_4",
            # Park the control photon at the cavity entries while the target runs.
            lambda s: switch_route(s, 1, S1_SCHEDULE, 1),
            lambda s: pbs(s, 1, _TOF_REINJECT_FROM_PARK),
            # Target: conditional flip via the phase-plate loop.
            lambda s: pbs(s, 2, _TOF_T_SPLIT),
            lambda s: phase_pi(s, 2, TOF_T_PLATE),
            lambda s: pbs(s, 2, _TOF_T_ENTER_LOOP),
            CavityPass(2, frozenset({TOF_T_TOP, TOF_T_BOTTOM}), TOF_T_BOTTOM, TOF_T_TOP),
            lambda s: phase_pi(s, 2, TOF_T_BOTTOM),
            lambda s: pbs(s, 2, _TOF_T_EXIT_LOOP),
            lambda s: pbs(s, 2, _TOF_T_MERGE),
            lambda s: hadamard_e(s),
            # Third pass of the parked control photon.
            CavityPass(1, _TOF_RETURN, TOF_LOOP, TOF_LOOP),
            "xi_5",
            # Fourth pass disentangles the control photon from the spin.
            lambda s: switch_route(s, 1, S1_SCHEDULE, 2),
            lambda s: hadamard_p(s, 1, modes={TOF_PLATE}),
            lambda s: hadamard_e(s),
            lambda s: pbs(s, 1, _TOF_REINJECT_FROM_PLATE),
            CavityPass(1, _TOF_RETURN, TOF_FINAL, TOF_FINAL),
            "xi_6",
            lambda s: pbs(s, 1, _TOF_FINAL_MERGE),
            "xi_7",
            lambda s: hadamard_e(s),
        ),
        _TOF_FEED_FORWARD,
    ),
}

_QUBIT_COUNT_WORDS = {2: "two", 3: "three"}


def _apply(step, state: StateVector, table: ScatterTable | None) -> StateVector:
    if isinstance(step, CavityPass):
        return _cavity_pass(state, step, table)
    return step(state)


def _states(program: _GateProgram, inputs: Sequence[QubitState], table: ScatterTable):
    """Interpret the program: yield ``(None, input)``, then each step with the state after it."""
    state = _with_spin(_product_input(inputs, program.in_modes), program.spin)
    yield None, state
    for step in program.steps:
        if not isinstance(step, str):
            state = _apply(step, state, table)
        yield step, state


def _canonical_photonic(state: StateVector) -> StateVector:
    """Erase propagation labels at the circuit output.

    At the output ports direction is a function of polarization and mode,
    never an independent degree of freedom; if two kets collided here the
    run would have left direction-dependent amplitude behind, which is a
    broken invariant worth failing loudly on.
    """
    amps: dict[BasisKet, complex] = {}
    for ket, amp in state.items():
        photons = tuple(
            PhotonLabel(p.polarization, _DOWN_Z, p.mode) for p in ket.photons
        )
        new = BasisKet(photons, ket.spin)
        if new in amps:
            raise StateError("direction-dependent amplitude remains at circuit output")
        amps[new] = amp
    return StateVector(amps, photon_count=state.photon_count, has_spin=state.has_spin)


def _finish(
    state: StateVector,
    ff_rule,
    trace: list[tuple[str, StateVector]],
) -> GateResult:
    survival = state.norm_squared()
    branches = []
    for outcome, probability, post in measure_spin(state):
        post = feed_forward(post, outcome, ff_rule)
        branches.append(Branch(outcome, probability, _canonical_photonic(post)))
    return GateResult(tuple(branches), survival, tuple(trace))


def _run(
    gate: Gate,
    inputs: Sequence[QubitState],
    mode: GateMode,
    spin_init: SpinBasis | None = None,
) -> tuple[GateResult, StateVector]:
    """Run ``gate`` on product ``inputs``: the result and the joint state before readout.

    ``spin_init`` defaults to the spin preparation the gate needs.
    """
    program = _PROGRAMS[gate]
    arity = len(program.in_modes)
    if len(inputs) != arity:
        raise StateError(f"{program.name} takes exactly {_QUBIT_COUNT_WORDS[arity]} qubits")
    if spin_init is not None and spin_init is not program.spin:
        raise PreconditionError(
            f"the {program.name} needs the spin initialized {program.spin.name.lower()}"
        )
    table = mode.scatter_table()
    trace: list[tuple[str, StateVector]] = []
    for step, state in _states(program, inputs, table):
        if isinstance(step, str):
            trace.append((step, state))
    return _finish(state, program.feed_forward, trace), state


def cnot(
    control: QubitState,
    target: QubitState,
    mode: GateMode = GateMode.ideal(),
    spin_init: SpinBasis = SpinBasis.DOWN,
) -> GateResult:
    """Run the two-photon CNOT; flips the target when the control is left-circular."""
    result, _ = _run(Gate.CNOT, (control, target), mode, spin_init)
    return result


def toffoli(
    control_1: QubitState,
    control_2: QubitState,
    target: QubitState,
    mode: GateMode = GateMode.ideal(),
    spin_init: SpinBasis = SpinBasis.UP,
) -> GateResult:
    """Run the three-photon Toffoli; flips the target when both controls are left-circular."""
    result, _ = _run(Gate.TOFFOLI, (control_1, control_2, target), mode, spin_init)
    return result


def ideal_oracle(gate: Gate) -> np.ndarray:
    """Reference permutation on the polarization basis, R before L per qubit.

    The target block flips exactly where every control is left-circular;
    the matrix is its own inverse.
    """
    if gate is Gate.CNOT:
        matrix = np.eye(4)
        matrix[[2, 3]] = matrix[[3, 2]]
    else:
        matrix = np.eye(8)
        matrix[[6, 7]] = matrix[[7, 6]]
    return matrix


def output_modes(gate: Gate) -> tuple[int, ...]:
    return CNOT_OUTPUT_MODES if gate is Gate.CNOT else TOF_OUTPUT_MODES


def polarization_amplitudes(
    state: StateVector, modes: Sequence[int]
) -> dict[tuple[Polarization, ...], complex]:
    """Amplitudes keyed by polarization pattern, for direction-erased output states."""
    out: dict[tuple[Polarization, ...], complex] = {}
    for ket, amp in state.items():
        pols = []
        for photon, expected in zip(ket.photons, modes):
            if photon.mode != expected:
                raise StateError(
                    f"photon at mode {photon.mode}, expected output mode {expected}"
                )
            pols.append(photon.polarization)
        out[tuple(pols)] = amp
    return out


def polarization_vector(state: StateVector, modes: Sequence[int]) -> np.ndarray:
    """Dense amplitude vector over the polarization basis (first photon most significant)."""
    n = len(modes)
    vec = np.zeros(2 ** n, dtype=complex)
    for pols, amp in polarization_amplitudes(state, modes).items():
        index = 0
        for pol in pols:
            index = (index << 1) | int(pol)
        vec[index] = amp
    return vec


def input_vector(inputs: Sequence[QubitState]) -> np.ndarray:
    """Dense polarization-basis vector of a product input."""
    vec = np.array([1.0 + 0j])
    for q in inputs:
        vec = np.kron(vec, np.array([q.alpha, q.beta], dtype=complex))
    return vec


FIDELITY_CONVENTIONS = ("per-branch-averaged", "pre-measurement")


# -- compiled evaluation ------------------------------------------------------
#
# The circuit is linear and only the cavity passes depend on the parameters:
# a pass is 1*B + |t|*A_t + |r|*A_r + |t0|*A_t0 + |r0|*A_r0 on a basis of at
# most a few dozen kets. Each gate is therefore compiled once per input, with
# the dict engine as the compiler, into dense matrices over the supports its
# stages reach; a parameter point then costs a few small matrix products.

#: Magnitude sets (|t|, |r|, |t0|, |r0|) at which gates are compiled. All four
#: values differ and |t| + |r|, |t0| + |r0| stay below one: on resonance both
#: sums are one and some amplitudes cancel there, so supports recorded at a
#: resonant point would miss kets that other points reach. The second set
#: guards the first against an accidental cancellation.
_GENERIC_POINTS = (
    ScatterCoeffs(t=0.21, r=0.67, t0=0.58, r0=0.29),
    ScatterCoeffs(t=0.37, r=0.44, t0=0.19, r0=0.73),
)

#: Scatter tables isolating the parts of a cavity pass: the bypass (all
#: magnitudes zero), then one unit magnitude each, in ``magnitudes`` order.
#: A unit table still carries the bypass, which is subtracted out.
_PART_TABLES = tuple(
    realistic_scatter(ScatterCoeffs(*unit))
    for unit in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
)


class _CompiledGate(NamedTuple):
    """One gate on fixed inputs as dense matrices over its recorded supports.

    Each cavity pass is five matrices, the bypass and its four
    unit-magnitude parts, with the fixed elements since the previous pass
    folded in. ``parts`` holds every pass's five matrices flattened side by
    side, so one product with the weights (1, |t|, |r|, |t0|, |r0|) yields
    all pass matrices of a point; ``layout`` gives each pass's slice and
    shape. ``tail`` holds the fixed elements after the last pass.
    ``outcome_masks`` selects each spin outcome's kets at the readout; rows
    of ``overlaps`` map the pre-readout amplitudes to the overlap of the up
    and the down branch, after feed-forward, with the ideal output, and to
    the overlap with the ideal pre-readout state.
    """

    initial: np.ndarray
    parts: np.ndarray
    layout: tuple[tuple[int, int, tuple[int, int]], ...]
    tail: np.ndarray
    outcome_masks: np.ndarray
    overlaps: np.ndarray

    def final_state(self, magnitudes: Sequence[float]) -> np.ndarray:
        """Pre-readout amplitudes at the given (|t|, |r|, |t0|, |r0|)."""
        matrices = np.array((1.0, *magnitudes)) @ self.parts
        state = self.initial
        for start, stop, shape in self.layout:
            state = matrices[start:stop].reshape(shape) @ state
            norm_sq = float(np.vdot(state, state).real)
            if norm_sq > 1.0 + NORM_EPS:
                raise StructureError(f"squared norm {norm_sq} exceeds 1 + {NORM_EPS}")
        return self.tail @ state


def _dense(state: StateVector, index: dict[BasisKet, int]) -> np.ndarray:
    """Amplitudes over an indexed support; real when they all are, which keeps
    the evaluation in real arithmetic for real inputs."""
    vector = np.zeros(len(index), dtype=complex)
    for ket, amp in state.items():
        if ket not in index:
            raise StructureError(f"ket {ket.token!r} lies outside the compiled support")
        vector[index[ket]] = amp
    return vector if vector.imag.any() else vector.real


def _image_matrix(
    step, kets: Sequence[BasisKet], index: dict[BasisKet, int], table: ScatterTable | None
) -> np.ndarray:
    """One step's matrix from single-ket images, restricted to the next support.

    Image kets outside the support are dropped: in the gate's runs they
    cancel by interference between kets, which one ket alone cannot show.
    Every element and scatter amplitude is real, so the matrix is too.
    """
    matrix = np.zeros((len(index), len(kets)))
    for column, ket in enumerate(kets):
        for out, amp in _apply(step, StateVector({ket: 1.0}), table).items():
            row = index.get(out)
            if row is not None:
                if amp.imag:
                    raise StructureError(f"complex amplitude {amp} in a compiled step")
                matrix[row, column] = amp.real
    return matrix


def _readout_row(
    kets: Sequence[BasisKet], outcome: SpinBasis, rule, reference: StateVector
) -> np.ndarray:
    row = np.zeros(len(kets), dtype=complex)
    for column, ket in enumerate(kets):
        if ket.spin is outcome:
            post = feed_forward(StateVector({ket.with_spin(None): 1.0}), outcome, rule)
            row[column] = inner_product(_canonical_photonic(post), reference).conjugate()
    return row


@functools.lru_cache(maxsize=64)
def _compile(gate: Gate, inputs: tuple[QubitState, ...]) -> _CompiledGate:
    """Compile ``gate`` on ``inputs`` once, with the dict engine as the compiler.

    Runs at the generic points record every stage's support and perform
    every structural check (routing collisions, incomplete maps, switch
    schedules, readout). The matrices must reproduce those runs to 1e-12.
    """
    program = _PROGRAMS[gate]
    ideal_result, ideal_pre = _run(gate, inputs, GateMode.ideal())
    generic_runs = [_states(program, inputs, realistic_scatter(c)) for c in _GENERIC_POINTS]
    passes: list[np.ndarray] = []
    fold = None  # fixed elements since the last pass
    kets: list[BasisKet] = []
    # The generic runs advance together, so one stage's support is held at a time.
    for (step, state), (_, other) in zip(*generic_runs):
        if isinstance(step, str):
            continue
        next_kets = sorted(set(state.kets()).union(other.kets()), key=BasisKet.sort_key)
        index = {ket: i for i, ket in enumerate(next_kets)}
        if step is None:
            initial = _dense(state, index)
        elif isinstance(step, CavityPass):
            parts = np.stack([_image_matrix(step, kets, index, table) for table in _PART_TABLES])
            parts[1:] -= parts[0]
            passes.append(parts if fold is None else parts @ fold)
            fold = None
        else:
            matrix = _image_matrix(step, kets, index, None)
            fold = matrix if fold is None else matrix @ fold
        kets = next_kets
    finals = (state, other)
    for final in finals:
        _finish(final, program.feed_forward, [])

    layout, start = [], 0
    for parts in passes:
        layout.append((start, start + parts[0].size, parts[0].shape))
        start += parts[0].size
    reference = ideal_result.branches[0].state
    overlaps = np.array([
        *(_readout_row(kets, o, program.feed_forward, reference) for o in SpinBasis),
        _dense(ideal_pre, index).conj(),
    ])
    compiled = _CompiledGate(
        initial=initial,
        parts=np.concatenate([parts.reshape(len(parts), -1) for parts in passes], axis=1),
        layout=tuple(layout),
        tail=np.eye(len(kets)) if fold is None else fold,
        outcome_masks=np.array([[ket.spin is o for ket in kets] for o in SpinBasis], dtype=float),
        overlaps=overlaps if overlaps.imag.any() else overlaps.real,
    )
    for coeffs, final in zip(_GENERIC_POINTS, finals):
        error = np.abs(compiled.final_state(coeffs.magnitudes) - _dense(final, index))
        if error.max() > 1e-12:
            raise StructureError(f"compiled {program.name} misses its generic run by {error.max()}")
    return compiled


class SimulatedFigures(NamedTuple):
    """Fidelity and survival of one lossy gate run.

    ``per_branch_averaged`` weighs each readout branch's overlap with the
    ideal output by its branch probability; ``pre_measurement`` compares the
    renormalized joint state just before readout with the ideal one. The two
    answer different questions and neither is privileged here. ``survival``
    is the squared norm reaching the readout.
    """

    per_branch_averaged: float
    pre_measurement: float
    survival: float

    def fidelity(self, convention: str) -> float:
        if convention not in FIDELITY_CONVENTIONS:
            raise ValueError(f"unknown convention {convention!r}")
        if convention == "pre-measurement":
            return self.pre_measurement
        return self.per_branch_averaged


def gate_figures(
    gate: Gate, inputs: Sequence[QubitState], coeffs: ScatterCoeffs
) -> SimulatedFigures:
    """Both fidelities and the survival of a lossy run, from one compiled evaluation.

    Agrees with running :func:`cnot` or :func:`toffoli` in realistic mode
    and comparing against the ideal run. The gate is compiled on first use
    per input tuple; later calls cost a few small matrix products.
    """
    magnitudes = checked_magnitudes(coeffs)
    compiled = _compile(gate, tuple(inputs))
    state = compiled.final_state(magnitudes)
    branch_weights = compiled.outcome_masks @ (np.abs(state) ** 2)
    survival = float(branch_weights.sum())
    if survival <= PRUNE_EPS ** 2:
        raise DegenerateStateError("cannot measure a zero state")
    up, down, pre = np.abs(compiled.overlaps @ state) ** 2
    per_branch = sum(
        overlap
        for overlap, weight in zip((up, down), branch_weights)
        if weight > MIN_BRANCH_WEIGHT
    )
    return SimulatedFigures(
        per_branch_averaged=float(per_branch) / survival,
        pre_measurement=float(pre) / survival,
        survival=survival,
    )


def simulated_fidelity(
    gate: Gate,
    inputs: Sequence[QubitState],
    params: CavityParams,
    convention: str = "per-branch-averaged",
) -> float:
    """Overlap of the lossy run with the ideal run, in the given convention.

    See :class:`SimulatedFigures` for the two conventions.
    """
    return gate_figures(gate, inputs, coefficients(params)).fidelity(convention)


def simulated_efficiency(gate: Gate, inputs: Sequence[QubitState], params: CavityParams) -> float:
    """Survival probability of the lossy run (input dependent)."""
    return gate_figures(gate, inputs, coefficients(params)).survival
