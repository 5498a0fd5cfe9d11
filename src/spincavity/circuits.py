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
interprets it for single runs, recording runs of a kind that repeats as
paths that later runs replay bit for bit. The path recorded of a generic run
also compiles into polynomials in the coefficient magnitudes for
:func:`stacked_figures`, which evaluates fidelities and survival over
batches of cavity parameters without rerunning the circuit.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .cavity import (
    REALISTIC_PARTS,
    CavityParams,
    InvalidCoefficientError,
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
    recording,
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
    """Ideal scattering (no ``coeffs``), or realistic scattering from cavity coefficients.

    Ideal mode uses the exact rule table rather than limit coefficients, so
    ideal tests carry no floating-point limit artifacts; the test suite
    checks that ``GateMode(ScatterCoeffs.ideal())`` runs the same gates.
    """

    coeffs: ScatterCoeffs | None = None

    @classmethod
    def ideal(cls) -> "GateMode":
        return cls()

    @classmethod
    def realistic(cls, params: CavityParams) -> "GateMode":
        """The cavity's coefficients, worked out here: a singular cavity raises now."""
        return cls(coefficients(params))

    def scatter_table(self) -> ScatterTable:
        return ideal_scatter() if self.coeffs is None else realistic_scatter(self.coeffs)


@dataclass(frozen=True)
class QubitState:
    """Polarization qubit amplitudes on the (R, L) basis."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        if not (cmath.isfinite(self.alpha) and cmath.isfinite(self.beta)):
            raise ValueError(f"qubit amplitudes ({self.alpha}, {self.beta}) must be finite")
        try:
            weight = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        except OverflowError:
            weight = math.inf
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


def _product_kets(in_modes: Sequence[int], spin: SpinBasis) -> list[BasisKet]:
    """Product basis kets, R before L per photon, the first photon most significant: ket order."""
    return [
        BasisKet(tuple(PhotonLabel(pol, _DOWN_Z, mode) for pol, mode in zip(pols, in_modes)), spin)
        for pols in itertools.product((_R, _L), repeat=len(in_modes))
    ]


def _product_amplitudes(qubits: Sequence[QubitState]) -> list[complex]:
    """The product input's amplitude on each of :func:`_product_kets`."""
    amps = []
    for combo in itertools.product(*[(q.alpha, q.beta) for q in qubits]):
        amp = 1.0 + 0j
        for coeff in combo:
            amp *= coeff
        amps.append(amp)
    return amps


def _input_state(program: "_GateProgram", inputs: Sequence[QubitState]) -> StateVector:
    kets = _product_kets(program.in_modes, program.spin)
    amps = {ket: amp for ket, amp in zip(kets, _product_amplitudes(inputs)) if amp != 0}
    return StateVector(amps, photon_count=len(inputs), has_spin=True)


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
    routes, amplitudes = table

    def joint(label_spin):
        label, spin = label_spin
        if label.mode not in in_modes:
            return (((label, spin), 1.0),)
        out = []
        for pol, prop, new_spin, slot in routes[((label.polarization, label.propagation), spin)]:
            mode = out_down if prop is _DOWN_Z else out_up
            direction = _DOWN_Z if merged else prop
            out.append(((PhotonLabel(pol, direction, mode), new_spin), amplitudes[slot]))
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
    state = _input_state(program, inputs)
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


def _readout(state: StateVector, ff_rule):
    """Each readout branch: outcome, probability, post-measurement state and output state."""
    for outcome, probability, post in measure_spin(state):
        yield outcome, probability, post, _canonical_photonic(feed_forward(post, outcome, ff_rule))


def _run(
    gate: Gate,
    inputs: Sequence[QubitState],
    mode: GateMode,
    spin_init: SpinBasis | None = None,
) -> tuple[GateResult, StateVector]:
    """Run ``gate`` on product ``inputs``: the result and the joint state before readout.

    ``spin_init`` defaults to the spin preparation the gate needs. The run
    replays a path that an earlier run of its kind recorded, or else is
    interpreted; both give the same bits (see :func:`_path_source`). The first
    run of a kind that misses is not recorded, so a one-shot command pays
    nothing for the cache.
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
    values = _product_amplitudes(inputs)
    support, log = _survivors(values), None
    if support is not None:
        root = _plan_root(gate, len(table.amplitudes), support[0])
        for replay in root.paths:  # the first that stays on its path wins
            if (replayed := replay(values, table.amplitudes)) is not None:
                return replayed
        with _PLANS_LOCK:
            root.misses += 1
            if 1 < root.misses <= _PATHS_PER_ROOT + 1:
                log = []
    result, pre, path = _interpret(program, inputs, table, log)
    if path is not None:
        replay = _compiled(path, arity)  # here, so no replayed run pays for a compile
        with _PLANS_LOCK:
            root.paths += (replay,)
    return result, pre


# -- recorded runs ------------------------------------------------------------
#
# Which kets a run reaches, and so the order of every sum in it, depends only
# on the gate, the scatter table's routes, the input support and which kets
# each step prunes. Runs of a kind that miss are interpreted, from the second
# on with their sited maps logged. Each logged run becomes a path, compiled
# into straight-line code that later runs call: the same float operations in
# the same order, and every value check. The paths of two generic runs are
# also what :func:`_compile` reads its polynomials from.


class _Slot(float):
    """A scatter amplitude that knows its place in the table, so a logged edge can name it."""

    __slots__ = ("index",)

    def __new__(cls, value: float, index: int):
        slot = super().__new__(cls, value)
        slot.index = index
        return slot


class _Step(NamedTuple):
    """One sited map: ``edges`` holds (source, output, coefficient) in summation order,
    sources numbered as the step before numbers its outputs, outputs by first touch,
    coefficients as the table's amplitudes, then the path's constants. It keeps the
    outputs ``kept`` (None for all), whose ``kets`` are held where a state is built."""

    edges: tuple
    outputs: int
    kept: tuple | None
    kets: tuple | None
    marks: tuple


class _Path(NamedTuple):
    """A logged run: its ``steps``, then per outcome ``(outcome, positions of its kets in
    ket order, branch)``; ``branch`` is None if the outcome has none, else the
    feed-forward steps, the positions of their output in ket order and the output kets."""

    steps: tuple
    readout: tuple
    constants: tuple
    slots: int


#: Runs recorded under one root at most; later misses are only interpreted.
_PATHS_PER_ROOT = 16
#: Source characters compiled at once, about. The compiler holds some 120 bytes
#: per character of what it compiles, so a Toffoli path (51 KB of source) in one
#: piece would lift peak memory by about 6 MB; a path is compiled in parts.
_PART_CHARS = 4000
#: Guards each root's count and paths.
_PLANS_LOCK = threading.Lock()


@functools.lru_cache(maxsize=64)
def _plan_root(gate: Gate, slots: int, support: tuple | None) -> SimpleNamespace:
    """The compiled paths, tried in order, of one gate, scatter-table routes (told apart
    by their slot count) and input support (kept positions, None for all), and the count
    of runs that missed them."""
    return SimpleNamespace(misses=0, paths=())


def _survivors(values: list) -> tuple | None:
    """The positions a :class:`StateVector` of ``values`` keeps (None for all) and
    its squared norm, summed as it sums it; None where it would raise."""
    magnitudes = list(map(abs, values))
    if min(magnitudes, default=PRUNE_EPS) >= PRUNE_EPS:
        key, kept = None, magnitudes
    elif any(m != m for m in magnitudes):  # a NaN amplitude
        return None
    else:
        key = tuple([j for j, m in enumerate(magnitudes) if m >= PRUNE_EPS])
        kept = [magnitudes[j] for j in key]
    norm_sq = sum(map(pow, kept, itertools.repeat(2)))
    return (key, norm_sq) if norm_sq <= 1.0 + NORM_EPS else None


def _path_source(path: _Path, photon_count: int) -> tuple[list[str], dict]:
    """The sources of the parts that replay ``path``, and their namespace. Each
    ``part(values, table amplitudes, trace)`` takes what the part before returned (the
    first, the input amplitudes) and appends its trace states; the last returns the
    result and the pre-readout state. A part returns None where the run leaves the path
    or fails a value check: those of :func:`_survivors` (a prune test, which a NaN fails,
    or the squared-norm cap), a zero state, a branch weight. The interpreter then reruns
    it and raises as always. Structural checks depend only on the kets, the recorded
    ones, and ran at recording. The sources hold only integer indices and fixed names."""
    held, blocks = [], []
    # A +1 or -1 constant writes no product, and an output whose one edge is a +1 from a computed
    # amplitude is that amplitude, unchecked (its source's check covers it). Same bits: in CPython
    # 3.10 and 3.11 ``a * 1.0`` is the complex product, equal to ``a`` up to signs of zero; every
    # running sum starts at 0j and, rounding to nearest, never holds -0.0, nor does a computed
    # amplitude (``0j + ...``, ``x * f`` after readout); :func:`_survivors` keeps non-finite
    # inputs off the replay. An input may hold -0.0, so no output is an input.
    signs = {path.slots + k: " + " if c > 0 else " - " for k, c in enumerate(path.constants) if abs(c) == 1}

    def hold(value) -> str:
        held.append(value)
        return f"held[{len(held) - 1}]"

    def apply(step: _Step, sources: list, name: str, norm: str, computed: bool = True) -> list:
        edges = [[] for _ in range(step.outputs)]
        for source, out, index in step.edges:
            edges[out].append((sources[source], index))
        kept = range(step.outputs) if step.kept is None else step.kept
        values, fresh = [], []
        for j, ins in enumerate(edges):
            relabel = computed and len(ins) == 1 and signs.get(ins[0][1]) == " + " and j in kept
            values.append(ins[0][0] if relabel else f"{name}{j}")
            if not relabel:
                fresh.append(j)
                terms = (signs[i] + a if i in signs else f" + {a} * c{i}" for a, i in ins)
                lines.append(f"{name}{j} = 0j{''.join(terms)}")
        check(values, fresh, kept, norm)
        return values

    def squared_norm(name: str, values: list) -> None:
        lines.append(f"{name} = sum([{', '.join(f'm{value} ** 2' for value in values)}])")

    def check(values: list, fresh: list, kept, norm: str) -> None:
        lines.extend(f"m{values[j]} = abs({values[j]})" for j in fresh)
        if fresh:
            tests = (f"m{values[j]} {'>=' if j in kept else '<'} eps" for j in fresh)
            lines.append(f"if not ({' and '.join(tests)}): return None")
        squared_norm(norm, [values[j] for j in kept])
        lines.append(f"if {norm} > cap: return None")

    def state(kets: tuple, values: list, spin: bool) -> str:
        return f"state(dict(zip({hold(kets)}, {listed(values)})), {photon_count}, {spin})"

    def listed(items) -> str:
        return f"({', '.join(items)}{',' if items else ''})"

    values = [f"v{j}" for j in range(2 ** photon_count)]
    for s, step in enumerate(path.steps):
        blocks.append((values, lines := []))  # the values a step reads, and its lines
        values = apply(step, values, f"a{s}_", "n", s > 0)  # names unique per step, for relabels
        if step.kets is not None:
            kept = values if step.kept is None else [values[j] for j in step.kept]
            lines.append(f"pre = {state(step.kets, kept, True)}")
            lines.extend(f"trace.append(({hold(mark)}, pre))" for mark in step.marks)
    lines.append("if n <= zero: return None")
    branches = []
    for b, (outcome, picks, branch) in enumerate(path.readout):  # measure_spin
        squared_norm(f"w{b}", [values[j] for j in picks])
        if branch is None:
            lines.append(f"if w{b} > weight: return None")
            continue
        lines += [f"if not w{b} > weight: return None", f"f = 1.0 / sqrt(w{b})"]
        post = [f"p{b}_{j}" for j in range(len(picks))]
        lines.extend(f"{p} = {values[j]} * f" for p, j in zip(post, picks))
        check(post, range(len(post)), range(len(post)), "r")
        steps, order, kets = branch
        for f, step in enumerate(steps):  # feed_forward
            post = apply(step, post, f"q{b}_{f}_", "r")
        squared_norm("r", post := [post[j] for j in order])  # _canonical_photonic
        lines.append("if r > cap: return None")
        branches.append(f"Branch({hold(outcome)}, w{b} / n, {state(kets, post, False)})")
    lines.append(f"return GateResult({listed(branches)}, n, tuple(trace)), pre")
    coefficients = [f"c{c}" for c in range(path.slots + len(path.constants))]
    parts, part = [], []  # each part binds the coefficients to locals, then what it reads
    for reads, lines in blocks:
        if part and sum(map(len, part + lines)) > _PART_CHARS:
            reads = list(dict.fromkeys(reads + [f"m{value}" for value in reads]))  # relabels reuse these
            parts.append(part + [f"return {listed(reads)}"])
            part = []
        part = (part or [
            f"{listed(coefficients[:path.slots])} = t", f"{listed(coefficients[path.slots:])} = constants",
            f"{listed(reads)} = v",
        ]) + lines
    parts.append(part)
    namespace = {
        "__builtins__": {}, "abs": abs, "sum": sum, "dict": dict, "zip": zip, "tuple": tuple,
        "sqrt": math.sqrt, "state": StateVector._checked, "GateResult": GateResult, "Branch": Branch,
        "eps": PRUNE_EPS, "cap": 1.0 + NORM_EPS, "zero": PRUNE_EPS ** 2, "weight": MIN_BRANCH_WEIGHT,
        "constants": path.constants, "held": tuple(held),
    }
    sources = ["def part(v, t, trace):\n" + "".join(f"    {line}\n" for line in lines) for lines in parts]
    return sources, namespace


@functools.lru_cache(maxsize=256)
def _part_code(source: str):
    """A part's code, shared by the paths that write the same source: those of one root
    that leave each other midway, say, until they part."""
    return compile(source, "<recorded path>", "exec")


def _compiled(path: _Path, photon_count: int):
    """A function calling the parts :func:`_path_source` writes in turn, compiled one
    at a time so the compiler holds one part's source at once."""
    sources, namespace = _path_source(path, photon_count)
    parts = []
    for source in sources:
        exec(_part_code(source), namespace)
        parts.append(namespace.pop("part"))

    def replay(values: list, amplitudes: tuple):
        trace = []
        for part in parts:  # the last part returns the result
            if (values := part(values, amplitudes, trace)) is None:
                return None
        return values

    return replay


def _interpret(
    program: _GateProgram, inputs: Sequence[QubitState], table: ScatterTable, log=None
):
    """Interpret a run: its result and pre-readout state, and, with its sited maps logged
    to ``log``, the :class:`_Path` that replays it (else None)."""
    if log is not None:  # amplitudes that name their slot in the table, for the logged edges
        table = table._replace(amplitudes=tuple(map(_Slot, table.amplitudes, itertools.count())))
    trace, marks = [], {}
    with recording(log):
        states = _states(program, inputs, table)
        source = state = next(states)[1]
        for step, state in states:
            if isinstance(step, str):
                trace.append((step, state))
                marks.setdefault(len(log or ()), []).append(step)
        readout = list(_readout(state, program.feed_forward))
    result = GateResult(
        tuple(Branch(o, p, out) for o, p, _, out in readout), state.norm_squared(), tuple(trace)
    )
    if not log or 0 in marks:
        return result, state, None
    return result, state, _path(program, log, source, marks, state, readout, len(table.amplitudes))


def _path(program: _GateProgram, log: list, source: StateVector, marks: dict, pre: StateVector,
          readout: list, slots: int):
    """The path that replays a logged run. None where the log is not one chain of sited
    maps from the input ``source`` to ``pre`` and on from each post-measurement state,
    or where the readout prunes a ket."""
    kets = _product_kets(program.in_modes, program.spin)
    steps, constants, position, n = [], {}, {k: j for j, k in enumerate(kets)}, 0
    while n < len(log) and log[n][0] is source:
        _, edges, source = log[n]
        n += 1
        names = tuple(marks.get(n, ()))
        step, position = _plan_step(edges, position, slots, constants, source, names, source is pre)
        steps.append(step)
    if source is not pre or not steps:
        return None
    pre_position, outcomes = position, []
    posts = {o: (post, out) for o, _, post, out in readout}
    for outcome in SpinBasis:
        picked = [k for k in pre.kets() if k.spin is outcome]
        branch = None
        if outcome in posts:
            source, out = posts[outcome]
            position, feed = {k.with_spin(None): j for j, k in enumerate(picked)}, []
            while len(source) == len(position) and n < len(log) and log[n][0] is source:
                _, edges, source = log[n]
                n += 1
                step, position = _plan_step(edges, position, slots, constants, source)
                feed.append(step)
            if not len(source) == len(position) == len(out):
                return None
            branch = (tuple(feed), tuple(position[k] for k in source.kets()), tuple(out._amps))
        outcomes.append((outcome, tuple(pre_position[k] for k in picked), branch))
    if n != len(log):
        return None
    return _Path(tuple(steps), tuple(outcomes), tuple(c for c, _ in constants), slots)


def _plan_step(edges, position: dict, slots: int, constants: dict, result: StateVector,
               marks: tuple = (), keep: bool = False):
    """Logged edges as a :class:`_Step` over the kets ``position`` numbers, and the
    numbering of the step's output kets. A constant takes the next index in
    ``constants`` on first use; equal ones share it (keyed with their sign, so 0.0
    and -0.0 stay apart)."""
    outputs, plan, ket = {}, [], None
    for given, out, coeff in edges:
        if given is not ket:  # a ket's edges come together
            ket, source = given, position[given]
        if type(coeff) is _Slot:
            index = coeff.index
        else:
            index = constants.setdefault((coeff, math.copysign(1.0, coeff)), slots + len(constants))
        plan.append((source, outputs.setdefault(out, len(outputs)), index))
    kept = tuple(j for j, k in enumerate(outputs) if k in result._amps)
    kept = None if len(kept) == len(outputs) else kept
    kets = tuple(result._amps) if keep or marks else None
    return _Step(tuple(plan), len(outputs), kept, kets, marks), outputs


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
# most a few dozen kets. After k passes every amplitude is therefore a
# polynomial of degree at most k in the four magnitudes. Each gate is
# compiled once per input into the coefficients of those polynomials, read
# from the path the replay recorder builds of a generic run; a batch of
# parameter points then costs one table of powers and one matrix product.

#: Magnitude sets (|t|, |r|, |t0|, |r0|) at which gates are compiled. |t| + |r|
#: and |t0| + |r0| stay below one, and no simple relation such as |t| = |r| or
#: |t| + |r| = |t0| + |r0| holds: at such points some amplitudes cancel (on
#: resonance both sums are one), and a path recorded there would miss kets that
#: other points reach. Both runs must record one path, so a cancellation at one
#: set alone fails the compile rather than dropping kets.
_GENERIC_POINTS = (
    ScatterCoeffs(t=0.21, r=0.67, t0=0.58, r0=0.29),
    ScatterCoeffs(t=0.37, r=0.44, t0=0.19, r0=0.73),
)

#: Qubit amplitudes standing in for every superposed input qubit while the
#: supports are recorded. A real input may carry an amplitude just above
#: ``PRUNE_EPS`` that the generic runs would prune, and with it the kets it
#: reaches; the generic stand-ins keep every component large.
_GENERIC_QUBITS = (QubitState(0.6, 0.8), QubitState(0.8, 0.6), QubitState(0.28, 0.96))


class _Monomials(NamedTuple):
    """Every monomial in (|t|, |r|, |t0|, |r0|) up to a degree.

    The monomials run by degree, each degree's in one fixed order, so those
    of a lower degree are a prefix of these. ``powers[v, m]`` is the row
    holding magnitude ``v`` to its power in monomial ``m``, in a table of
    powers laid out exponent-major, so one ``take`` and a product over the
    magnitudes give every monomial. ``shifts[v]`` maps each monomial below
    the top degree to its product with magnitude ``v``.
    """

    degree: int
    powers: np.ndarray
    shifts: tuple[tuple[np.ndarray, np.ndarray], ...]


@functools.cache
def _monomials(degree: int) -> _Monomials:
    exponents = sorted(
        (e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) <= degree),
        key=lambda e: (sum(e), e),
    )
    position = {e: i for i, e in enumerate(exponents)}
    lower = [e for e in exponents if sum(e) < degree]
    shifts = tuple(
        (
            np.array([position[e] for e in lower], dtype=np.intp),
            np.array([position[e[:v] + (e[v] + 1,) + e[v + 1:]] for e in lower], dtype=np.intp),
        )
        for v in range(4)
    )
    powers = np.array([[4 * e[v] + v for e in exponents] for v in range(4)], dtype=np.intp)
    return _Monomials(degree, powers, shifts)


def _propagate(initial: np.ndarray, passes, tail: np.ndarray | None, monomials: _Monomials):
    """Polynomial coefficients of the state after every pass, then after the tail.

    A state is a matrix with one row per ket and one column per monomial;
    a pass's part for magnitude ``v`` multiplies by that magnitude, which
    moves each column to the column of its product with it.
    """
    state = np.zeros((len(initial), monomials.powers.shape[1]), dtype=initial.dtype)
    state[:, 0] = initial
    states = []
    for parts in passes:
        new = parts[0] @ state
        images = (parts[1:].reshape(-1, parts.shape[2]) @ state).reshape(4, parts.shape[1], -1)
        for image, (lower, raised) in zip(images, monomials.shifts):
            new[:, raised] += image[:, lower]
        states.append(new)
        state = new
    states.append(state if tail is None else tail @ state)
    return states


class _CompiledGate(NamedTuple):
    """Gates on fixed inputs as polynomials in the four magnitudes.

    Row ``i`` of ``coeffs`` holds the coefficients of one amplitude over
    ``monomials``. A gate's amplitudes are every pass's state in turn, then
    the pre-readout state, then three overlaps: of the up and the down
    branch, after feed-forward, with the ideal output, and of the
    pre-readout state with the ideal one, less the rows :func:`_fold` drops.
    ``totals`` sums squared moduli of the rows into every pass's squared
    norm, each spin outcome's weight at the readout, and the three squared
    overlaps, for each gate in turn; ``blocks`` holds each gate's count.
    """

    coeffs: np.ndarray
    monomials: _Monomials
    totals: np.ndarray
    blocks: tuple[int, ...]

    def amplitudes(self, magnitudes: np.ndarray) -> np.ndarray:
        """Every row's value at each column of ``magnitudes``, shape (4, points)."""
        table = np.empty((self.monomials.degree + 1, *magnitudes.shape))
        table[0] = 1.0
        table[1:] = magnitudes
        np.multiply.accumulate(table, axis=0, out=table)
        terms = table.reshape(-1, magnitudes.shape[1]).take(self.monomials.powers, axis=0)
        return self.coeffs @ terms.prod(axis=0)

    def figures(self, magnitudes: np.ndarray):
        """Each gate's figures in turn at each ``magnitudes`` column, failing at its first bad one."""
        totals = (self.totals @ (np.abs(self.amplitudes(magnitudes)) ** 2)).T.tolist()
        for start, stop in itertools.pairwise(itertools.accumulate(self.blocks, initial=0)):
            figures = []
            for point in totals:
                *pass_norms, up_weight, down_weight, up, down, pre = point[start:stop]
                if max(pass_norms) > 1.0 + NORM_EPS:
                    norm_sq = next(n for n in pass_norms if n > 1.0 + NORM_EPS)
                    raise StructureError(f"squared norm {norm_sq} exceeds 1 + {NORM_EPS}")
                survival = up_weight + down_weight
                if survival <= PRUNE_EPS ** 2:
                    raise DegenerateStateError("cannot measure a zero state")
                per_branch = (up if up_weight > MIN_BRANCH_WEIGHT else 0.0) + (
                    down if down_weight > MIN_BRANCH_WEIGHT else 0.0
                )
                figures.append(SimulatedFigures(per_branch / survival, pre / survival, survival))
            yield figures


def _dense(state: StateVector, index: dict[BasisKet, int]) -> np.ndarray:
    """Amplitudes over an indexed support; real when they all are, which keeps
    the evaluation in real arithmetic for real inputs."""
    vector = np.zeros(len(index), dtype=complex)
    for ket, amp in state.items():
        if ket not in index:
            raise StructureError(f"ket {ket.token!r} lies outside the compiled support")
        vector[index[ket]] = amp
    return vector if vector.imag.any() else vector.real


def _readout_row(
    kets: Sequence[BasisKet], outcome: SpinBasis, rule, reference: StateVector
) -> np.ndarray:
    row = np.zeros(len(kets), dtype=complex)
    for column, ket in enumerate(kets):
        if ket.spin is outcome:
            post = feed_forward(StateVector({ket.with_spin(None): 1.0}), outcome, rule)
            row[column] = inner_product(_canonical_photonic(post), reference).conjugate()
    return row


def _fold(coeffs: np.ndarray, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the first of each group of rows that are equal or negated. Their squared
    moduli are equal at every point, so a group's columns of ``totals`` add up."""
    groups, group_of = {}, []
    for row in coeffs + 0.0:  # + 0.0 turns -0.0 into 0.0
        key = min(row.tobytes(), (0.0 - row).tobytes())  # one key for a row and its negation
        group_of.append(groups.setdefault(key, len(groups)))
    kept = np.unique(group_of, return_index=True)[1]  # each group's first row
    return coeffs[kept], totals @ np.eye(len(kept))[group_of]


@functools.lru_cache(maxsize=64)
def _compile(gate: Gate, inputs: tuple[QubitState, ...]) -> _CompiledGate:
    """Compile ``gate`` on ``inputs`` once, from the path the replay recorder builds.

    The inputs, their superposed qubits replaced by generic ones, are
    interpreted at each generic point with every structural check (routing
    collisions, incomplete maps, switch schedules, readout) and recorded. The
    two runs must record one path, and so keep the same kets at every step;
    the polynomials must reproduce both runs to 1e-12.
    """
    program = _PROGRAMS[gate]
    ideal_result, ideal_pre = _run(gate, inputs, GateMode.ideal())
    generic_inputs = tuple(
        generic if q.alpha and q.beta else q for q, generic in zip(inputs, _GENERIC_QUBITS)
    )
    tables = [realistic_scatter(c) for c in _GENERIC_POINTS]
    runs = [_interpret(program, generic_inputs, table, []) for table in tables]
    path = runs[0][2]
    if path is None or any(other != path for _, _, other in runs):
        raise StructureError(f"the generic runs of the {program.name} record different paths")
    product = {ket: j for j, ket in enumerate(_product_kets(program.in_modes, program.spin))}
    initial, generic_initial = (_dense(_input_state(program, q), product) for q in (inputs, generic_inputs))
    passes: list[np.ndarray] = []
    fold = None  # fixed elements since the last pass
    signs = [math.copysign(1.0, amplitude) for amplitude in tables[0].amplitudes]
    column = {j: j for j in product.values()}  # each source's column: the kets the step before kept
    for step in path.steps:
        row = {out: i for i, out in enumerate(range(step.outputs) if step.kept is None else step.kept)}
        # A fixed element or a pass's bypass, then a pass's part per magnitude, signed as its table slot.
        parts = np.zeros((5, len(row), len(column)))
        for source, out, index in step.edges:
            if out in row:  # else a ket the generic runs cancel
                slot = index < path.slots
                value = signs[index] if slot else path.constants[index - path.slots]
                parts[1 + REALISTIC_PARTS[index] if slot else 0, row[out], column[source]] = value
        cavity = any(index < path.slots for _, _, index in step.edges)
        matrix = parts if cavity else parts[0]
        fold = matrix if fold is None else matrix @ fold
        if cavity:  # a cavity pass closes the fold of the fixed elements before it
            passes.append(fold)
            fold = None
        column = row
    kets = path.steps[-1].kets
    index = {ket: i for i, ket in enumerate(kets)}

    monomials = _monomials(len(passes))
    reference = ideal_result.branches[0].state
    overlaps = np.array([
        *(_readout_row(kets, o, program.feed_forward, reference) for o in SpinBasis),
        _dense(ideal_pre, index).conj(),
    ])
    states = _propagate(initial, passes, fold, monomials)
    coeffs = np.concatenate([*states, (overlaps if overlaps.imag.any() else overlaps.real) @ states[-1]])
    totals = np.zeros((len(passes) + 5, len(coeffs)))
    start = 0
    for row, pass_state in enumerate(states[:-1]):
        totals[row, start:start + len(pass_state)] = 1.0
        start += len(pass_state)
    totals[-5:-3, start:start + len(kets)] = [[ket.spin is o for ket in kets] for o in SpinBasis]
    totals[-3:, -3:] = np.eye(3)
    coeffs, totals = _fold(coeffs, totals)
    compiled = _CompiledGate(coeffs, monomials, totals, blocks=(len(totals),))
    del states
    check = compiled._replace(coeffs=_propagate(generic_initial, passes, fold, monomials)[-1])
    pre_readout = check.amplitudes(np.array([c.magnitudes for c in _GENERIC_POINTS]).T)
    for column, (_, final, _) in enumerate(runs):
        error = np.abs(pre_readout[:, column] - _dense(final, index))
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


@functools.lru_cache(maxsize=64)
def _stack(kinds: tuple[tuple[Gate, tuple[QubitState, ...]], ...]) -> _CompiledGate:
    """Two or more compiled ``(gate, inputs)`` kinds as one: their rows stacked
    over the highest degree's monomials, their ``totals`` block-diagonal."""
    parts = [_compile(gate, inputs) for gate, inputs in kinds]
    monomials = max((part.monomials for part in parts), key=lambda m: m.degree)
    width, ends = monomials.powers.shape[1], list(itertools.accumulate(len(p.coeffs) for p in parts))
    coeffs = np.concatenate([np.pad(p.coeffs, ((0, 0), (0, width - p.coeffs.shape[1]))) for p in parts])
    totals = np.concatenate([
        np.pad(p.totals, ((0, 0), (end - len(p.coeffs), ends[-1] - end))) for p, end in zip(parts, ends)
    ])
    return _CompiledGate(coeffs, monomials, totals, sum((p.blocks for p in parts), ()))


def stacked_figures(
    kinds: Sequence[tuple[Gate, Sequence[QubitState]]],
    magnitudes_seq: Iterable[tuple[float, float, float, float]],
) -> list[list[SimulatedFigures]]:
    """:func:`gate_figures` of each ``(gate, inputs)`` kind at each
    (|t|, |r|, |t0|, |r0|), from one evaluation; no kinds give no lists.

    Fails as evaluating the kinds one after another would: with the first
    kind's first failing point, then with invalid magnitudes of a point,
    then with a later kind's first failing point.
    """
    if not kinds:
        return []
    magnitudes, invalid = [], None
    for point in magnitudes_seq:
        try:
            magnitudes.append(checked_magnitudes(point))
        except InvalidCoefficientError as exc:
            invalid = exc
            break
    figures = iter([[] for _ in kinds])
    if magnitudes:
        keys = tuple((gate, tuple(inputs)) for gate, inputs in kinds)
        compiled = _compile(*keys[0]) if len(keys) == 1 else _stack(keys)
        figures = compiled.figures(np.array(magnitudes).T)
    first = next(figures)
    if invalid is not None:
        raise invalid
    return [first, *figures]


def gate_figures(
    gate: Gate, inputs: Sequence[QubitState], coeffs: ScatterCoeffs
) -> SimulatedFigures:
    """Both fidelities and the survival of a lossy run, from one compiled evaluation.

    Agrees with running :func:`cnot` or :func:`toffoli` in realistic mode
    and comparing against the ideal run. The gate is compiled on first use
    per input tuple; later calls evaluate its polynomials.
    """
    return stacked_figures(((gate, inputs),), (coeffs.magnitudes,))[0][0]


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
