"""Replayed gate runs against a fresh interpretation of the gate program.

Runs of a gate, scatter-table shape and input support that miss the
recorded plans are interpreted, from the second on recorded; later runs of
that kind replay the recording.
A replay must give the same bits as interpreting the program afresh: every
trace stage (kets and their order too), every branch, the survival, and the
same error where the interpretation fails.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
import random
import re
import sys
import threading
import tokenize
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincavity import circuits
from spincavity.cavity import CavityParams, ScatterCoeffs
from spincavity.circuits import (
    QUBIT_L,
    QUBIT_MINUS,
    QUBIT_PLUS,
    QUBIT_R,
    Branch,
    Gate,
    GateMode,
    GateResult,
    QubitState,
    _PROGRAMS,
    _product_amplitudes,
    _product_kets,
    _readout,
    _run,
    _states,
)
from spincavity.hilbert import PRUNE_EPS, StateError, StateVector, StructureError

ARITY = {Gate.CNOT: 2, Gate.TOFFOLI: 3}


def state_bits(state):
    amps = [(ket, amp.real.hex(), amp.imag.hex()) for ket, amp in state._amps.items()]
    return state.photon_count, state.has_spin, amps


def run_bits(gate, inputs, mode, run):
    """Everything a run returns, down to the bits, or the error it raises."""
    try:
        result = run(gate, inputs, mode)
    except StateError as exc:
        return type(exc), str(exc)
    return (
        result.survival.hex(),
        [(name, state_bits(state)) for name, state in result.trace],
        [(b.outcome, b.probability.hex(), state_bits(b.state)) for b in result.branches],
    )


def interpret(gate, inputs, mode):
    """The gate program interpreted step by step, with no recorded plans."""
    program = _PROGRAMS[gate]
    trace = []
    for step, state in _states(program, inputs, mode.scatter_table()):
        if isinstance(step, str):
            trace.append((step, state))
    branches = tuple(Branch(o, p, out) for o, p, _, out in _readout(state, program.feed_forward))
    return GateResult(branches, state.norm_squared(), tuple(trace))


def qubit(theta, phi):
    return QubitState(math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)))


qubits = st.one_of(
    st.sampled_from([QUBIT_R, QUBIT_L, QUBIT_PLUS, QUBIT_MINUS]),
    # Signed and exact zeros: an input amplitude may hold -0.0, which a relabel
    # of it must not carry on.
    st.sampled_from([
        QubitState(complex(-0.0, 0.6), 0.8),
        QubitState(0.6, complex(0.8, -0.0)),
        QubitState(-0.0, 1.0),
        QubitState(complex(0.0, -1.0), 0.0),
    ]),
    st.builds(qubit, st.floats(0.0, math.pi / 2.0), st.floats(0.0, 2.0 * math.pi)),
    # One component near PRUNE_EPS, so products of it land on either side.
    st.builds(
        lambda small, phi, flip: qubit(math.pi / 2.0 - small if flip else small, phi),
        st.floats(1e-13, 1e-11),
        st.floats(0.0, 2.0 * math.pi),
        st.booleans(),
    ),
)
magnitudes = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
modes = st.one_of(
    st.just(GateMode.ideal()),
    st.builds(
        lambda g, kappa_s, gamma: GateMode.realistic(CavityParams(g=g, kappa_s=kappa_s, gamma=gamma)),
        st.floats(0.0, 6.0),
        st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        st.floats(0.01, 1.0),
    ),
    st.builds(
        lambda t, r, t0, r0: GateMode(ScatterCoeffs(t=t, r=(1.0 - t) * r, t0=t0, r0=(1.0 - t0) * r0)),
        magnitudes, magnitudes, magnitudes, magnitudes,
    ),
    # Detuned: the magnitude table can gain norm, and then both must fail alike.
    st.builds(
        lambda g, delta: GateMode.realistic(CavityParams(g=g, kappa_s=0.5, delta_c=delta, delta_x=-delta)),
        st.floats(0.5, 4.0),
        st.floats(-1.0, 1.0),
    ),
)
runs = st.sampled_from(list(Gate)).flatmap(
    lambda gate: st.tuples(st.just(gate), st.tuples(*[qubits] * ARITY[gate]), modes)
)


@settings(max_examples=300, deadline=None)
@given(runs)
def test_replay_equals_interpretation(run):
    gate, inputs, mode = run
    want = run_bits(gate, inputs, mode, interpret)
    # The first run is interpreted, the second may record its kind, the third replays it.
    for _ in range(3):
        assert run_bits(gate, inputs, mode, _run) == want


@pytest.fixture
def fresh_plans():
    circuits._plan_root.cache_clear()
    yield
    circuits._plan_root.cache_clear()


@pytest.fixture
def records(monkeypatch, fresh_plans):
    """Count the runs that are interpreted and recorded rather than replayed."""
    calls = []
    interpret = circuits._interpret

    def counted(*args):
        if args[3] is not None:
            calls.append(args)
        return interpret(*args)

    monkeypatch.setattr(circuits, "_interpret", counted)
    return calls


def test_only_repeated_kinds_are_recorded(records, monkeypatch):
    # A one-shot command interprets its run and records nothing; a kind is
    # recorded from its second miss on, up to _PATHS_PER_ROOT recordings.
    monkeypatch.setattr(circuits, "_PATHS_PER_ROOT", 1)
    inputs = (QUBIT_PLUS, QUBIT_R)
    lossless, lossy = (GateMode.realistic(CavityParams(g=2.4, kappa_s=ks)) for ks in (0.0, 0.5))
    _run(Gate.CNOT, inputs, lossy)
    assert records == []
    for mode in (lossy, lossy, lossless, lossless):
        assert run_bits(Gate.CNOT, inputs, mode, _run) == run_bits(Gate.CNOT, inputs, mode, interpret)
    # The lossless runs leave the lossy path and the root is full: interpreted only.
    assert len(records) == 1


def test_one_recording_serves_every_cavity(records):
    inputs = (qubit(0.4, 1.1), qubit(1.2, 0.3), qubit(0.9, 2.0))
    for g, kappa_s in ((2.4, 0.5), (0.3, 0.9), (4.7, 0.01)):
        mode = GateMode.realistic(CavityParams(g=g, kappa_s=kappa_s))
        assert run_bits(Gate.TOFFOLI, inputs, mode, _run) == run_bits(
            Gate.TOFFOLI, inputs, mode, interpret
        )
    # A new input of the same support replays too.
    other = (qubit(1.0, 0.2), qubit(0.3, 2.5), qubit(0.7, 4.0))
    _run(Gate.TOFFOLI, other, GateMode.realistic(CavityParams(g=1.0, kappa_s=0.2)))
    assert len(records) == 1


def test_kets_pruned_on_one_cavity_only_get_their_own_path(records):
    # At kappa_s = 0 the cold reflection is exactly zero, so kets the lossy
    # cavity reaches are pruned; each cavity then replays its own path.
    inputs = (QUBIT_PLUS, QUBIT_R)
    lossless, lossy = (GateMode.realistic(CavityParams(g=2.4, kappa_s=ks)) for ks in (0.0, 0.5))
    for mode in (lossless, lossy, lossless, lossy):
        assert run_bits(Gate.CNOT, inputs, mode, _run) == run_bits(Gate.CNOT, inputs, mode, interpret)
    assert len(records) == 2


def test_detuned_failure_keeps_its_message(records):
    # The second resonant run records the path; the detuned one replays it
    # until its norm check fails, and the interpretation then raises as before.
    inputs = (QUBIT_PLUS, QUBIT_PLUS)
    for _ in range(2):
        _run(Gate.CNOT, inputs, GateMode.realistic(CavityParams(g=2.4, kappa_s=0.5)))
    assert len(records) == 1
    detuned = GateMode.realistic(CavityParams(g=2.4, kappa_s=0.5, delta_c=0.7, delta_x=-0.3))
    with pytest.raises(StructureError, match=r"^squared norm 1\.14083090880494\d* exceeds 1 \+ 1e-09$"):
        _run(Gate.CNOT, inputs, detuned)


@pytest.fixture
def compiled_paths(monkeypatch, fresh_plans):
    """The paths that runs compile, in order."""
    paths = []
    compile_path = circuits._compiled

    def recorded(path, photon_count):
        paths.append(path)
        return compile_path(path, photon_count)

    monkeypatch.setattr(circuits, "_compiled", recorded)
    return paths


def root_of(gate, inputs, mode):
    kept = tuple(j for j, v in enumerate(_product_amplitudes(inputs)) if abs(v) >= PRUNE_EPS)
    return circuits._plan_root(gate, len(mode.scatter_table().amplitudes), kept)


def test_paths_per_root_stay_bounded(compiled_paths, monkeypatch):
    # Magnitudes of 0 and 1/2 prune other kets on each cavity, so most runs
    # miss the paths recorded before them; a root keeps at most
    # _PATHS_PER_ROOT, and every run still gets the interpreted bits.
    monkeypatch.setattr(circuits, "_PATHS_PER_ROOT", 3)
    inputs = (QUBIT_PLUS, QUBIT_R)
    for t, r, t0, r0 in itertools.product((0.0, 0.5), repeat=4):
        mode = GateMode(ScatterCoeffs(t=t, r=r, t0=t0, r0=r0))
        for _ in range(2):
            assert run_bits(Gate.CNOT, inputs, mode, _run) == run_bits(Gate.CNOT, inputs, mode, interpret)
            root = root_of(Gate.CNOT, inputs, mode)
            assert len(root.paths) <= 3
    # Fifteen paths exist and most runs missed, but a failed recording keeps
    # its slot: two paths were compiled, from the third and fourth misses.
    assert len(root.paths) == len(compiled_paths) == 2
    assert root.misses > 20


def test_equal_paths_compile_to_equal_sources(fresh_plans, monkeypatch):
    # Other inputs of the same support on another cavity record the same path
    # under a new root, and it compiles to the same source: the source holds
    # integer indices and fixed names, never an amplitude.
    written = []
    path_source = circuits._path_source

    def recorded(path, photon_count):
        sources, namespace = path_source(path, photon_count)
        written.append((path, sources))
        return sources, namespace

    monkeypatch.setattr(circuits, "_path_source", recorded)
    for inputs, params in (
        ((qubit(0.4, 1.1), qubit(1.2, 0.3), qubit(0.9, 2.0)), CavityParams(g=2.4, kappa_s=0.5)),
        ((qubit(1.0, 0.2), qubit(0.3, 2.5), qubit(0.7, 4.0)), CavityParams(g=0.7, kappa_s=0.9)),
    ):
        circuits._plan_root.cache_clear()
        for _ in range(2):
            _run(Gate.TOFFOLI, inputs, GateMode.realistic(params))
    (first, sources), (second, again) = written
    assert first == second
    assert sources == again
    numbers = {
        token.string
        for source in sources
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NUMBER
    }
    assert all(number.isdigit() for number in numbers - {"0j", "1.0"})


REALISTIC = GateMode.realistic(CavityParams(g=2.4, kappa_s=0.5))


def recorded_path(gate, mode):
    """The path of a run on (0.6:0.8) qubits, and its edges with feed-forward ones."""
    inputs = (QubitState(0.6, 0.8),) * ARITY[gate]
    _, _, path = circuits._interpret(_PROGRAMS[gate], inputs, mode.scatter_table(), [])
    steps = path.steps + tuple(step for _, _, branch in path.readout if branch for step in branch[0])
    return path, [index for step in steps for _, _, index in step.edges]


def written(path, gate):
    """The products with a coefficient, the ``abs`` calls and the squared norms in the
    source of ``path``."""
    source = "".join(circuits._path_source(path, ARITY[gate])[0])
    return source.count(" * c"), source.count("abs("), len(re.findall(r" = 0\b", source))


@pytest.mark.parametrize("mode", [GateMode.ideal(), REALISTIC])
@pytest.mark.parametrize("gate", list(Gate))
def test_unit_constants_write_no_products(gate, mode):
    # An edge with a table slot or a constant other than +1 or -1 is one product;
    # a +1 or -1 edge adds or subtracts its source as it is.
    path, indices = recorded_path(gate, mode)
    weighted = [j for j in indices if j < path.slots or abs(path.constants[j - path.slots]) != 1.0]
    assert written(path, gate)[0] == len(weighted) < len(indices)


@pytest.mark.parametrize("gate, edges, products, magnitudes, norms", [
    (Gate.CNOT, 130, 80, 70, 15),
    (Gate.TOFFOLI, 896, 496, 348, 31),
])
def test_realistic_path_counts(gate, edges, products, magnitudes, norms):
    # Relabels (an output whose one edge is a +1 from a computed amplitude)
    # write no line and no abs: their source's prune test covers them. Each
    # of the 2^n input amplitudes has its abs, for the input's own check. A
    # squared norm is written only where its terms or their order differ from
    # the last one of its name: that repeats for 3 of the CNOT path's 13 and
    # none of its readout's 3, and for 10 of the Toffoli's 36 and 2 of its
    # readout's 5. A branch state keeps the feed-forward's ket order, so no
    # reordered output adds a sum of its own.
    path, indices = recorded_path(gate, REALISTIC)
    assert (len(indices), *written(path, gate)) == (edges, products, magnitudes, norms)


@pytest.mark.parametrize("mode", [GateMode.ideal(), REALISTIC])
@pytest.mark.parametrize("gate", list(Gate))
def test_every_run_builds_one_scatter_table(fresh_plans, monkeypatch, gate, mode):
    # The benchmark counts gate runs by their GateMode.scatter_table calls:
    # one per cnot or toffoli run, interpreted, recorded or replayed.
    inputs = (QUBIT_PLUS,) * ARITY[gate]
    root = root_of(gate, inputs, mode)
    calls, build = [], GateMode.scatter_table
    monkeypatch.setattr(GateMode, "scatter_table", lambda self: calls.append(self) or build(self))
    run = circuits.cnot if gate is Gate.CNOT else circuits.toffoli
    for runs, misses, paths in ((1, 1, 0), (2, 2, 1), (3, 2, 1)):  # interpreted, recorded, replayed
        run(*inputs, mode)
        assert (len(calls), root.misses, len(root.paths)) == (runs, misses, paths)


def amplitudes_all(table, value):
    return table._replace(amplitudes=(value,) * len(table.amplitudes))


def test_failing_values_leave_a_path_quietly(fresh_plans):
    # Tables that gain norm (detuned, or magnitudes of 0.9 that keep the
    # recorded kets and fail only the squared-norm cap), or amplitudes that
    # are NaN or infinite: the compiled path returns None rather than
    # raising, and the run then fails with the interpretation's own error
    # and message.
    inputs = (QUBIT_PLUS, QUBIT_PLUS)
    resonant = GateMode.realistic(CavityParams(g=2.4, kappa_s=0.5))
    for _ in range(2):
        _run(Gate.CNOT, inputs, resonant)
    (replay,) = root_of(Gate.CNOT, inputs, resonant).paths
    gaining = (
        GateMode.realistic(CavityParams(g=2.4, kappa_s=0.5, delta_c=0.7, delta_x=-0.3)),
        GateMode(ScatterCoeffs(t=0.9, r=0.9, t0=-0.9, r0=0.9)),
    )
    tables = [mode.scatter_table() for mode in gaining]
    tables += [amplitudes_all(resonant.scatter_table(), value) for value in (math.nan, math.inf)]
    for table in tables:
        assert replay(_product_amplitudes(inputs), table.amplitudes) is None
        mode = SimpleNamespace(scatter_table=lambda table=table: table)
        want = run_bits(Gate.CNOT, inputs, mode, interpret)
        assert want[0] is StructureError
        assert run_bits(Gate.CNOT, inputs, mode, _run) == want
    assert root_of(Gate.CNOT, inputs, resonant).paths == (replay,)


def test_runs_that_leave_a_path_midway_are_interpreted(compiled_paths):
    # A control component of 1.5e-12 passes the input's pruning, as 1e-11
    # does, so both reach one root; a few steps in it falls below PRUNE_EPS
    # and leaves the path 1e-11 recorded.
    mode = GateMode.realistic(CavityParams(g=2.4, kappa_s=0.5))
    for beta in (1e-11, 1e-11, 1.5e-12, 1.5e-12, 1.5e-12):
        inputs = (QubitState(math.sqrt(1.0 - beta * beta), beta), QUBIT_PLUS)
        assert run_bits(Gate.CNOT, inputs, mode, _run) == run_bits(Gate.CNOT, inputs, mode, interpret)
    assert circuits._plan_root.cache_info().currsize == 1
    first, second = compiled_paths
    assert first.steps[0] == second.steps[0]
    assert first.steps[-1] != second.steps[-1]


def test_threads_record_and_replay_alike(fresh_plans, monkeypatch):
    # Each thread logs only its own sited maps, so every recording yields a
    # path, and paths are shared: threads recording and replaying the same
    # kinds at once all get the interpreted bits.
    interpret_logged, unrecorded = circuits._interpret, []

    def checked_record(*args):
        result, pre, path = interpret_logged(*args)
        if args[3] is not None and path is None:
            unrecorded.append(args)
        return result, pre, path

    monkeypatch.setattr(circuits, "_interpret", checked_record)
    rng = random.Random(11)
    pool = [QUBIT_R, QUBIT_L, QUBIT_PLUS]
    jobs = []
    for gate in (Gate.CNOT, Gate.TOFFOLI) * 8:
        inputs = tuple(
            rng.choice(pool) if rng.random() < 0.3 else qubit(rng.uniform(0.1, 1.4), rng.uniform(0, 6))
            for _ in range(ARITY[gate])
        )
        mode = rng.choice([GateMode.ideal(), GateMode.realistic(CavityParams(g=rng.uniform(0.5, 4), kappa_s=0.3))])
        jobs.append((gate, inputs, mode))
    want = [run_bits(*job, interpret) for job in jobs]
    wrong = []

    def work(offset):
        for i in range(len(jobs)):
            j = (i + offset) % len(jobs)
            if run_bits(*jobs[j], _run) != want[j]:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(5 * k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert unrecorded == []


def test_overweight_input_is_refused_by_the_replay(fresh_plans):
    # Qubits of weight 1 + 1e-9 (a hair below, as the double nearest to that
    # fails QubitState's check) pass that check, but their product weighs about
    # 1 + 3e-9: the path of (+, +, +) has its support, and refuses it as the
    # state constructor does, so the run raises as before.
    heavy = QubitState(*[math.sqrt(math.nextafter(1.0 + 1e-9, 0.0) / 2.0)] * 2)
    for _ in range(2):
        _run(Gate.TOFFOLI, (QUBIT_PLUS,) * 3, REALISTIC)
    (replay,) = root_of(Gate.TOFFOLI, (heavy,) * 3, REALISTIC).paths
    assert replay(_product_amplitudes((heavy,) * 3), REALISTIC.scatter_table().amplitudes) is None
    want = run_bits(Gate.TOFFOLI, (heavy,) * 3, REALISTIC, interpret)
    assert want[0] is StructureError and want[1].endswith("exceeds 1 + 1e-09")
    assert run_bits(Gate.TOFFOLI, (heavy,) * 3, REALISTIC, _run) == want


@functools.cache
def replay_of(gate, tokens, mode):
    """A compiled path of ``gate`` on the qubits named by ``tokens`` (R, L or +), and the path."""
    inputs = tuple({"R": QUBIT_R, "L": QUBIT_L, "+": QUBIT_PLUS}[token] for token in tokens)
    _, _, path = circuits._interpret(_PROGRAMS[gate], inputs, mode.scatter_table(), [])
    return circuits._compiled(path, ARITY[gate]), path


tiny = st.one_of(st.floats(-2e-12, 2e-12), st.sampled_from([0.0, -0.0, 1e-12, -1e-12, math.nextafter(1e-12, 0.0)]))
parts = st.one_of(st.floats(-1.0, 1.0), tiny, st.sampled_from([math.nan, math.inf, -math.inf]))
ordinary = st.builds(complex, st.floats(-0.35, 0.35), st.floats(-0.35, 0.35))
small = st.builds(complex, tiny, tiny)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_checks_its_input_as_the_state_constructor(data):
    # A recorded path is fed arbitrary input amplitudes: NaN, infinities,
    # signed zeros, values either side of PRUNE_EPS, norms either side of the
    # cap. Where a StateVector over them raises or keeps another support, the
    # replay returns None; otherwise it gives the bits of interpreting the
    # gate from that state, or None exactly where that run fails or leaves
    # the path.
    gate = data.draw(st.sampled_from(list(Gate)))
    tokens = data.draw(st.tuples(*[st.sampled_from("RL+")] * ARITY[gate]))
    mode = data.draw(st.sampled_from([GateMode.ideal(), REALISTIC]))
    replay, path = replay_of(gate, tokens, mode)
    # Half the runs draw only finite values that mostly keep the path's support.
    wild = st.builds(complex, parts, parts) if data.draw(st.booleans()) else st.nothing()
    kept, off = st.one_of(ordinary, wild), st.one_of(st.just(0j), small, wild)
    values = [data.draw(kept if j in path.kept else off) for j in range(2 ** ARITY[gate])]
    program = _PROGRAMS[gate]
    kets = _product_kets(program.in_modes, program.spin)
    table = mode.scatter_table()
    replayed = replay(values, table.amplitudes)
    try:
        state = StateVector(dict(zip(kets, values)), photon_count=ARITY[gate], has_spin=True)
    except StructureError:
        assert replayed is None
        return
    if [kets.index(ket) for ket in state._amps] != list(path.kept):
        assert replayed is None
        return
    with mock.patch.object(circuits, "_input_state", lambda *_: state):
        try:
            result, _, again = circuits._interpret(program, None, table, [])
        except StateError:
            again = None
    if again != path:
        assert replayed is None
    else:
        assert run_bits(gate, None, mode, lambda *_: replayed) == run_bits(gate, None, mode, lambda *_: result)
