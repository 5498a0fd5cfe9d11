"""``simulate`` stdout pinned byte for byte.

Criterion 5 compares states to 1e-9 up to a global phase, which cannot see
a change in summation order; these files can. Each file holds the exact
stdout of one command, recorded before the dict engine's kets became
tuples. ``cli.main`` is also driven several times in one process, to show
that the parser it reuses carries no state from one call to the next.
The stdout of 300 seeded commands is pinned by its sha256, recorded before
ket tokens were cached and before ``main`` parsed a command once. Neither
rests on how the builtin ``sum`` adds floats, which CPython 3.12 changed.
"""

from __future__ import annotations

import builtins
import contextlib
import hashlib
import io
import math
import random

import pytest

from conftest import GOLDEN_DIR
from spincavity import circuits, cli
from spincavity.hilbert import _layout

REALISTIC = ("--mode", "realistic")

#: Golden name -> ``simulate`` argv; the file is ``golden/simulate_<name>.txt``.
COMMANDS = {
    "cnot_ideal_plus": ["simulate", "cnot", "--control", "+", "--target", "+", "--trace"],
    "cnot_ideal_phase": [
        "simulate", "cnot", "--control", "0.6:0.48+0.64j", "--target", "0.8:-0.36+0.48j", "--trace",
    ],
    "cnot_realistic_phase": [
        "simulate", "cnot", "--control", "0.6:0.48+0.64j", "--target", "0.6j:-0.8",
        "--trace", *REALISTIC, "--g", "2.4", "--kappa-s", "0.5",
    ],
    "cnot_realistic_no_leak": [
        "simulate", "cnot", "--control", "+", "--target", "R", "--trace", *REALISTIC,
        "--g", "1.7", "--kappa-s", "0",
    ],
    "cnot_realistic_weak": [
        "simulate", "cnot", "--control", "0.28:0.96j", "--target", "-", "--trace", *REALISTIC,
        "--g", "0.3", "--kappa-s", "0.25", "--gamma", "0.2",
    ],
    "toffoli_ideal_plus": [
        "simulate", "toffoli", "--control", "+", "--control2", "+", "--target", "+", "--trace",
    ],
    "toffoli_ideal_phase": [
        "simulate", "toffoli", "--control", "0.8:0.6j", "--control2", "0.96:-0.28j",
        "--target", "0.6:-0.48-0.64j", "--trace",
    ],
    "toffoli_realistic_phase": [
        "simulate", "toffoli", "--control", "0.6:0.48+0.64j", "--control2", "+",
        "--target", "0.8j:0.6", "--trace", *REALISTIC, "--g", "2.4", "--kappa-s", "0.5",
    ],
    "toffoli_realistic_no_leak": [
        "simulate", "toffoli", "--control", "L", "--control2", "+", "--target", "-",
        "--trace", *REALISTIC, "--g", "3.1", "--kappa-s", "0",
    ],
    "toffoli_realistic_weak": [
        "simulate", "toffoli", "--control", "+", "--control2", "0.6:0.8j", "--target", "+",
        "--trace", *REALISTIC, "--g", "0.4", "--kappa-s", "0.1",
    ],
    # Full-precision amplitudes: the survival and branch probabilities of
    # these two change in their last digits when the kets of a state are
    # visited in insertion order rather than sorted order.
    "cnot_realistic_order": [
        "simulate", "cnot",
        "--control", "(-0.21947427343769763+0.9159017620757658j):(-0.024551185344010185-0.33518986384392074j)",
        "--target", "(0.702687168745403-0.4048166735091021j):(-0.5849694840503898+0.012841591000157561j)",
        "--trace", *REALISTIC, "--g", "1.2486482711236424", "--kappa-s", "0.4016442563343041",
    ],
    "toffoli_ideal_order": [
        "simulate", "toffoli",
        "--control", "(-0.6570631373662084+0.4838557984203656j):(0.45999304781646655+0.350082841353277j)",
        "--control2", "(0.5023453088951639+0.20714632815540734j):(0.765442249384514+0.34472851959176515j)",
        "--target", "(0.4956539360809877+0.8065931082918214j):(-0.17267009749090184+0.2718819058636388j)",
        "--trace",
    ],
}


def run_main(argv):
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_simulate_bytes_match_golden(name):
    code, out, err = run_main(COMMANDS[name])
    assert (code, err) == (0, "")
    expected = (GOLDEN_DIR / f"simulate_{name}.txt").read_text(encoding="utf-8")
    assert out == expected


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum``, except that real numbers with a float among them are added
    by ``math.fsum``: a compensated float sum, as CPython 3.12 and later have."""
    items = list(iterable)
    if any(isinstance(item, float) for item in items) and all(isinstance(item, (int, float)) for item in items):
        return start + math.fsum(items)
    return BUILTIN_SUM(items, start)


BUILTIN_SUM = builtins.sum


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_simulate_bytes_hold_under_a_compensated_sum(name, monkeypatch):
    # Every squared norm on the output path is added left to right on purpose,
    # so the bytes hold whatever the builtin sum does with floats. The command
    # runs from a cleared plan cache: interpreted, recorded, then replayed.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    expected = (GOLDEN_DIR / f"simulate_{name}.txt").read_text(encoding="utf-8")
    circuits._plan_root.cache_clear()
    for _ in range(3):
        assert run_main(COMMANDS[name]) == (0, expected, "")


def test_layout_cache_stays_bounded():
    for argv in COMMANDS.values():
        run_main(argv)
    info = _layout.cache_info()
    assert info.maxsize == 256
    assert 0 < info.currsize <= info.maxsize


def test_reused_parser_leaks_no_state(tmp_path):
    out_path = tmp_path / "sweep.csv"
    sequence = [
        COMMANDS["toffoli_realistic_phase"],
        COMMANDS["cnot_ideal_phase"],
        ["simulate", "toffoli", "--control", "+", "--target", "R"],  # no --control2
        ["simulate", "cnot", "--control", "+"],  # no --target
        ["sweep", "--g-steps", "2", "--ks-steps", "3", "--out", str(out_path)],
        COMMANDS["cnot_realistic_weak"],
    ]
    assert cli.build_parser() is cli.build_parser()
    reused = [run_main(argv) for argv in sequence]
    written = out_path.read_text(encoding="utf-8")
    out_path.unlink()

    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(run_main(argv))
    assert reused == fresh
    assert out_path.read_text(encoding="utf-8") == written
    assert [code for code, _, _ in reused] == [0, 0, 1, 1, 0, 0]
    for argv in (sequence[0], sequence[1], sequence[4]):
        parsed = vars(cli.build_parser().parse_args(argv))
        assert parsed == vars(cli.build_parser.__wrapped__().parse_args(argv))


def seeded_commands(seed: int, count: int) -> list[list[str]]:
    """``simulate --trace`` argv lists over both gates and both modes, with
    random ``alpha:beta`` qubits, about half of them dash-led.

    Amplitudes are normalized by the square root of their squares added left
    to right, which rounds the same on every platform and CPython version, so
    the argv lists do too.
    """
    rng = random.Random(seed)

    def qubit() -> str:
        if rng.random() < 0.15:
            return rng.choice(("R", "L", "+", "-"))
        parts = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        squares = 0
        for part in parts:
            squares += part * part
        norm = math.sqrt(squares)
        alpha, beta = complex(parts[0], parts[1]) / norm, complex(parts[2], parts[3]) / norm
        return f"{repr(alpha).strip('()')}:{repr(beta).strip('()')}"

    commands = []
    for _ in range(count):
        gate = rng.choice(("cnot", "toffoli"))
        flags = ("--control", "--control2", "--target") if gate == "toffoli" else ("--control", "--target")
        argv = ["simulate", gate, "--trace"]
        for flag in flags:
            token = qubit()
            argv += [f"{flag}={token}"] if rng.random() < 0.25 else [flag, token]
        if rng.random() < 0.5:
            argv += ["--mode", "realistic", "--g", repr(rng.uniform(0.3, 5.0))]
            argv += ["--kappa-s", repr(rng.uniform(0.0, 1.0))]
            if rng.random() < 0.3:
                argv += ["--gamma", repr(rng.uniform(0.01, 0.5))]
        commands.append(argv)
    return commands


#: sha256 of the concatenated stdout of ``seeded_commands(2026, 300)``.
SEEDED_STDOUT_SHA256 = "4d0cafcceabbc34464022eca8b53387b5545a3ed74015f48981512bff7aa8149"


def test_seeded_commands_print_pinned_bytes():
    """Run in one process, the commands take both the interpreted and the replayed path."""
    commands = seeded_commands(2026, 300)
    dash_led = [token for argv in commands for token in argv if token[:1] == "-" != token[1:2]]
    assert sum(":" in token for token in dash_led) > 100
    digest = hashlib.sha256()
    for argv in commands:
        code, out, err = run_main(argv)
        assert (code, err) == (0, ""), argv
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == SEEDED_STDOUT_SHA256
