"""The command line as a contract, over argv drawn from the parser's own actions.

Every argv ends in exit 0, 1 or 2 with one clear stderr line on failure and
no nan or inf on success; and the canonical parse either declines an argv or
reads it exactly as argparse does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from spincavity import cli

PARSER = cli.build_parser()

#: Numeric tokens at the edges of float parsing and of every range check.
EDGE_NUMBERS = (
    "nan", "-nan", "inf", "-inf", "+inf", "0", "-0.0", "1", "100", "1e308", "-1e308", "1e-308",
    "5e-324", "-5e-324", "1e309", "-1e-3", "-2.5e+1", "abc", "",
)
EDGE_AMPLITUDES = ("1", "0", "-1", "0.6", "-0.8j", "nan", "inf", "1e200", "5e-324", "x", "")


def unit_pair(parts) -> str:
    norm = math.sqrt(sum(part * part for part in parts))
    return f"{complex(*parts[:2]) / norm!r}:{complex(*parts[2:]) / norm!r}" if norm > 0.1 else "R"


part = st.floats(-1.0, 1.0)
qubits = st.one_of(
    st.sampled_from(("R", "L", "+", "-", "plus", "minus", "0.6:0.8", "-0.6j:0.8", "(0.6+0j):-0.8j")),
    st.tuples(part, part, part, part).map(unit_pair),
)
#: Grid steps stay small: the validation path alone sees huge counts.
STEPS, EDGE_STEPS = ("2", "3", "6"), ("1", "0", "-1", "2.5", "1e3", "nan", "")
COMMA_LISTS = {"outputs": cli.ALL_OUTPUTS, "decohere": cli.DECOHERE_CHOICES}
QUBIT_DESTS = ("control", "control2", "target")


def mostly(good, odd):
    """``good`` seven times in eight, else ``odd``."""
    return st.integers(0, 7).flatmap(lambda i: good if i else odd)


def values(action: argparse.Action):
    """Tokens for one action's value: mostly valid, else at an edge or wrong."""
    if action.choices is not None:
        return mostly(st.sampled_from(action.choices), st.just("bogus"))
    if action.type is float:
        return mostly(st.floats(0.0, 5.0).map(repr), st.sampled_from(EDGE_NUMBERS))
    if action.type is int:
        return mostly(st.sampled_from(STEPS), st.sampled_from(EDGE_STEPS))
    if action.dest in QUBIT_DESTS:
        return mostly(qubits, st.tuples(*[st.sampled_from(EDGE_AMPLITUDES)] * 2).map(":".join))
    if action.dest in COMMA_LISTS:
        names = COMMA_LISTS[action.dest]
        valid = st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True)
        return mostly(valid.map(",".join), st.lists(st.sampled_from((*names, "bogus", "")), max_size=3).map(",".join))
    if action.dest == "out":
        return st.just("out.txt")
    return st.text(max_size=4)


@st.composite
def option(draw, action: argparse.Action) -> list[str]:
    """One use of a flag: named in full or by a prefix (unique or not), its
    value joined by ``=`` or as the next token."""
    flag = draw(st.sampled_from(action.option_strings))
    if draw(st.integers(0, 9)) == 0:
        flag = flag[: draw(st.integers(3, len(flag)))]
    if action.nargs == 0:
        return [flag + "=x"] if draw(st.integers(0, 9)) == 0 else [flag]
    value = draw(values(action))
    return [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]


ODD = (["-h"], ["--help"], ["--"], ["--bogus"], ["extra"], ["-"], ["--config", "/nonexistent/spincavity.cfg"])


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand with a random subset of its flags, each maybe repeated, its
    positionals mostly given, now and then an odd token, all in random order."""
    name = draw(st.sampled_from(sorted(PARSER.commands)))
    groups = []
    for action in PARSER.commands[name]._actions:
        if action.default is argparse.SUPPRESS:  # help: drawn with the odd tokens
            continue
        if not action.option_strings:
            if draw(st.integers(0, 9)):
                groups.append([draw(values(action))])
        elif action.required or action.type is int or draw(st.booleans()):  # steps: no default grid
            groups += [draw(option(action)) for _ in range(2 if draw(st.integers(0, 11)) == 0 else 1)]
    if draw(st.integers(0, 5)) == 0:
        groups.append(draw(st.sampled_from(ODD)))
    return [name] + [token for group in draw(st.permutations(groups)) for token in group]


any_argv = st.one_of(argvs(), st.sampled_from(([], ["-h"], ["bogus"], ["--g", "1"])))


def typed(namespace: argparse.Namespace) -> dict:
    """Each value with its type and repr, so -0.0, NaN and 1 against 1.0 stay apart."""
    return {name: (type(value), repr(value)) for name, value in vars(namespace).items()}


@settings(max_examples=400, deadline=None)
@given(argv=any_argv)
@example(argv=["simulate", "cnot", "--target=-0.6j:0.8", "--control", "-0.0:1", "--g", "-0.0"])
@example(argv=["sweep", "--g-min=-0.0", "--g-steps", "2", "--ks-steps", "3", "--gamma", "nan"])
def test_canonical_parse_is_argparse_or_declines(argv):
    try:
        tokens = cli._attach_dash_values(cli._expand_config(argv))
    except cli.ConfigError:  # an unreadable config file
        return
    fast = cli._parse_canonical(tokens)
    event("declined" if fast is None else "canonical")
    if fast is not None:
        assert typed(fast) == typed(PARSER.parse_args(tokens))


#: stdout words that mean a non-finite number was printed (``%g`` or JSON spelling).
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
real_points = cli.SweepRange.points


def drawn_points(self):
    assert self.steps <= 1000, "a grid this size was never drawn"
    return real_points(self)


def exit_of(argv: list[str]):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # help, printed by argparse
        return "help", exc.code


@settings(max_examples=300, deadline=None)
@given(argv=any_argv)
@example(argv=["decoherence", "--fidelity", "nan"])
@example(argv=["sweep", "--g-steps", "100000000000"])
@example(argv=["simulate", "toffoli", "--control", "+", "--control2", "+", "--target", "+", "--mode", "realistic",
               "--g", "0", "--kappa-s", "2"])
@example(argv=["coeffs", "--g", "1e200"])
def test_every_argv_ends_in_one_clear_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as folder:
        os.chdir(folder)  # where --out writes, whichever token it takes as its path
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    mock.patch.object(cli.SweepRange, "points", drawn_points):
                code = exit_of(argv)
        finally:
            os.chdir(home)
        written = "".join(path.read_text(encoding="utf-8") for path in Path(folder).iterdir())
    event(f"{argv[:1]} exit {code}")
    if code == ("help", 0):
        assert err.getvalue() == "" and out.getvalue().startswith("usage:")
        return
    assert code in (0, 1, 2)
    if code:
        assert re.fullmatch(r"(error|invariant violation): [^\n]+\n", err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""
        assert not NON_FINITE.search(out.getvalue() + written)
