"""Command-line behavior: determinism, formats, exit codes, config handling."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spincavity.cavity import CavityParams, coefficients
from spincavity import circuits, cli
from spincavity.cli import (
    ALL_OUTPUTS,
    ConfigError,
    SweepRange,
    SweepSpec,
    main,
    parse_qubit,
    run_sweep,
    write_csv,
)
from spincavity.metrics import closed_form_figures


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_operating_point(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--g", "2.4", "--kappa-s", "0.5")
        assert code == 0
        lines = dict(
            (line.split()[0], (float(line.split()[1]), float(line.split()[2])))
            for line in out.strip().splitlines()
        )
        assert abs(lines["t"][0] - (-20.0 / 2329.0)) < 1e-15
        assert lines["t"][1] == 0.0
        assert abs(lines["t0"][0] - (-0.8)) < 1e-15
        assert abs(lines["r0"][0] - 0.2) < 1e-15

    @pytest.mark.parametrize("flag", ["--g", "--gamma", "--delta-x"])
    def test_non_finite_parameter_rejected(self, capsys, flag):
        code, out, err = run_cli(capsys, "coeffs", flag, "nan")
        assert code == 1
        assert out == ""
        assert f"{flag[2:].replace('-', '_')} must be finite" in err

    def test_overflowing_coupling_names_g(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--g", "1e200")
        assert (code, out) == (1, "")
        assert err == "error: g = 1e+200 is too large: g ** 2 overflows\n"

    def test_detuned_coefficients_are_complex(self, capsys):
        code, out, _ = run_cli(
            capsys, "coeffs", "--g", "1.0", "--delta-c", "0.5", "--delta-x", "0.2"
        )
        assert code == 0
        t_line = out.strip().splitlines()[0].split()
        assert float(t_line[2]) != 0.0


class TestSimulate:
    def test_ideal_cnot_branches_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "cnot", "--control", "+", "--target", "+"
        )
        assert code == 0
        blocks = out.split("branch ")
        assert len(blocks) == 3
        body_u = "\n".join(blocks[1].splitlines()[1:])
        body_d = "\n".join(blocks[2].splitlines()[1:])
        assert body_u == body_d
        survival = float(
            [line for line in out.splitlines() if line.startswith("survival")][0].split()[1]
        )
        assert abs(survival - 1.0) < 1e-9

    def test_trace_blocks_printed(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "cnot", "--control", "R", "--target", "L", "--trace",
        )
        assert code == 0
        for name in ("omega_1", "omega_2", "omega_3", "omega_4"):
            assert f"trace {name}" in out

    def test_toffoli_needs_second_control(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "toffoli", "--control", "R", "--target", "R"
        )
        assert code == 1
        assert "control2" in err

    def test_realistic_mode_survival(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "cnot", "--control", "R", "--target", "R",
            "--mode", "realistic", "--g", "2.4", "--kappa-s", "0.5",
        )
        assert code == 0
        survival = float(
            [line for line in out.splitlines() if line.startswith("survival")][0].split()[1]
        )
        assert abs(survival - 0.68) < 1e-12

    def test_bad_qubit_token(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "cnot", "--control", "Q", "--target", "R"
        )
        assert code == 1
        assert "qubit" in err

    def test_unnormalized_amplitudes_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "cnot", "--control", "1:1", "--target", "R"
        )
        assert code == 1
        assert "qubit" in err

    @pytest.mark.parametrize("token", ["nan:1", "1:nan", "inf:1", "0.6:infj", "nan:nan"])
    def test_non_finite_amplitudes_rejected(self, capsys, token):
        code, out, err = run_cli(
            capsys, "simulate", "cnot", "--control", token, "--target", "R"
        )
        assert code == 1
        assert out == ""
        assert f"bad qubit token {token!r}" in err
        assert "must be finite" in err

    def test_overflowing_amplitude_names_the_token(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "cnot", "--control", "1e200:1", "--target", "R"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: bad qubit token '1e200:1': qubit weight inf is not 1 within 1e-9\n"
        )

    def test_overflowing_coupling_names_g(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "cnot", "--control", "+", "--target", "R",
            "--mode", "realistic", "--g", "1e200",
        )
        assert (code, out) == (1, "")
        assert err == "error: g = 1e+200 is too large: g ** 2 overflows\n"

    def test_negative_rate_rejected(self, capsys):
        code, _, err = run_cli(capsys, "coeffs", "--g", "-1")
        assert code == 1
        assert "error" in err

    def test_non_finite_rate_rejected(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "cnot", "--control", "+", "--target", "R",
            "--mode", "realistic", "--kappa-s", "nan",
        )
        assert code == 1
        assert out == ""
        assert "kappa_s must be finite" in err

    def test_toffoli_trace_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "toffoli",
            "--control", "R", "--control2", "L", "--target", "+", "--trace",
        )
        assert code == 0
        for index in range(1, 8):
            assert f"trace xi_{index}" in out

    @pytest.mark.parametrize("flag", ["--control", "--control2", "--target"])
    def test_dash_led_token_may_follow_its_flag(self, capsys, flag):
        others = [
            token
            for other, qubit in (("--control", "+"), ("--control2", "L"), ("--target", "R"))
            if other != flag
            for token in (other, qubit)
        ]
        joined = run_cli(capsys, "simulate", "toffoli", *others, f"{flag}=-0.6j:0.8")
        assert joined[0] == 0
        assert run_cli(capsys, "simulate", "toffoli", *others, flag, "-0.6j:0.8") == joined

    def test_dash_led_control_and_bare_minus(self, capsys):
        joined = run_cli(capsys, "simulate", "cnot", "--control=-1:0", "--target", "R")
        assert joined[0] == 0
        assert run_cli(capsys, "simulate", "cnot", "--control", "-1:0", "--target", "R") == joined
        minus = run_cli(capsys, "simulate", "cnot", "--control", "-", "--target", "R")
        assert minus[0] == 0
        assert run_cli(capsys, "simulate", "cnot", "--control", "minus", "--target", "R") == minus

    @pytest.mark.parametrize("flag,full", [
        ("--targ", "--target"), ("--ta", "--target"), ("--control", "--control"),
        ("--control2", "--control2"),
    ])
    def test_dash_led_token_may_follow_an_abbreviated_flag(self, capsys, flag, full):
        others = {"--control": "+", "--control2": "L", "--target": "R"}
        del others[full]
        argv = ["simulate", "toffoli", *(token for pair in others.items() for token in pair)]
        joined = run_cli(capsys, *argv, f"{full}=-1:0")
        assert joined[0] == 0
        assert run_cli(capsys, *argv, flag, "-1:0") == joined

    @pytest.mark.parametrize("flag,matches", [
        ("--t", "--target, --trace"), ("--contr", "--control, --control2"),
    ])
    def test_ambiguous_flag_before_a_dash_led_token(self, capsys, flag, matches):
        argv = ["simulate", "toffoli", "--control", "+", "--control2", "L", "--target", "R"]
        code, out, err = run_cli(capsys, *argv, flag, "-1:0")
        assert (code, out) == (1, "")
        assert err == f"error: ambiguous option: {flag} could match {matches}\n"

    def test_explicit_amplitudes(self):
        q = parse_qubit("0.6:0.8j")
        assert abs(q.alpha - 0.6) < 1e-12
        assert abs(q.beta - 0.8j) < 1e-12


@pytest.mark.parametrize("argv", [
    ["coeffs", "--g", "0", "--gamma", "0"],
    ["simulate", "cnot", "--control", "+", "--target", "R", "--mode", "realistic",
     "--g", "0", "--gamma", "0"],
])
def test_singular_cavity_names_g_and_gamma(capsys, argv):
    # A vanishing hot-cavity denominator is a parameter fault, as in sweep:
    # exit 1, one line naming the rates, nothing on stdout.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: g = 0.0 with gamma = 0.0: hot-cavity denominator magnitude 0.0 below 1e-15\n"


@pytest.mark.parametrize("argv,message", [
    (["simulate", "cnot", "--control", "bad", "--target", "R", "--mode", "realistic", "--g", "0", "--gamma", "0"],
     "error: bad qubit token 'bad' (use R, L, +, -, or alpha:beta)\n"),
    (["simulate", "toffoli", "--control", "+", "--target", "R", "--mode", "realistic", "--g", "0", "--gamma", "0"],
     "error: toffoli needs --control2\n"),
    (["simulate", "cnot", "--control", "bad", "--target", "R", "--mode", "realistic", "--g=-1", "--gamma", "0"],
     "error: rates g, kappa_s, gamma must be non-negative\n"),
])
def test_simulate_reports_a_rate_then_the_qubits_then_a_singular_cavity(capsys, argv, message):
    # The coefficients are worked out where the gate mode is built, after the
    # qubits are read; a bad rate is still reported before them.
    assert run_cli(capsys, *argv) == (1, "", message)


@pytest.mark.parametrize("argv,message", [
    (["simulate", "toffoli", "--control", "+", "--control2", "+", "--target", "+",
      "--mode", "realistic", "--g", "0", "--kappa-s", "2"],
     "error: g = 0.0 with kappa_s = 2.0: cannot measure a zero state\n"),
    (["sweep", "--g-min", "0", "--g-max", "0.5", "--g-steps", "2", "--ks-min", "1.5",
      "--ks-max", "2", "--ks-steps", "2", "--outputs", "sim_f_cnot,sim_eta_toffoli"],
     "error: g_over_kappa = 0.0 with kappa_s_over_kappa = 2.0: cannot measure a zero state\n"),
])
def test_zero_survival_names_g_and_kappa_s(capsys, tmp_path, argv, message):
    # At g = 0 with kappa_s = 2 all four magnitudes are 1/2 and the (+, +, +)
    # Toffoli keeps no amplitude: a parameter fault, exit 1, one line naming
    # the point, nothing on stdout or in --out.
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", message)
    if argv[0] == "sweep":
        path = tmp_path / "sweep.csv"
        assert run_cli(capsys, *argv, "--out", str(path))[0] == 1
        assert not path.exists()


class TestDashLedNumbers:
    """``--flag -1e3`` reads as ``--flag=-1e3`` wherever the flag takes a number."""

    @pytest.mark.parametrize("split,joined", [
        (["coeffs", "--delta-x", "-1e3"], ["coeffs", "--delta-x=-1e3"]),
        (["coeffs", "--delta-c", "-.5E1", "--delta-x", "-1e3"], ["coeffs", "--delta-c=-.5E1", "--delta-x=-1e3"]),
        (["coeffs", "--delta-x", "-inf"], ["coeffs", "--delta-x=-inf"]),
        (["coeffs", "--kap", "-1e-300"], ["coeffs", "--kap=-1e-300"]),
        (
            ["simulate", "cnot", "--control", "+", "--target", "R", "--mode", "realistic", "--g", "-2e0"],
            ["simulate", "cnot", "--control", "+", "--target", "R", "--mode", "realistic", "--g=-2e0"],
        ),
        (["sweep", "--g-steps", "-1e3"], ["sweep", "--g-steps=-1e3"]),
        (["sweep", "--g-min", "-1e-3"], ["sweep", "--g-min=-1e-3"]),
        (["decoherence", "--fidelity", "-1e-1"], ["decoherence", "--fidelity=-1e-1"]),
    ])
    def test_value_may_follow_its_flag(self, capsys, split, joined):
        assert run_cli(capsys, *split) == run_cli(capsys, *joined)

    def test_detuned_coefficients_from_a_separate_token(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--delta-x", "-1e3")
        assert (code, err) == (0, "")
        assert out.startswith("t -0.99996653552963 0.0057598055714271502\n")

    def test_negative_infinity_names_the_parameter(self, capsys):
        assert run_cli(capsys, "coeffs", "--delta-x", "-inf") == (
            1, "", "error: delta_x must be finite, got -inf\n"
        )

    def test_config_line(self, capsys, tmp_path):
        config = tmp_path / "detuned.cfg"
        config.write_text("delta_x = -1e3\ng = -2e0\n")
        assert run_cli(capsys, "coeffs", "--config", str(config)) == run_cli(
            capsys, "coeffs", "--delta-x=-1e3", "--g=-2e0"
        )
        config.write_text("delta_x = -1e3\n")
        assert run_cli(capsys, "coeffs", "--config", str(config))[0] == 0

    @pytest.mark.parametrize("argv", [
        ["coeffs", "--g", "--gamma", "0.2"],  # a flag, not a number
        ["coeffs", "--g", "-1:0"],  # a qubit token after a numeric flag
        ["sweep", "--outputs", "-1e3"],  # a number after a text flag
    ])
    def test_other_dash_led_tokens_stay_options(self, capsys, argv):
        assert run_cli(capsys, *argv) == (1, "", f"error: argument {argv[1]}: expected one argument\n")

    def test_ambiguous_prefix_left_to_argparse(self, capsys):
        assert run_cli(capsys, "coeffs", "--delta", "-1e3") == (
            1, "", "error: ambiguous option: --delta could match --delta-c, --delta-x\n"
        )


def one_parse_corpus(tmp_path: Path) -> list[list[str]]:
    """argv lists over every command and flag, abbreviations, config files, errors and help."""
    coeffs_config = tmp_path / "coeffs.cfg"
    coeffs_config.write_text("g = 1.5\ndelta_x = -1e3\n")
    sweep_config = tmp_path / "sweep.cfg"
    sweep_config.write_text("g_steps = 2\nks-steps = 3\noutputs = f_cnot,sim_eta_cnot\n")
    decoherence = ["--t2e", "2000", "--dt", "4", "--tau", "9", "--t2", "90"]
    return [
        # every command with defaults only, then with every flag
        ["coeffs"],
        ["simulate", "cnot", "--control", "+", "--target", "R"],
        ["truth-table", "cnot"],
        ["sweep"],
        ["decoherence"],
        ["coeffs", "--g", "1.2", "--kappa-s", "0.3", "--gamma", "0.2", "--delta-c", "0.1", "--delta-x", "-0.2"],
        [
            "simulate", "toffoli", "--control", "0.6:0.8j", "--control2", "-", "--target", "-0.8:0.6",
            "--mode", "realistic", "--trace", "--g", "2.4", "--kappa-s", "0.5", "--gamma", "0.2",
        ],
        ["truth-table", "toffoli"],
        [
            "sweep", "--g-min", "0.5", "--g-max", "2", "--g-steps", "2", "--ks-min", "0",
            "--ks-max", "0.5", "--ks-steps", "2", "--gamma", "0.2", "--outputs", ",".join(ALL_OUTPUTS),
            "--sim-convention", "pre-measurement", "--decohere", "spin,exciton-factor",
            "--format", "json", "--out", str(tmp_path / "sweep.json"), *decoherence,
        ],
        ["decoherence", *decoherence, "--fidelity", "0.9"],
        # abbreviated flags and config files
        ["coeffs", "--kap", "0.2", "--delta-x", "1e3", "--gam", "0.3"],
        ["simulate", "cnot", "--control", "+", "--targ", "-1:0", "--mo", "realistic", "--tr", "--kap", "0.1"],
        ["sweep", "--g-st", "2", "--ks-st", "2", "--form", "json"],
        ["coeffs", "--config", str(coeffs_config), "--gamma", "0.3"],
        ["sweep", "--config", str(sweep_config)],
        # no command, an unknown one, extra arguments, a missing flag, bad values
        [],
        ["bogus"],
        ["-x"],
        ["coeffs", "extra"],
        ["truth-table", "cnot", "extra", "--more"],
        ["simulate", "cnot", "--control", "+"],
        ["simulate", "cnot", "--control", "+", "--target", "R", "--mode"],
        ["simulate", "swap", "--control", "+", "--target", "R"],
        ["truth-table", "xor"],
        ["sweep", "--format", "xml"],
        ["coeffs", "--g", "abc"],
        ["sweep", "--g-steps", "2.5"],
        ["coeffs", "--delta", "1"],
        # help
        ["simulate", "-h"],
        ["-h"],
        ["sweep", "--he"],
        *DECLINED,
        # canonical, so read without argparse: joined values, a dash-led one, -0.0
        ["decoherence", "--fidelity", "-0.0", "--t2=90"],
        ["simulate", "toffoli", "--control=+", "--target", "-0.6j:0.8", "--control2", "L", "--g", "-0.0"],
    ]


#: One argv for each form the canonical parse leaves to argparse, besides
#: abbreviations, ``-h``, a missing flag, a bad choice and a value its type
#: rejects, which the corpus holds already.
DECLINED = [
    ["coeffs", "--help"],
    ["truth-table", "--", "cnot"],
    ["coeffs", "--g", "1.5", "--g", "2"],
    ["coeffs", "--bogus", "1"],
    ["simulate", "cnot", "--control", "+", "--target", "R", "--trace=x"],
    ["simulate", "--control", "+", "--target", "R"],
    ["simulate", "cnot", "--control", "-", "--target", "R"],
]


def run_parsed(monkeypatch, parse, argv, tmp_path):
    """``main(argv)`` with ``parse`` as its parser: exit, stdout, stderr, namespaces, file written."""
    namespaces = []

    def recording(tokens):
        namespace = parse(tokens)
        namespaces.append(vars(namespace))
        return namespace

    monkeypatch.setattr(cli, "_parse_args", recording)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # help
            code = ("exit", exc.code)
    written = tmp_path / "sweep.json"
    text = written.read_text(encoding="utf-8") if written.exists() else None
    written.unlink(missing_ok=True)
    return code, out.getvalue(), err.getvalue(), namespaces, text


def test_one_parse_matches_the_top_level_parse(monkeypatch, tmp_path):
    one_parse = cli._parse_args
    codes = []
    for argv in one_parse_corpus(tmp_path):
        once = run_parsed(monkeypatch, one_parse, argv, tmp_path)
        twice = run_parsed(monkeypatch, lambda tokens: cli.build_parser().parse_args(tokens), argv, tmp_path)
        assert once == twice, argv
        codes.append(once[0])
    assert codes.count(0) == 20 and codes.count(1) == 16 and codes.count(("exit", 0)) == 4


def test_canonical_parse_declines_what_argparse_must_read(tmp_path):
    corpus = one_parse_corpus(tmp_path)
    canonical = [argv for argv in corpus if cli._parse_canonical(cli._attach_dash_values(argv)) is not None]
    # Every command with defaults only or every flag in full, but for the
    # Toffoli whose --control2 is a lone "-", then the last two.
    assert canonical == [*corpus[:6], *corpus[7:10], *corpus[-2:]]
    assert not any(argv in canonical for argv in DECLINED)


def test_a_typed_string_default_is_left_to_argparse(monkeypatch):
    # argparse passes an unseen string default through the action's type, so
    # only an argv that gives the flag is read without it.
    outputs = cli.build_parser().commands["sweep"]._option_string_actions["--outputs"]
    monkeypatch.setattr(outputs, "type", str.upper)
    cli._canonical_forms.cache_clear()
    try:
        assert cli._parse_canonical(["sweep"]) is None
        assert cli.build_parser().parse_args(["sweep"]).outputs == ",".join(cli.CLOSED_FORM_OUTPUTS).upper()
        assert cli._parse_canonical(["sweep", "--outputs", "f_cnot"]).outputs == "F_CNOT"
    finally:
        cli._canonical_forms.cache_clear()


class TestTruthTable:
    @pytest.mark.parametrize("gate,rows", [("cnot", 4), ("toffoli", 8)])
    def test_all_pass(self, capsys, gate, rows):
        code, out, _ = run_cli(capsys, "truth-table", gate)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == rows + 1
        assert all("PASS" in line for line in lines[:-1])
        assert lines[-1] == "all PASS"

    def test_flip_row_present(self, capsys):
        _, out, _ = run_cli(capsys, "truth-table", "toffoli")
        assert "L L R -> L L L PASS" in out

    def test_wrong_output_fails(self, capsys, monkeypatch):
        # A CNOT whose control always leaves as R: the rows with an L control
        # fail, and the table ends on MISMATCH with the invariant exit code.
        monkeypatch.setattr(cli, "cnot", lambda control, target: circuits.cnot(circuits.QUBIT_R, target))
        code, out, err = run_cli(capsys, "truth-table", "cnot")
        assert (code, err) == (2, "")
        assert out == "R R -> R R PASS\nR L -> R L PASS\nL R -> L L FAIL\nL L -> L R FAIL\nMISMATCH\n"


class TestSweep:
    def test_small_grid_matches_closed_forms(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--g-min", "0", "--g-max", "2.4", "--g-steps", "2",
            "--ks-min", "0", "--ks-max", "0.5", "--ks-steps", "2",
            "--outputs", "f_cnot",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g_over_kappa,kappa_s_over_kappa,f_cnot"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        assert [(float(r[0]), float(r[1])) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (2.4, 0.0), (2.4, 0.5),
        ]
        # Zero coupling collapses hot onto cold coefficients, and the two
        # cold magnitudes always sum to one, so those rows read exactly 1/4.
        assert float(rows[0][2]) == 0.25
        assert float(rows[1][2]) == 0.25
        expected = closed_form_figures(
            coefficients(CavityParams(g=2.4, kappa_s=0.5, gamma=0.1))
        ).f_cnot
        assert float(rows[3][2]) == expected

    def test_round_trip_full_precision(self):
        spec = SweepSpec(
            g_over_kappa=SweepRange(0.3, 4.7, 3),
            kappa_s_over_kappa=SweepRange(0.1, 0.9, 3),
        )
        rows = list(run_sweep(spec))
        import io

        buffer = io.StringIO()
        write_csv(spec, rows, buffer)
        parsed = [line.split(",") for line in buffer.getvalue().strip().splitlines()[1:]]
        for (g, ks, values), cells in zip(rows, parsed):
            assert float(cells[0]) == g
            assert float(cells[1]) == ks
            for value, cell in zip(values, cells[2:]):
                assert float(cell) == value

    def test_deterministic_output(self, capsys):
        args = (
            "sweep", "--g-steps", "4", "--ks-steps", "4",
            "--outputs", "f_cnot,eta_toffoli",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--g-steps", "2", "--ks-steps", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert set(payload[0]) == {
            "g_over_kappa", "kappa_s_over_kappa",
            "f_cnot", "f_toffoli", "eta_cnot", "eta_toffoli",
        }

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--g-steps", "2", "--ks-steps", "2", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("g_over_kappa,")

    def test_empty_outputs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--outputs", "")
        assert code == 1
        assert "outputs" in err

    def test_unknown_output_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--outputs", "f_cnot,bogus")
        assert code == 1
        assert "bogus" in err

    def test_duplicate_output_rejected(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--outputs", "f_cnot,eta_cnot,f_cnot")
        assert (code, out) == (1, "")
        assert err == "error: outputs: duplicate output 'f_cnot'\n"

    def test_bad_range_names_the_field(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--g-steps", "1")
        assert code == 1
        assert "g_over_kappa.steps" in err
        code, _, err = run_cli(capsys, "sweep", "--ks-min", "0.5", "--ks-max", "0.2")
        assert code == 1
        assert "kappa_s_over_kappa" in err

    def test_singular_parameters_exit_config(self, capsys):
        # A singular point is a user parameter, not a broken invariant: one
        # error line naming the parameters, exit 1.
        code, _, err = run_cli(
            capsys,
            "sweep", "--g-min", "0", "--g-max", "1", "--g-steps", "2", "--gamma", "0",
        )
        assert code == 1
        assert err == (
            "error: g_over_kappa = 0.0 with gamma_over_kappa = 0.0: "
            "hot-cavity denominator magnitude 0.0 below 1e-15\n"
        )

    def test_singular_parameters_write_nothing(self, capsys, tmp_path):
        args = ("sweep", "--g-min", "0", "--g-max", "1", "--g-steps", "2", "--gamma", "0")
        code, out, _ = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 1
        assert not path.exists()
        path.write_text("kept\n")
        code, _, _ = run_cli(capsys, *args, "--out", str(path))
        assert code == 1
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("outputs", ["f_cnot", "f_cnot,sim_f_cnot,sim_eta_toffoli"])
    def test_non_finite_gamma_rejected(self, capsys, tmp_path, outputs):
        path = tmp_path / "sweep.csv"
        base = ("sweep", "--g-steps", "2", "--ks-steps", "2", "--gamma", "nan", "--outputs", outputs)
        code, out, err = run_cli(capsys, *base)
        assert (code, out) == (1, "")
        assert "gamma must be finite" in err
        code, _, _ = run_cli(capsys, *base, "--out", str(path))
        assert code == 1
        assert not path.exists()

    def test_simulation_outputs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--g-min", "2.4", "--g-max", "4.8", "--g-steps", "2",
            "--ks-min", "0", "--ks-max", "0.5", "--ks-steps", "2",
            "--outputs", "f_cnot,sim_f_cnot,sim_eta_cnot",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for row in rows:
            assert 0.0 <= float(row[3]) <= 1.0 + 1e-9
            assert 0.0 <= float(row[4]) <= 1.0 + 1e-9

    def test_decoherence_multiplier(self, capsys):
        base_args = (
            "sweep", "--g-min", "2.4", "--g-max", "4.8", "--g-steps", "2",
            "--ks-steps", "2", "--outputs", "f_cnot,eta_cnot",
        )
        _, plain, _ = run_cli(capsys, *base_args)
        _, damped, _ = run_cli(capsys, *base_args, "--decohere", "spin")
        from spincavity.metrics import DecoherenceParams, spin_decoherence_factor

        factor = spin_decoherence_factor(DecoherenceParams())
        for p_line, d_line in zip(plain.splitlines()[1:], damped.splitlines()[1:]):
            p_cells, d_cells = p_line.split(","), d_line.split(",")
            assert abs(float(d_cells[2]) - float(p_cells[2]) * factor) < 1e-15
            assert float(d_cells[3]) == float(p_cells[3])  # efficiency untouched

    def test_hundred_by_hundred_under_a_second(self):
        spec = SweepSpec(
            g_over_kappa=SweepRange(0.0, 5.0, 100),
            kappa_s_over_kappa=SweepRange(0.0, 1.0, 100),
        )
        start = time.perf_counter()
        rows = list(run_sweep(spec))
        elapsed = time.perf_counter() - start
        assert len(rows) == 10000
        assert elapsed < 1.0


class TestClosedStdout:
    """A reader that stops early (``| head -1``) ends the run quietly with exit 1."""

    @staticmethod
    def start(*argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        # Buffered stdout, as in a plain shell: output waits for the last flush.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        return subprocess.Popen(
            [sys.executable, "-m", "spincavity.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )

    def test_pipe_closed_after_one_line(self):
        # About 1.2 MB of CSV, far more than a pipe holds.
        process = self.start("sweep", "--g-steps", "100", "--ks-steps", "100")
        assert process.stdout.readline().startswith(b"g_over_kappa,")
        process.stdout.close()
        assert process.stderr.read() == b""
        assert process.wait(timeout=60) == 1

    def test_pipe_closed_before_any_output(self):
        # A few kilobytes, which sit in the stdout buffer until the last flush.
        process = self.start(
            "simulate", "toffoli", "--control", "+", "--control2", "+", "--target", "+",
            "--mode", "realistic", "--trace",
        )
        process.stdout.close()
        assert process.stderr.read() == b""
        assert process.wait(timeout=60) == 1


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("g_steps = 2\nks-steps = 2\noutputs = f_cnot\n")
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(config), "--outputs", "eta_cnot"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "g_over_kappa,kappa_s_over_kappa,eta_cnot"
        assert len(lines) == 5

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("bogus_flag = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--config", "/nonexistent.cfg")
        assert code == 1
        assert "config" in err


class TestDecoherenceReport:
    def test_default_report(self, capsys):
        code, out, _ = run_cli(capsys, "decoherence")
        assert code == 0
        wanted = {
            "spin_decoherence_factor",
            "exciton_dephasing_factor",
            "exciton_multiplier_amount_reading",
            "exciton_multiplier_factor_reading",
        }
        values = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in wanted:
                values[parts[0]] = float(parts[1])
        assert abs(values["spin_decoherence_factor"] - 0.99925) < 5e-6
        assert abs(values["exciton_dephasing_factor"] - 0.09516258196404048) < 1e-12
        assert "trion_density_matrix t=0" in out
        assert "trion_density_matrix t=tau" in out
        assert "trion_density_matrix t=t2" in out

    def test_non_finite_time_scale_rejected(self, capsys):
        code, out, err = run_cli(capsys, "decoherence", "--t2e", "inf")
        assert (code, out) == (1, "")
        assert "t2e must be finite" in err

    def test_zero_interval(self, capsys):
        _, out, _ = run_cli(capsys, "decoherence", "--dt", "0")
        line = [l for l in out.splitlines() if l.startswith("spin_")][0]
        assert float(line.split()[1]) == 1.0

    def test_nonpositive_time_scale_rejected(self, capsys):
        code, _, err = run_cli(capsys, "decoherence", "--t2e", "0")
        assert code == 1
        assert "error" in err

    def test_zero_lifetime_factor(self, capsys):
        _, out, _ = run_cli(capsys, "decoherence", "--tau", "1e-12")
        line = [l for l in out.splitlines() if l.startswith("exciton_dephasing")][0]
        assert float(line.split()[1]) < 1e-12

    def test_adjusted_fidelity(self, capsys):
        _, out, _ = run_cli(capsys, "decoherence", "--fidelity", "0.8")
        assert "adjusted_fidelity_amount_reading" in out
        assert "adjusted_fidelity_factor_reading" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "2", "1.0000000000000002", "-5e-324"])
    def test_fidelity_outside_the_unit_interval_rejected(self, capsys, value):
        # A fidelity is a probability: NaN, infinite or out-of-range values
        # used to print nan, inf, or adjusted readings below 0 or above 1.
        code, out, err = run_cli(capsys, "decoherence", "--fidelity", value)
        assert (code, out) == (1, "")
        assert err == f"error: fidelity must be within [0, 1], got {float(value)}\n"

    @pytest.mark.parametrize("value", ["0", "-0.0", "1"])
    def test_fidelity_at_the_interval_ends(self, capsys, value):
        code, out, _ = run_cli(capsys, "decoherence", "--fidelity", value)
        assert code == 0 and "adjusted_fidelity_factor_reading" in out


def test_spec_validation_directly():
    spec = SweepSpec(
        g_over_kappa=SweepRange(0.0, 5.0, 2),
        kappa_s_over_kappa=SweepRange(0.0, 1.0, 2),
        outputs=(),
    )
    with pytest.raises(ConfigError):
        spec.validate()


@pytest.mark.parametrize("g_steps,ks_steps", [(100_000_000_000, 50), (50, 10**7), (1001, 1000)])
def test_grid_over_a_million_points_rejected_before_any_is_built(g_steps, ks_steps):
    # validate() only: no point list is ever built, at any grid size.
    spec = SweepSpec(g_over_kappa=SweepRange(0.0, 5.0, g_steps), kappa_s_over_kappa=SweepRange(0.0, 1.0, ks_steps))
    with pytest.raises(ConfigError, match=rf"^g_over_kappa\.steps x kappa_s_over_kappa\.steps must be at most 1000000, got {g_steps} x {ks_steps}$"):
        spec.validate()


def test_grid_of_a_million_points_is_valid():
    SweepSpec(g_over_kappa=SweepRange(0.0, 5.0, 1000), kappa_s_over_kappa=SweepRange(0.0, 1.0, 1000)).validate()
